"""Request scheduling: static batches, policies, chunked prefill, preemption.

The **scheduling layer** of the three-layer serving architecture
(costs -> scheduling -> serving core).  Three pieces:

* :class:`StaticBatchScheduler` — the paper's §6.5 benchmark mode: all
  requests run together from prefill to the last token;
* a **policy hierarchy** (:class:`FCFSPolicy`, :class:`PriorityPolicy`,
  :class:`AgingPriorityPolicy`, :class:`SJFPolicy`) deciding admission
  order and preemption victims — aging is the anti-starvation variant:
  waiting time buys effective priority, so batch tenants cannot be
  parked forever behind sustained chat traffic;
* :class:`ContinuousBatchScheduler` — vLLM-style continuous batching with
  KV/batch admission limits, **chunked prefill** planning (prefill tokens
  co-scheduled with decode tokens under ``max_batched_tokens``) and
  **preempt-and-recompute** when the KV cache fills mid-decode (the evicted
  request re-prefills its whole accumulated context on re-admission).

Schedulers decide *what* runs each iteration; they never touch the clock.
The serving core (:mod:`repro.serving.serve`) prices the plans against a
cost model and advances time.

Invariants this layer guarantees (tested in ``tests/test_scheduler.py``):

* **head-of-line admission** — the waiting queue is ranked by the
  policy's ``waiting_key`` and admission stops at the first request that
  does not fit; smaller requests never skip past the policy's favourite.
* **preemption ordering** — victims are chosen strictly by the policy's
  ``victim_key`` (first in ``order_victims`` is evicted first), and the
  last running request is never preempted: ``ensure_decode_capacity``
  raises :class:`~repro.errors.CapacityError` instead of emptying the
  running set.
* **recompute debt** — a preempted request re-enters the waiting queue
  and, on re-admission, owes a prefill pass over its *whole* accumulated
  context (prompt + generated); previously-admitted requests are exempt
  from the admission token budget so they can always be re-admitted.
* **conservation** — a request leaves the scheduler only through
  ``finished``, with exactly ``max_new_tokens`` generated; KV blocks are
  freed on finish and on preemption, never leaked.
"""

from __future__ import annotations

import enum
from bisect import insort
from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    CapacityError,
    ConfigError,
    SchedulingError,
    UnknownSpecError,
)
from .kvcache import PagedKVCache


class RequestState(enum.Enum):
    """Lifecycle of a request."""

    WAITING = "waiting"
    RUNNING = "running"
    PREEMPTED = "preempted"
    FINISHED = "finished"


@dataclass(eq=False)
class Request:
    """One generation request.

    Identity semantics (``eq=False``): two requests are the same only if
    they are the same object — queue membership tests must not confuse
    distinct requests that happen to share field values.
    """

    request_id: int
    prompt_len: int
    max_new_tokens: int
    arrival_s: float = 0.0
    state: RequestState = RequestState.WAITING
    generated: int = 0
    first_token_s: float | None = None
    finish_s: float | None = None
    priority: int = 0
    tenant: str = "default"
    prefill_remaining: int = 0
    n_preemptions: int = 0
    #: Session this request belongs to (multi-turn traces); ``None``
    #: for single-turn requests.  Keys the prefix cache and session-
    #: affinity routing.
    session_id: int | None = None
    #: Leading prompt tokens shared with the session's previous turn —
    #: what a prefix cache could skip.  0 for first turns and
    #: single-turn requests.
    prefix_tokens: int = 0

    def __post_init__(self) -> None:
        if self.prompt_len <= 0:
            raise SchedulingError("prompt_len must be positive")
        if self.max_new_tokens <= 0:
            raise SchedulingError("max_new_tokens must be positive")

    @property
    def context_len(self) -> int:
        """Tokens currently in context (prompt + generated)."""
        return self.prompt_len + self.generated

    @property
    def remaining_tokens(self) -> int:
        """Output tokens still to generate (the SJF job-size signal)."""
        return self.max_new_tokens - self.generated

    @property
    def done(self) -> bool:
        return self.generated >= self.max_new_tokens


class StaticBatchScheduler:
    """All requests run together from prefill to the last token."""

    def __init__(self, requests: list[Request], kv: PagedKVCache):
        if not requests:
            raise SchedulingError("static batch needs at least one request")
        self.requests = requests
        self.kv = kv
        self._prefilled = False

    def prefill(self) -> list[Request]:
        """Admit the whole batch; allocate prompt KV for every request."""
        if self._prefilled:
            raise SchedulingError("batch already prefilled")
        for req in self.requests:
            self.kv.allocate(req.request_id, req.prompt_len)
            req.state = RequestState.RUNNING
        self._prefilled = True
        return self.requests

    def step(self) -> list[Request]:
        """One decode step: every unfinished request emits one token."""
        if not self._prefilled:
            raise SchedulingError("prefill before stepping")
        active = [r for r in self.requests if not r.done]
        for req in active:
            self.kv.append_token(req.request_id)
            req.generated += 1
            if req.done:
                req.state = RequestState.FINISHED
                self.kv.free(req.request_id)
        return active

    @property
    def finished(self) -> bool:
        return self._prefilled and all(r.done for r in self.requests)


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
class SchedulerPolicy:
    """Admission ordering + preemption-victim ordering.

    Subclasses override the two key functions; the scheduler keeps the
    head-of-line blocking discipline (no skips past a request the policy
    ranked first), so a policy is exactly an ordering.
    """

    name = "base"

    def waiting_key(self, req: Request):
        """Sort key over the waiting queue (first = admitted first)."""
        raise NotImplementedError

    def victim_key(self, req: Request):
        """Sort key over running requests (first = preempted first)."""
        raise NotImplementedError

    def order_waiting(self, waiting: list[Request]) -> list[Request]:
        """The waiting queue in admission order."""
        return sorted(waiting, key=self.waiting_key)

    def order_victims(self, running: list[Request]) -> list[Request]:
        """Running requests in preemption order."""
        return sorted(running, key=self.victim_key)

    @property
    def supports_incremental_order(self) -> bool:
        """Whether queues may be kept sorted by ``waiting_key`` insorts.

        True exactly when the policy's admission order *is* the key sort
        — i.e. :meth:`order_waiting` was not overridden.  Every built-in
        policy qualifies (their keys end in ``request_id``, a total
        order, so insorted insertion reproduces ``order_waiting``
        element-for-element); a subclass that overrides
        :meth:`order_waiting` to do something richer than a key sort
        falls back to whole-queue re-sorts automatically.
        """
        return type(self).order_waiting is SchedulerPolicy.order_waiting


class FCFSPolicy(SchedulerPolicy):
    """First come, first served; newest request is preempted first."""

    name = "fcfs"

    def waiting_key(self, req: Request):
        return (req.arrival_s, req.request_id)

    def victim_key(self, req: Request):
        return (-req.arrival_s, -req.request_id)


class PriorityPolicy(SchedulerPolicy):
    """Higher ``Request.priority`` wins; ties break FCFS.

    Preemption evicts the lowest-priority, youngest request first, so a
    burst of high-priority traffic reclaims KV from background tenants.
    """

    name = "priority"

    def waiting_key(self, req: Request):
        return (-req.priority, req.arrival_s, req.request_id)

    def victim_key(self, req: Request):
        return (req.priority, -req.arrival_s, -req.request_id)


class AgingPriorityPolicy(PriorityPolicy):
    """Priority with linear aging: waiting requests gain rank over time.

    Plain priority starves batch tenants under sustained chat load: a
    steady stream of priority-1 arrivals keeps every priority-0 request
    parked at the back of the queue indefinitely.  Aging fixes this with
    the classic waiting-time-weighted key: a request's *effective*
    priority at time ``t`` is ``priority + aging_rate * (t - arrival_s)``,
    so a batch request that has waited ``1 / aging_rate`` seconds ranks
    level with a fresh chat request one priority class above it.

    The key needs no clock: comparing two requests at the same instant,
    the ``aging_rate * t`` term is common and cancels, leaving
    ``priority - aging_rate * arrival_s`` — a static per-request key that
    still orders exactly like the time-dependent effective priority.
    (This is also why aging composes with the scheduler's sorted-queue
    caching: relative order never changes as time passes.)

    Preemption mirrors admission: the victim is the request whose
    effective priority is lowest *now*, ties to the youngest.
    """

    name = "priority_aging"

    #: Priority classes gained per second of waiting.  At 0.2/s a
    #: batch request overtakes a chat arrival (one class up) after 5 s
    #: of queueing; 0 degenerates to the plain priority policy.
    DEFAULT_AGING_RATE = 0.2

    def __init__(self, aging_rate: float | None = None):
        if aging_rate is None:
            aging_rate = self.DEFAULT_AGING_RATE
        if aging_rate < 0:
            raise SchedulingError("aging_rate must be >= 0")
        self.aging_rate = float(aging_rate)

    def _effective(self, req: Request) -> float:
        """Time-shifted effective priority (clock-free form)."""
        return req.priority - self.aging_rate * req.arrival_s

    def waiting_key(self, req: Request):
        return (-self._effective(req), req.arrival_s, req.request_id)

    def victim_key(self, req: Request):
        return (self._effective(req), -req.arrival_s, -req.request_id)


class SJFPolicy(SchedulerPolicy):
    """Shortest job first, by expected remaining service tokens.

    Minimises mean latency on heavy-tailed length mixes; preemption evicts
    the longest-remaining request first (it has the most left to lose
    anyway under recompute).
    """

    name = "sjf"

    def waiting_key(self, req: Request):
        return (
            req.prompt_len + req.remaining_tokens,
            req.arrival_s,
            req.request_id,
        )

    def victim_key(self, req: Request):
        return (-req.remaining_tokens, -req.arrival_s, -req.request_id)


POLICIES: dict[str, type[SchedulerPolicy]] = {
    cls.name: cls
    for cls in (FCFSPolicy, PriorityPolicy, AgingPriorityPolicy, SJFPolicy)
}


def get_policy(policy: str | SchedulerPolicy) -> SchedulerPolicy:
    """Resolve a policy by name (case-insensitive) or pass one through."""
    if isinstance(policy, SchedulerPolicy):
        return policy
    key = str(policy).lower()
    if key not in POLICIES:
        raise UnknownSpecError("scheduler policy", policy, list(POLICIES))
    return POLICIES[key]()


@dataclass(frozen=True)
class SchedulerLimits:
    """Admission limits (vLLM-style)."""

    max_num_seqs: int = 256
    max_batched_tokens: int = 8192

    def __post_init__(self) -> None:
        for name in ("max_num_seqs", "max_batched_tokens"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")


@dataclass
class StepPlan:
    """One iteration's work: prefill chunks co-scheduled with decode."""

    prefill: list[tuple[Request, int]] = field(default_factory=list)
    decode: list[Request] = field(default_factory=list)
    #: Sum of the decode set's context lengths (for the mean-ctx charge).
    decode_ctx_sum: int = 0

    @property
    def mean_decode_ctx(self) -> int:
        """Mean context of the decode set (0 when none decode)."""
        if not self.decode:
            return 0
        return int(self.decode_ctx_sum / len(self.decode))

    def drop(self, victims: list[Request]) -> None:
        """Remove preempted requests from the plan (rare path)."""
        gone = set(id(v) for v in victims)
        self.prefill = [
            (r, c) for r, c in self.prefill if id(r) not in gone
        ]
        self.decode = [r for r in self.decode if id(r) not in gone]
        self.decode_ctx_sum = sum(r.context_len for r in self.decode)

    @property
    def n_prefill_tokens(self) -> int:
        """Prompt tokens processed this step."""
        return sum(chunk for _, chunk in self.prefill)

    @property
    def n_prefill_seqs(self) -> int:
        """Sequences receiving a prefill chunk this step."""
        return len(self.prefill)

    @property
    def n_decode_tokens(self) -> int:
        """Decode tokens (one per decoding sequence) this step."""
        return len(self.decode)

    @property
    def n_batched_tokens(self) -> int:
        """Total batched tokens (the ``max_batched_tokens`` consumption)."""
        return self.n_prefill_tokens + self.n_decode_tokens

    @property
    def empty(self) -> bool:
        return not self.prefill and not self.decode


class DecodeWindowState:
    """Array-of-struct view of a stable decode batch (fast-forward windows).

    The serving cores' widened fast-forward advances one stable decode
    set through many bucketed segments inside a single stage advance;
    re-walking ``Request`` attributes and the KV allocator's
    per-sequence dicts between segments would put python attribute
    lookups back on the hot path the windows exist to avoid.  This holds
    the two per-request fields the window math needs — context length
    and remaining output tokens — as parallel numpy arrays, built once
    per window and advanced in O(1) vectorized ops.  Timestamps stay on
    the ``Request`` objects: only a window's final segment can finish
    requests, and ``commit_decode_window`` stamps them scalar-side
    there.

    KV-growth checks run off the ``ctx`` array alone, relying on a
    scheduler invariant: a decode-phase request's KV sequence holds
    exactly ``context_len`` tokens (admission allocates the whole
    restart context; every decode step appends one token and increments
    ``generated`` together).
    """

    __slots__ = ("ctx", "remaining")

    def __init__(self, decode: list[Request]):
        n = len(decode)
        self.ctx = np.fromiter(
            (r.context_len for r in decode), dtype=np.int64, count=n
        )
        self.remaining = np.fromiter(
            (r.remaining_tokens for r in decode), dtype=np.int64, count=n
        )

    def advance(self, k: int) -> None:
        """Account ``k`` committed decode steps for every request."""
        self.ctx += k
        self.remaining -= k

    def min_remaining(self) -> int:
        """Steps until the first request finishes."""
        return int(self.remaining.min())

    def blocks_to_grow(self, k: int, block_size: int) -> int:
        """New KV blocks the whole batch needs to append ``k`` tokens each.

        Vectorized twin of summing ``PagedKVCache.blocks_needed(id, k)``
        over the batch (same ceil arithmetic, batched).
        """
        have = (self.ctx + (block_size - 1)) // block_size
        need = (self.ctx + (k + block_size - 1)) // block_size
        return int((need - have).sum())


class ContinuousBatchScheduler:
    """Continuous batching under KV and batch limits, policy-ordered."""

    def __init__(
        self,
        kv: PagedKVCache,
        limits: SchedulerLimits | None = None,
        policy: str | SchedulerPolicy = "fcfs",
        prefix_cache=None,
    ):
        self.kv = kv
        self.limits = limits or SchedulerLimits()
        self.policy = get_policy(policy)
        #: Optional :class:`~repro.serving.prefixcache.PrefixCache`.
        #: With one set, admission skips the cached leading tokens of a
        #: session request's prompt (``prefill_remaining`` starts at the
        #: first uncached token) and finished/released requests
        #: repopulate the cache.  ``None`` (default) leaves every code
        #: path bit-identical to the cache-less scheduler.
        self.prefix_cache = prefix_cache
        self._cache_delay_s = 0.0
        self.waiting: list[Request] = []
        self.running: list[Request] = []
        self.finished: list[Request] = []
        self.n_preemptions = 0
        #: Optional :class:`~repro.serving.telemetry.TraceRecorder`.
        #: The owning stage attaches it and keeps ``_now`` / ``track``
        #: fresh so scheduler-internal events (admit, prefill chunk,
        #: finish, preempt) can be stamped with sim time; every use is
        #: guarded by ``is None``, so the default costs nothing.
        self.telemetry = None
        self._now = 0.0
        self.track = "engine"
        self._waiting_dirty = False
        #: Built-in policies admit in ``waiting_key`` order, so the
        #: waiting queue can be kept sorted by O(log n) insorts instead
        #: of a whole-queue re-sort per admission round (the profiled
        #: hot spot on large traces, where the queue backs up to
        #: thousands).  Policies overriding ``order_waiting`` keep the
        #: legacy dirty-flag re-sort.
        self._incremental = self.policy.supports_incremental_order

    def _enqueue_waiting(self, request: Request) -> None:
        """Add to the waiting queue, preserving admission order.

        While the incremental invariant holds (``_waiting_dirty`` is
        False) the queue is already in ``waiting_key`` order and an
        insort keeps it there — identical to the ``sorted()`` result
        because every built-in key ends in ``request_id``, making keys
        unique.  Otherwise append and let :meth:`admit` re-sort.
        """
        if self._incremental and not self._waiting_dirty:
            insort(self.waiting, request, key=self.policy.waiting_key)
        else:
            self.waiting.append(request)
            self._waiting_dirty = True

    def waiting_head(self) -> Request:
        """The request the policy would admit next (queue must be non-empty)."""
        if not self._incremental:
            # A custom order_waiting may consult external state; always
            # ask it fresh rather than trusting a cached sort.
            return self.policy.order_waiting(self.waiting)[0]
        if self._waiting_dirty:
            self.waiting = self.policy.order_waiting(self.waiting)
            self._waiting_dirty = False
        return self.waiting[0]

    def submit(self, request: Request) -> None:
        """Queue a new request."""
        if request.state is not RequestState.WAITING:
            raise SchedulingError(
                f"request {request.request_id} is {request.state}"
            )
        self._enqueue_waiting(request)

    def admit(
        self,
        enforce_token_budget: bool = True,
        max_requests: int | None = None,
    ) -> list[Request]:
        """Admit waiting requests while capacity allows (no queue skips).

        The waiting queue is ranked by the policy; admission stops at the
        first request that does not fit (head-of-line blocking), so the
        policy's favourite is never starved by smaller requests behind it.
        A (re-)admitted request owes a prefill pass over its whole
        accumulated context — ``prompt_len`` for fresh requests, plus the
        already-generated tokens after a recompute preemption.

        ``enforce_token_budget`` caps one admission round's prompt tokens at
        ``max_batched_tokens`` (group-prefill mode, where the whole group
        prefills in a single pass).  Chunked prefill passes ``False``: the
        step planner spreads any prompt across iterations, so a prompt
        larger than the step budget must not block the queue forever.
        Previously-preempted requests are exempt from the budget check even
        in group mode — their accumulated context can legitimately exceed
        it, and a request that was admitted once must stay re-admittable
        or it (and everything queued behind it) is silently stranded.

        ``max_requests`` caps the round's admissions (``None`` = no cap);
        a caller that re-evaluates an external gate between admissions —
        the backpressure-aware chunked prefill pool — admits one request
        at a time with it.
        """
        if self._waiting_dirty:
            self.waiting = self.policy.order_waiting(self.waiting)
            self._waiting_dirty = False
        admitted = []
        budget = self.limits.max_batched_tokens
        while self.waiting:
            if max_requests is not None and len(admitted) >= max_requests:
                break
            head = self.waiting[0]
            restart_len = head.context_len
            if len(self.running) >= self.limits.max_num_seqs:
                break
            if (
                enforce_token_budget
                and head.n_preemptions == 0
                and restart_len > budget
            ):
                break
            # Reserve context KV plus one decode block of headroom.
            if not self.kv.can_allocate(None, restart_len + 1):
                break
            self.waiting.pop(0)
            self.kv.allocate(head.request_id, restart_len)
            head.state = RequestState.RUNNING
            head.prefill_remaining = restart_len
            cache = self.prefix_cache
            hit, delay_s = 0, 0.0
            if (
                cache is not None
                and head.n_preemptions == 0
                and head.session_id is not None
                and head.prefix_tokens > 0
            ):
                # Skip the cached leading tokens: prefill starts at the
                # first uncached token.  At least one token always
                # prefills (the first-token stamp needs a chunk), and
                # re-admissions after preemption recompute everything —
                # their KV was freed, the cache entry may be stale.
                if self.telemetry is not None:
                    cache.now = self._now
                hit, delay_s = cache.lookup(
                    head.session_id,
                    min(head.prefix_tokens, restart_len - 1),
                )
                head.prefill_remaining = restart_len - hit
                self._cache_delay_s += delay_s
            if enforce_token_budget:
                budget -= restart_len
            self.running.append(head)
            admitted.append(head)
            if self.telemetry is not None:
                self.telemetry.on_admit(
                    head, self._now, self.track, hit, delay_s
                )
        return admitted

    # ------------------------------------------------------------------
    # Chunked prefill
    # ------------------------------------------------------------------
    def plan_step(self, max_batched_tokens: int | None = None) -> StepPlan:
        """Co-schedule decode tokens and prefill chunks for one iteration.

        Decode is prioritised (each decoding sequence takes one token of
        budget); leftover budget is handed to still-prefilling sequences in
        admission order, each receiving a chunk of at most its remaining
        prompt.  This replaces the whole-group ``max(prompt_len)`` prefill
        charge with vLLM-style token-level co-scheduling.
        """
        budget = (
            max_batched_tokens
            if max_batched_tokens is not None
            else self.limits.max_batched_tokens
        )
        decode: list[Request] = []
        ctx_sum = 0
        for req in self.running:
            if req.prefill_remaining == 0 and len(decode) < budget:
                decode.append(req)
                ctx_sum += req.context_len
        budget -= len(decode)
        prefill: list[tuple[Request, int]] = []
        for req in self.running:
            if budget <= 0:
                break
            if req.prefill_remaining <= 0:
                continue
            chunk = min(req.prefill_remaining, budget)
            prefill.append((req, chunk))
            budget -= chunk
        return StepPlan(prefill=prefill, decode=decode, decode_ctx_sum=ctx_sum)

    def apply_step(self, plan: StepPlan, clock: float) -> list[Request]:
        """Commit one planned iteration at post-step time ``clock``.

        Prefill chunks advance ``prefill_remaining``; a sequence whose
        prefill completes this step produced its first token (TTFT stamp).
        Decoding sequences append one token each and finish when done.
        Returns the requests that finished this step.
        """
        tel = self.telemetry
        if tel is not None:
            self._now = clock
        for req, chunk in plan.prefill:
            if chunk <= 0 or chunk > req.prefill_remaining:
                raise SchedulingError(
                    f"bad prefill chunk {chunk} for request"
                    f" {req.request_id}"
                )
            req.prefill_remaining -= chunk
            if req.prefill_remaining == 0 and req.first_token_s is None:
                req.first_token_s = clock
            if tel is not None:
                tel.on_prefill_chunk(req, clock, self.track, chunk)
        self.kv.append_decode([req.request_id for req in plan.decode])
        done = []
        for req in plan.decode:
            req.generated += 1
            if req.done:
                req.state = RequestState.FINISHED
                req.finish_s = clock
                self._store_prefix(req)
                self.kv.free(req.request_id)
                self.running.remove(req)
                self.finished.append(req)
                done.append(req)
                if tel is not None:
                    tel.on_finish(req, clock, self.track)
        return done

    # ------------------------------------------------------------------
    # Prefix cache hooks
    # ------------------------------------------------------------------
    def _store_prefix(self, req: Request) -> None:
        """Repopulate the prefix cache with a request's final context.

        The next turn of the session shares exactly this context —
        prompt plus everything generated — as its prompt prefix.
        """
        if self.prefix_cache is not None and req.session_id is not None:
            if self.telemetry is not None:
                self.prefix_cache.now = self._now
            self.prefix_cache.store(req.session_id, req.context_len)

    def consume_cache_delay(self) -> float:
        """Drain the decompress delay accrued by cold-tier cache hits.

        The serving stage charges it to the clock alongside the step
        that admitted the hitting requests; reading resets to zero.
        """
        delay_s = self._cache_delay_s
        self._cache_delay_s = 0.0
        return delay_s

    # ------------------------------------------------------------------
    # Hand-off (disaggregated pipelines)
    # ------------------------------------------------------------------
    def release(self, req: Request) -> Request:
        """Hand a running request off this engine without finishing it.

        Frees its KV blocks and removes it from the running set; the
        request re-enters ``WAITING`` so a downstream pool's scheduler
        can :meth:`submit` it (the chunked prefill pool releases each
        request the moment its last prompt chunk completes and its KV
        ships over the transfer link).  Unlike :meth:`preempt` this is
        not a failure path: no recompute debt is assigned and
        ``n_preemptions`` does not move.
        """
        if req not in self.running:
            raise SchedulingError(
                f"request {req.request_id} is not running"
            )
        self._store_prefix(req)
        self.kv.free(req.request_id)
        self.running.remove(req)
        req.state = RequestState.WAITING
        return req

    # ------------------------------------------------------------------
    # Preemption
    # ------------------------------------------------------------------
    def preempt(self, req: Request) -> None:
        """Evict a running request (recompute-style).

        Its KV blocks are freed and it rejoins the waiting queue; on
        re-admission it re-prefills prompt + already-generated tokens
        (vLLM's recompute preemption, the §6.5 mechanism by which freed KV
        memory buys throughput).
        """
        if req not in self.running:
            raise SchedulingError(
                f"request {req.request_id} is not running"
            )
        self.kv.free(req.request_id)
        self.running.remove(req)
        req.state = RequestState.PREEMPTED
        req.prefill_remaining = 0
        req.n_preemptions += 1
        self.n_preemptions += 1
        self._enqueue_waiting(req)
        if self.telemetry is not None:
            self.telemetry.on_preempt(req, self._now, self.track)

    def ensure_decode_capacity(self, decode: list[Request]) -> list[Request]:
        """Preempt until every request in ``decode`` can append one token.

        Victims are chosen by the policy, never from requests that already
        cannot be preempted without emptying the running set.  Returns the
        preempted requests; ``decode`` is pruned in place as victims fall
        out of it.
        """
        preempted: list[Request] = []
        while True:
            # Each sequence needs at most one new block per token, so a
            # free-block count covering the whole set settles it without
            # the per-sequence walk.
            if self.kv.free_blocks >= len(decode):
                return preempted
            needed = sum(
                self.kv.blocks_needed(r.request_id, 1) for r in decode
            )
            if needed <= self.kv.free_blocks:
                return preempted
            if len(self.running) <= 1:
                raise CapacityError(
                    "KV cache cannot grow the last running request"
                )
            victim = self.policy.order_victims(self.running)[0]
            self.preempt(victim)
            if victim in decode:
                decode.remove(victim)
            preempted.append(victim)

    # ------------------------------------------------------------------
    # Legacy single-token stepping (group-prefill mode, seed behaviour)
    # ------------------------------------------------------------------
    def step(self) -> list[Request]:
        """One decode step over the running set."""
        stepped = []
        for req in list(self.running):
            self.kv.append_token(req.request_id)
            req.generated += 1
            stepped.append(req)
            if req.done:
                req.state = RequestState.FINISHED
                self._store_prefix(req)
                self.kv.free(req.request_id)
                self.running.remove(req)
                self.finished.append(req)
        return stepped

    @property
    def has_work(self) -> bool:
        return bool(self.waiting or self.running)

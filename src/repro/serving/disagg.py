"""Disaggregated prefill/decode serving on the shared event kernel.

Colocated serving (:class:`~repro.serving.serve.ServingCore`) time-shares
one engine between prefill and decode, so long prompts inflate decode
latency (chunking only softens this).  Production stacks increasingly
*disaggregate*: a **prefill pool** runs prompt processing, a **decode
pool** runs continuous-batching decode, and each finished prefill ships
its KV cache across an interconnect.  That hand-off is where lossless KV
compression pays a second dividend — the SplitZip observation — because
the wire bytes shrink by the same Vector-TBE ratio that shrinks HBM
residency (:mod:`repro.extensions.kvcomp`).

:class:`DisaggregatedCore` models the whole path as three pluggable
stages on one :class:`~repro.serving.kernel.EventKernel`:

1. **prefill pool** (:class:`PrefillPoolStage`, or
   :class:`ChunkedPrefillPoolStage` with
   ``DisaggConfig(prefill_mode="chunked")``) — ``prefill_replicas``
   engines pulling from one policy-ordered queue.  Group mode runs one
   whole-prompt pass per request (prefill saturates compute; batching
   buys nothing in this regime); chunked mode co-schedules prompt chunks
   across concurrent requests on each replica via
   :meth:`~repro.serving.scheduler.ContinuousBatchScheduler.plan_step`,
   so one giant prompt no longer serializes a replica.  The first token
   is produced here, so TTFT is independent of the link.
2. **transfer link** (:class:`TransferLinkStage`) — a serial FIFO
   channel (``link_topology="shared"``) or one dedicated channel per
   decode replica (``"per_replica"``).  Each transfer carries
   ``prompt_len * raw_bytes_per_token / ratio`` bytes (the sender
   re-encodes the raw KV with the wire codec, whatever codec the cache
   is resident in) and costs ``bytes / bandwidth + latency``; queueing
   behind earlier transfers is accounted separately so a saturated link
   is visible as queue delay, not just wire time.
   ``DisaggConfig.overlap_fraction`` hides that fraction of the
   serialization time under the tail of the producing prefill
   (layer-wise overlap, modelled analytically).
3. **decode pool** (:class:`DecodePoolStage`) — ``decode_replicas``
   engines, each with its own full KV cache and
   :class:`~repro.serving.scheduler.ContinuousBatchScheduler`.
   Requests are released to their replica when their KV lands; they
   enter decode with ``prefill_remaining = 0`` (the KV came over the
   wire).  A request preempted *on the decode replica* recomputes there
   — recompute cannot be outsourced back to the prefill pool.

With ``DisaggConfig.backpressure`` set, capacity pressure propagates
*backwards*: the prefill stage stalls admission while the decode pool's
projected free KV or the link queue depth crosses the configured
watermark, and the kernel wakes it the instant a downstream event clears
the condition.  The feedback-free default (backpressure ``None``, shared
link, group prefill, exact costs) reproduces the old stage-by-stage
sequential simulation bit-exactly — the stages perform the same float
operations in the same order, the kernel only interleaves them
(``tests/test_kernel.py`` pins this against recorded PR 3 floats).

Conservation invariants (tested in ``tests/test_disagg.py`` and
``tests/test_kernel.py``): every submitted request is prefilled exactly
once, transferred exactly once, and decoded to completion — also while
backpressure is actively stalling admission; wire bytes equal KV size
divided by the codec ratio; an infinite, zero-latency link makes every
transfer free.  A request whose KV can never fit its decode replica (or
whose footprint can never satisfy the backpressure watermark) raises
:class:`~repro.errors.CapacityError` instead of being silently dropped.
"""

from __future__ import annotations

import heapq

from ..compression import resolve_spec
from ..errors import CapacityError, ConfigError, SchedulingError
from ..utils import ceil_div
from .costs import StepCostModel, maybe_memoize
from .kernel import Stage
from .kvcache import KVCacheSpec, PagedKVCache
from .metrics import (
    ContinuousResult,
    PoolStats,
    ReplicaStats,
    TransferRecord,
    TransferStats,
)
from .prefixcache import PrefixCacheStats
from .scheduler import ContinuousBatchScheduler, Request, get_policy
from .serve import (
    ReplicaEngine,
    ServingConfig,
    _raise_stranded,
    build_prefix_cache,
    merged_cache_stats,
    run_topology,
)
from .telemetry import build_recorder

__all__ = [
    "DisaggregatedCore",
    "PrefillPoolStage",
    "ChunkedPrefillPoolStage",
    "TransferLinkStage",
    "DecodePoolStage",
    "resolve_transfer_ratio",
]


def resolve_transfer_ratio(config: ServingConfig) -> float:
    """The wire compression ratio implied by the transfer codec.

    An explicit ``transfer_ratio`` wins; otherwise the codec named by
    ``config.resolved_transfer_codec`` (the ``ServingConfig`` slot, with
    ``DisaggConfig.transfer_codec`` as fallback) resolves through the
    compression registry's wire estimator — **measured** when the
    config carries a calibration profile (``config.calibration``) or
    one is installed process-wide, analytic otherwise: 1.0 for
    ``"none"``, the activation ratio for ``"kvcomp"``/``vector_tbe``,
    the entropy-coded split-plane ratio for the baseline codecs.  This
    is the value :class:`TransferLinkStage` prices every wire byte off.
    """
    if config.disagg.transfer_ratio is not None:
        return float(config.disagg.transfer_ratio)
    name = config.resolved_transfer_codec
    if name == "auto":
        raise ConfigError(
            "transfer_codec='auto' must be resolved through"
            " InferenceEngine.serve (codec policy selection needs the"
            " model/GPU pair); pass the selected codec name here"
        )
    return resolve_spec(name, "wire", profile=config.calibration).ratio


# ----------------------------------------------------------------------
# Stage 1: the prefill pool
# ----------------------------------------------------------------------
class _BackpressureGate:
    """The decode→prefill admission gate shared by both pool flavours.

    Evaluates the configured watermarks against live downstream state
    and owns the stall bookkeeping (observational only — recording the
    first-stall instant never changes a scheduling decision, so calling
    :meth:`stalled` from a stage's ``next_event_time`` keeps that
    method effectively pure).
    """

    def __init__(
        self,
        backpressure,
        link: "TransferLinkStage",
        decode_pool: "DecodePoolStage",
    ):
        self.backpressure = backpressure
        self.link = link
        self.decode_pool = decode_pool
        self.stall_s = 0.0
        self._stall_since: float | None = None
        #: Optional :class:`~repro.serving.telemetry.TraceRecorder` plus
        #: the track stall events land on; the owning stage attaches
        #: both (and the fleet layer re-points ``track`` after renaming
        #: its stages).
        self.recorder = None
        self.track = "prefill"

    def stalled(self, head: Request, t: float) -> bool:
        """Whether admitting ``head`` at time ``t`` must wait."""
        bp = self.backpressure
        if bp is None:
            return False
        over = (
            bp.max_link_queue is not None
            and self.link.queue_depth >= bp.max_link_queue
        ) or (
            bp.min_free_kv_frac > 0.0
            and self.decode_pool.projected_free_frac(
                self.decode_pool.blocks_for(head)
            ) < bp.min_free_kv_frac
        )
        if over and self._stall_since is None:
            self._stall_since = t
            if self.recorder is not None:
                self.recorder.on_stall(t, self.track)
        return over

    def resumed(self, now: float) -> bool:
        """Credit a cleared stall (call when an admission succeeds)."""
        if self._stall_since is None:
            return False
        self.stall_s += max(0.0, now - self._stall_since)
        self._stall_since = None
        if self.recorder is not None:
            self.recorder.on_stall_clear(now, self.track)
        return True

    def raise_stranded(self, stranded_ids) -> None:
        """Fail loudly for requests that were never prefilled."""
        hint = (
            " (backpressure watermark can never clear for them)"
            if self.backpressure is not None else ""
        )
        raise CapacityError(
            f"requests {sorted(stranded_ids)} were never prefilled{hint}"
        )


class PrefillPoolStage(Stage):
    """Whole-prompt prefill pool: one policy-ordered queue, N replicas.

    Each prefill-start decision replays the sequential pool's arithmetic
    exactly — pop the earliest-free replica, absorb due arrivals, pick
    the policy head, start at ``max(replica_free, arrival)`` — but as
    kernel events, so a backpressure watermark can gate the *next* start
    without touching any timestamp of the starts that do happen.  A
    replica freed by a short job can be popped with a clock behind
    requests another replica's jump already queued; prefill must still
    not start before the request arrives.

    Finished prefills are delivered to the transfer link at their
    completion instant (the in-flight heap), never earlier, which is
    what keeps the link's queue depth an honest backpressure signal.
    """

    name = "prefill"

    def __init__(
        self,
        requests: list[Request],
        costs: StepCostModel,
        config: ServingConfig,
        link: "TransferLinkStage",
        decode_pool: "DecodePoolStage",
        recorder=None,
        name: str | None = None,
    ):
        if name is not None:
            self.name = name
        disagg = config.disagg
        self.costs = costs
        self.policy = get_policy(config.policy)
        self.backpressure = disagg.backpressure
        self.link = link
        self.decode_pool = decode_pool
        self.gate = _BackpressureGate(disagg.backpressure, link, decode_pool)
        self._rec = recorder
        if recorder is not None:
            self.gate.recorder = recorder
            self.gate.track = self.name
        n = disagg.prefill_replicas
        self._free: list[tuple[float, int]] = [(0.0, i) for i in range(n)]
        heapq.heapify(self._free)
        self.busy = [0.0] * n
        self.pending = sorted(
            requests, key=lambda r: (r.arrival_s, r.request_id)
        )
        self.waiting: list[Request] = []
        #: (done_s, request_id, request) — prefills on a replica now.
        self._inflight: list[tuple[float, int, Request]] = []
        self.n_prefills = 0
        #: Starts may never predate the instant a stall cleared.
        self._floor = 0.0
        self._head_cache: tuple[tuple[float, int, int], Request] | None = (
            None
        )

    # ------------------------------------------------------------------
    def _next_start_time(self) -> float | None:
        """When the next prefill-start decision is due (gate ignored)."""
        if not (self.pending or self.waiting):
            return None
        free_t, _ = self._free[0]
        if self.waiting or self.pending[0].arrival_s <= free_t:
            return free_t
        return self.pending[0].arrival_s

    def _peek_head(self, t: float) -> Request:
        """The request the policy would start at decision time ``t``.

        The backpressure gate consults this on every kernel poll; the
        candidate set only changes when a start mutates the queues
        (which always moves a queue length), so the policy sort is
        cached on ``(t, len(waiting), len(pending))``.
        """
        key = (t, len(self.waiting), len(self.pending))
        if self._head_cache is not None and self._head_cache[0] == key:
            return self._head_cache[1]
        candidates = self.waiting + [
            r for r in self.pending if r.arrival_s <= t
        ]
        head = self.policy.order_waiting(candidates)[0]
        self._head_cache = (key, head)
        return head

    # ------------------------------------------------------------------
    def next_event_time(self) -> float | None:
        t_done = self._inflight[0][0] if self._inflight else None
        t_start = self._next_start_time()
        if (
            self.backpressure is not None
            and t_start is not None
            and self.gate.stalled(self._peek_head(t_start), t_start)
        ):
            t_start = None
        if t_done is None:
            return t_start
        if t_start is None:
            return t_done
        return min(t_done, t_start)

    def advance(self, now: float) -> None:
        # Deliver completed prefills to the link first: a hand-off due
        # at `now` must be visible to the link within this instant.
        while self._inflight and self._inflight[0][0] <= now:
            done, _, req = heapq.heappop(self._inflight)
            self.link.enqueue(done, req)
        # Then make every start decision due at `now`.
        while True:
            t = self._next_start_time()
            if t is None or t > now:
                return
            if self.backpressure is not None and self.gate.stalled(
                self._peek_head(t), t
            ):
                return
            self._start_one(now)

    def _start_one(self, now: float) -> None:
        """One prefill start: the sequential pool's loop body, verbatim."""
        now_r, idx = heapq.heappop(self._free)
        while self.pending and self.pending[0].arrival_s <= now_r:
            self.waiting.append(self.pending.pop(0))
        if not self.waiting:
            now_r = max(now_r, self.pending[0].arrival_s)
            while self.pending and self.pending[0].arrival_s <= now_r:
                self.waiting.append(self.pending.pop(0))
        req = self.policy.order_waiting(self.waiting)[0]
        self.waiting.remove(req)
        start = max(now_r, req.arrival_s)
        if self.gate.resumed(now):
            # The stall cleared at `now`; forbid this (and any later)
            # start from predating it.
            self._floor = max(self._floor, now)
        if self._floor > start:
            start = self._floor
        duration = self.costs.prefill_step(1, req.prompt_len).total_s
        done = start + duration
        self.busy[idx] += duration
        self.n_prefills += 1
        # The prefill engine emits the first token; TTFT never waits on
        # the link.
        if req.first_token_s is None:
            req.first_token_s = done
        rec = self._rec
        if rec is not None:
            rec.transition(req, start, "prefill")
            rec.span(start, duration, "prefill", f"{self.name}/r{idx}",
                     args={"tokens": req.prompt_len})
        heapq.heappush(self._inflight, (done, req.request_id, req))
        self.decode_pool.commit_blocks(req)
        heapq.heappush(self._free, (done, idx))

    @property
    def stall_s(self) -> float:
        return self.gate.stall_s

    def finish(self) -> None:
        if self.pending or self.waiting:
            self.gate.raise_stranded(
                r.request_id for r in self.pending + self.waiting
            )


class ChunkedPrefillPoolStage(Stage):
    """Chunked prefill pool: each replica co-schedules prompt chunks.

    Selected by ``DisaggConfig(prefill_mode="chunked")``.  Arrivals are
    dispatched to the replica with the fewest outstanding prompt tokens
    (ties to the lowest index); each replica is a
    :class:`~repro.serving.serve.ReplicaEngine` running the colocated
    chunked planner in prefill-only form — decode never happens here, a
    request is :meth:`~repro.serving.scheduler.ContinuousBatchScheduler.release`-d
    to the transfer link the instant its last chunk completes (which is
    also its TTFT stamp).  Unlike the group pool, chunked replicas hold
    prompt KV resident while prefilling, so each replica carries the
    same KV budget as a decode replica, and a private prefix cache
    carved out of it (that is where cached tokens skip work).

    Backpressure gates *admission* into a replica (running chunks always
    finish): requests are admitted one at a time, the gate re-judged
    against the new policy head after each, with the admitted request's
    landing footprint committed to the decode pool's projection — so the
    watermark holds per request, exactly as in the group pool.
    """

    name = "prefill"

    def __init__(
        self,
        requests: list[Request],
        costs: StepCostModel,
        kv_spec: KVCacheSpec,
        kv_bytes: float,
        config: ServingConfig,
        link: "TransferLinkStage",
        decode_pool: "DecodePoolStage",
        recorder=None,
        name: str | None = None,
    ):
        if name is not None:
            self.name = name
        self.backpressure = config.disagg.backpressure
        self.link = link
        self.decode_pool = decode_pool
        self.gate = _BackpressureGate(
            config.disagg.backpressure, link, decode_pool
        )
        self._rec = recorder
        if recorder is not None:
            self.gate.recorder = recorder
            self.gate.track = self.name
        self.replicas: list[ReplicaEngine] = []
        for i in range(config.disagg.prefill_replicas):
            cache, batch_bytes = build_prefix_cache(
                config, kv_spec, kv_bytes, costs
            )
            track = f"{self.name}/r{i}"
            if recorder is not None and cache is not None:
                cache.telemetry = recorder
                cache.track = f"{track}/cache"
            scheduler = ContinuousBatchScheduler(
                PagedKVCache(kv_spec, batch_bytes), config.limits,
                config.policy, prefix_cache=cache,
            )
            self.replicas.append(ReplicaEngine(
                scheduler, costs, config, track, recorder, index=i,
                admit=self._admit, after_commit=self._ship,
                prefill_only=True,
            ))
        #: Prompt tokens dispatched to each replica and not yet shipped.
        self._outstanding = [0] * len(self.replicas)
        self.pending = sorted(
            requests, key=lambda r: (r.arrival_s, r.request_id)
        )
        #: (ready_s, request_id, request) — chunk-complete hand-offs not
        #: yet delivered to the link (a step's hand-off becomes ready at
        #: the post-step clock, which may lie beyond the current kernel
        #: instant — delivering early would inflate the link queue the
        #: backpressure watermark reads).
        self._inflight: list[tuple[float, int, Request]] = []

    # ------------------------------------------------------------------
    def _replica_event(self, replica: ReplicaEngine) -> float | None:
        if replica.scheduler.running:
            return replica.clock
        if replica.pending:
            return max(replica.clock, replica.pending[0][0])
        if replica.scheduler.waiting and not self._gated(
            replica, replica.clock
        ):
            # A gate-stalled replica has no event of its own: the kernel
            # re-polls this method after every downstream event, so it
            # wakes (at the kernel's clamped clock) the instant the
            # watermark clears.
            return replica.clock
        return None

    def next_event_time(self) -> float | None:
        times = [self.pending[0].arrival_s] if self.pending else []
        if self._inflight:
            times.append(self._inflight[0][0])
        times += [
            t for r in self.replicas
            if (t := self._replica_event(r)) is not None
        ]
        return min(times) if times else None

    def advance(self, now: float) -> None:
        while self._inflight and self._inflight[0][0] <= now:
            ready, _, req = heapq.heappop(self._inflight)
            self.link.enqueue(ready, req)
        while self.pending and self.pending[0].arrival_s <= now:
            req = self.pending.pop(0)
            target = min(
                range(len(self.replicas)),
                key=lambda i: (self._outstanding[i], i),
            )
            self._outstanding[target] += req.prompt_len
            heapq.heappush(
                self.replicas[target].pending,
                (req.arrival_s, req.request_id, req),
            )
        for replica in self.replicas:
            t = self._replica_event(replica)
            if t is not None and t <= now:
                replica.step(now)

    # ------------------------------------------------------------------
    def _gated(self, replica: ReplicaEngine, now: float) -> bool:
        if self.backpressure is None or not replica.scheduler.waiting:
            return False
        return self.gate.stalled(replica.scheduler.waiting_head(), now)

    def _admit(self, replica: ReplicaEngine, now: float) -> bool:
        """Gated one-at-a-time admission (a replica's admit hook)."""
        scheduler = replica.scheduler
        if (
            self.backpressure is not None
            and not scheduler.running
            and scheduler.waiting
            and replica.clock < now
        ):
            # The replica sat gate-stalled with a frozen clock while the
            # kernel moved on: admissions — and the chunks, TTFT stamps
            # and hand-offs they produce — happen at the resume instant,
            # never retroactively (the chunked twin of the group pool's
            # start floor).
            replica.clock = now
            if self._rec is not None:
                scheduler._now = now
        # Admit one request at a time so the backpressure gate sees each
        # admission's committed KV before judging the next head — a
        # whole-round admit could flood the decode pool in one go.
        gated = self._gated(replica, now)
        while not gated and scheduler.waiting:
            admitted = scheduler.admit(
                enforce_token_budget=False, max_requests=1
            )
            if not admitted:
                break
            self.decode_pool.commit_blocks(admitted[0])
            self.gate.resumed(now)
            gated = self._gated(replica, now)
        return gated

    def _ship(self, replica: ReplicaEngine) -> None:
        """Release completed prompts (a replica's after-commit hook)."""
        scheduler = replica.scheduler
        shipped = [
            r for r in scheduler.running if r.prefill_remaining == 0
        ]
        for req in shipped:
            scheduler.release(req)
            self._outstanding[replica.index] -= req.prompt_len
            # Blocks were committed at admission (the KV journey became
            # inevitable there); the decode pool uncommits on landing.
            # Delivery to the link waits for the hand-off's ready
            # instant (the post-step clock) via the in-flight heap.
            heapq.heappush(
                self._inflight, (replica.clock, req.request_id, req)
            )

    def finish(self) -> None:
        stranded = [r.request_id for r in self.pending] + [
            r.request_id
            for replica in self.replicas
            for r in (
                replica.scheduler.waiting
                + [req for _, _, req in replica.pending]
            )
        ]
        if stranded:
            self.gate.raise_stranded(stranded)

    @property
    def stall_s(self) -> float:
        return self.gate.stall_s

    @property
    def busy(self) -> list[float]:
        return [r.busy_s for r in self.replicas]

    @property
    def n_prefills(self) -> int:
        return sum(r.n_steps for r in self.replicas)

    def cache_stats(self) -> list[PrefixCacheStats]:
        """Per-replica prefix-cache counters (empty when cache off)."""
        return [
            r.scheduler.prefix_cache.stats()
            for r in self.replicas
            if r.scheduler.prefix_cache is not None
        ]


# ----------------------------------------------------------------------
# Stage 2: the transfer link
# ----------------------------------------------------------------------
class TransferLinkStage(Stage):
    """KV-transfer link: serial FIFO channel(s) between the pools.

    ``link_topology="shared"`` is one channel serving hand-offs in
    (ready, request-id) order — byte-for-byte the PR 2 fold.
    ``"per_replica"`` gives every decode replica its own channel at the
    configured bandwidth, so transfers to different replicas overlap on
    the wire.  Either way the *target replica* is chosen when the
    hand-off is enqueued (least outstanding decode tokens, ties to the
    lowest index — the same greedy the sequential simulation applied in
    transfer order, which for the shared FIFO is the same order), and
    the decode pool learns the landing time the moment the transfer
    starts, never earlier.
    """

    name = "transfer"

    def __init__(
        self,
        config: ServingConfig,
        kv_spec: KVCacheSpec,
        transfer_ratio: float,
        decode_pool: "DecodePoolStage",
        recorder=None,
        name: str | None = None,
    ):
        if name is not None:
            self.name = name
        self._rec = recorder
        disagg = config.disagg
        self.latency = disagg.link_latency_s
        self.bandwidth = disagg.link_gb_per_s * 1e9
        self.overlap = disagg.overlap_fraction
        # Wire bytes are priced off the *raw* KV footprint: the sender
        # re-encodes with the wire codec, whatever codec (if any) the KV
        # is resident in.  For a plain spec raw == resident.
        self.per_token = kv_spec.raw_bytes_per_token / transfer_ratio
        self.per_replica = disagg.link_topology == "per_replica"
        self.n_links = (
            disagg.decode_replicas if self.per_replica else 1
        )
        self.decode_pool = decode_pool
        self._free = [0.0] * self.n_links
        #: Per-channel (ready_s, request_id, request, target) queues.
        self._queues: list[list[tuple[float, int, Request, int]]] = [
            [] for _ in range(self.n_links)
        ]
        self.records: list[TransferRecord] = []
        self.peak_queue_depth = 0

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Hand-offs waiting for a channel (not yet on the wire)."""
        return sum(len(q) for q in self._queues)

    def enqueue(self, ready: float, req: Request) -> None:
        """Accept a finished prefill's KV for transfer at time ``ready``."""
        target = self.decode_pool.assign(req)
        channel = target if self.per_replica else 0
        heapq.heappush(
            self._queues[channel], (ready, req.request_id, req, target)
        )
        self.peak_queue_depth = max(self.peak_queue_depth, self.queue_depth)
        if self._rec is not None:
            self._rec.on_transfer_enqueue(req, ready, self.name, target)
            self._rec.metrics.gauge(
                f"{self.name}/queue_depth", ready, float(self.queue_depth)
            )
        # A hand-off may be due earlier than this stage's cached next
        # event — tell the kernel to re-poll (the heap contract).
        self.notify()

    # ------------------------------------------------------------------
    def next_event_time(self) -> float | None:
        times = [
            max(q[0][0], self._free[ch])
            for ch, q in enumerate(self._queues) if q
        ]
        return min(times) if times else None

    def advance(self, now: float) -> None:
        for channel, queue in enumerate(self._queues):
            while queue and max(queue[0][0], self._free[channel]) <= now:
                ready, _, req, target = heapq.heappop(queue)
                nbytes = req.prompt_len * self.per_token
                wire = nbytes / self.bandwidth
                if self.overlap > 0.0:
                    wire *= 1.0 - self.overlap
                wire += self.latency
                start = max(ready, self._free[channel])
                done = start + wire
                self._free[channel] = done
                self.records.append(TransferRecord(
                    request_id=req.request_id,
                    nbytes=nbytes,
                    ready_s=ready,
                    start_s=start,
                    done_s=done,
                    link=channel,
                ))
                if self._rec is not None:
                    self._rec.on_transfer(
                        req, ready, start, done, nbytes, self.name,
                        channel,
                    )
                self.decode_pool.deliver(target, req, done)

    def finish(self) -> None:
        if self.queue_depth:
            # The link always drains (it reports an event while queued);
            # a leftover here is a kernel-wiring bug, not a workload
            # property.
            raise SchedulingError(
                f"{self.queue_depth} transfers left on the link"
            )


# ----------------------------------------------------------------------
# Stage 3: the decode pool
# ----------------------------------------------------------------------
class DecodePoolStage(Stage):
    """Decode pool: N independent continuous-batching replicas.

    Each replica is a :class:`~repro.serving.serve.ReplicaEngine` — the
    colocated chunked step — with one twist: an admitted request that
    was never preempted here enters with ``prefill_remaining = 0`` — its
    KV arrived over the link, so no prefill is owed.  Locally preempted
    requests keep the recompute debt ``admit`` assigns them and
    re-prefill on this replica.  Fast-forward windows are capped at the
    upstream stages' next event in addition to the replica's own next
    KV landing: the interleaved kernel cannot see hand-offs that have
    not been scheduled yet, so it stops a window where new work *could*
    appear (with exact costs every window is one step and the cap is
    moot).  A replica whose waiting KV cannot fit goes quiet until the
    next landing re-polls it.

    The stage also owns the backpressure bookkeeping the prefill stage
    reads: committed-but-not-landed KV blocks and the pool's projected
    free fraction, plus the peak observed occupancy
    (``peak_kv_frac``) the ``ext_disagg`` sweep reports.
    """

    name = "decode"

    def __init__(
        self,
        costs: StepCostModel,
        kv_spec: KVCacheSpec,
        kv_bytes: float,
        config: ServingConfig,
        recorder=None,
        name: str | None = None,
    ):
        if name is not None:
            self.name = name
        self._rec = recorder
        self.replicas = [
            ReplicaEngine(
                ContinuousBatchScheduler(
                    PagedKVCache(kv_spec, kv_bytes), config.limits,
                    config.policy,
                ),
                costs, config, f"{self.name}/r{i}", recorder, index=i,
                admit=self._admit_landed,
                after_commit=self._sample_occupancy,
                horizon=self._upstream_horizon,
                quiesce=True,
            )
            for i in range(config.disagg.decode_replicas)
        ]
        #: Decode tokens assigned to each replica (never decremented,
        #: matching the sequential fold exactly).
        self._outstanding = [0] * len(self.replicas)
        #: Assigned transfers whose landing time is not yet known.
        self._unreleased = [0] * len(self.replicas)
        self.block_size = kv_spec.block_size
        self.total_blocks = sum(
            r.scheduler.kv.n_blocks for r in self.replicas
        )
        self.committed_blocks = 0
        self.peak_kv_frac = 0.0
        self._upstream: tuple[Stage, ...] = ()

    def set_upstream(self, *stages: Stage) -> None:
        """Register the stages whose events cap fast-forward windows."""
        self._upstream = stages

    # ------------------------------------------------------------------
    # Backpressure bookkeeping (read by the prefill stage)
    # ------------------------------------------------------------------
    def blocks_for(self, req: Request) -> int:
        """KV blocks this request will occupy when its KV lands."""
        return ceil_div(req.prompt_len, self.block_size)

    def commit_blocks(self, req: Request) -> None:
        """Reserve the request's landing footprint (at prefill start)."""
        self.committed_blocks += self.blocks_for(req)

    def projected_free_frac(self, extra_blocks: int = 0) -> float:
        """Pool free-block fraction after in-flight KV (+extra) lands."""
        free = sum(r.scheduler.kv.free_blocks for r in self.replicas)
        return (free - self.committed_blocks - extra_blocks) / max(
            self.total_blocks, 1
        )

    # ------------------------------------------------------------------
    # Replica hooks
    # ------------------------------------------------------------------
    def _admit_landed(self, replica: ReplicaEngine, now: float) -> bool:
        for req in replica.scheduler.admit(enforce_token_budget=False):
            if req.n_preemptions == 0:
                req.prefill_remaining = 0
                self.committed_blocks -= self.blocks_for(req)
                if self._rec is not None:
                    # The KV landed over the link — no prefill is owed;
                    # decode residency starts at this admission.
                    self._rec.transition(req, replica.clock, "decode")
        return False

    def _sample_occupancy(self, _replica: ReplicaEngine) -> None:
        used = sum(r.scheduler.kv.used_blocks for r in self.replicas)
        self.peak_kv_frac = max(
            self.peak_kv_frac, used / max(self.total_blocks, 1)
        )

    def _upstream_horizon(self) -> float | None:
        times = [
            t for s in self._upstream
            if (t := s.next_event_time()) is not None
        ]
        return min(times) if times else None

    # ------------------------------------------------------------------
    # Hand-off plumbing (called by the transfer link)
    # ------------------------------------------------------------------
    def assign(self, req: Request) -> int:
        """Pick the target replica for a hand-off (at enqueue time).

        Least-outstanding-tokens first, ties to the lowest replica index
        — the same deterministic greedy the sequential simulation
        applied, and over the same sequence of hand-offs, so the
        placement is unchanged.
        """
        target = min(
            range(len(self.replicas)),
            key=lambda i: (self._outstanding[i], i),
        )
        self._outstanding[target] += req.remaining_tokens
        self._unreleased[target] += 1
        return target

    def deliver(self, index: int, req: Request, release_s: float) -> None:
        """Schedule a transfer's landing on its replica (at wire start)."""
        replica = self.replicas[index]
        self._unreleased[index] -= 1
        heapq.heappush(
            replica.pending, (release_s, req.request_id, req)
        )
        if self._rec is not None:
            self._rec.on_deliver(req, release_s, replica.track)
        replica.quiescent = False
        # The landing may predate this stage's cached next event — tell
        # the kernel to re-poll (the heap contract).
        self.notify()

    # ------------------------------------------------------------------
    def _replica_event(self, replica: ReplicaEngine) -> float | None:
        if replica.quiescent:
            return None
        if replica.scheduler.running or replica.scheduler.waiting:
            return replica.clock
        if replica.pending:
            return max(replica.clock, replica.pending[0][0])
        return None

    def next_event_time(self) -> float | None:
        times = [
            t for r in self.replicas
            if (t := self._replica_event(r)) is not None
        ]
        return min(times) if times else None

    def advance(self, now: float) -> None:
        for replica in self.replicas:
            t = self._replica_event(replica)
            if t is not None and t <= now:
                replica.step(now)

    def finish(self) -> None:
        for replica in self.replicas:
            if replica.scheduler.has_work:
                _raise_stranded(replica.scheduler)
            if replica.pending or self._unreleased[replica.index]:
                raise SchedulingError(
                    f"decode replica {replica.index} left"
                    " undelivered hand-offs"
                )


# ----------------------------------------------------------------------
# The topology: three stages on one kernel
# ----------------------------------------------------------------------
class _DisaggReplica:
    """A disaggregated topology: prefill pool → link → decode pool.

    The only assembly of the disaggregated topology:
    :class:`DisaggregatedCore` runs one standalone (``index=None``:
    stages ``prefill``/``transfer``/``decode``), and a fleet runs one
    per replica (stages ``prefill[i]``, ...) behind its router.
    """

    mode = "disaggregated"

    def __init__(
        self,
        index: int | None,
        costs: StepCostModel,
        kv_spec: KVCacheSpec,
        kv_bytes: float,
        config: ServingConfig,
        recorder=None,
    ):
        self.index = index
        self.config = config
        self.transfer_ratio = resolve_transfer_ratio(config)
        suffix = "" if index is None else f"[{index}]"
        self.decode_pool = DecodePoolStage(
            costs, kv_spec, kv_bytes, config, recorder=recorder,
            name=f"decode{suffix}",
        )
        self.link = TransferLinkStage(
            config, kv_spec, self.transfer_ratio, self.decode_pool,
            recorder=recorder, name=f"transfer{suffix}",
        )
        self._chunked = config.disagg.prefill_mode == "chunked"
        if self._chunked:
            self.prefill: Stage = ChunkedPrefillPoolStage(
                [], costs, kv_spec, kv_bytes, config,
                self.link, self.decode_pool, recorder=recorder,
                name=f"prefill{suffix}",
            )
        else:
            self.prefill = PrefillPoolStage(
                [], costs, config, self.link, self.decode_pool,
                recorder=recorder, name=f"prefill{suffix}",
            )
        self.decode_pool.set_upstream(self.prefill, self.link)
        self.n_routed = 0
        self.active_since: float | None = None

    # -- router surface -------------------------------------------------
    @property
    def stages(self) -> tuple[Stage, ...]:
        return (self.prefill, self.link, self.decode_pool)

    @property
    def entry_stage(self) -> Stage:
        return self.prefill

    def attach_router(self, router) -> None:
        self.decode_pool.set_upstream(self.prefill, self.link, router)

    def is_active(self, now: float) -> bool:
        return self.active_since is not None and self.active_since <= now

    def deliver(self, req: Request) -> None:
        # Arrival-ordered append, matching both pool flavours' pending
        # contract (they pop arrivals from the front in order).
        self.prefill.pending.append(req)
        self.n_routed += 1

    # -- routing signals ------------------------------------------------
    @property
    def n_outstanding(self) -> int:
        return self.n_routed - self.n_finished

    def _queued_requests(self) -> list[Request]:
        """Requests routed here whose KV is not yet committed downstream."""
        queued = list(self.prefill.pending)
        if self._chunked:
            for rep in self.prefill.replicas:
                queued += [r for _, _, r in rep.pending]
                queued += list(rep.scheduler.waiting)
        else:
            queued += list(self.prefill.waiting)
        return queued

    def kv_occupancy(self) -> float:
        """Projected decode-pool occupancy, queue included.

        ``projected_free_frac`` already counts blocks committed by
        started/admitted prefills; folding the not-yet-committed queue
        in as ``extra_blocks`` makes a backlogged cell look as full as
        it is about to be.
        """
        extra = sum(
            self.decode_pool.blocks_for(r) for r in self._queued_requests()
        )
        return 1.0 - self.decode_pool.projected_free_frac(extra)

    @property
    def stall_s(self) -> float:
        return self.prefill.stall_s

    # -- result surface -------------------------------------------------
    @property
    def n_finished(self) -> int:
        return sum(
            len(r.scheduler.finished) for r in self.decode_pool.replicas
        )

    @property
    def finished(self) -> list[Request]:
        out: list[Request] = []
        for rep in self.decode_pool.replicas:
            out.extend(rep.scheduler.finished)
        return out

    @property
    def clock_s(self) -> float:
        times = [r.clock for r in self.decode_pool.replicas]
        times += [t.done_s for t in self.link.records]
        times += [t.ready_s for t in self.link.records]
        return max(times, default=0.0)

    @property
    def n_steps(self) -> int:
        return self.prefill.n_prefills + sum(
            r.n_steps for r in self.decode_pool.replicas
        )

    @property
    def peak_running(self) -> int:
        return max(
            (r.peak_running for r in self.decode_pool.replicas), default=0
        )

    @property
    def n_preemptions(self) -> int:
        return sum(
            r.scheduler.n_preemptions for r in self.decode_pool.replicas
        )

    def cache_stats(self) -> list[PrefixCacheStats]:
        # Only the chunked prefill pool carries prefix caches.
        return self.prefill.cache_stats() if self._chunked else []

    def stats(self, makespan_s: float) -> ReplicaStats:
        prefix = "" if self.index is None else f"replica{self.index}/"
        pools = (
            PoolStats.from_busy(
                f"{prefix}prefill", self.prefill.busy,
                makespan_s, n_steps=self.prefill.n_prefills,
                stall_s=self.prefill.stall_s,
            ),
            PoolStats.from_busy(
                f"{prefix}decode",
                [r.busy_s for r in self.decode_pool.replicas],
                makespan_s,
                n_steps=sum(
                    r.n_steps for r in self.decode_pool.replicas
                ),
                peak_kv_frac=self.decode_pool.peak_kv_frac,
            ),
        )
        return ReplicaStats(
            index=self.index,
            mode=self.mode,
            n_routed=self.n_routed,
            n_finished=self.n_finished,
            n_unfinished=self.n_outstanding,
            pools=pools,
            transfer=TransferStats.from_records(
                self.link.records, makespan_s, self.transfer_ratio,
                n_links=self.link.n_links,
                peak_queue_depth=self.link.peak_queue_depth,
            ),
        )


class DisaggregatedCore:
    """Two-pool serving: prefill pool → KV-transfer link → decode pool.

    Drop-in sibling of :class:`~repro.serving.serve.ServingCore` — same
    constructor shape, same :meth:`serve` contract — selected by
    ``ServingConfig(mode="disaggregated")``.  The result's ``pools`` and
    ``transfer`` fields carry the disaggregation-specific accounting.
    """

    def __init__(
        self,
        costs: StepCostModel,
        kv_spec: KVCacheSpec,
        kv_bytes: float,
        config: ServingConfig | None = None,
    ):
        self.config = config or ServingConfig(mode="disaggregated")
        if self.config.mode != "disaggregated":
            raise ConfigError(
                "DisaggregatedCore requires mode='disaggregated',"
                f" got {self.config.mode!r}"
            )
        if (
            self.config.prefix_cache is not None
            and self.config.disagg.prefill_mode != "chunked"
        ):
            raise ConfigError(
                "prefix_cache requires DisaggConfig("
                "prefill_mode='chunked'): the group prefill pool has no"
                " per-replica scheduler to skip cached tokens with"
            )
        self.costs = maybe_memoize(costs, self.config.cost_bucket)
        self.kv_spec = kv_spec
        self.kv_bytes = kv_bytes
        self.policy = get_policy(self.config.policy)
        self.transfer_ratio = resolve_transfer_ratio(self.config)

    # ------------------------------------------------------------------
    def serve(
        self,
        requests: list[Request],
        deadline_s: float | None = None,
    ) -> ContinuousResult:
        """Replay a trace through the three-stage kernel pipeline.

        ``deadline_s`` bounds the simulation exactly as in
        :meth:`~repro.serving.serve.ServingCore.serve`: the kernel stops
        before the first event past it, and every request not yet
        decoded to completion — still queued for prefill, on the wire,
        or mid-decode — is counted in ``n_unfinished`` (with partial
        timings where a first token exists) instead of raising the
        stranded-work invariant.  ``None`` keeps run-to-completion
        behaviour bit-exactly.
        """
        if not requests:
            raise ConfigError("serve needs at least one request")
        rec = build_recorder(self.config.telemetry)
        replica = _DisaggReplica(
            None, self.costs, self.kv_spec, self.kv_bytes, self.config,
            recorder=rec,
        )
        run_topology(replica, requests, rec, deadline_s)
        finished = sorted(replica.finished, key=lambda r: r.request_id)
        finished_ids = {r.request_id for r in finished}
        makespan = replica.clock_s
        stats = replica.stats(makespan)
        return ContinuousResult.from_run(
            finished,
            makespan_s=makespan,
            n_steps=replica.n_steps,
            peak_running=replica.peak_running,
            slo=self.config.slo,
            n_preemptions=replica.n_preemptions,
            policy=self.policy.name,
            # The pool runs whatever DisaggConfig.prefill_mode says —
            # the (colocated-only) ServingConfig.prefill_mode does not
            # reshape it; report what actually happened.
            prefill_mode=self.config.disagg.prefill_mode,
            mode="disaggregated",
            pools=stats.pools,
            transfer=stats.transfer,
            unfinished=[
                r for r in requests if r.request_id not in finished_ids
            ],
            deadline_s=deadline_s,
            prefix_cache=merged_cache_stats([replica]),
            telemetry=rec,
        )

"""The serving core: an event-driven loop over cost + scheduling layers.

Top of the three-layer serving architecture.  :class:`ServingCore` owns the
simulated clock and nothing else: each iteration it asks the scheduler what
to run (admission, chunked-prefill planning, preemption when KV fills),
prices the plan with a :class:`~repro.serving.costs.StepCostModel`, advances
time, and commits the plan.  When no work is runnable it jumps the clock to
the next arrival — event-driven, no idle ticking.

Two prefill modes:

* ``"group"`` — the seed engine's behaviour, kept bit-compatible for the
  ``InferenceEngine.run_continuous`` facade: each admission group pays one
  whole-prompt prefill pass at ``max(prompt_len)``;
* ``"chunked"`` — vLLM-style chunked prefill: prompt tokens are
  co-scheduled with decode tokens under ``max_batched_tokens``, so decode
  latency is never held hostage by a long prompt.

Results carry the full metrics picture (TTFT/TPOT, interpolated
percentiles, SLO goodput) via :mod:`repro.serving.metrics`.

:class:`ServingConfig` also picks the **serving mode**: ``"colocated"``
(:class:`ServingCore`), ``"disaggregated"``
(:class:`repro.serving.disagg.DisaggregatedCore`: prefill pool → KV
link → decode pool, configured by :class:`DisaggConfig`) or ``"fleet"``
(:class:`repro.serving.fleet.FleetCore`).  All three share one serve
path (:class:`_ServeCore`) on the event kernel
(:mod:`repro.serving.kernel`); the colocated engine is a single
:class:`~repro.serving.kernel.Stage` whose per-event body is exactly one
iteration of the historical clock loop.

Invariants this layer guarantees (tested in ``tests/test_serving_core.py``
and ``tests/test_disagg.py``):

* **bit-compatibility of ``run_continuous``** — ``prefill_mode="group"``
  with the FCFS policy and exact costs reproduces the seed engine's clock
  arithmetic exactly (same floats, not merely close), so
  ``InferenceEngine.run_continuous`` never drifts from the seed;
  ``mode="colocated"`` is likewise bit-identical to the pre-disaggregation
  ``serve()`` output.
* **event-driven clock** — time only moves when work is priced or the loop
  jumps to the next arrival; no idle ticking, so makespan is exactly the
  sum of executed step costs plus waiting gaps.
* **fast-forward exactness** — a fast-forwarded window of ``k`` identical
  decode steps commits the same token counts, finish stamps and KV growth
  as ``k`` stepwise iterations would (only legal under bucketed costs,
  where every step in the window prices identically).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from functools import partial

from ..compression import (
    ACTIVATION_SIGMA,
    get_codec,
    get_codec_policy,
    resolve_spec,
)
from ..errors import CapacityError, ConfigError
from ..utils import ceil_div
from .costs import StepCostModel, maybe_memoize
from .kernel import EventKernel, Stage
from .kvcache import KVCacheSpec, PagedKVCache
from .metrics import ContinuousResult, PoolStats, ReplicaStats, SLOTarget
from .prefixcache import (
    PrefixCache,
    PrefixCacheConfig,
    PrefixCacheStats,
    cold_hit_seconds_per_token,
)
from .scheduler import (
    ContinuousBatchScheduler,
    DecodeWindowState,
    Request,
    RequestState,
    SchedulerLimits,
    SchedulerPolicy,
    get_policy,
)
from .telemetry import TelemetryConfig, build_recorder

PREFILL_MODES = ("group", "chunked")
SERVING_MODES = ("colocated", "disaggregated", "fleet")
LINK_TOPOLOGIES = ("shared", "per_replica")

#: Sentinel for the codec slots: resolve the slot through the codec
#: policy at config time (``InferenceEngine.serve`` does the resolution,
#: since selection needs the model/GPU pair).
AUTO_CODEC = "auto"


def _raise_stranded(scheduler) -> None:
    """Fail loudly when queued work can never run.

    Reached when nothing is running, nothing is due to arrive, admission
    was just attempted, and requests still wait: their KV can never fit
    (or, in group mode, their prompt exceeds the admission token budget).
    Returning a clean-looking result would silently drop them — and under
    head-of-line blocking everything queued behind them — so every
    serving loop raises instead (the conservation invariant of
    :mod:`repro.serving.scheduler`).
    """
    stranded = sorted(r.request_id for r in scheduler.waiting)
    raise CapacityError(
        f"requests {stranded} can never be admitted: KV demand or prompt"
        " length exceeds what this engine can ever free"
    )


@dataclass(frozen=True)
class BackpressureConfig:
    """Decode→prefill backpressure watermarks (disaggregated mode).

    The feedback-free pipeline admits prefills as fast as the prefill
    pool can run them, so a slow link or a full decode pool shows up as
    an unbounded transfer queue and decode-side preemption storms.  With
    backpressure configured, the prefill pool **stalls admission** (the
    event kernel simply stops scheduling prefill starts; running
    prefills complete) while either watermark is crossed, and resumes
    the instant downstream events clear it:

    Each watermark is opt-in (the defaults gate nothing):

    * ``min_free_kv_frac`` — the decode pool's *projected* free-block
      fraction (free blocks minus blocks already committed to prefilled
      or in-flight KV, over total blocks) must stay at or above this
      after admitting the candidate request; 0 (default) disables the
      occupancy watermark;
    * ``max_link_queue`` — no new prefill is admitted while this many
      hand-offs sit queued (not yet on the wire) at the transfer link;
      ``None`` (default) disables the queue watermark.

    Watermarks gate *admission* only — prefills already in flight still
    complete and their KV still lands, so observed peaks can exceed the
    watermark's level by the work admitted before it tripped (up to one
    request per prefill replica on the queue side, plus decode-time KV
    growth on the occupancy side).  This is deliberate hysteresis, not
    slack: admission-time projection is what a real admission controller
    has.

    A request whose own KV footprint can never satisfy the watermark is
    stranded and raises :class:`~repro.errors.CapacityError` at the end
    of the run instead of being silently dropped (tested in
    ``tests/test_kernel.py``).
    """

    min_free_kv_frac: float = 0.0
    max_link_queue: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_free_kv_frac <= 1.0:
            raise ConfigError("min_free_kv_frac must be in [0, 1]")
        if self.max_link_queue is not None and self.max_link_queue < 1:
            raise ConfigError("max_link_queue must be >= 1 (or None)")


@dataclass(frozen=True)
class DisaggConfig:
    """Geometry and link of the disaggregated (two-pool) serving mode.

    ``prefill_replicas`` engines do nothing but whole-prompt prefill;
    ``decode_replicas`` engines do nothing but continuous-batching decode,
    each with its own full KV cache.  Finished prefills ship their KV over
    a serial FIFO link of ``link_gb_per_s`` GB/s (``inf`` models an ideal
    fabric) with ``link_latency_s`` per-transfer setup cost.  The
    ``transfer_codec`` decides what goes on the wire and may name *any*
    codec in the compression registry (:mod:`repro.compression`):
    ``"none"`` ships raw BF16 KV, ``"kvcomp"`` (the ``vector_tbe`` alias)
    ships Vector-TBE-compressed blocks at the analytic activation ratio,
    the entropy baselines ship their split-plane streams — override the
    analytic ratio with ``transfer_ratio``.  Compressed transfer is the
    SplitZip effect, where lossless KV compression pays off a second time
    on the interconnect.
    """

    prefill_replicas: int = 1
    decode_replicas: int = 1
    link_gb_per_s: float = float("inf")
    link_latency_s: float = 0.0
    transfer_codec: str = "none"
    #: Explicit wire compression ratio; ``None`` derives it from the
    #: codec's registry estimator (1.0 for ``"none"``).
    transfer_ratio: float | None = None
    #: ``"shared"`` — one serial FIFO channel carries every hand-off
    #: (the PR 2 model); ``"per_replica"`` — each decode replica has its
    #: own dedicated link of ``link_gb_per_s``, so transfers to
    #: different replicas overlap on the wire.
    link_topology: str = "shared"
    #: How the prefill pool runs: ``"group"`` — one whole-prompt pass
    #: per request per replica (the PR 2 model, bit-compatible default);
    #: ``"chunked"`` — each prefill replica co-schedules prompt chunks
    #: across concurrent requests under ``SchedulerLimits`` via
    #: :meth:`~repro.serving.scheduler.ContinuousBatchScheduler.plan_step`.
    #: (Deliberately separate from the colocated-only
    #: ``ServingConfig.prefill_mode``, which existing disagg configs set
    #: without meaning to reshape the pool.)
    prefill_mode: str = "group"
    #: Analytic layer-wise prefill/transfer overlap: this fraction of a
    #: hand-off's serialization time is hidden under the tail of its
    #: prefill (early layers' KV ships while late layers still compute),
    #: so only ``1 - overlap_fraction`` of the wire time plus the link
    #: latency is paid after prefill completes.  0 (default) keeps the
    #: PR 2 no-overlap arithmetic bit-exactly.
    overlap_fraction: float = 0.0
    #: Decode→prefill backpressure watermarks; ``None`` (default) keeps
    #: the feedback-free PR 2 pipeline.
    backpressure: BackpressureConfig | None = None

    def __post_init__(self) -> None:
        if self.prefill_replicas < 1 or self.decode_replicas < 1:
            raise ConfigError("each pool needs at least one replica")
        if not self.link_gb_per_s > 0:
            raise ConfigError("link_gb_per_s must be positive (inf allowed)")
        if self.link_latency_s < 0:
            raise ConfigError("link_latency_s must be >= 0")
        get_codec(self.transfer_codec)  # raises UnknownSpecError if absent
        if self.transfer_ratio is not None and self.transfer_ratio < 1.0:
            raise ConfigError("transfer_ratio must be >= 1")
        if self.link_topology not in LINK_TOPOLOGIES:
            raise ConfigError(
                f"link_topology must be one of {LINK_TOPOLOGIES},"
                f" got {self.link_topology!r}"
            )
        if self.prefill_mode not in PREFILL_MODES:
            raise ConfigError(
                f"disagg prefill_mode must be one of {PREFILL_MODES},"
                f" got {self.prefill_mode!r}"
            )
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise ConfigError("overlap_fraction must be in [0, 1]")


@dataclass(frozen=True)
class ServingConfig:
    """How the serving core schedules and accounts a trace run.

    The three ``*_codec`` slots make compression a first-class serving
    property: each may name any codec in the compression registry
    (:mod:`repro.compression`) and any combination is valid — raw
    weights with compressed KV and a compressed wire is a legal
    deployment.  ``None`` keeps the historical behaviour for that slot
    (backend-chosen weight scheme, engine-level ``kv_compression_ratio``,
    ``disagg.transfer_codec``), so existing configs stay bit-compatible.

    Each slot also accepts ``"auto"``: the slot is then resolved at
    config time by ``codec_policy`` (``"best_ratio"`` /
    ``"best_throughput"`` / ``"balanced"`` / ``"balanced(alpha)"`` — see
    :mod:`repro.compression.policy`), per tensor class for the weight
    slot, against the engine's (model, gpu) pair.  ``calibration``
    carries a measured :class:`~repro.compression.MeasuredRatioProfile`
    (:func:`repro.compression.calibrate`): with one set, every codec
    ratio in the run — auto-selected or named — resolves measured
    rather than analytic (explicit ratios still win over both).
    """

    policy: str | SchedulerPolicy = "fcfs"
    prefill_mode: str = "chunked"
    limits: SchedulerLimits = field(default_factory=SchedulerLimits)
    slo: SLOTarget = field(default_factory=SLOTarget)
    #: 0 disables cost memoization; > 0 buckets decode contexts (and
    #: prefill chunks, at a quarter of the size) to that many tokens.
    cost_bucket: int = 0
    preemption: bool = True
    #: ``"colocated"`` runs prefill and decode on one engine
    #: (:class:`ServingCore`); ``"disaggregated"`` splits them into two
    #: pools joined by a KV-transfer link
    #: (:class:`repro.serving.disagg.DisaggregatedCore`); ``"fleet"``
    #: composes N replica instances behind a routing stage
    #: (:class:`repro.serving.fleet.FleetCore`), geometry in ``fleet``.
    mode: str = "colocated"
    disagg: DisaggConfig = field(default_factory=DisaggConfig)
    #: Fleet geometry and routing
    #: (:class:`repro.serving.fleet.FleetConfig`); defaults to a
    #: two-replica round-robin fleet when ``mode="fleet"``, ignored
    #: otherwise.  (Typed ``object`` to keep the import lazy — the
    #: fleet layer builds on this module.)
    fleet: object = None
    #: Weight storage/execution codec (``None`` = the backend's scheme;
    #: ``"auto"`` = per-layer-class policy selection).
    weight_codec: str | None = None
    #: KV-cache residency codec (``None`` = the engine's construction-time
    #: ``kv_compression_ratio``; ``"none"`` forces raw KV; ``"auto"`` =
    #: policy selection).
    kv_codec: str | None = None
    #: Disaggregation wire codec (``None`` = ``disagg.transfer_codec``;
    #: ``"auto"`` = policy selection).
    transfer_codec: str | None = None
    #: Codec-selection policy used by ``"auto"`` slots — a name parsed
    #: by :func:`repro.compression.get_codec_policy` or a
    #: :class:`~repro.compression.CodecPolicy` instance.
    codec_policy: object = "balanced"
    #: Measured calibration profile
    #: (:class:`~repro.compression.MeasuredRatioProfile`); ``None``
    #: keeps analytic ratio resolution (bit-compatible).
    calibration: object = None
    #: Prefix-cache provisioning
    #: (:class:`~repro.serving.prefixcache.PrefixCacheConfig`): carve a
    #: fraction of the KV budget into a two-tier session-prefix cache so
    #: repeated prompts skip their cached prefill.  Applies to every
    #: topology (per-replica caches in fleet and disaggregated chunked-
    #: prefill pools).  ``None`` (default) disables the cache and keeps
    #: every existing config bit-compatible.
    prefix_cache: PrefixCacheConfig | None = None
    #: Telemetry capture (:class:`~repro.serving.telemetry.TelemetryConfig`):
    #: per-request spans, sim-time metric timelines and latency
    #: attribution, surfaced on ``ContinuousResult.telemetry``.  ``None``
    #: (default) records nothing and costs nothing — the clock
    #: arithmetic is bit-identical either way (telemetry only *reads*
    #: simulation state).
    telemetry: TelemetryConfig | None = None

    def __post_init__(self) -> None:
        if self.prefill_mode not in PREFILL_MODES:
            raise ConfigError(
                f"prefill_mode must be one of {PREFILL_MODES},"
                f" got {self.prefill_mode!r}"
            )
        if self.cost_bucket < 0:
            raise ConfigError("cost_bucket must be >= 0")
        if self.mode not in SERVING_MODES:
            raise ConfigError(
                f"mode must be one of {SERVING_MODES}, got {self.mode!r}"
            )
        for slot in (self.weight_codec, self.kv_codec, self.transfer_codec):
            if slot is not None and slot != AUTO_CODEC:
                get_codec(slot)  # raises UnknownSpecError if absent
        if self.mode == "fleet" or self.fleet is not None:
            # Imported lazily: the fleet layer builds on this module.
            from .fleet import FleetConfig

            if self.fleet is None:
                object.__setattr__(self, "fleet", FleetConfig())
            elif not isinstance(self.fleet, FleetConfig):
                raise ConfigError(
                    "fleet must be a FleetConfig, got"
                    f" {type(self.fleet).__name__}"
                )
        if self.prefix_cache is not None and not isinstance(
            self.prefix_cache, PrefixCacheConfig
        ):
            raise ConfigError(
                "prefix_cache must be a PrefixCacheConfig, got"
                f" {type(self.prefix_cache).__name__}"
            )
        if self.telemetry is not None and not isinstance(
            self.telemetry, TelemetryConfig
        ):
            raise ConfigError(
                "telemetry must be a TelemetryConfig, got"
                f" {type(self.telemetry).__name__}"
            )
        # A bad policy name should fail at config construction, not at
        # the first serve() with an "auto" slot.
        get_codec_policy(self.codec_policy)

    @property
    def auto_slots(self) -> tuple[str, ...]:
        """Which codec slots are set to ``"auto"``."""
        prefix_slot = (
            self.prefix_cache.codec
            if self.prefix_cache is not None else None
        )
        return tuple(
            name for name, slot in (
                ("weight", self.weight_codec),
                ("kv", self.kv_codec),
                ("transfer", self.transfer_codec),
                ("prefix", prefix_slot),
            )
            if slot == AUTO_CODEC
        )

    @property
    def resolved_transfer_codec(self) -> str:
        """The wire codec name after slot fallback."""
        return (
            self.transfer_codec
            if self.transfer_codec is not None
            else self.disagg.transfer_codec
        )

    def with_limits(self, limits: SchedulerLimits | None) -> "ServingConfig":
        """A copy with ``limits`` swapped in (if given)."""
        return self if limits is None else replace(self, limits=limits)


def _discover_gpu(costs):
    """The GpuSpec a cost model prices on, if reachable (memoization
    wrappers keep it on their inner model)."""
    gpu = getattr(costs, "gpu", None)
    if gpu is None:
        gpu = getattr(getattr(costs, "inner", None), "gpu", None)
    return gpu


def build_prefix_cache(
    config: ServingConfig, kv_spec, kv_bytes: float, costs,
) -> tuple[PrefixCache | None, float]:
    """Provision one engine's prefix cache from its serving config.

    Returns ``(cache, batch_kv_bytes)``: the cache holds
    ``capacity_frac`` of ``kv_bytes`` and the block allocator gets the
    remainder — cache capacity is charged against the KV memory plan,
    never conjured.  With ``config.prefix_cache=None`` this is the
    identity: ``(None, kv_bytes)``, the bit-compatibility fast path
    every topology shares.

    The cold tier's codec resolves like every other slot:
    ``InferenceEngine.serve`` settles ``"auto"`` at config time; a core
    constructed directly resolves it here through ``codec_policy``
    against the cost model's GPU (same policy, same placement class,
    same answer).  Ratios honour ``config.calibration``.
    """
    pc = config.prefix_cache
    if pc is None:
        return None, kv_bytes
    cache_bytes = kv_bytes * pc.capacity_frac
    cold_ratio, cold_s = 1.0, 0.0
    if pc.codec is not None:
        codec = pc.codec
        gpu = _discover_gpu(costs)
        if codec == AUTO_CODEC:
            if gpu is None:
                raise ConfigError(
                    "prefix codec 'auto' needs a GPU-bearing cost model"
                    " to resolve; name the codec explicitly"
                )
            spec = get_codec_policy(config.codec_policy).select(
                "prefix", gpu, profile=config.calibration,
                sigma=ACTIVATION_SIGMA, cls="prefix:block",
            )
        else:
            spec = resolve_spec(
                codec, "prefix", sigma=ACTIVATION_SIGMA,
                cls="prefix:block", profile=config.calibration,
            )
        cold_ratio = spec.ratio
        cold_s = cold_hit_seconds_per_token(
            kv_spec, spec.codec, cold_ratio, gpu
        )
    cache = PrefixCache(
        kv_spec, cache_bytes,
        hot_frac=pc.hot_frac,
        cold_ratio=cold_ratio,
        cold_hit_s_per_token=cold_s,
    )
    return cache, kv_bytes - cache_bytes


class ReplicaEngine:
    """One continuous-batching replica: the step body every chunked
    topology runs.

    Owns a replica's scheduler, cost model, pending queue and clock plus
    its accounting (``busy_s``, ``n_steps``, ``peak_running``).  Each
    :meth:`step` is one scheduling iteration: submit due arrivals →
    admit → plan → preempt → charge cold-cache decompression → price →
    fast-forward a decode window or run a single step → apply.  The
    colocated engine (:class:`ColocatedStage`), each chunked prefill
    replica and each decode replica
    (:mod:`repro.serving.disagg`) are this one body; what differs is
    bound once at construction:

    * ``admit(engine, now) -> gated`` — admission; the default admits
      every waiting request that fits.  A decode replica marks landed
      KV as prefilled, a prefill replica admits one request at a time
      under its backpressure gate.  The return value says whether a
      gate is holding admission back.
    * ``after_commit(engine)`` — runs after every committed step or
      window segment: occupancy sampling, or the prefill pool shipping
      completed prompts.  The default samples this engine's KV peak.
    * ``horizon()`` — the next event this replica cannot see (a router
      arrival, or upstream stages), capping fast-forward windows.
    * ``quiesce`` — with work but nothing runnable and nothing pending,
      go quiet until new work is delivered instead of raising
      :func:`_raise_stranded`.
    * ``prefill_only`` — a prefill-pool replica: its single steps are
      recorded as ``"prefill"`` spans.  Its plans never decode (a
      completed prompt ships in the same step), so pricing them as
      ``mixed_step(0, 1, ...)`` is what the shared call computes.

    ``pending`` is a heap of ``(due_s, request_id, request)``.
    """

    def __init__(
        self,
        scheduler: ContinuousBatchScheduler,
        costs: StepCostModel,
        config: ServingConfig,
        track: str,
        recorder=None,
        *,
        index: int = 0,
        admit=None,
        after_commit=None,
        horizon=None,
        quiesce: bool = False,
        prefill_only: bool = False,
    ):
        self.index = index
        self.scheduler = scheduler
        self.costs = costs
        self.config = config
        self.track = track
        #: Optional :class:`~repro.serving.telemetry.TraceRecorder`;
        #: also attached to the scheduler so admission/finish events
        #: carry sim time.
        self._rec = recorder
        if recorder is not None:
            scheduler.telemetry = recorder
            scheduler.track = track
        self.pending: list[tuple[float, int, Request]] = []
        self.clock = 0.0
        self.busy_s = 0.0
        self.n_steps = 0
        self.peak_running = 0
        self.peak_kv_frac = 0.0
        self.horizon = horizon
        self.quiesce = quiesce
        self.quiescent = False
        self.prefill_only = prefill_only
        self._admit = (
            self._admit_all if admit is None else partial(admit, self)
        )
        self._after_commit = (
            self._sample_kv if after_commit is None
            else partial(after_commit, self)
        )

    # ------------------------------------------------------------------
    def _admit_all(self, now: float) -> bool:
        self.scheduler.admit(enforce_token_budget=False)
        return False

    def _charge_cache_delay(self) -> None:
        """Charge cold-tier prefix hits their decompress stream.

        Admission accrues the delay; the admitting step pays it before
        the admitted prompt's first pass runs, so TTFT includes it.
        Called only when the scheduler has a prefix cache (zero extra
        float ops on the cache-off bit-compat path).
        """
        delay_s = self.scheduler.consume_cache_delay()
        if delay_s > 0.0:
            if self._rec is not None:
                self._rec.span(self.clock, delay_s, "decompress", self.track)
            self.clock += delay_s
            self.busy_s += delay_s

    def _sample_kv(self) -> None:
        kv = self.scheduler.kv
        frac = kv.used_blocks / kv.n_blocks
        if frac > self.peak_kv_frac:
            self.peak_kv_frac = frac

    # ------------------------------------------------------------------
    def step(self, now: float) -> None:
        """One scheduling iteration at the replica's own clock."""
        scheduler, pending = self.scheduler, self.pending
        while pending and pending[0][0] <= self.clock:
            scheduler.submit(heapq.heappop(pending)[2])
        rec = self._rec
        if rec is not None:
            scheduler._now = self.clock
        gated = self._admit(now)
        plan = scheduler.plan_step()
        if self.config.preemption and plan.decode:
            victims = scheduler.ensure_decode_capacity(plan.decode)
            if victims:
                plan.drop(victims)
        if plan.empty:
            if pending:
                self.clock = max(self.clock, pending[0][0])
            elif scheduler.has_work and not gated:
                # Nothing runs, nothing is due and admission is not
                # gated, yet requests wait: their KV cannot fit.
                if not self.quiesce:
                    _raise_stranded(scheduler)
                # A decode replica waits for a landing to re-poll it;
                # its pool's finish() raises if none ever comes.
                self.quiescent = True
            return
        self.peak_running = max(self.peak_running, len(scheduler.running))
        if scheduler.prefix_cache is not None:
            self._charge_cache_delay()
        step_s = self.costs.mixed_step(
            len(plan.decode),
            max(plan.mean_decode_ctx, 1),
            plan.n_prefill_seqs,
            plan.n_prefill_tokens,
        ).total_s
        # Only bucketed costs fast-forward (exact costs price every step
        # differently, so the window is one step and the horizon moot).
        if self.config.cost_bucket > 0 and self._fast_forward(plan, step_s):
            return
        if rec is not None:
            if self.prefill_only:
                rec.span(self.clock, step_s, "prefill", self.track,
                         args={"tokens": plan.n_prefill_tokens,
                               "seqs": plan.n_prefill_seqs})
            else:
                rec.span(self.clock, step_s, "step", self.track,
                         args={"decode": len(plan.decode),
                               "prefill_tokens": plan.n_prefill_tokens})
        self.clock += step_s
        self.busy_s += step_s
        self.n_steps += 1
        scheduler.apply_step(plan, self.clock)
        self._after_commit()
        if rec is not None:
            rec.sample_engine(self.track, self.clock, scheduler)

    def _fast_forward(self, plan, step_s: float) -> bool:
        """Commit a multi-step decode window if one is legal."""
        bucket = self.config.cost_bucket
        next_event = self.pending[0][0] if self.pending else None
        if self.horizon is not None:
            h = self.horizon()
            if h is not None and (next_event is None or h < next_event):
                next_event = h
        k = decode_window_len(
            self.scheduler, plan, next_event, self.clock, step_s, bucket
        )
        if k <= 1:
            return False
        win_start = self.clock
        self.clock, segments = run_decode_window(
            self.scheduler, self.costs, plan, next_event, self.clock,
            bucket, step_s, k,
            preemption=self.config.preemption,
            on_segment=self._after_commit,
        )
        for seg_s, ki in segments:
            self.busy_s += seg_s * ki
            self.n_steps += ki
        rec = self._rec
        if rec is not None:
            # Reconstruct the fast-forwarded window as spans after the
            # fact — the hot loop itself stays untouched.
            t = win_start
            for seg_s, ki in segments:
                rec.span(t, seg_s * ki, "decode", self.track,
                         args={"steps": ki, "batch": len(plan.decode)})
                t += seg_s * ki
            rec.sample_engine(self.track, self.clock, self.scheduler)
        return True


class ColocatedStage(ReplicaEngine, Stage):
    """The colocated engine as one event-kernel stage.

    Chunked prefill runs the shared :class:`ReplicaEngine` step; group
    prefill keeps the seed-compatible whole-prompt body.  Each
    :meth:`advance` performs exactly one iteration of the historical
    ``ServingCore`` clock loop, so running it under
    :class:`~repro.serving.kernel.EventKernel` emits the same float
    operations in the same order as the pre-kernel hand-rolled ``while``
    loop — the bit-compatibility contract of ``run_continuous`` and
    ``mode="colocated"``.  As the only stage in its topology, its next
    event is trivially its own clock.  ``pending`` is sorted by
    ``(arrival_s, request_id)``; a fleet sets ``horizon`` to the
    router's next undelivered arrival.
    """

    name = "engine"

    def __init__(
        self,
        costs: StepCostModel,
        scheduler: ContinuousBatchScheduler,
        pending: list[Request],
        config: ServingConfig,
        recorder=None,
        name: str | None = None,
    ):
        if name is not None:
            self.name = name
        super().__init__(scheduler, costs, config, self.name, recorder)
        # A sorted list is already a valid heap.
        self.pending = [(r.arrival_s, r.request_id, r) for r in pending]
        self._group = config.prefill_mode == "group"

    # ------------------------------------------------------------------
    def next_event_time(self) -> float | None:
        if not self.pending and not self.scheduler.has_work:
            return None
        return self.clock

    def advance(self, now: float) -> None:
        if self._group:
            self._advance_group()
        else:
            self.step(now)

    # ------------------------------------------------------------------
    def _advance_group(self) -> None:
        """One iteration of the seed-compatible whole-prompt-prefill loop."""
        scheduler, pending = self.scheduler, self.pending
        rec = self._rec
        if rec is not None:
            scheduler._now = self.clock
        while pending and pending[0][0] <= self.clock:
            scheduler.submit(heapq.heappop(pending)[2])
        admitted = scheduler.admit()
        if admitted:
            if scheduler.prefix_cache is not None:
                self._charge_cache_delay()
            prompt = max(r.prefill_remaining for r in admitted)
            step_s = self.costs.prefill_step(len(admitted), prompt).total_s
            if rec is not None:
                rec.span(self.clock, step_s, "prefill", self.name,
                         args={"batch": len(admitted), "tokens": prompt})
            self.clock += step_s
            self.busy_s += step_s
            for req in admitted:
                req.prefill_remaining = 0
                if req.first_token_s is None:
                    req.first_token_s = self.clock
                if rec is not None:
                    rec.transition(req, self.clock, "decode")
        if not scheduler.running:
            if pending:
                self.clock = max(self.clock, pending[0][0])
                return
            if scheduler.has_work:
                _raise_stranded(scheduler)
            return
        if self.config.preemption:
            if rec is not None:
                scheduler._now = self.clock
            scheduler.ensure_decode_capacity(list(scheduler.running))
        batch = len(scheduler.running)
        self.peak_running = max(self.peak_running, batch)
        mean_ctx = int(
            sum(r.context_len for r in scheduler.running) / batch
        )
        step_s = self.costs.decode_step(batch, max(mean_ctx, 1)).total_s
        if rec is not None:
            rec.span(self.clock, step_s, "decode", self.name,
                     args={"batch": batch})
        self.clock += step_s
        self.busy_s += step_s
        self.n_steps += 1
        if rec is not None:
            scheduler._now = self.clock
        for req in scheduler.step():
            if req.done:
                req.finish_s = self.clock
                if rec is not None:
                    rec.on_finish(req, self.clock, self.name)
        self._sample_kv()
        if rec is not None:
            rec.sample_engine(self.name, self.clock, scheduler)


class _SignalKVCache(PagedKVCache):
    """A KV cache that retires router block commitments on allocation.

    The router commits a request's landing footprint at the routing
    instant (so ``least_kv_occupancy`` sees queued work before any KV
    is allocated); the first real allocation for that sequence retires
    the commitment — after which the live block table carries the
    signal.  Re-allocations after preemption find nothing to retire.
    """

    def __init__(self, spec, capacity_bytes, on_allocate) -> None:
        super().__init__(spec, capacity_bytes)
        self._on_allocate = on_allocate

    def allocate(self, seq_id: int, n_tokens: int) -> None:
        self._on_allocate(seq_id)
        super().allocate(seq_id, n_tokens)


class _ColocatedReplica:
    """A colocated topology: one engine stage with its own KV and cache.

    The only assembly of the colocated topology: :class:`ServingCore`
    runs one standalone (``index=None``: stage ``engine``), and a fleet
    runs one per replica (stage ``engine[i]``) behind its router.
    """

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
        self.prefill_mode = config.prefill_mode
        # Each replica carves a *private* prefix cache out of its own
        # KV budget — sessions only hit where their finished turns
        # landed, which is what makes routing policy show up in fleet
        # hit rates.
        self.prefix_cache, batch_bytes = build_prefix_cache(
            config, kv_spec, kv_bytes, costs
        )
        kv = _SignalKVCache(
            kv_spec, batch_bytes, self._retire_commitment
        )
        self.scheduler = ContinuousBatchScheduler(
            kv, config.limits, config.policy,
            prefix_cache=self.prefix_cache,
        )
        self.stage = ColocatedStage(
            costs, self.scheduler, [], config, recorder=recorder,
            name="engine" if index is None else f"engine[{index}]",
        )
        if recorder is not None and self.prefix_cache is not None:
            self.prefix_cache.telemetry = recorder
            if index is not None:
                # Fleet replicas get a cache lane each; a standalone
                # engine keeps the cache's own track.
                self.prefix_cache.track = f"{self.stage.name}/cache"
        self._block_size = kv_spec.block_size
        self._committed: dict[int, int] = {}
        self._committed_blocks = 0
        self.n_routed = 0
        #: When this replica (became / will become) active; ``None`` =
        #: standby or drained.  Set by the core and the autoscaler.
        self.active_since: float | None = None

    # -- router surface -------------------------------------------------
    @property
    def stages(self) -> tuple[Stage, ...]:
        return (self.stage,)

    @property
    def entry_stage(self) -> Stage:
        return self.stage

    def attach_router(self, router) -> None:
        self.stage.horizon = router.next_arrival_s

    def is_active(self, now: float) -> bool:
        return self.active_since is not None and self.active_since <= now

    def deliver(self, req: Request) -> None:
        heapq.heappush(
            self.stage.pending, (req.arrival_s, req.request_id, req)
        )
        self.n_routed += 1
        blocks = ceil_div(req.prompt_len, self._block_size)
        self._committed[req.request_id] = blocks
        self._committed_blocks += blocks

    def _retire_commitment(self, seq_id: int) -> None:
        blocks = self._committed.pop(seq_id, None)
        if blocks is not None:
            self._committed_blocks -= blocks

    # -- routing signals ------------------------------------------------
    @property
    def n_outstanding(self) -> int:
        return self.n_routed - len(self.scheduler.finished)

    def kv_occupancy(self) -> float:
        """Projected block occupancy: allocated + router-committed."""
        kv = self.scheduler.kv
        return (kv.used_blocks + self._committed_blocks) / max(
            kv.n_blocks, 1
        )

    stall_s = 0.0

    # -- result surface -------------------------------------------------
    @property
    def finished(self) -> list[Request]:
        return self.scheduler.finished

    def unfinished(self, requests: list[Request]) -> list[Request]:
        """Requests still pending, waiting or running, in queue order
        (read off the queues, so the trace itself is not consulted)."""
        return (
            [req for _, _, req in sorted(self.stage.pending)]
            + self.scheduler.waiting + self.scheduler.running
        )

    @property
    def clock_s(self) -> float:
        return self.stage.clock

    @property
    def n_steps(self) -> int:
        return self.stage.n_steps

    @property
    def peak_running(self) -> int:
        return self.stage.peak_running

    @property
    def n_preemptions(self) -> int:
        return self.scheduler.n_preemptions

    def cache_stats(self) -> list[PrefixCacheStats]:
        if self.prefix_cache is None:
            return []
        return [self.prefix_cache.stats()]

    def stats(self, makespan_s: float) -> ReplicaStats:
        """Replica accounting; a standalone engine reports no pools."""
        pools = () if self.index is None else (PoolStats.from_busy(
            f"replica{self.index}/engine", [self.stage.busy_s],
            makespan_s, n_steps=self.stage.n_steps,
            peak_kv_frac=self.stage.peak_kv_frac,
        ),)
        return ReplicaStats(
            index=self.index,
            mode="colocated",
            n_routed=self.n_routed,
            n_finished=len(self.finished),
            n_unfinished=self.n_outstanding,
            pools=pools,
        )


class _ServeCore:
    """The one serve path of every core: assemble → run → collect.

    :meth:`_assemble` builds one standalone adapter of ``_replica_cls``
    (a fleet overrides it: a router in front of N adapters, plus an
    optional autoscaler); :meth:`serve` runs it on one
    :class:`~repro.serving.kernel.EventKernel` and collects one
    :class:`ContinuousResult` from the adapters' result surface.  The
    collector only asks whether a router fronts the replicas.
    """

    _replica_cls: type

    def _assemble(self, requests: list[Request], recorder):
        """``(replicas, router, autoscaler)`` for one run."""
        replica = self._replica_cls(
            None, self.costs, self.kv_spec, self.kv_bytes, self.config,
            recorder=recorder,
        )
        return [replica], None, None

    def serve(
        self,
        requests: list[Request],
        deadline_s: float | None = None,
    ) -> ContinuousResult:
        """Replay a request trace; returns the full metrics picture.

        ``deadline_s`` bounds the simulation: the kernel stops before
        the first event past it, and everything not yet decoded to
        completion — still queued, on the wire, or mid-decode — is
        counted in the result's ``n_unfinished`` (with partial timings
        for requests that produced a first token) instead of being
        simulated to completion, so ``n_requests + n_unfinished +
        n_rejected == n_offered``.  ``None`` (default) keeps the
        historical run-to-completion behaviour bit-exactly — including
        the stranded-request :class:`~repro.errors.CapacityError`,
        which a deadline run skips (a backlog at the deadline is the
        measured outcome, not a bug).
        """
        if not requests:
            raise ConfigError("serve needs at least one request")
        rec = build_recorder(self.config.telemetry)
        replicas, router, autoscaler = self._assemble(requests, rec)
        arrivals = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        stages = [stage for replica in replicas for stage in replica.stages]
        if router is None:
            (entry,) = replicas
            for req in arrivals:
                entry.deliver(req)
            track = entry.entry_stage.name
        else:
            stages.insert(0, router)
            track = router.name
        if autoscaler is not None:
            stages.append(autoscaler)
        if rec is not None:
            for req in arrivals:
                rec.on_arrival(req, track=track)
        EventKernel(stages, recorder=rec).run(until=deadline_s)

        finished = [r for replica in replicas for r in replica.finished]
        makespan = max(replica.clock_s for replica in replicas)
        stats = tuple(replica.stats(makespan) for replica in replicas)
        caches = [c for replica in replicas for c in replica.cache_stats()]
        if router is None:
            unfinished = entry.unfinished(requests)
            prefill_mode = entry.prefill_mode
            transfer, per_replica, rejected = stats[0].transfer, (), ()
        else:
            finished.sort(key=lambda r: r.request_id)
            done = {r.request_id for r in finished}
            done.update(r.request_id for r in router.rejected)
            unfinished = [r for r in requests if r.request_id not in done]
            prefill_mode = self.config.prefill_mode
            transfer, per_replica, rejected = None, stats, router.rejected
        return ContinuousResult.from_run(
            finished,
            makespan_s=makespan,
            n_steps=sum(replica.n_steps for replica in replicas),
            peak_running=max(replica.peak_running for replica in replicas),
            slo=self.config.slo,
            n_preemptions=sum(replica.n_preemptions for replica in replicas),
            policy=get_policy(self.config.policy).name,
            prefill_mode=prefill_mode,
            mode=self.config.mode,
            pools=tuple(pool for s in stats for pool in s.pools),
            transfer=transfer,
            unfinished=unfinished,
            n_rejected=len(rejected),
            deadline_s=deadline_s,
            replicas=per_replica,
            prefix_cache=PrefixCacheStats.merge(caches) if caches else None,
            scale_events=(
                tuple(autoscaler.events) if autoscaler is not None else ()
            ),
            telemetry=rec,
        )


class ServingCore(_ServeCore):
    """Event-driven continuous-batching simulator (colocated topology)."""

    _replica_cls = _ColocatedReplica

    def __init__(
        self,
        costs: StepCostModel,
        kv_spec: KVCacheSpec,
        kv_bytes: float,
        config: ServingConfig | None = None,
    ):
        self.config = config or ServingConfig()
        if self.config.mode != "colocated":
            # Mirror of DisaggregatedCore's guard: running a
            # disaggregated config colocated would silently ignore the
            # pool geometry and link costs.
            raise ConfigError(
                "ServingCore requires mode='colocated', got"
                f" {self.config.mode!r}; use DisaggregatedCore (or"
                " InferenceEngine.serve, which routes on mode)"
            )
        self.costs = maybe_memoize(costs, self.config.cost_bucket)
        self.kv_spec = kv_spec
        self.kv_bytes = kv_bytes


def decode_window_len(
    scheduler: ContinuousBatchScheduler,
    plan,
    next_event_s: float | None,
    clock: float,
    step_s: float,
    bucket: int,
) -> int:
    """Steps the current decode-only plan can repeat unchanged.

    Called once per :meth:`ReplicaEngine.step` under bucketed costs.
    Only meaningful with bucketed costs (``bucket > 0``): inside a
    context bucket every decode step of a stable batch prices
    identically, so a loop may advance ``k`` steps in one shot.  The
    window ends at the first event that would change the plan or its
    price: a request finishing, the next external event (an arrival, or
    a KV landing on a decode replica) at ``next_event_s``, the mean
    context crossing a bucket edge, or KV needing more blocks than are
    free (conservative — fall back to stepping so preemption logic
    runs).  Exact costs (``bucket == 0``) always step one at a time,
    since every step then prices differently.

    A non-empty waiting queue does not end the window: admission was
    just attempted and blocked, and with no arrivals, finishes or
    frees inside the window the blocker (sequence slots, or free KV
    which only shrinks while decode grows) persists until the window's
    last step — exactly when the stepwise loop would next admit.
    """
    if (
        bucket <= 0
        or plan.prefill
        or not plan.decode
        or len(plan.decode) != len(scheduler.running)
    ):
        return 1
    k = min(r.remaining_tokens for r in plan.decode)
    mean_ctx = max(plan.mean_decode_ctx, 1)
    k = min(k, ceil_div(mean_ctx, bucket) * bucket - mean_ctx + 1)
    if next_event_s is not None and step_s > 0:
        gap = next_event_s - clock
        k = min(k, max(1, int(gap / step_s)))
    if k > 1:
        kv = scheduler.kv
        # Appending k tokens never needs more than k//block + 1 new
        # blocks per sequence; when free blocks cover that bound the
        # exact per-sequence walk (a dict lookup per request) is skipped
        # — the common case on large traces.
        bound = len(plan.decode) * (k // kv.spec.block_size + 1)
        if bound > kv.free_blocks:
            needed = sum(
                kv.blocks_needed(r.request_id, k) for r in plan.decode
            )
            if needed > kv.free_blocks:
                return 1
    return k


def commit_decode_window(
    scheduler: ContinuousBatchScheduler,
    plan,
    k: int,
    clock: float,
) -> None:
    """Commit ``k`` identical decode steps at post-window time ``clock``.

    ``k`` never exceeds the smallest remaining-token count, so only
    requests finishing exactly at the window's last step finish — with
    the same ``finish_s`` the stepwise loop would have stamped.
    """
    kv = scheduler.kv
    tel = scheduler.telemetry
    if tel is not None:
        scheduler._now = clock
    for req in plan.decode:
        kv.append_token(req.request_id, k)
        req.generated += k
        if req.done:
            req.state = RequestState.FINISHED
            req.finish_s = clock
            scheduler._store_prefix(req)
            kv.free(req.request_id)
            scheduler.running.remove(req)
            scheduler.finished.append(req)
            if tel is not None:
                tel.on_finish(req, clock, scheduler.track)


def run_decode_window(
    scheduler: ContinuousBatchScheduler,
    costs: StepCostModel,
    plan,
    next_event_s: float | None,
    clock: float,
    bucket: int,
    first_step_s: float,
    first_k: int,
    preemption: bool,
    on_segment=None,
) -> tuple[float, list[tuple[float, int]]]:
    """Advance the widest fast-forward window: chained bucketed segments.

    The stepwise simulator pays a full scheduling iteration — arrival
    submit, admission attempt, ``plan_step``, capacity check, step
    pricing — between every pair of :func:`decode_window_len` windows,
    even when each of those is provably a no-op.  This helper chains
    segments inside one stage advance while the no-op proof holds:

    * **no arrivals/landings** — the window never crosses
      ``next_event_s`` (the caller folds its upstream horizon in), so no
      submits happen and, with no finishes either, admission's blocker
      (sequence slots, or free KV, which only shrinks while decode
      grows) persists — the attempt stays a no-op.  With a custom
      admission order (``order_waiting`` overridden) a non-empty queue
      ends the window conservatively: such an order may be
      time-dependent, and only whole-queue re-sorts observe it.
    * **no preemptions** — chaining continues only where
      ``ensure_decode_capacity`` would return without acting.
    * **same plan** — no finishes and a no-op admission leave the
      running set (and its order) untouched, so ``plan_step`` would
      rebuild exactly this decode set with contexts one segment older.

    The moment any condition fails the loop breaks *without* committing
    further work; the next kernel advance then runs the unmodified
    stepwise body from an identical scheduler state, so breaking early
    is always bit-safe.

    **Float discipline**: the clock advances ``step_s * k`` per segment
    — the same ``(step_s, k)`` sequence, in the same order, as the
    stepwise loop's per-window adds — and segment prices come from
    ``decode_step_batch`` (bitwise equal to the scalar decode-only
    ``mixed_step`` the stepwise body calls; one vectorized pricing pass
    covers every bucket edge the window can reach).  Request state is
    tracked in a :class:`~repro.serving.scheduler.DecodeWindowState`
    array pair; ``Request`` objects are only touched by the per-segment
    ``commit_decode_window``.

    Returns ``(new_clock, segments)`` with one ``(step_s, k)`` tuple per
    committed segment, so callers replicate the stepwise float
    accumulation into their own counters (``busy_s``, ``n_steps``).
    ``on_segment`` (if given) runs after each segment's commit —
    occupancy sampling hooks, which must see the pre-free peak of a
    finishing segment, not just the window end.
    """
    segments: list[tuple[float, int]] = []
    batch = len(plan.decode)
    kv = scheduler.kv
    block_size = kv.spec.block_size
    incremental = scheduler._incremental
    # The AoS view and the vectorized price table are built lazily, on
    # the first segment that actually chains: most windows end at the
    # next arrival and never continue, and for those the array setup
    # would cost more than the python it replaces.
    state: DecodeWindowState | None = None
    prices: dict[int, float] | None = None
    min_rem = min(r.remaining_tokens for r in plan.decode)
    step_s, k = first_step_s, first_k
    while True:
        clock += step_s * k
        segments.append((step_s, k))
        finishes = k >= min_rem
        commit_decode_window(scheduler, plan, k, clock)
        if state is not None:
            state.advance(k)
        plan.decode_ctx_sum += batch * k
        if on_segment is not None:
            on_segment()
        if finishes:
            break
        if next_event_s is not None and next_event_s <= clock:
            break
        if scheduler.waiting and not incremental:
            break
        if state is None:
            # Snapshot *after* the first commit, so no catch-up advance
            # is owed.
            state = DecodeWindowState(plan.decode)
        min_rem = state.min_remaining()
        if (
            preemption
            and kv.free_blocks < batch
            and state.blocks_to_grow(1, block_size) > kv.free_blocks
        ):
            break
        mean_ctx = max(plan.mean_decode_ctx, 1)
        edge = ceil_div(mean_ctx, bucket) * bucket
        if prices is None:
            batch_fn = getattr(costs, "decode_step_batch", None)
            if batch_fn is not None:
                # One vectorized pricing pass over every bucket edge the
                # window can still reach (bounded by the first finish).
                hi = ceil_div(mean_ctx + min_rem, bucket) * bucket
                edges = list(range(edge, hi + bucket, bucket))
                prices = dict(
                    zip(edges, batch_fn(batch, edges).tolist())
                )
            else:
                prices = {}
        step_s = prices.get(edge)
        if step_s is None:
            step_s = costs.mixed_step(batch, mean_ctx, 0, 0).total_s
        k = min_rem
        k = min(k, edge - mean_ctx + 1)
        if next_event_s is not None and step_s > 0:
            gap = next_event_s - clock
            k = min(k, max(1, int(gap / step_s)))
        if k > 1 and state.blocks_to_grow(k, block_size) > kv.free_blocks:
            k = 1
        if k <= 1:
            # A one-step window must run the stepwise body (its finish
            # and preemption handling differ); leave it to the next
            # kernel advance.
            break
    return clock, segments

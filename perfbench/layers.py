"""Per-layer metrics of the traced run.

:func:`install` wraps the entry points of every layer (see the table in
``perfbench/DESIGN.md``) into a :class:`~tracer.Tracer` and returns a
:class:`LayerProbe` that also keeps the few per-call facts a span cannot
hold (simulated clock of the enclosing advance, queue waits, wasted
prefill, batch sizes, routing locality, KV occupancy, codec bytes).
:func:`pass_metrics` turns one traced pass into the ``PER_LAYER`` values.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.compression.spec import Codec
from repro.kernels import functional
from repro.serving import openloop
from repro.serving import trace as trace_mod
from repro.serving.costs import EngineCostModel, MemoizedStepCostModel
from repro.serving.disagg import (
    ChunkedPrefillPoolStage,
    DecodePoolStage,
    DisaggregatedCore,
    PrefillPoolStage,
    TransferLinkStage,
)
from repro.serving.engine import InferenceEngine
from repro.serving.fleet import FleetCore
from repro.serving.kernel import EventKernel
from repro.serving.kvcache import PagedKVCache
from repro.serving.prefixcache import PrefixCache, PrefixCacheStats
from repro.serving.profiles import WorkloadProfile
from repro.serving.router import RouterStage, RoutingPolicy
from repro.serving.scheduler import ContinuousBatchScheduler
from repro.serving.serve import ColocatedStage, ServingCore
from repro.serving.telemetry import TraceRecorder

import workloads
from stats import geomean, tail

#: Stage advance spans: span name -> stage classes (the prefill pool
#: has a chunked and a group-prefill form).
STAGES = {
    "serve.colocated.advance": (ColocatedStage,),
    "disagg.prefill.advance": (ChunkedPrefillPoolStage, PrefillPoolStage),
    "disagg.link.advance": (TransferLinkStage,),
    "disagg.decode.advance": (DecodePoolStage,),
    "router.advance": (RouterStage,),
}

KV_METHODS = ("allocate", "append_token", "append_decode", "blocks_needed",
              "free")
COST_METHODS = ("decode_step", "prefill_step", "mixed_step",
                "decode_step_batch")

#: Every per-layer metric with its unit, in report order.
PER_LAYER: list[tuple[str, str]] = [
    ("trace.generate_s", "s"),
    ("engine.build_s", "s"),
    ("compression.calibrate_s", "s"),
    ("compression.calibrate.encode_mb_s", "MB/s"),
    ("compression.resolve_s", "s"),
    ("kernel.run_s", "s"),
    ("kernel.heap_self_s", "s"),
    ("kernel.advances", "count"),
    ("kernel.steps_per_advance", "steps"),
]
for _span in STAGES:
    if _span != "router.advance":
        PER_LAYER += [(f"{_span}_s", "s"), (f"{_span}_calls", "count")]
PER_LAYER += [
    ("router.select_calls", "count"),
    ("router.advance_s", "s"),
    ("router.session_local_frac", "frac"),
    ("scheduler.plan_step_s", "s"),
    ("scheduler.plan_step_calls", "count"),
    ("scheduler.apply_step_s", "s"),
    ("scheduler.apply_step_calls", "count"),
    ("scheduler.admit_calls", "count"),
    ("scheduler.preemptions", "count"),
    ("scheduler.recompute_tokens", "tokens"),
    ("scheduler.batch_size_mean", "seqs"),
    ("scheduler.queue_wait_tail_s", "sim_s"),
]
PER_LAYER += [(f"kvcache.{m}_calls", "count") for m in KV_METHODS]
PER_LAYER += [
    ("kvcache.s", "s"),
    ("kvcache.peak_used_frac", "frac"),
    ("costs.calls", "count"),
    ("costs.misses", "count"),
    ("costs.hit_rate", "frac"),
    ("costs.miss_s", "s"),
    ("prefixcache.lookup_calls", "count"),
    ("prefixcache.lookup_s", "s"),
    ("prefixcache.store_calls", "count"),
    ("prefixcache.store_s", "s"),
    ("prefixcache.token_hit_rate", "frac"),
    ("prefixcache.request_hit_rate", "frac"),
    ("prefixcache.demotions", "count"),
    ("prefixcache.evictions", "count"),
    ("disagg.link.transfers", "count"),
    ("disagg.link.bytes", "B"),
    ("disagg.link.compression_ratio", "x"),
    ("disagg.link.queue_tail_s", "sim_s"),
    ("telemetry.events", "count"),
    ("telemetry.record_s", "s"),
    ("telemetry.bytes_per_event", "B"),
    ("telemetry.attributed_frac", "frac"),
    ("openloop.probes", "count"),
    ("openloop.probe_s", "s"),
]
PER_LAYER += [(f"openloop.knee_rps.{k}", "rps") for k in workloads.KNEE_NAMES]
for _codec in workloads.LOSSLESS_CODECS:
    PER_LAYER += [
        (f"codecs.{_codec}.encode_mb_s", "MB/s"),
        (f"codecs.{_codec}.decode_mb_s", "MB/s"),
        (f"codecs.{_codec}.ratio", "x"),
    ]
PER_LAYER += [
    ("kernels.zipgemm_execute_s", "s"),
    ("kernels.dense_gemm_tiled_s", "s"),
    ("trace.untraced_requests_per_host_s", "req/s"),
    ("trace.traced_requests_per_host_s", "req/s"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
]


class LayerProbe:
    """Facts gathered by the wrappers' hooks during one traced pass."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.sim_now = 0.0
        self.admitted: set[int] = set()
        self.queue_waits: list[float] = []
        self.recompute_tokens = 0
        self.batch_sizes: list[int] = []
        self.session_replica: dict = {}
        self.session_later = 0
        self.session_local = 0
        self.kv_peak = 0.0
        self.memos: list[MemoizedStepCostModel] = []
        #: (codec, "encode"|"decode", parent span) -> [bytes, seconds,
        #: encoded bytes]
        self.codec_io: dict[tuple, list] = {}

    # -- hooks ---------------------------------------------------------
    def on_advance(self, args) -> None:
        self.sim_now = args[1]

    def on_admit(self, args, admitted, _dur, _parent) -> None:
        for req in admitted:
            if req.request_id not in self.admitted:
                self.admitted.add(req.request_id)
                self.queue_waits.append(self.sim_now - req.arrival_s)

    def on_preempt(self, args) -> None:
        req = args[1]
        self.recompute_tokens += (
            req.prompt_len - req.prefill_remaining + req.generated
        )

    def on_plan(self, _args, plan, _dur, _parent) -> None:
        self.batch_sizes.append(len(plan.decode) + len(plan.prefill))

    def on_select(self, args, replica, _dur, _parent) -> None:
        session = getattr(args[1], "session_id", None)
        if session is None:
            return
        # Session ids restart with every trace, so key on the policy
        # (one per serve run) as well.
        key = (args[0], session)
        previous = self.session_replica.get(key)
        if previous is not None:
            self.session_later += 1
            self.session_local += previous is replica
        self.session_replica[key] = replica

    def on_kv_grow(self, args, _result, _dur, _parent) -> None:
        used = args[0].utilization
        if used > self.kv_peak:
            self.kv_peak = used

    def on_memo(self, args, _result, _dur, _parent) -> None:
        self.memos.append(args[0])

    def on_encode(self, args, enc, dur, parent) -> None:
        row = self.codec_io.setdefault(
            (args[0].name, "encode", parent), [0, 0.0, 0])
        row[0] += args[1].nbytes
        row[1] += dur
        row[2] += enc.nbytes

    def on_decode(self, args, _out, dur, parent) -> None:
        row = self.codec_io.setdefault(
            (args[0].name, "decode", parent), [0, 0.0, 0])
        row[0] += args[1].original_nbytes
        row[1] += dur


def install(tracer, probe: LayerProbe) -> None:
    """Wrap every traced entry point (undone by ``tracer.unwrap()``)."""
    w = tracer.wrap
    w(EventKernel, "run", "kernel.run")
    for span, classes in STAGES.items():
        for cls in classes:
            w(cls, "advance", span, before=probe.on_advance)
    w(ContinuousBatchScheduler, "admit", "scheduler.admit",
      after=probe.on_admit)
    w(ContinuousBatchScheduler, "plan_step", "scheduler.plan_step",
      after=probe.on_plan)
    w(ContinuousBatchScheduler, "apply_step", "scheduler.apply_step")
    w(ContinuousBatchScheduler, "preempt", "scheduler.preempt",
      before=probe.on_preempt)
    for method in KV_METHODS:
        grow = method in ("allocate", "append_token", "append_decode")
        tracer.wrap_hierarchy(
            PagedKVCache, method, f"kvcache.{method}", fold=True,
            after=probe.on_kv_grow if grow else None,
        )
    for method in COST_METHODS:
        w(MemoizedStepCostModel, method, "costs.memo", fold=True)
        w(EngineCostModel, method, "costs.engine", fold=True)
    w(MemoizedStepCostModel, "__init__", "costs.memo_build", fold=True,
      after=probe.on_memo)
    w(PrefixCache, "lookup", "prefixcache.lookup")
    w(PrefixCache, "store", "prefixcache.store")
    tracer.wrap_hierarchy(RoutingPolicy, "select", "router.select",
                          after=probe.on_select)
    for attr in sorted(vars(TraceRecorder)):
        if attr.startswith("on_"):
            w(TraceRecorder, attr, "telemetry.record")
    # calibrate() is imported by name into the workloads module.
    w(workloads, "calibrate", "compression.calibrate")
    w(InferenceEngine, "resolve_codecs", "compression.resolve")
    w(Codec, "encode", "codec.encode", after=probe.on_encode)
    w(Codec, "decode", "codec.decode", after=probe.on_decode)
    w(functional, "zipgemm_execute", "kernels.zipgemm_execute")
    w(functional, "dense_gemm_tiled", "kernels.dense_gemm_tiled")
    for gen in ("poisson_trace", "session_trace", "multi_tenant_trace"):
        w(trace_mod, gen, "trace.generate")
    w(openloop, "open_loop_arrivals", "trace.generate")
    tracer.wrap_hierarchy(WorkloadProfile, "trace", "trace.generate")
    w(openloop, "run_open_loop", "openloop.probe")
    w(openloop, "find_knee", "openloop.find_knee")
    for cls in (ServingCore, DisaggregatedCore, FleetCore, InferenceEngine,
                EngineCostModel):
        w(cls, "__init__", "engine.build")


# ----------------------------------------------------------------------
# One traced pass -> metric values
# ----------------------------------------------------------------------
def _deep_size(obj, seen: set) -> int:
    """Bytes held by ``obj`` and what it references, counting shared
    objects (interned strings, enum members) once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(_deep_size(k, seen) + _deep_size(v, seen)
                    for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        size += sum(_deep_size(x, seen) for x in obj)
    elif hasattr(obj, "__slots__"):
        size += sum(_deep_size(getattr(obj, s), seen)
                    for s in obj.__slots__ if hasattr(obj, s))
    return size


def _bytes_per_event(recorder) -> float:
    """Mean retained bytes of the recorder's event objects, from a
    sample of 1,000 (computed from object sizes, not from RSS)."""
    events = recorder.events
    if not events:
        return 0.0
    step = max(1, len(events) // 1000)
    sample = events[::step]
    seen: set = set()
    # Shared strings (kinds, tracks) are held by the recorder's code,
    # not by the events: count them as already seen.
    for e in sample:
        seen.add(id(e.kind))
        seen.add(id(e.track))
    total = sum(_deep_size(e, seen) for e in sample)
    return total / len(sample) + 8  # plus the list slot


def _mb_s(row) -> float:
    return row[0] / row[1] / 1e6 if row and row[1] > 0 else 0.0


def pass_metrics(agg: dict, folded: dict, probe: LayerProbe, outcome,
                 n_spans: int) -> dict:
    """The ``PER_LAYER`` values of one traced pass from its span
    aggregates ``agg`` (name -> count, total, self) and folded
    ``(parent, name)`` rows; the ``trace.*requests*`` and overhead
    entries are filled in by the caller."""

    def n(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return agg.get(name, (0, 0.0, 0.0))[2]

    m: dict[str, float] = {}
    m["trace.generate_s"] = total("trace.generate")
    m["engine.build_s"] = total("engine.build")
    m["compression.calibrate_s"] = total("compression.calibrate")
    cal = [0, 0.0]
    for (codec, op, parent), row in probe.codec_io.items():
        if op == "encode" and parent == "compression.calibrate":
            cal[0] += row[0]
            cal[1] += row[1]
    m["compression.calibrate.encode_mb_s"] = _mb_s(cal)
    m["compression.resolve_s"] = total("compression.resolve")

    results = [r for r, _ in outcome.served] + [
        p.result for p in outcome.probes + outcome.replays
    ]
    advances = sum(n(span) for span in STAGES)
    m["kernel.run_s"] = total("kernel.run")
    m["kernel.heap_self_s"] = self_s("kernel.run")
    m["kernel.advances"] = advances
    m["kernel.steps_per_advance"] = (
        sum(r.n_steps for r in results) / advances if advances else 0.0
    )
    for span in STAGES:
        if span != "router.advance":
            m[f"{span}_s"] = total(span)
            m[f"{span}_calls"] = n(span)
    m["router.select_calls"] = n("router.select")
    m["router.advance_s"] = total("router.advance")
    m["router.session_local_frac"] = (
        probe.session_local / probe.session_later
        if probe.session_later else 0.0
    )
    for step in ("plan_step", "apply_step"):
        m[f"scheduler.{step}_s"] = total(f"scheduler.{step}")
        m[f"scheduler.{step}_calls"] = n(f"scheduler.{step}")
    m["scheduler.admit_calls"] = n("scheduler.admit")
    m["scheduler.preemptions"] = n("scheduler.preempt")
    m["scheduler.recompute_tokens"] = probe.recompute_tokens
    m["scheduler.batch_size_mean"] = (
        float(np.mean(probe.batch_sizes)) if probe.batch_sizes else 0.0
    )
    m["scheduler.queue_wait_tail_s"] = tail(probe.queue_waits)[1]
    for method in KV_METHODS:
        m[f"kvcache.{method}_calls"] = n(f"kvcache.{method}")
    m["kvcache.s"] = sum(
        row[1] for (parent, name), row in folded.items()
        if name.startswith("kvcache.")
        and not str(parent).startswith("kvcache.")
    )
    m["kvcache.peak_used_frac"] = probe.kv_peak
    hits = misses = 0
    for memo in probe.memos:
        for stats in memo.cache_info().values():
            hits += stats["hits"]
            misses += stats["misses"]
    m["costs.calls"] = hits + misses
    m["costs.misses"] = misses
    m["costs.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    m["costs.miss_s"] = folded.get(
        ("costs.memo", "costs.engine"), (0, 0.0, 0.0))[1]
    for op in ("lookup", "store"):
        m[f"prefixcache.{op}_calls"] = n(f"prefixcache.{op}")
        m[f"prefixcache.{op}_s"] = total(f"prefixcache.{op}")
    source = [r for group in outcome.latency_groups for r in group]
    caches = [r.prefix_cache for r in source if r.prefix_cache is not None]
    cache = PrefixCacheStats.merge(caches) if caches else None
    m["prefixcache.token_hit_rate"] = cache.token_hit_rate if cache else 0.0
    m["prefixcache.request_hit_rate"] = (
        cache.request_hit_rate if cache else 0.0
    )
    m["prefixcache.demotions"] = cache.n_demotions if cache else 0
    m["prefixcache.evictions"] = cache.n_evictions if cache else 0
    transfers = []
    for r in source:
        transfers += [r.transfer] if r.transfer is not None else []
        transfers += [x.transfer for x in r.replicas
                      if x.transfer is not None]
    wire = sum(t.total_bytes for t in transfers)
    m["disagg.link.transfers"] = sum(t.n_transfers for t in transfers)
    m["disagg.link.bytes"] = wire
    m["disagg.link.compression_ratio"] = (
        sum(t.total_bytes * t.compression_ratio for t in transfers) / wire
        if wire else 0.0
    )
    m["disagg.link.queue_tail_s"] = tail(
        [rec.queue_s for t in transfers for rec in t.records])[1]
    rec = outcome.recorder
    finished = sum(
        1 for r in source for t in r.timings if t.finish_s is not None)
    m["telemetry.events"] = len(rec.events) if rec else 0
    m["telemetry.record_s"] = total("telemetry.record")
    m["telemetry.bytes_per_event"] = _bytes_per_event(rec) if rec else 0.0
    m["telemetry.attributed_frac"] = (
        len(rec.attributions) / finished if rec and finished else 0.0
    )
    m["openloop.probes"] = n("openloop.probe")
    m["openloop.probe_s"] = total("openloop.probe")
    for knee in workloads.KNEE_NAMES:
        m[f"openloop.knee_rps.{knee}"] = geomean(outcome.knees.get(knee, ()))
    for codec in workloads.LOSSLESS_CODECS:
        enc = probe.codec_io.get((codec, "encode", None))
        dec = probe.codec_io.get((codec, "decode", None))
        m[f"codecs.{codec}.encode_mb_s"] = _mb_s(enc)
        m[f"codecs.{codec}.decode_mb_s"] = _mb_s(dec)
        m[f"codecs.{codec}.ratio"] = enc[0] / enc[2] if enc and enc[2] else 0.0
    m["kernels.zipgemm_execute_s"] = total("kernels.zipgemm_execute")
    m["kernels.dense_gemm_tiled_s"] = total("kernels.dense_gemm_tiled")
    m["trace.spans"] = n_spans
    return m


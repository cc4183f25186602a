"""The inference engine: a facade over the three-layer serving stack.

The serving simulator is split into three decoupled subsystems:

* **cost layer** (:mod:`repro.serving.costs`) — :class:`StepCostModel`
  implementations owning the linear/attention/elementwise/dispatch math
  (per backend: cuBLAS, stage-aware TCA-TBE, decompress-per-use), plus a
  memoizing wrapper that buckets decode contexts for long traces;
* **scheduling layer** (:mod:`repro.serving.scheduler`) — policy hierarchy
  (FCFS / priority / SJF), chunked-prefill planning under
  ``max_batched_tokens``, and recompute preemption when KV fills;
* **serving core + metrics** (:mod:`repro.serving.serve`,
  :mod:`repro.serving.metrics`) — the event-driven clock loop and the
  TTFT/TPOT/percentile/SLO-goodput accounting.

:class:`InferenceEngine` wires the three together for one
(model, gpu, backend) triple and keeps the seed-era entry points stable:
``run(...)`` for the paper's fixed-batch benchmarks (§6.5, with vLLM-style
wave recompute when a batch's final context overflows KV) and
``run_continuous(...)`` for the original group-prefill trace replay.  New
serving scenarios go through :meth:`InferenceEngine.serve`, which exposes
the full scheduler-policy / chunked-prefill / SLO surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..compression import (
    ACTIVATION_SIGMA,
    CompressionSpec,
    TensorClass,
    get_codec_policy,
    resolve_spec,
)
from ..errors import CapacityError, ConfigError
from ..gpu.specs import GpuSpec
from ..utils import ceil_div
from .backends import BackendConfig
from .costs import EngineCostModel, StepBreakdown
from .disagg import DisaggregatedCore
from .fleet import FleetCore
from .kvcache import CompressedKVCacheSpec, KVCacheSpec, PagedKVCache
from .memory_plan import DEFAULT_GPU_MEM_UTIL, MemoryPlan, plan_memory
from .metrics import ContinuousResult
from .models import ModelSpec
from .scheduler import (
    Request,
    SchedulerLimits,
    StaticBatchScheduler,
)
from .serve import ServingConfig, ServingCore

__all__ = [
    "InferenceEngine",
    "ServeResult",
    "StepBreakdown",
    "ContinuousResult",
]

#: The core each ``ServingConfig.mode`` runs on.
_CORES = {
    "colocated": ServingCore,
    "disaggregated": DisaggregatedCore,
    "fleet": FleetCore,
}


@dataclass
class ServeResult:
    """Outcome of one benchmark run (fixed batch, fixed lengths)."""

    model: str
    gpu: str
    backend: str
    tensor_parallel: int
    batch_size: int
    prompt_len: int
    output_len: int
    prefill_s: float
    decode_s: float
    avg_step: StepBreakdown
    memory: MemoryPlan
    effective_batch: int
    n_waves: int
    details: dict = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        """End-to-end request latency (full output sequence)."""
        return self.prefill_s + self.decode_s

    @property
    def latency_s(self) -> float:
        """Alias for the paper's latency metric."""
        return self.total_s

    @property
    def throughput_tok_s(self) -> float:
        """Output tokens per second across the batch."""
        return self.batch_size * self.output_len / self.total_s


class InferenceEngine:
    """Step-level serving simulator for one (model, gpu, backend) triple."""

    def __init__(
        self,
        model: ModelSpec,
        gpu: GpuSpec,
        backend: BackendConfig,
        tensor_parallel: int = 1,
        gpu_mem_util: float = DEFAULT_GPU_MEM_UTIL,
        pipeline_parallel: int = 1,
        kv_compression_ratio: float = 1.0,
    ):
        """``kv_compression_ratio > 1`` enables the §7 KV-cache extension:
        blocks are stored Vector-TBE-compressed, multiplying token capacity
        and shrinking the attention kernel's DRAM traffic."""
        if tensor_parallel > 1 and not backend.supports_tensor_parallel:
            raise ConfigError(
                f"backend {backend.name!r} does not support tensor"
                " parallelism (use pipeline_parallel for device-map"
                " sharding)"
            )
        self.model = model
        self.gpu = gpu
        self.backend = backend
        self.tp = tensor_parallel
        self.pp = pipeline_parallel
        self.gpu_mem_util = gpu_mem_util
        self.costs = EngineCostModel(
            model, gpu, backend,
            tensor_parallel=tensor_parallel,
            pipeline_parallel=pipeline_parallel,
            kv_compression_ratio=kv_compression_ratio,
        )
        self.kv_ratio = self.costs.kv_ratio
        self.plan = plan_memory(
            model, gpu, backend.weight_scheme, tensor_parallel,
            gpu_mem_util, pipeline_parallel=pipeline_parallel,
        )
        self.kv_spec = KVCacheSpec.for_model(
            model, tensor_parallel, pipeline_parallel
        )
        if self.kv_ratio > 1.0:
            # Same bytes, more tokens: capacity scales with the ratio.
            from dataclasses import replace

            extra = int(self.plan.kv_bytes // (
                self.kv_spec.bytes_per_token / self.kv_ratio
            ))
            self.plan = replace(self.plan, kv_tokens=extra)

    # ------------------------------------------------------------------
    # Cost-layer facade (delegates to the step cost model)
    # ------------------------------------------------------------------
    def linear_time(self, n_tokens: int) -> tuple[float, int, float]:
        """(kernel seconds, op count, all-reduce seconds) for one pass."""
        return self.costs.linear_time(n_tokens)

    def attention_time(self, batch: int, ctx: int, phase: str) -> float:
        """Per-step attention across all layers (one TP shard)."""
        return self.costs.attention_time(batch, ctx, phase)

    def elementwise_time(self, n_tokens: int) -> float:
        """Norms, RoPE, activation and residual traffic per pass."""
        return self.costs.elementwise_time(n_tokens)

    def decode_step(self, batch: int, ctx: int) -> StepBreakdown:
        """Breakdown of one decode step at context length ``ctx``."""
        return self.costs.decode_step(batch, ctx)

    def prefill_step(self, batch: int, prompt_len: int) -> StepBreakdown:
        """Breakdown of the prefill pass."""
        return self.costs.prefill_step(batch, prompt_len)

    # ------------------------------------------------------------------
    # Fixed-batch runs (the paper's §6.5 benchmark mode)
    # ------------------------------------------------------------------
    def max_wave_batch(self, final_ctx: int) -> int:
        """Largest concurrent batch whose final context fits in KV."""
        block = self.kv_spec.block_size
        tokens_per_seq = ceil_div(final_ctx, block) * block
        return int(self.plan.kv_tokens // tokens_per_seq)

    def run(
        self, batch_size: int, prompt_len: int, output_len: int
    ) -> ServeResult:
        """Benchmark one fixed-batch generation run.

        When the batch's final context exceeds KV capacity, the engine models
        vLLM's recompute-preemption: all sequences decode together until the
        cache fills, the overflow group is evicted and later re-prefilled to
        finish — weight compression shows up as throughput precisely here.
        """
        if batch_size <= 0 or prompt_len <= 0 or output_len <= 0:
            raise ConfigError("batch, prompt and output lengths must be > 0")
        final_ctx = prompt_len + output_len
        fit_batch = self.max_wave_batch(final_ctx)
        if fit_batch == 0:
            raise CapacityError(
                f"{self.model.name} on {self.gpu.name} x{self.tp}"
                f" ({self.backend.name}): a single {final_ctx}-token"
                " sequence does not fit in KV cache"
            )
        prefill_s, decode_s, accum, n_steps = self._run_batch(
            batch_size, prompt_len, output_len
        )
        wave_batch = min(batch_size, fit_batch)
        return ServeResult(
            model=self.model.name,
            gpu=self.gpu.name,
            backend=self.backend.name,
            tensor_parallel=self.tp,
            batch_size=batch_size,
            prompt_len=prompt_len,
            output_len=output_len,
            prefill_s=prefill_s,
            decode_s=decode_s,
            avg_step=accum.scaled(1.0 / max(n_steps, 1)),
            memory=self.plan,
            effective_batch=wave_batch,
            n_waves=ceil_div(batch_size, wave_batch),
        )

    def _run_batch(
        self, batch: int, prompt_len: int, output_len: int
    ) -> tuple[float, float, StepBreakdown, int]:
        """Run a batch, preempting the overflow group when KV fills.

        Returns (prefill seconds, decode seconds, summed breakdown, steps).
        """
        if batch <= self.max_wave_batch(prompt_len + output_len):
            prefill_s, decode_s, accum = self._run_wave(
                batch, prompt_len, output_len
            )
            return prefill_s, decode_s, accum, output_len

        survivors = self.max_wave_batch(prompt_len + output_len)
        preempted = batch - survivors
        # Steps every sequence can take before the cache fills.
        per_seq_tokens = self.plan.kv_tokens // batch
        s_star = min(max(per_seq_tokens - prompt_len, 0), output_len - 1)

        prefill_s = self.prefill_step(batch, prompt_len).total_s
        decode_s = 0.0
        accum = StepBreakdown()
        for step in range(s_star):
            breakdown = self.decode_step(batch, prompt_len + step)
            decode_s += breakdown.total_s
            accum.add(breakdown)
        for step in range(s_star, output_len):
            breakdown = self.decode_step(survivors, prompt_len + step)
            decode_s += breakdown.total_s
            accum.add(breakdown)
        n_steps = output_len

        # The evicted group is re-prefilled over its accumulated context and
        # finishes its remaining tokens (recursively, in case it still does
        # not fit).
        sub_prefill, sub_decode, sub_accum, sub_steps = self._run_batch(
            preempted, prompt_len + max(s_star, 1), output_len - s_star
        )
        prefill_s += sub_prefill
        decode_s += sub_decode
        accum.add(sub_accum)
        n_steps += sub_steps
        return prefill_s, decode_s, accum, n_steps

    def _run_wave(
        self, batch: int, prompt_len: int, output_len: int
    ) -> tuple[float, float, StepBreakdown]:
        """Drive one wave through the scheduler and the block allocator."""
        kv = PagedKVCache(self.kv_spec, self.plan.kv_bytes)
        requests = [
            Request(request_id=i, prompt_len=prompt_len,
                    max_new_tokens=output_len)
            for i in range(batch)
        ]
        scheduler = StaticBatchScheduler(requests, kv)
        scheduler.prefill()
        prefill_s = self.prefill_step(batch, prompt_len).total_s

        decode_s = 0.0
        accum = StepBreakdown()
        step_index = 0
        while not scheduler.finished:
            ctx = prompt_len + step_index
            breakdown = self.decode_step(batch, ctx)
            decode_s += breakdown.total_s
            accum.add(breakdown)
            scheduler.step()
            step_index += 1
        return prefill_s, decode_s, accum

    # ------------------------------------------------------------------
    # Trace serving (continuous batching)
    # ------------------------------------------------------------------
    def serve(
        self,
        requests: list[Request],
        config: ServingConfig | None = None,
        limits: SchedulerLimits | None = None,
        deadline_s: float | None = None,
    ) -> ContinuousResult:
        """Serve a request trace through the event-driven serving core.

        The default :class:`~repro.serving.serve.ServingConfig` enables
        chunked prefill under the FCFS policy; pass a config to pick a
        policy (``"fcfs"`` / ``"priority"`` / ``"sjf"``), an SLO target, or
        cost-model memoization.  ``limits`` overrides the config's
        scheduler limits for convenience.

        ``config.mode`` selects the serving topology — both run on the
        shared event kernel (:mod:`repro.serving.kernel`):
        ``"colocated"`` (default) runs one engine through
        :class:`~repro.serving.serve.ServingCore`, bit-identical to the
        pre-disaggregation behaviour; ``"disaggregated"`` routes through
        :class:`~repro.serving.disagg.DisaggregatedCore`, a prefill pool
        and a decode pool joined by a KV-transfer link sized by
        ``config.disagg`` (each replica gets this engine's full KV
        budget).  The disaggregated pipeline's coupling knobs all live
        on :class:`~repro.serving.serve.DisaggConfig`: decode→prefill
        backpressure watermarks (``backpressure=BackpressureConfig``),
        ``link_topology="shared"|"per_replica"``, chunked prefill inside
        the prefill pool (``prefill_mode="chunked"``) and analytic
        layer-wise prefill/transfer overlap (``overlap_fraction``).

        ``config.weight_codec`` / ``config.kv_codec`` /
        ``config.transfer_codec`` override the engine's construction-time
        compression choices through the unified registry: the run prices
        linear layers under the weight codec, streams (and budgets) the
        KV cache under the KV codec, and ships wire bytes under the
        transfer codec — any combination of registered codecs is valid.
        Slots left ``None`` keep this engine's own cost model, KV spec
        and memory plan, so default configs are bit-compatible.

        Any slot set to ``"auto"`` is resolved right here, at config
        time, by ``config.codec_policy`` against this engine's
        (model, gpu) pair — per tensor class for the weight slot — and
        ``config.calibration`` makes every ratio in the run resolve
        measured rather than analytic (:mod:`repro.compression`'s
        calibration subsystem).  :meth:`resolve_codecs` exposes the
        same selection for inspection without running a trace.

        ``deadline_s`` bounds the simulation (both topologies): the run
        stops before the first event past it and requests still in
        flight are counted as ``n_unfinished`` on the result — the
        open-loop overload contract of :mod:`repro.serving.openloop`.
        ``None`` (default) runs to completion, bit-compatibly.
        """
        config = (config or ServingConfig()).with_limits(limits)
        config, layer_specs = self._resolve_auto(config)
        costs, kv_spec, kv_bytes = self._codec_stack(config, layer_specs)
        core = _CORES[config.mode](costs, kv_spec, kv_bytes, config)
        return core.serve(requests, deadline_s=deadline_s)

    # ------------------------------------------------------------------
    # Codec auto-selection (the calibration + policy subsystem)
    # ------------------------------------------------------------------
    def _selection_classes(self) -> dict[str, TensorClass]:
        """Tensor classes at this engine's *sharded* geometry.

        The sibling of :func:`~repro.compression.tensor_classes_for_model`
        (which samples for calibration at the full layer shapes): weight
        sigmas here come from the TP-sharded layer dims, exactly the
        sigmas ``EngineCostModel`` prices at, so auto selection's
        analytic fallback and the cost layer agree.  Measured lookups
        key on the class *name* and are sigma-independent.
        """
        from .parallel import shard_layer
        from .weights import layer_sigma

        classes: dict[str, TensorClass] = {}
        for layer in self.model.linear_layers():
            layout = shard_layer(layer, self.tp)
            name = f"weight:{layer.kind}"
            classes[name] = TensorClass(
                name, "weight", layer_sigma(layer.kind, layout.m, layout.k)
            )
        classes["kv:block"] = TensorClass(
            "kv:block", "kv", ACTIVATION_SIGMA
        )
        classes["wire:kv"] = TensorClass(
            "wire:kv", "wire", ACTIVATION_SIGMA
        )
        classes["prefix:block"] = TensorClass(
            "prefix:block", "prefix", ACTIVATION_SIGMA
        )
        return classes

    def resolve_codecs(self, config: ServingConfig) -> dict:
        """What the codec slots of ``config`` resolve to on this engine.

        Returns ``{"policy": <name>, "weight": {layer kind: spec},
        "kv": spec, "transfer": spec, "prefix": spec}`` with settled
        :class:`~repro.compression.CompressionSpec` values — ``"auto"``
        slots through the policy, named slots through the same
        per-class, calibration-aware resolution ``serve`` prices with.
        Pure inspection: running :meth:`serve` with the same config
        uses exactly this selection (the one exception is an all-default
        config with no calibration, where ``serve`` keeps the engine's
        construction-time stack and this method reports the equivalent
        analytic per-class resolution of it).
        """
        policy = get_codec_policy(config.codec_policy)
        profile = config.calibration
        classes = self._selection_classes()

        def slot_spec(slot, placement, cls):
            tcls = classes[cls]
            if slot == "auto":
                return policy.select(
                    placement, self.gpu, profile=profile,
                    sigma=tcls.sigma, cls=cls,
                )
            name = slot
            if name is None:
                name = (
                    "none" if placement == "prefix" else
                    config.resolved_transfer_codec
                    if placement == "wire" else
                    self.costs.kv_spec_c if placement == "kv"
                    else self.costs.weight_spec.codec
                )
            return resolve_spec(
                name, placement, sigma=tcls.sigma, cls=cls,
                profile=profile,
            )

        weight: dict[str, CompressionSpec] = {}
        for name, tcls in classes.items():
            if tcls.placement != "weight":
                continue
            kind = name.split(":", 1)[1]
            weight[kind] = slot_spec(config.weight_codec, "weight", name)
        return {
            "policy": policy.name,
            "weight": weight,
            "kv": slot_spec(config.kv_codec, "kv", "kv:block"),
            "transfer": slot_spec(
                config.transfer_codec, "wire", "wire:kv"
            ),
            "prefix": slot_spec(
                (
                    config.prefix_cache.codec
                    if config.prefix_cache is not None else None
                ),
                "prefix", "prefix:block",
            ),
        }

    def _resolve_auto(
        self, config: ServingConfig
    ) -> tuple[ServingConfig, dict[str, CompressionSpec] | None]:
        """Settle ``"auto"`` slots into concrete codecs at config time.

        Returns the (possibly rewritten) config plus the per-layer
        weight spec mapping for an auto weight slot (``None``
        otherwise).  Configs without auto slots pass through untouched —
        the bit-compatibility fast path.
        """
        if not config.auto_slots:
            return config, None
        selection = self.resolve_codecs(config)
        layer_specs = None
        updates: dict[str, object] = {}
        if config.weight_codec == "auto":
            layer_specs = selection["weight"]
            # The dominant name keeps the rewritten config readable; the
            # cost model prices through the per-layer mapping.
            updates["weight_codec"] = max(
                layer_specs.values(), key=lambda s: s.ratio
            ).codec
        if config.kv_codec == "auto":
            updates["kv_codec"] = selection["kv"].codec
        if config.transfer_codec == "auto":
            updates["transfer_codec"] = selection["transfer"].codec
        if (
            config.prefix_cache is not None
            and config.prefix_cache.codec == "auto"
        ):
            updates["prefix_cache"] = replace(
                config.prefix_cache, codec=selection["prefix"].codec
            )
        return replace(config, **updates), layer_specs

    def _codec_stack(
        self,
        config: ServingConfig,
        layer_specs: dict[str, CompressionSpec] | None = None,
    ) -> tuple[EngineCostModel, KVCacheSpec, float]:
        """Resolve the config's codec slots into (costs, kv spec, bytes).

        Registry resolution happens here, once per ``serve`` call — the
        cores and schedulers downstream only ever see settled specs.
        With no codec slots, no calibration profile and no per-layer
        specs this returns the engine's own stack unchanged (the
        bit-compatibility guarantee).
        """
        if (
            config.weight_codec is None
            and config.kv_codec is None
            and config.calibration is None
            and layer_specs is None
        ):
            return self.costs, self.kv_spec, self.plan.kv_bytes
        costs = EngineCostModel(
            self.model, self.gpu, self.backend,
            tensor_parallel=self.tp,
            pipeline_parallel=self.pp,
            weight_codec=(
                layer_specs if layer_specs is not None
                else config.weight_codec
            ),
            # A None slot keeps the engine's construction-time KV spec
            # (including any kv_compression_ratio it was built with) —
            # setting a weight codec must not silently change the KV
            # stack.
            kv_codec=(
                config.kv_codec if config.kv_codec is not None
                else self.costs.kv_spec_c
            ),
            calibration=config.calibration,
        )
        plan = self.plan
        if config.weight_codec is not None or costs.layer_specs is not None:
            # A different weight codec changes the weight footprint, and
            # the memory freed (or reclaimed) moves the KV budget.
            scheme = (
                "dense" if costs.weight_spec.identity
                else costs.weight_spec.codec
            )
            plan = plan_memory(
                self.model, self.gpu, scheme, self.tp,
                self.gpu_mem_util, pipeline_parallel=self.pp,
                layer_ratios=costs.layer_ratios(),
            )
        kv_spec: KVCacheSpec | CompressedKVCacheSpec = self.kv_spec
        if config.kv_codec is not None and costs.kv_ratio > 1.0:
            # Compressed residency: same bytes, proportionally more
            # tokens through the block allocator.  Only an *explicit*
            # kv_codec slot scales capacity — a None slot keeps the
            # engine's historical serve() geometry (raw block budget,
            # compressed streaming), bit-compatible with PR 2.
            kv_spec = CompressedKVCacheSpec(
                inner=self.kv_spec,
                ratio=costs.kv_ratio,
                codec=costs.kv_spec_c.codec,
            )
        return costs, kv_spec, plan.kv_bytes

    def run_continuous(
        self,
        requests: list[Request],
        limits: SchedulerLimits | None = None,
    ) -> ContinuousResult:
        """Serve a request trace with continuous batching (vLLM's mode).

        Seed-compatible facade: FCFS admission, one whole-prompt prefill
        pass per admission group, one decode step per iteration — the mode
        in which KV capacity freed by weight compression turns into
        admissible concurrency.  The result now also carries interpolated
        percentiles, TTFT/TPOT and SLO goodput; use :meth:`serve` for
        chunked prefill and non-FCFS policies.
        """
        if not requests:
            raise ConfigError("run_continuous needs at least one request")
        return self.serve(
            requests,
            config=ServingConfig(policy="fcfs", prefill_mode="group"),
            limits=limits,
        )

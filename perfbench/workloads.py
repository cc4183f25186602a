"""The four benchmark workloads.

Every workload is one deployment study of the ZipServ stack, in the three
steps a user of this repository takes:

1. **set up** — generate the seeded inputs (request trace, BF16 tensors),
   build the serving core and engine, calibrate codecs and resolve the
   codec policy where the deployment uses ``"auto"`` codecs;
2. **compress** — push the deployment's tensors through its lossless
   codecs (encode, then decode) and its TCA-TBE weight layers through the
   fused ZipGEMM executor (run by ``harness``);
3. **simulate** — bisect the deployment's capacity knees with the
   open-loop harness and serve its traffic.

The workloads differ in which step carries the weight (see
``DESIGN.md``), so each stresses other layers of ``src/repro``.  Scenario
geometry (model, GPU, scheduler limits, cost bucket, link speed, SLOs) is
imported from ``benchmarks/bench_serving.py`` and
``benchmarks/bench_capacity.py``; only the seed comes from the command
line.  Module attributes (``trace_mod.poisson_trace``,
``openloop.run_open_loop``) are looked up at call time so the traced run
can wrap them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import bench_capacity as bc
import bench_serving as bs
from repro.bf16 import gaussian_bf16_matrix
from repro.compression import calibrate, tensor_classes_for_model
from repro.compression.calibrate import TensorClass
from repro.compression.spec import ACTIVATION_SIGMA
from repro.serving import openloop
from repro.serving import telemetry
from repro.serving import trace as trace_mod
from repro.serving.costs import EngineCostModel
from repro.serving.disagg import DisaggregatedCore
from repro.serving.engine import InferenceEngine
from repro.serving.fleet import FleetConfig, FleetCore
from repro.serving.prefixcache import PrefixCacheConfig
from repro.serving.serve import DisaggConfig, ServingConfig, ServingCore

#: The lossless codecs ``codec_roundtrip`` round-trips; ``none`` is the
#: control that shows the harness's own cost.
LOSSLESS_CODECS = ("tcatbe", "vector_tbe", "dfloat11", "dietgpu", "nvcomp",
                   "none")

#: colocated_saturated: a fifth of ROADMAP's 100k ``large_trace_colocated``
#: so several passes fit one run (the per-step work is the same: the
#: queue never drains at 20 rps against ~4 rps of service).
COLOCATED_N_REQUESTS = 20_000

#: fleet_sessions_traced: sessions offered per second to FLEET_REPLICAS
#: disaggregated cells (~4 requests per session).  At 5 sessions/s the
#: p99 TTFT and TPOT moved by 25-90% between seeds; at 2/s by under 7%.
FLEET_N_SESSIONS = 1_000
FLEET_SESSION_RATE = 2.0
FLEET_REPLICAS = 4

#: capacity_auto_codec: the profiles swept, each under raw transfer and
#: the best_ratio auto-codec stack on the starved link.
CAPACITY_PROFILES = ("chat", "chat_sessions", "rag_long_context",
                     "code_generation")

#: codec_roundtrip serves a Poisson trace over the kvcomp disagg pair,
#: below its knee.
CODEC_N_REQUESTS = 4_000
CODEC_RATE_RPS = 2.0

#: How each workload bisects its knees: independent replicate seeds per
#: (profile, config); the fewest requests every open-loop measurement
#: offers (its horizon is ``max(bench_capacity.DURATION_S, min_requests
#: / rate)``); and the top of the search bracket, which sits above every
#: knee of the workload (bench_capacity's 64 rps spends most of a sweep
#: on overloaded probes).  One bisection is noisy: a fixed 15 s horizon
#: holds 5-20 requests at the knees of the long-prompt profiles, which
#: then move by 50-60% between seeds.  The spread of a knee falls roughly
#: as ``1 / sqrt(replicates * min_requests)``.
SWEEP_PLAN = {
    "colocated_saturated": (2, 600, 16.0),
    "fleet_sessions_traced": (1, 600, bc.HI_RPS),
    "capacity_auto_codec": (1, 150, 16.0),
    "codec_roundtrip": (2, 600, 16.0),
}

#: capacity_auto_codec's serve step: one open-loop measurement of every
#: (profile, config) pair at a fixed rate, about half the pair's median
#: knee at seeds 101-110, each offering ``SWEEP_PLAN``'s
#: ``min_requests``.  Its rates do not follow the seed's knees, so every
#: seed times the same amount of simulated work; it is repeated within a
#: pass (``Deployment.repeatable``) to give many host-time samples.
REPLAY_RATES_RPS = {
    "chat.disagg": 2.0,
    "chat.auto_codec": 3.5,
    "chat_sessions.disagg": 0.8,
    "chat_sessions.auto_codec": 1.0,
    "rag_long_context.disagg": 0.16,
    "rag_long_context.auto_codec": 0.27,
    "code_generation.disagg": 0.27,
    "code_generation.auto_codec": 0.47,
}

#: Bisection resolution: a quarter of bench_capacity's, whose 1/16 rps
#: steps are 12-25% of the 0.25-0.5 rps knees of the long-prompt
#: profiles; two more probes pay for it.
KNEE_TOL_RPS = bc.RATE_TOL_RPS / 4
KNEE_MAX_PROBES = bc.MAX_PROBES + 2

#: Shape (rows, cols) of the weight layers and KV blocks of the compress
#: step.
TENSOR_SHAPE = (256, 512)
#: Activation columns multiplied through ZipGEMM.
GEMM_TOKENS = 8


@dataclass
class Tensor:
    """One BF16 tensor of the compress step and the codecs it goes
    through."""

    label: str
    data: np.ndarray
    codecs: tuple[str, ...]


@dataclass
class Deployment:
    """Everything one pass needs, built by a workload's set-up.

    ``serve(outcome)`` runs the deployment's traffic once; the
    simulator's host speed is timed on it.  Unless ``repeatable``, its
    requests are mutated by the run, so every pass sets up afresh.
    ``sweep(outcome)`` adds the capacity knees.  Both record into a
    :class:`SimOutcome`.
    """

    tensors: list[Tensor]
    #: Activations every TCA-TBE weight layer is multiplied with.
    gemm_x: np.ndarray
    serve: object
    sweep: object
    #: ``serve`` builds its inputs afresh on every call and gives the
    #: same results each time, so a pass may repeat it.
    repeatable: bool = False


@dataclass
class SimOutcome:
    """The simulated results of one pass.

    ``served`` pairs each serve run's result with the number of requests
    it was offered; ``probes`` holds every open-loop measurement of the
    knee sweeps; ``knees`` every knee found and ``half_load`` the
    measurements at half of each knee, per ``<profile>.<config>`` (one
    per replicate); ``replays`` the fixed-rate measurements of
    ``capacity_auto_codec``'s serve step.
    """

    served: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    replays: list = field(default_factory=list)
    knees: dict = field(default_factory=dict)
    half_load: dict = field(default_factory=dict)
    recorder: object = None

    @property
    def latency_groups(self) -> list[list]:
        """Results the ``sim_*`` metrics describe, in groups whose
        statistics are combined by geometric mean: the serve runs as one
        group, or, for a workload without one (whose serve step replays
        fixed-rate probes), the half-knee measurements of each (profile,
        config)."""
        if self.served:
            return [[r for r, _ in self.served]]
        return [[m.result for m in ms] for ms in self.half_load.values()]


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def _engine() -> InferenceEngine:
    return InferenceEngine(bs._MODEL, bs._GPU, bs._BACKEND, gpu_mem_util=0.9)


def _cost_model() -> EngineCostModel:
    return EngineCostModel(bs._MODEL, bs._GPU, bs._BACKEND)


def _weight_classes(shape) -> list[TensorClass]:
    return [
        c for c in tensor_classes_for_model(bs._MODEL, sample_shape=shape)
        if c.placement == "weight"
    ]


def _sample(tcls: TensorClass, seed: int) -> np.ndarray:
    rows, cols = tcls.shape
    return gaussian_bf16_matrix(
        rows, cols, sigma=tcls.sigma, seed=tcls.sample_seed(seed)
    )


def _tensors(shape, seed: int, weight_codecs, kv_codecs=(), n_kv=0):
    """Seeded weight layers (one per linear kind, Glorot scale) and KV
    blocks (activation scale)."""
    tensors = [
        Tensor(c.name, _sample(c, seed), tuple(weight_codecs))
        for c in _weight_classes(shape)
    ]
    for i in range(n_kv):
        tcls = TensorClass(f"kv:block{i}", "kv", ACTIVATION_SIGMA, shape)
        tensors.append(Tensor(tcls.name, _sample(tcls, seed),
                              tuple(kv_codecs)))
    return tensors


def _gemm_x(k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((k, GEMM_TOKENS)).astype(np.float32)


def _engine_server(engine, config):
    """``engine.serve`` under ``config``, in the open-loop harness's
    ``(requests, deadline_s)`` form."""

    def serve(requests, deadline_s):
        return engine.serve(requests, config=config, deadline_s=deadline_s)

    return serve


def _measure(serve, profile, rate, min_requests, sub_seed):
    """One open-loop measurement as bench_capacity makes it, over a
    horizon offering at least ``min_requests`` requests."""
    return openloop.run_open_loop(
        serve, profile, rate, max(bc.DURATION_S, min_requests / rate),
        warmup_s=bc.WARMUP_S, cooldown_s=bc.COOLDOWN_S, seed=sub_seed,
        slo=bc.PROFILE_SLOS.get(profile),
    )


def _sweeper(engine, pairs, seed: int, plan: tuple[int, int, float]):
    """A ``sweep(outcome)`` that bisects each (profile, config name,
    config) knee as ``bench_capacity.measure_config`` does, once per
    replicate seed (see :data:`SWEEP_PLAN`), then measures at half the
    knee.  Every pair and replicate gets its own seed, so their knees
    are independent samples."""
    replicates, min_requests, hi_rps = plan

    def measure(serve, profile, rate, sub_seed, outcome):
        m = _measure(serve, profile, rate, min_requests, sub_seed)
        outcome.probes.append(m)
        return m

    def sweep(outcome: SimOutcome) -> None:
        for index, (profile, name, config) in enumerate(pairs):
            serve = _engine_server(engine, config)
            for rep in range(replicates):
                sub_seed = (seed * 100 + index) * 10 + rep
                knee = openloop.find_knee(
                    lambda rate: openloop.goodput_feasible(measure(
                        serve, profile, rate, sub_seed, outcome)),
                    bc.LO_RPS, hi_rps, rate_tol_rps=KNEE_TOL_RPS,
                    max_probes=KNEE_MAX_PROBES,
                )
                key = f"{profile}.{name}"
                outcome.knees.setdefault(key, []).append(knee.knee_rps)
                outcome.half_load.setdefault(key, []).append(measure(
                    serve, profile, 0.5 * knee.knee_rps, sub_seed, outcome))

    return sweep


def _replayer(engine, pairs, seed: int, min_requests: int):
    """A ``serve(outcome)`` that measures each (profile, config name,
    config) pair once at its :data:`REPLAY_RATES_RPS` rate, with the
    seed of the pair's first sweep replicate."""

    def serve(outcome: SimOutcome) -> None:
        for index, (profile, name, config) in enumerate(pairs):
            outcome.replays.append(_measure(
                _engine_server(engine, config), profile,
                REPLAY_RATES_RPS[f"{profile}.{name}"], min_requests,
                (seed * 100 + index) * 10,
            ))

    return serve


def _server(core, requests, recorded: bool = False):
    """A ``serve(outcome)`` running ``requests`` through ``core``, under
    telemetry recording when ``recorded``."""

    def serve(outcome: SimOutcome) -> None:
        if recorded:
            with telemetry.recording() as handle:
                result = core.serve(requests)
            outcome.recorder = handle.recorder
        else:
            result = core.serve(requests)
        outcome.served.append((result, len(requests)))

    return serve


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
def setup_colocated_saturated(seed: int) -> Deployment:
    requests = trace_mod.poisson_trace(
        COLOCATED_N_REQUESTS, bs.RATE_RPS, seed=seed
    )
    core = ServingCore(
        _cost_model(), bs._KV_SPEC, bs._PLAN.kv_bytes,
        ServingConfig(prefill_mode="chunked", cost_bucket=bs.CTX_BUCKET,
                      limits=bs.LIMITS),
    )
    tensors = _tensors(TENSOR_SHAPE, seed, ("tcatbe",))
    return Deployment(
        tensors, _gemm_x(tensors[0].data.shape[1], seed),
        _server(core, requests),
        _sweeper(_engine(), [("chat", "colocated", bc._colocated_config())],
                 seed, SWEEP_PLAN["colocated_saturated"]),
    )


def _fleet_config() -> ServingConfig:
    instance = ServingConfig(
        mode="disaggregated", prefill_mode="chunked",
        cost_bucket=bs.CTX_BUCKET, limits=bs.LIMITS,
        disagg=DisaggConfig(prefill_mode="chunked", transfer_codec="kvcomp"),
    )
    return ServingConfig(
        mode="fleet", prefill_mode="chunked", cost_bucket=bs.CTX_BUCKET,
        limits=bs.LIMITS,
        fleet=FleetConfig(n_replicas=FLEET_REPLICAS,
                          routing="session_affinity", instance=instance),
        prefix_cache=PrefixCacheConfig(hot_frac=0.5, codec="kvcomp"),
    )


def setup_fleet_sessions_traced(seed: int) -> Deployment:
    requests = trace_mod.session_trace(
        FLEET_N_SESSIONS, FLEET_SESSION_RATE, seed=seed
    )
    config = _fleet_config()
    core = FleetCore(_cost_model(), bs._KV_SPEC, bs._PLAN.kv_bytes, config)
    tensors = _tensors(TENSOR_SHAPE, seed, ("tcatbe",), ("vector_tbe",),
                       n_kv=2)
    return Deployment(
        tensors, _gemm_x(tensors[0].data.shape[1], seed),
        _server(core, requests, recorded=True),
        _sweeper(_engine(), [("chat_sessions", "fleet", config)], seed,
                 SWEEP_PLAN["fleet_sessions_traced"]),
    )


def _auto_config(profile) -> ServingConfig:
    """``bench_capacity._auto_codec_config`` with this run's calibration."""
    return ServingConfig(
        mode="disaggregated", cost_bucket=bc.CTX_BUCKET, limits=bc.LIMITS,
        disagg=DisaggConfig(
            link_gb_per_s=bc.DISAGG_LINK_GB_PER_S, prefill_mode="chunked",
        ),
        weight_codec="auto", kv_codec="auto", transfer_codec="auto",
        codec_policy="best_ratio", calibration=profile,
    )


def setup_capacity_auto_codec(seed: int) -> Deployment:
    profile = calibrate(classes=tensor_classes_for_model(bs._MODEL),
                        seed=seed)
    engine = _engine()
    auto = _auto_config(profile)
    engine.resolve_codecs(auto)
    tensors = _tensors(TENSOR_SHAPE, seed, ("tcatbe",))
    raw = bc._disagg_config()
    pairs = [
        (p, name, cfg) for p in CAPACITY_PROFILES
        for name, cfg in (("disagg", raw), ("auto_codec", auto))
    ]
    plan = SWEEP_PLAN["capacity_auto_codec"]
    return Deployment(
        tensors, _gemm_x(TENSOR_SHAPE[1], seed),
        _replayer(engine, pairs, seed, plan[1]),
        _sweeper(engine, pairs, seed, plan), repeatable=True,
    )


def _kvcomp_disagg_config() -> ServingConfig:
    """``bench_serving``'s ``disagg_kvcomp`` scenario (Vector-TBE KV on
    the starved link) with the benchmark's cost bucket and limits."""
    return ServingConfig(
        prefill_mode="chunked", mode="disaggregated",
        cost_bucket=bs.CTX_BUCKET, limits=bs.LIMITS,
        disagg=DisaggConfig(link_gb_per_s=bs.DISAGG_LINK_GB_PER_S,
                            transfer_codec="kvcomp"),
    )


def setup_codec_roundtrip(seed: int) -> Deployment:
    tensors = _tensors(TENSOR_SHAPE, seed, LOSSLESS_CODECS, LOSSLESS_CODECS,
                       n_kv=2)
    requests = trace_mod.poisson_trace(
        CODEC_N_REQUESTS, CODEC_RATE_RPS, seed=seed)
    config = _kvcomp_disagg_config()
    core = DisaggregatedCore(_cost_model(), bs._KV_SPEC, bs._PLAN.kv_bytes,
                             config)
    return Deployment(
        tensors, _gemm_x(tensors[0].data.shape[1], seed),
        _server(core, requests),
        _sweeper(_engine(), [("chat", "disagg_kvcomp", config)], seed,
                 SWEEP_PLAN["codec_roundtrip"]),
    )


SETUPS = {
    "colocated_saturated": setup_colocated_saturated,
    "fleet_sessions_traced": setup_fleet_sessions_traced,
    "capacity_auto_codec": setup_capacity_auto_codec,
    "codec_roundtrip": setup_codec_roundtrip,
}

#: Every knee a workload reports, as ``<profile>.<config>``.
KNEE_NAMES = (
    ("chat.colocated", "chat_sessions.fleet", "chat.disagg_kvcomp")
    + tuple(f"{p}.{c}" for p in CAPACITY_PROFILES
            for c in ("disagg", "auto_codec"))
)

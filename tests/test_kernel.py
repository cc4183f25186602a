"""The unified event kernel: primitives, bit-compat, backpressure.

Four contracts:

* **kernel primitives** — stages advance in upstream→downstream order at
  each instant, time never rewinds, ``finish`` hooks always run, and a
  stage that stops making progress is reported instead of spinning;
* **bit-compatibility** — with backpressure off, a shared link,
  whole-prompt pool prefill and exact costs, the interleaved kernel
  reproduces the PR 3 sequential-simulation floats *bit-exactly* across
  {colocated, disaggregated} × {fcfs, priority_aging} × {none, kvcomp}
  wire codecs (goldens recorded from the pre-kernel implementation in
  ``tests/data/kernel_goldens.json``);
* **backpressure** — admission stalls bound decode-pool KV occupancy and
  link queue depth, conserve every request while actively stalling, and
  strand loudly (``CapacityError``) when a watermark can never clear;
* **new topologies** — per-replica links overlap on the wire, the
  chunked prefill pool co-schedules prompts, and ``overlap_fraction``
  hides wire time under prefill.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import CapacityError, SchedulingError
from repro.serving.costs import StepBreakdown
from repro.serving.disagg import DisaggregatedCore
from repro.serving.fleet import FleetConfig, FleetCore
from repro.serving.kernel import EventKernel, Stage
from repro.serving.kvcache import KVCacheSpec
from repro.serving.router import RouterConfig
from repro.serving.scheduler import Request
from repro.serving.serve import (
    BackpressureConfig,
    DisaggConfig,
    ServingConfig,
    ServingCore,
)

GOLDENS = json.loads(
    (Path(__file__).parent / "data" / "kernel_goldens.json").read_text()
)

#: Tiny KV geometry: 32 bytes/token, 512-byte 16-token blocks.
SPEC = KVCacheSpec(n_layers=1, kv_heads=1, head_dim=8, block_size=16)


class FlatCostModel:
    """Deterministic toy StepCostModel (same arithmetic as the goldens)."""

    def linear_time(self, n_tokens):
        return (n_tokens * 1e-5, 1, 0.0)

    def attention_time(self, batch, ctx, phase):
        return batch * ctx * 1e-7

    def elementwise_time(self, n_tokens):
        return n_tokens * 1e-7

    def decode_step(self, batch, ctx):
        return StepBreakdown(linear_s=1e-3 + batch * 1e-5 + ctx * 1e-7)

    def prefill_step(self, batch, prompt_len):
        return StepBreakdown(linear_s=1e-3 + batch * prompt_len * 1e-6)

    def mixed_step(self, decode_batch, decode_ctx, prefill_seqs,
                   prefill_tokens):
        return StepBreakdown(
            linear_s=(1e-3 + (decode_batch + prefill_tokens) * 1e-6
                      + decode_ctx * 1e-7)
        )


#: The golden trace: contended arrivals, mixed priorities.
TRACE = [
    (24, 12, 0.0, 0), (40, 8, 0.0002, 1), (16, 20, 0.0004, 0),
    (64, 6, 0.0006, 2), (32, 16, 0.0008, 0), (20, 10, 0.005, 1),
    (48, 14, 0.0052, 0), (28, 9, 0.0054, 2), (16, 5, 0.02, 0),
    (56, 11, 0.0202, 1),
]
GOLDEN_KV_BYTES = 10 * SPEC.bytes_per_block


def golden_reqs():
    return [
        Request(i, prompt_len=p, max_new_tokens=o, arrival_s=a, priority=pr)
        for i, (p, o, a, pr) in enumerate(TRACE)
    ]


def reqs(specs):
    return [
        Request(i, prompt_len=p, max_new_tokens=o, arrival_s=a)
        for i, (p, o, a) in enumerate(specs)
    ]


def disagg_core(n_blocks: int, costs=None, config=None, **disagg):
    config = config or ServingConfig(
        mode="disaggregated",
        disagg=DisaggConfig(**disagg) if disagg else DisaggConfig(),
    )
    return DisaggregatedCore(
        costs or FlatCostModel(), SPEC,
        n_blocks * SPEC.bytes_per_block, config,
    )


# ----------------------------------------------------------------------
# Kernel primitives
# ----------------------------------------------------------------------
class _ScriptedStage(Stage):
    """Fires at scripted times; records (time, kernel-now) on advance."""

    def __init__(self, name, times, log):
        self.name = name
        self.times = list(times)
        self.log = log
        self.finished = False

    def next_event_time(self):
        return self.times[0] if self.times else None

    def advance(self, now):
        self.log.append((self.name, self.times.pop(0), now))

    def finish(self):
        self.finished = True


class TestEventKernel:
    def test_events_processed_in_time_order(self):
        log = []
        a = _ScriptedStage("a", [1.0, 3.0], log)
        b = _ScriptedStage("b", [2.0], log)
        kernel = EventKernel([a, b])
        end = kernel.run()
        assert [(name, t) for name, t, _ in log] == [
            ("a", 1.0), ("b", 2.0), ("a", 3.0)
        ]
        assert end == 3.0
        assert a.finished and b.finished

    def test_same_instant_cascade_is_stage_ordered(self):
        log = []
        up = _ScriptedStage("up", [1.0], log)
        down = _ScriptedStage("down", [1.0], log)
        EventKernel([up, down]).run()
        assert [name for name, _, _ in log] == ["up", "down"]

    def test_stale_wakeup_is_clamped_to_monotone_clock(self):
        # A stage reporting an event before the kernel's clock (a
        # backpressure wake-up) is advanced at the clamped `now`, never
        # at its stale time.
        log = []

        class _LateRiser(Stage):
            name = "late"

            def __init__(self):
                self.armed = False
                self.done = False

            def next_event_time(self):
                return 0.5 if self.armed and not self.done else None

            def advance(self, now):
                self.done = True
                log.append(("late", now))

        late = _LateRiser()

        class _Trigger(_ScriptedStage):
            def advance(self, now):
                super().advance(now)
                late.armed = True

        EventKernel([_Trigger("trig", [2.0], log), late]).run()
        assert ("late", 2.0) in log

    def test_finish_hook_failure_propagates(self):
        class _Leftover(_ScriptedStage):
            def finish(self):
                raise CapacityError("work left behind")

        with pytest.raises(CapacityError):
            EventKernel([_Leftover("x", [], [])]).run()

    def test_stuck_stage_raises_instead_of_spinning(self):
        class _Spinner(Stage):
            name = "spin"

            def next_event_time(self):
                return 1.0

            def advance(self, now):
                pass  # never retires its event

        import repro.serving.kernel as kernel_mod
        old = kernel_mod._MAX_STALLED_ITERATIONS
        kernel_mod._MAX_STALLED_ITERATIONS = 50
        try:
            with pytest.raises(SchedulingError):
                EventKernel([_Spinner()]).run()
        finally:
            kernel_mod._MAX_STALLED_ITERATIONS = old

    def test_needs_at_least_one_stage(self):
        with pytest.raises(SchedulingError):
            EventKernel([])


# ----------------------------------------------------------------------
# Bit-compatibility with the PR 3 sequential simulation
# ----------------------------------------------------------------------
def _golden_disagg(policy: str, codec: str, pool_mode: str):
    return ServingConfig(
        policy=policy, mode="disaggregated",
        disagg=DisaggConfig(
            prefill_replicas=1, decode_replicas=2,
            link_gb_per_s=1e-6, link_latency_s=1e-3,
            transfer_codec=codec, prefill_mode=pool_mode,
        ),
    )


def golden_core(key: str):
    """The core a golden key names: ``<topology>/<policy>/<wire codec>``.

    ``fleet-*`` keys put two round-robin replicas of that topology behind
    a router; ``fleet-deadline`` caps each replica's backlog at three
    requests, so the router rejects some of the trace.
    """
    mode, policy, codec = key.split("/")
    if mode.startswith("fleet"):
        fleet = FleetConfig(n_replicas=2, routing="round_robin")
        if mode == "fleet-disagg":
            fleet = replace(
                fleet, instance=_golden_disagg(policy, codec, "group")
            )
        elif mode == "fleet-deadline":
            fleet = replace(
                fleet, router=RouterConfig(max_outstanding_per_replica=3)
            )
        config = ServingConfig(policy=policy, mode="fleet", fleet=fleet)
        return FleetCore(FlatCostModel(), SPEC, GOLDEN_KV_BYTES, config)
    if mode.startswith("colocated"):
        prefill_mode = "group" if mode == "colocated-group" else "chunked"
        config = ServingConfig(policy=policy, prefill_mode=prefill_mode)
        return ServingCore(FlatCostModel(), SPEC, GOLDEN_KV_BYTES, config)
    pool_mode = "chunked" if mode == "disagg-chunked" else "group"
    return DisaggregatedCore(
        FlatCostModel(), SPEC, GOLDEN_KV_BYTES,
        _golden_disagg(policy, codec, pool_mode),
    )


class TestBitCompatMatrix:
    """The kernel reproduces the recorded pre-kernel floats exactly.

    ``tests/data/kernel_goldens.json`` was captured from the PR 3
    sequential implementation (stage-by-stage disaggregated simulation,
    hand-rolled colocated loops) on the deterministic FlatCostModel
    trace above.  Equality below is ``==`` on floats — bit-exact, not
    approximate.  The ``disagg-chunked`` keys pin the chunked prefill
    pool (``DisaggConfig(prefill_mode="chunked")``); they were recorded
    later, from the per-stage step bodies the shared replica engine
    replaced.  The ``fleet-*`` and ``*-deadline`` keys were recorded
    from the per-core ``serve`` bodies the shared serve path replaced.
    A key carrying ``deadline_s`` cuts the run there; its partial
    timings pin the result's unfinished order (queue order colocated,
    trace order disaggregated and fleet).
    """

    @pytest.mark.parametrize("key", sorted(GOLDENS))
    def test_reproduces_sequential_floats(self, key):
        want = GOLDENS[key]
        result = golden_core(key).serve(
            golden_reqs(), deadline_s=want.get("deadline_s")
        )
        assert result.makespan_s == want["makespan_s"]
        assert result.n_steps == want["n_steps"]
        assert result.tokens_generated == want["tokens_generated"]
        assert result.peak_running == want["peak_running"]
        assert result.n_preemptions == want["n_preemptions"]
        assert result.n_unfinished == want.get("n_unfinished", 0)
        assert result.n_rejected == want.get("n_rejected", 0)
        got = [
            [t.request_id, t.first_token_s, t.finish_s]
            for t in result.timings
        ]
        assert got == want["timings"]


# ----------------------------------------------------------------------
# Decode→prefill backpressure
# ----------------------------------------------------------------------
#: Eight identical prompts landing at once on a small decode pool.
BP_TRACE = [(64, 30, 0.0)] * 8


class TestBackpressure:
    def test_conserves_requests_while_actively_stalling(self):
        """No request lost or double-transferred when admission stalls."""
        result = disagg_core(
            16, backpressure=BackpressureConfig(min_free_kv_frac=0.25)
        ).serve(reqs(BP_TRACE))
        assert result.pool("prefill").stall_s > 0.0  # the stall was real
        assert result.n_requests == len(BP_TRACE)
        assert result.tokens_generated == sum(o for _, o, _ in BP_TRACE)
        assert result.transfer.n_transfers == len(BP_TRACE)
        transferred = [r.request_id for r in result.transfer.records]
        assert sorted(transferred) == list(range(len(BP_TRACE)))
        assert len(set(transferred)) == len(BP_TRACE)
        for t in result.timings:
            assert t.arrival_s <= t.first_token_s <= t.finish_s

    def test_kv_watermark_bounds_occupancy_vs_feedback_free(self):
        baseline = disagg_core(16).serve(reqs(BP_TRACE))
        gated = disagg_core(
            16, backpressure=BackpressureConfig(min_free_kv_frac=0.25)
        ).serve(reqs(BP_TRACE))
        assert baseline.pool("decode").peak_kv_frac == 1.0
        assert baseline.n_preemptions > 0
        # Admission-time projection bounds the landing occupancy; decode
        # growth on 64→94-token requests adds at most 2 blocks/request.
        assert gated.pool("decode").peak_kv_frac < 1.0
        assert gated.n_preemptions == 0
        assert gated.pool("decode").peak_kv_frac <= 0.75 + 0.13

    def test_link_queue_watermark_bounds_queue_depth(self):
        baseline = disagg_core(64, link_gb_per_s=1e-6).serve(
            reqs(BP_TRACE)
        )
        gated = disagg_core(
            64, link_gb_per_s=1e-6,
            backpressure=BackpressureConfig(
                min_free_kv_frac=0.0, max_link_queue=2
            ),
        ).serve(reqs(BP_TRACE))
        assert baseline.transfer.peak_queue_depth > 2
        assert gated.transfer.peak_queue_depth <= 2
        assert gated.pool("prefill").stall_s > 0.0
        assert gated.n_requests == len(BP_TRACE)

    def test_impossible_watermark_strands_loudly(self):
        # A request needing 4 of 8 blocks can never leave >=90% free:
        # silent drop would fake a clean run, so the kernel raises.
        with pytest.raises(CapacityError):
            disagg_core(
                8, backpressure=BackpressureConfig(min_free_kv_frac=0.9)
            ).serve(reqs([(64, 4, 0.0)]))

    def test_backpressure_applies_to_chunked_prefill_pool(self):
        # The chunked pool admits to the watermark boundary in one
        # instant (no prefill serialization between gate checks), so a
        # tighter watermark than the group test's is needed to absorb
        # the admitted requests' decode growth: 0.5 of 16 blocks admits
        # two 4-block prompts, which grow to 12 blocks — peak 0.75,
        # no preemption.
        result = disagg_core(
            16, prefill_mode="chunked",
            backpressure=BackpressureConfig(min_free_kv_frac=0.5),
        ).serve(reqs(BP_TRACE))
        baseline = disagg_core(16, prefill_mode="chunked").serve(
            reqs(BP_TRACE)
        )
        assert result.n_requests == len(BP_TRACE)
        assert result.pool("prefill").stall_s > 0.0
        assert result.pool("decode").peak_kv_frac < 1.0
        assert result.n_preemptions == 0
        assert baseline.pool("decode").peak_kv_frac == 1.0

    @pytest.mark.parametrize("kwargs", [
        {"min_free_kv_frac": -0.1},
        {"min_free_kv_frac": 1.5},
        {"max_link_queue": 0},
    ])
    def test_bad_watermarks_rejected(self, kwargs):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            BackpressureConfig(**kwargs)


# ----------------------------------------------------------------------
# Per-replica transfer links
# ----------------------------------------------------------------------
class TestPerReplicaLinks:
    def test_transfers_overlap_across_links(self):
        shared = disagg_core(
            64, decode_replicas=2, link_gb_per_s=1e-6
        ).serve(reqs(BP_TRACE))
        dedicated = disagg_core(
            64, decode_replicas=2, link_gb_per_s=1e-6,
            link_topology="per_replica",
        ).serve(reqs(BP_TRACE))
        assert shared.transfer.n_links == 1
        assert dedicated.transfer.n_links == 2
        # Two channels at the same bandwidth drain the same bytes in
        # roughly half the wall time; the shared FIFO serializes.
        assert dedicated.makespan_s < shared.makespan_s
        assert dedicated.tokens_generated == shared.tokens_generated
        records = sorted(
            dedicated.transfer.records, key=lambda r: r.start_s
        )
        overlapped = any(
            later.start_s < earlier.done_s - 1e-12
            for earlier, later in zip(records, records[1:])
        )
        assert overlapped

    def test_each_link_is_fifo(self):
        result = disagg_core(
            64, decode_replicas=2, link_gb_per_s=1e-6,
            link_topology="per_replica",
        ).serve(reqs(BP_TRACE))
        by_link: dict[int, list] = {}
        for rec in result.transfer.records:
            assert rec.ready_s <= rec.start_s <= rec.done_s
            by_link.setdefault(rec.link, []).append(rec)
        assert sorted(by_link) == [0, 1]
        for records in by_link.values():
            # Within a channel: serve order is (ready, id), transfers
            # never overlap, and no transfer starts before the channel
            # freed from the previous one.
            ordered = sorted(
                records, key=lambda r: (r.ready_s, r.request_id)
            )
            for earlier, later in zip(ordered, ordered[1:]):
                assert later.start_s >= earlier.done_s - 1e-12

    def test_bad_topology_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            DisaggConfig(link_topology="mesh")


# ----------------------------------------------------------------------
# Chunked prefill inside the prefill pool
# ----------------------------------------------------------------------
class TestChunkedPrefillPool:
    def test_conservation_and_mode_report(self):
        group = disagg_core(64).serve(reqs(BP_TRACE))
        chunked = disagg_core(64, prefill_mode="chunked").serve(
            reqs(BP_TRACE)
        )
        assert group.prefill_mode == "group"
        assert chunked.prefill_mode == "chunked"
        assert chunked.n_requests == len(BP_TRACE)
        assert chunked.tokens_generated == group.tokens_generated
        assert chunked.transfer.n_transfers == len(BP_TRACE)
        for t in chunked.timings:
            assert t.arrival_s <= t.first_token_s <= t.finish_s

    def test_short_prompt_not_serialized_behind_giant_prompt(self):
        # Group mode runs whole prompts one at a time per replica, so a
        # short prompt arriving alongside a 6000-token prompt waits out
        # the entire pass before its own; the chunked pool co-schedules
        # both under max_batched_tokens (8192), so the short prompt's
        # chunk rides the same iteration as the giant one's and its
        # first token lands a full short-prefill pass earlier.
        def trace():
            return reqs([(6000, 4, 0.0), (16, 4, 0.0)])

        group = disagg_core(1024).serve(trace())
        chunked = disagg_core(1024, prefill_mode="chunked").serve(trace())
        group_ttft = {t.request_id: t.ttft_s for t in group.timings}
        chunked_ttft = {t.request_id: t.ttft_s for t in chunked.timings}
        assert chunked_ttft[1] < group_ttft[1]

    def test_oversized_prompt_strands_loudly(self):
        # 1024-token prompt KV can never fit an 8-block (128-token)
        # chunked prefill replica.
        with pytest.raises(CapacityError):
            disagg_core(8, prefill_mode="chunked").serve(
                reqs([(1024, 4, 0.0)])
            )

    def test_bad_prefill_mode_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            DisaggConfig(prefill_mode="speculative")


# ----------------------------------------------------------------------
# Analytic prefill/transfer overlap
# ----------------------------------------------------------------------
class TestOverlapFraction:
    def test_wire_time_scaled_by_hidden_fraction(self):
        plain = disagg_core(
            64, link_gb_per_s=1e-6, link_latency_s=0.01
        ).serve(reqs(BP_TRACE))
        hidden = disagg_core(
            64, link_gb_per_s=1e-6, link_latency_s=0.01,
            overlap_fraction=0.75,
        ).serve(reqs(BP_TRACE))
        plain_serial = plain.transfer.time.mean_s - 0.01
        hidden_serial = hidden.transfer.time.mean_s - 0.01
        assert hidden_serial == pytest.approx(plain_serial * 0.25)
        assert hidden.makespan_s < plain.makespan_s

    def test_full_overlap_leaves_only_latency(self):
        result = disagg_core(
            64, link_gb_per_s=1e-6, link_latency_s=0.125,
            overlap_fraction=1.0,
        ).serve(reqs(BP_TRACE))
        for rec in result.transfer.records:
            assert rec.wire_s == pytest.approx(0.125)

    def test_bad_fraction_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            DisaggConfig(overlap_fraction=1.5)

"""Tests for the event-driven serving core, including preemption paths."""

import pytest

from repro.errors import CapacityError, ConfigError
from repro.gpu.specs import get_gpu
from repro.serving.backends import get_backend
from repro.serving.costs import StepBreakdown
from repro.serving.engine import InferenceEngine
from repro.serving.kvcache import KVCacheSpec
from repro.serving.metrics import SLOTarget
from repro.serving.models import get_model
from repro.serving.prefixcache import PrefixCacheConfig
from repro.serving.scheduler import Request, SchedulerLimits
from repro.serving.serve import ServingConfig, ServingCore

G = get_gpu("rtx4090")
M = get_model("llama3.1-8b")

#: Tiny KV geometry: 512 bytes per 16-token block, capacities in blocks.
SPEC = KVCacheSpec(n_layers=1, kv_heads=1, head_dim=8, block_size=16)


class FlatCostModel:
    """Deterministic toy StepCostModel: time scales with tokens/context."""

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


def core(n_blocks: int, **cfg) -> ServingCore:
    return ServingCore(
        FlatCostModel(), SPEC, n_blocks * SPEC.bytes_per_block,
        ServingConfig(**cfg) if cfg else None,
    )


def reqs(specs) -> list[Request]:
    return [
        Request(i, prompt_len=p, max_new_tokens=o, arrival_s=a)
        for i, (p, o, a) in enumerate(specs)
    ]


def assert_conserved_and_monotone(result, trace):
    """Token conservation plus per-request monotone clocks."""
    assert result.n_requests == len(trace)
    assert result.tokens_generated == sum(r.max_new_tokens for r in trace)
    assert len(result.timings) == len(trace)
    for t in result.timings:
        assert t.arrival_s <= t.first_token_s <= t.finish_s
        assert t.finish_s <= result.makespan_s + 1e-12
    assert result.makespan_s > 0


class TestContinuousPreemption:
    """Continuous-mode preempt-and-recompute (chunked and group modes)."""

    @pytest.mark.parametrize("mode", ["chunked", "group"])
    def test_preempt_recompute_conserves_tokens(self, mode):
        # 4 blocks = 64 token slots; two requests each growing to 56 tokens
        # cannot coexist to the end: one must be evicted and recomputed.
        trace = reqs([(16, 40, 0.0), (16, 40, 0.0)])
        result = core(4, prefill_mode=mode).serve(trace)
        assert result.n_preemptions >= 1
        assert_conserved_and_monotone(result, trace)

    @pytest.mark.parametrize("mode", ["chunked", "group"])
    def test_multi_round_preemption(self, mode):
        # Four requests fighting over 6 blocks: repeated evictions, and
        # every token still comes out.
        trace = reqs([(16, 40, 0.0)] * 4)
        result = core(6, prefill_mode=mode).serve(trace)
        assert result.n_preemptions >= 2
        assert_conserved_and_monotone(result, trace)

    def test_preempted_request_keeps_first_token_stamp(self):
        trace = reqs([(16, 40, 0.0), (16, 40, 0.0)])
        result = core(4, prefill_mode="chunked").serve(trace)
        # TTFT must reflect the first prefill, not the recompute.
        for t in result.timings:
            assert t.first_token_s < t.finish_s

    def test_last_request_overflow_raises(self):
        # A single sequence larger than the whole cache cannot be saved by
        # preemption.
        trace = reqs([(16, 80, 0.0)])  # final ctx 96 > 64 slots
        with pytest.raises(CapacityError):
            core(4).serve(trace)

    def test_group_mode_readmits_over_budget_context(self):
        # A preempted request whose accumulated context exceeds
        # max_batched_tokens must still be re-admittable in group mode —
        # otherwise it (and everything behind it) is silently stranded.
        limits = SchedulerLimits(max_num_seqs=8, max_batched_tokens=256)
        trace = reqs([(100, 400, 0.0), (100, 400, 0.0)])
        result = core(40, prefill_mode="group", limits=limits).serve(trace)
        assert result.n_preemptions >= 1
        assert_conserved_and_monotone(result, trace)

    def test_preemption_disabled_raises_instead(self):
        trace = reqs([(16, 40, 0.0), (16, 40, 0.0)])
        with pytest.raises(CapacityError):
            core(4, preemption=False).serve(trace)

    def test_makespan_clock_monotone_across_modes(self):
        for mode in ("chunked", "group"):
            trace = reqs([(16, 8, i * 0.01) for i in range(8)])
            result = core(64, prefill_mode=mode).serve(trace)
            assert_conserved_and_monotone(result, trace)


class TestChunkedPrefill:
    def test_long_prompt_is_chunked_not_starved(self):
        # A prompt far above max_batched_tokens must still be admitted and
        # prefilled across several iterations.
        limits = SchedulerLimits(max_num_seqs=4, max_batched_tokens=64)
        trace = reqs([(300, 4, 0.0), (16, 4, 0.0)])
        result = core(64, prefill_mode="chunked", limits=limits).serve(trace)
        assert result.n_requests == 2
        assert result.n_steps >= 300 // 64

    def test_decode_prioritised_over_prefill(self):
        # With a shared budget, a running decode keeps making progress
        # while a long prompt prefills chunk by chunk.
        limits = SchedulerLimits(max_num_seqs=4, max_batched_tokens=32)
        trace = reqs([(16, 30, 0.0), (200, 4, 0.01)])
        result = core(64, prefill_mode="chunked", limits=limits).serve(trace)
        short, long_ = result.timings[0], result.timings[1]
        assert short.finish_s < long_.finish_s
        assert_conserved_and_monotone(result, trace)

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigError):
            core(4).serve([])


class TestFastForward:
    def test_bucketed_run_matches_stepwise_tokens(self):
        # Fast-forward (bucketed) must serve exactly the same tokens and
        # requests as exact stepping; clocks may drift by the bucket bias.
        spec = [(16, 200, i * 0.001) for i in range(6)]
        exact = core(256, prefill_mode="chunked", cost_bucket=0).serve(
            reqs(spec)
        )
        fast = core(256, prefill_mode="chunked", cost_bucket=64).serve(
            reqs(spec)
        )
        assert fast.tokens_generated == exact.tokens_generated
        assert fast.n_requests == exact.n_requests
        assert fast.n_steps == exact.n_steps
        assert fast.makespan_s == pytest.approx(exact.makespan_s, rel=0.05)
        assert fast.makespan_s >= exact.makespan_s  # buckets round up

    def test_fast_forward_respects_arrivals(self):
        # A late arrival must still be admitted mid-decode.
        trace = reqs([(16, 400, 0.0), (16, 16, 0.2)])
        fast = core(256, prefill_mode="chunked", cost_bucket=64).serve(trace)
        assert fast.n_requests == 2
        late = fast.timings[1]
        assert late.arrival_s <= late.first_token_s

    def test_cache_hits_grow_across_fast_forward_windows(self):
        # Bucketed serving memoizes step prices; arrivals break decode
        # windows, and the re-priced windows revisit ctx buckets the
        # earlier ones already paid for — so hits must accumulate.
        c = core(256, prefill_mode="chunked", cost_bucket=64)
        info = c.costs.cache_info()
        assert info["mixed"] == {"hits": 0, "misses": 0, "size": 0}
        c.serve(reqs([(16, 200, i * 0.01) for i in range(8)]))
        info = c.costs.cache_info()
        assert info["mixed"]["hits"] > 0
        assert info["mixed"]["size"] == info["mixed"]["misses"] > 0
        # Every priced entry is a decode/prefill mix: the dedicated
        # decode/prefill caches stay untouched by the serving core.
        assert info["decode"]["misses"] == 0


def session_reqs(n_sessions: int = 4, n_turns: int = 3) -> list[Request]:
    """Multi-turn sessions: each turn re-offers the previous context."""
    out = []
    context = [0] * n_sessions
    for turn in range(n_turns):
        for s in range(n_sessions):
            prompt = context[s] + 32
            out.append(Request(
                len(out), prompt_len=prompt, max_new_tokens=4,
                arrival_s=0.1 * turn + 0.001 * s,
                session_id=s, prefix_tokens=context[s],
            ))
            context[s] = prompt + 4
    return out


class TestColdPrefixCharge:
    """Compression that costs time costs time: cold-tier prefix hits
    pay their decompress stream before the admitting pass, in both
    prefill modes."""

    @pytest.mark.parametrize("prefill_mode", ["group", "chunked"])
    def test_compressed_cold_tier_delays_first_tokens(self, prefill_mode):
        def run(codec):
            cache = PrefixCacheConfig(
                capacity_frac=0.5, hot_frac=0.0, codec=codec
            )
            return core(
                64, prefill_mode=prefill_mode, prefix_cache=cache
            ).serve(session_reqs())

        raw, packed = run(None), run("kvcomp")
        assert packed.prefix_cache.n_hits == raw.prefix_cache.n_hits > 0
        assert raw.prefix_cache.cold_delay_s == 0.0
        assert packed.prefix_cache.cold_delay_s > 0.0
        assert packed.makespan_s > raw.makespan_s
        assert sum(t.first_token_s for t in packed.timings) > sum(
            t.first_token_s for t in raw.timings
        )


class TestRealEnginePreemption:
    """The engine-level recompute paths with the real cost model."""

    def test_run_batch_recursion_multi_wave(self):
        # Batch far beyond KV capacity: the recursion must spill into at
        # least three waves and still account every token.
        eng = InferenceEngine(M, G, get_backend("vllm"), gpu_mem_util=0.82)
        res = eng.run(96, 128, 2048)
        assert res.n_waves >= 3
        assert res.effective_batch < 96
        assert res.throughput_tok_s == pytest.approx(
            96 * 2048 / res.total_s
        )
        # The overflowing run takes longer than one fitting wave of the
        # same shape (it contains that wave plus the recomputed remainder).
        fits = eng.run(res.effective_batch, 128, 2048)
        assert res.total_s > fits.total_s

    def test_continuous_preemption_real_engine(self):
        # Small mem util so the trace overflows KV mid-decode.
        eng = InferenceEngine(M, G, get_backend("vllm"), gpu_mem_util=0.82)
        cap = eng.plan.kv_tokens
        n = 6
        out = int(cap // n)  # each request wants ~1/n of capacity + prompt
        trace = [
            Request(i, prompt_len=256, max_new_tokens=out, arrival_s=0.0)
            for i in range(n)
        ]
        result = eng.serve(trace, config=ServingConfig(
            prefill_mode="chunked",
            slo=SLOTarget(ttft_s=2.0, tpot_s=0.5),
        ))
        assert result.n_preemptions >= 1
        assert result.n_requests == n
        assert result.tokens_generated == n * out
        for t in result.timings:
            assert t.arrival_s <= t.first_token_s <= t.finish_s

    def test_facade_matches_group_core(self):
        trace = [
            Request(i, prompt_len=64, max_new_tokens=16, arrival_s=i * 0.01)
            for i in range(8)
        ]
        eng = InferenceEngine(M, G, get_backend("zipserv"))
        a = eng.run_continuous(
            [Request(r.request_id, r.prompt_len, r.max_new_tokens,
                     arrival_s=r.arrival_s) for r in trace]
        )
        b = eng.serve(
            trace, config=ServingConfig(policy="fcfs", prefill_mode="group")
        )
        assert a.makespan_s == pytest.approx(b.makespan_s)
        assert a.n_steps == b.n_steps


class TestPolicies:
    def test_priority_cuts_urgent_ttft_under_contention(self):
        limits = SchedulerLimits(max_num_seqs=2, max_batched_tokens=64)
        def trace():
            out = []
            for i in range(12):
                urgent = i % 3 == 0
                out.append(Request(
                    i, prompt_len=32, max_new_tokens=16,
                    arrival_s=i * 0.0005,
                    priority=1 if urgent else 0,
                    tenant="chat" if urgent else "batch",
                ))
            return out
        fcfs = core(16, policy="fcfs", limits=limits).serve(trace())
        prio = core(16, policy="priority", limits=limits).serve(trace())
        mean = lambda xs: sum(xs) / len(xs)
        fcfs_chat = mean([t.ttft_s for t in fcfs.tenant_timings("chat")])
        prio_chat = mean([t.ttft_s for t in prio.tenant_timings("chat")])
        assert prio_chat < fcfs_chat

    def test_sjf_prefers_short_jobs(self):
        # All three waiting at time zero with one execution slot: FCFS
        # runs the long head first, SJF reorders the shorts ahead of it.
        limits = SchedulerLimits(max_num_seqs=1, max_batched_tokens=512)
        def trace():
            return [
                Request(0, prompt_len=64, max_new_tokens=200, arrival_s=0.0),
                Request(1, prompt_len=16, max_new_tokens=8, arrival_s=0.0),
                Request(2, prompt_len=16, max_new_tokens=8, arrival_s=0.0),
            ]
        fcfs = core(64, policy="fcfs", limits=limits).serve(trace())
        sjf = core(64, policy="sjf", limits=limits).serve(trace())
        mean_short = lambda r: sum(
            t.e2e_s for t in r.timings if t.request_id != 0
        ) / 2
        assert mean_short(sjf) < mean_short(fcfs)

    def test_aging_unstarves_batch_tenant_under_sustained_chat(self):
        # One execution slot and a sustained stream of priority-1 chat
        # arrivals: plain priority parks the batch request until the chat
        # stream dries up; under aging its accumulated waiting time buys
        # admission ahead of chat requests arriving after the crossover
        # (1 / aging_rate seconds, here 10 ms on the toy clock).
        from repro.serving.scheduler import AgingPriorityPolicy

        limits = SchedulerLimits(max_num_seqs=1, max_batched_tokens=64)

        def trace():
            out = [Request(
                0, prompt_len=32, max_new_tokens=8, arrival_s=0.0,
                priority=0, tenant="batch",
            ), Request(
                1, prompt_len=32, max_new_tokens=8, arrival_s=0.0,
                priority=1, tenant="chat",
            )]
            for i in range(2, 15):
                out.append(Request(
                    i, prompt_len=32, max_new_tokens=8,
                    arrival_s=i * 0.002, priority=1, tenant="chat",
                ))
            return out

        plain = core(16, policy="priority", limits=limits).serve(trace())
        aged = core(
            16, policy=AgingPriorityPolicy(aging_rate=100.0), limits=limits,
        ).serve(trace())
        batch_ttft = lambda r: r.tenant_timings("batch")[0].ttft_s
        assert batch_ttft(aged) < batch_ttft(plain)
        # Everyone is still served either way (conservation).
        assert plain.n_requests == aged.n_requests == 15
        assert aged.policy == "priority_aging"

    def test_all_policies_serve_everything(self):
        trace_spec = [(32, 8, i * 0.01) for i in range(10)]
        for policy in ("fcfs", "priority", "priority_aging", "sjf"):
            result = core(16, policy=policy).serve(reqs(trace_spec))
            assert result.n_requests == 10
            assert result.policy == policy


class TestStrandedRequests:
    """Unservable queued work raises instead of silently vanishing."""

    @pytest.mark.parametrize("mode", ["chunked", "group"])
    def test_oversized_prompt_raises(self, mode):
        # 80-token prompt KV (5 blocks) can never fit a 4-block cache;
        # the request behind it is head-of-line blocked.  Both loops must
        # surface the stranding as CapacityError, matching the
        # disaggregated decode pool (tests/test_disagg.py).
        trace = reqs([(80, 4, 0.0), (16, 4, 0.0)])
        with pytest.raises(CapacityError):
            core(4, prefill_mode=mode).serve(trace)

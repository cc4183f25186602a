"""Runs one workload for a time budget and reports its metrics.

A run is a sequence of *passes* (set up, compress, sweep, serve; see
``workloads``) at one seed, repeated until the budget is spent; only the
first pass sweeps.  Host times are sampled in every pass, each scaled to
a nominal host speed by the reference loops timed just before and after
it (:func:`reference_s`), and summarised by their median (per tensor,
for the codecs).  Simulated results come from the first pass, and every
later pass must reproduce its digests bit for bit.

``--trace 0`` reports the end-to-end metrics (:data:`END_TO_END`).
``--trace 1`` runs one untraced pass as the reference, then traced passes
with every layer's entry points wrapped (``layers.install``), reports the
per-layer metrics (``layers.PER_LAYER``, per-pass means) and writes the
spans to ``perfbench/out/<workload>-seed<seed>.spans.npz``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A failed correctness
check prints its reason and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import resource
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.compression import get_codec
from repro.kernels import functional

import layers
import workloads
from stats import describe, geomean, median, tail
from tracer import Tracer

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Every end-to-end metric with its unit, in report order.
END_TO_END: list[tuple[str, str]] = [
    ("setup_s", "s"),
    ("requests_per_host_s", "req/s"),
    ("peak_rss_mb", "MB"),
    ("encode_mb_s", "MB/s"),
    ("decode_mb_s", "MB/s"),
    ("zipgemm_mb_s", "MB/s"),
    ("compression_ratio", "x"),
    ("sim_ttft_p50_s", "sim_s"),
    ("sim_ttft_tail_s", "sim_s"),
    ("sim_tpot_p50_s", "sim_s"),
    ("sim_tpot_tail_s", "sim_s"),
    ("sim_tok_per_s", "sim_tok/s"),
    ("sim_knee_rps", "rps"),
]

#: Passes an untraced run makes even when one pass outlasts the budget.
MIN_PASSES = 2

#: Set-ups per pass (the medians of ``setup_s`` are over all of them).
SETUP_REPS = 3

#: The compress step repeats its codec round trips, and then its ZipGEMM
#: products, until each has run this long (host seconds), so that the
#: small tensor sets of the serving workloads are timed over many calls.
CODEC_PHASE_S = 0.5

#: The compress step times the reference loops again between two items
#: once this long (host seconds) has passed since the last time.
BRACKET_S = 0.1

#: A repeatable serve step (``Deployment.repeatable``) runs again until
#: the pass has spent this long in it (host seconds).
SERVE_PHASE_S = 3.0

#: The host reference loops: iterations, and the host seconds each takes
#: at the nominal speed the host metrics are expressed at (see
#: :func:`reference_s`).
REFERENCE_ITERS = 70_000
REFERENCE_ARRAY_ITERS = 10
REFERENCE_NOMINAL_S = (0.014, 0.006)
#: Runs of each loop at a step boundary; their median is the sample.
REFERENCE_REPS = 3
_REFERENCE_BITS = (
    np.arange(256 * 512, dtype=np.uint32) * 2654435761 % 65536
).astype(np.uint16).reshape(256, 512)

#: Attribution must sum to end-to-end latency within this relative error.
ATTRIBUTION_TOL = 1e-9

_clock = time.perf_counter


@dataclass
class Pass:
    """Host times, work counts and checks of one pass.

    Every host time is kept as measured, next to the host's
    :func:`slowdown` over it, from the reference loops timed just before
    and after it.
    """

    #: (host seconds, slowdown) of each set-up repetition.
    setup_s: list
    #: Host seconds of the two reference loops, timed between the steps.
    reference_s: list
    #: (host seconds, slowdown) of each serve run, and the simulated
    #: requests one serve run finishes.
    sim_s: list
    n_finished: int
    #: (tensor label, codec) -> BF16 bytes, encoded bytes, and (host
    #: seconds, slowdown) of every encode and every decode.
    codec_rows: dict
    #: weight label -> BF16 bytes and (host seconds, slowdown) of every
    #: ZipGEMM product.
    gemm: dict
    #: Peak resident memory of the process (MB) at the end of the pass.
    peak_rss_mb: float
    attempted: int
    failed: int
    #: Hash of the encoded streams, GEMM output and serve-run timings.
    digest: str
    #: Hash of the knee sweep's probe timings and knees (passes that ran
    #: the sweep only).
    sweep_digest: str | None
    problems: list = field(default_factory=list)
    outcome: workloads.SimOutcome | None = None


def _feed(h, obj) -> None:
    """Hash an encoded blob: arrays by dtype, shape and bytes, dataclasses
    field by field."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            _feed(h, obj[key])
    else:
        h.update(repr(obj).encode())


_TIMING = struct.Struct("<qdddq")


def _feed_results(h, results) -> None:
    for r in results:
        h.update(_TIMING.pack(0, r.makespan_s, 0.0, 0.0, r.tokens_generated))
        for t in r.timings:
            h.update(_TIMING.pack(
                t.request_id, t.arrival_s, t.first_token_s,
                math.nan if t.finish_s is None else t.finish_s, t.n_tokens,
            ))


def _check_conservation(result, offered: int, what: str, problems) -> bool:
    finished = sum(1 for t in result.timings if t.finish_s is not None)
    total = result.n_requests + result.n_unfinished + result.n_rejected
    if total != offered or finished != result.n_requests:
        problems.append(
            f"{what}: finished {result.n_requests} ({finished} timings)"
            f" + unfinished {result.n_unfinished} + rejected"
            f" {result.n_rejected} != offered {offered}"
        )
        return False
    return True


def _check_attribution(recorder, served, problems) -> None:
    missing = bad = 0
    for result, _ in served:
        for t in result.timings:
            if t.finish_s is None:
                continue
            attr = recorder.attributions.get(t.request_id)
            if attr is None:
                missing += 1
                continue
            tol = ATTRIBUTION_TOL * max(1.0, t.e2e_s)
            if (abs(attr.total_s - attr.e2e_s) > tol
                    or abs(attr.e2e_s - t.e2e_s) > tol):
                bad += 1
    if missing or bad:
        problems.append(
            f"attribution: {missing} finished requests unattributed,"
            f" {bad} whose phases do not sum to e2e"
        )


def _interpreter_loop() -> float:
    """Host seconds of dict stores, integer arithmetic and small numpy
    calls, like the interpreter-bound work of set-up, the simulator,
    ZipGEMM and the entropy codecs."""
    table = {}
    vec = np.ones(64)
    acc = 0
    t0 = _clock()
    for i in range(REFERENCE_ITERS):
        table[i & 1023] = acc
        acc = (acc + i * i) & 0xFFFFFFF
        if not i & 255:
            vec = vec * 0.5 + 1.0
    return _clock() - t0


def _array_loop() -> float:
    """Host seconds of shifts, masks, histograms and packing over a
    256x512 uint16 array, like the array-bound work of the TCA-TBE
    codecs."""
    t0 = _clock()
    for _ in range(REFERENCE_ARRAY_ITERS):
        exp = (_REFERENCE_BITS >> 7) & 0xFF
        mask = exp >= np.bincount(exp.ravel(), minlength=256).argmax()
        np.packbits(mask)
        np.where(mask, _REFERENCE_BITS, _REFERENCE_BITS ^ 0x8000)
    return _clock() - t0


def reference_s() -> tuple[float, float]:
    """Host seconds of the interpreter-bound and the array-bound loop, each
    the median of :data:`REFERENCE_REPS` runs.

    A shared host changes speed by up to 2x in phases lasting from
    seconds to minutes.  The loops are timed at every step boundary of a
    pass, and once more between codec calls and ZipGEMM products; each
    host time is scaled by the :func:`slowdown` around it, so a run's
    numbers depend less on when it ran.  A change to ``src/`` cannot move
    these loops.
    """
    return (median(_interpreter_loop() for _ in range(REFERENCE_REPS)),
            median(_array_loop() for _ in range(REFERENCE_REPS)))


def slowdown(before, after) -> float:
    """How much slower than nominal the host ran between two samples of
    the reference loops: the mean over both loops of their mean time over
    :data:`REFERENCE_NOMINAL_S`.  Some work slows down with one loop and
    some with the other (TCA-TBE decodes with the array loop, DFloat11
    decodes and ZipGEMM with the interpreter loop); the mean tracks
    both."""
    return sum((a + b) / 2 / nominal for a, b, nominal
               in zip(before, after, REFERENCE_NOMINAL_S)) / 2


def _round_trip(tensor, rows, problems) -> tuple[int, int, list]:
    """One round trip of ``tensor`` through each of its codecs; returns
    the operations made and failed, and ``(sample list, host seconds)``
    of every encode and decode."""
    made = failed = 0
    timed = []
    for codec_name in tensor.codecs:
        codec = get_codec(codec_name)
        a = _clock()
        enc = codec.encode(tensor.data)
        b = _clock()
        out = codec.decode(enc)
        c = _clock()
        made += 1
        if not (out.dtype == tensor.data.dtype
                and np.array_equal(out, tensor.data)):
            failed += 1
            problems.append(
                f"{codec_name} round trip of {tensor.label} is not"
                " bit-identical"
            )
        row = rows.setdefault((tensor.label, codec_name), {
            "bytes": tensor.data.nbytes, "encoded": enc.nbytes,
            "blob": enc.blob, "encode_s": [], "decode_s": [],
        })
        timed += [(row["encode_s"], b - a), (row["decode_s"], c - b)]
    return made, failed, timed


def _product(tensor, x, rows, gemm, problems) -> tuple[int, int, list]:
    """One ZipGEMM product of the TCA-TBE weight layer ``tensor`` (encoded
    by :func:`_round_trip`) with ``x``; returns the operations made and
    failed, and ``(sample list, host seconds)`` of the product.  The first
    product of a pass is checked against the dense tiled reference."""
    blob = rows[(tensor.label, "tcatbe")]["blob"]
    a = _clock()
    y = functional.zipgemm_execute(blob, x)
    b = _clock()
    failed = 0
    product = gemm.get(tensor.label)
    if product is None:
        product = gemm[tensor.label] = {
            "bytes": tensor.data.nbytes, "y": y, "s": []}
        if not np.array_equal(y, functional.dense_gemm_tiled(tensor.data, x)):
            failed = 1
            problems.append(f"zipgemm_execute differs from"
                            f" dense_gemm_tiled on {tensor.label}")
    return 1, failed, [(product["s"], b - a)]


def _timed_step(items) -> tuple[int, int]:
    """Run every item, a callable returning ``(made, failed, timed)`` like
    :func:`_round_trip`, in turn until :data:`CODEC_PHASE_S` has passed,
    and at least once.  The reference loops are timed before the first
    item and again whenever :data:`BRACKET_S` has passed since; each host time
    of ``timed`` is stored, with the host's slowdown over it, in its
    sample list."""
    made = failed = 0
    pending: list = []
    before = (_interpreter_loop(), _array_loop())
    start = mark = _clock()

    def flush():
        nonlocal before, mark
        after = (_interpreter_loop(), _array_loop())
        slow = slowdown(before, after)
        for target, t in pending:
            target.append((t, slow))
        pending.clear()
        before, mark = after, _clock()

    while True:
        for item in items:
            n, bad, timed = item()
            made += n
            failed += bad
            pending += timed
            if _clock() - mark >= BRACKET_S:
                flush()
        if _clock() - start >= CODEC_PHASE_S:
            break
    if pending:
        flush()
    return made, failed


def _serve_digest(outcome) -> str:
    h = hashlib.sha256()
    _feed_results(h, [r for r, _ in outcome.served])
    _feed_results(h, [m.result for m in outcome.replays])
    return h.hexdigest()


def run_pass(name: str, seed: int, sweep: bool, repeat: bool = True) -> Pass:
    """One pass of workload ``name``: set up (:data:`SETUP_REPS` times),
    compress (round trips, then products, each repeated for at least
    :data:`CODEC_PHASE_S`), bisect the knees when ``sweep`` is set, then
    serve (a repeatable serve step again until :data:`SERVE_PHASE_S`,
    when ``repeat`` is set)."""
    problems: list[str] = []
    attempted = failed = 0
    h = hashlib.sha256()

    reference = [reference_s()]

    def slowed() -> float:
        """Time the reference loops again; the host's slowdown since the
        previous time."""
        reference.append(reference_s())
        return slowdown(reference[-2], reference[-1])

    # Garbage of earlier passes is collected before a timed step, not on
    # its clock.
    gc.collect()
    setup_s = []
    for _ in range(SETUP_REPS):
        t0 = _clock()
        dep = workloads.SETUPS[name](seed)
        setup_s.append(_clock() - t0)
    slow = slowed()
    setup_s = [(t, slow) for t in setup_s]

    rows: dict = {}
    gemm: dict = {}
    weights = [t for t in dep.tensors
               if "tcatbe" in t.codecs and t.label.startswith("weight:")]
    for items in (
        [lambda t=t: _round_trip(t, rows, problems) for t in dep.tensors],
        [lambda t=t: _product(t, dep.gemm_x, rows, gemm, problems)
         for t in weights],
    ):
        made, bad = _timed_step(items)
        attempted += made
        failed += bad
    reference.append(reference_s())
    for key, row in rows.items():
        h.update(f"{key}".encode())
        _feed(h, row.pop("blob"))
    for label, product in gemm.items():
        h.update(label.encode())
        h.update(product.pop("y").tobytes())

    outcome = workloads.SimOutcome()
    if sweep:
        dep.sweep(outcome)
        reference.append(reference_s())
    sim_s = []
    runs = [outcome]
    while True:
        gc.collect()
        t0 = _clock()
        dep.serve(runs[-1])
        sim_s.append((_clock() - t0, slowed()))
        if (not (repeat and dep.repeatable)
                or sum(t for t, _ in sim_s) >= SERVE_PHASE_S):
            break
        runs.append(workloads.SimOutcome())

    for i, (result, offered) in enumerate(outcome.served):
        attempted += offered
        failed += offered - result.n_requests
        _check_conservation(result, offered, f"serve run {i}", problems)
    for m in outcome.probes + [m for r in runs for m in r.replays]:
        attempted += 1
        if not _check_conservation(
                m.result, m.n_offered,
                f"{m.profile} probe at {m.rate_rps:g} rps", problems):
            failed += 1
    if len({_serve_digest(r) for r in runs}) > 1:
        problems.append("repeated serve runs of one pass differ")
    if outcome.recorder is not None:
        _check_attribution(outcome.recorder, outcome.served, problems)
    served = [r for r, _ in outcome.served]
    _feed_results(h, served)
    _feed_results(h, [m.result for m in outcome.replays])
    sweep_digest = None
    if sweep:
        hs = hashlib.sha256()
        _feed_results(hs, [m.result for m in outcome.probes])
        for knee in sorted(outcome.knees):
            hs.update(f"{knee}={outcome.knees[knee]!r}".encode())
        sweep_digest = hs.hexdigest()
    n_finished = (sum(r.n_requests for r in served)
                  + sum(m.result.n_requests for m in outcome.replays))

    return Pass(
        setup_s=setup_s, reference_s=reference, sim_s=sim_s,
        n_finished=n_finished, codec_rows=rows, gemm=gemm,
        peak_rss_mb=resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=attempted, failed=failed,
        digest=h.hexdigest(), sweep_digest=sweep_digest,
        problems=problems, outcome=outcome,
    )


def _run_passes(name, seed, budget_s, min_passes, on_pass=None,
                sweep_every=False, repeat=True):
    """Passes until another like the last would overrun ``budget_s``;
    the first (or, with ``sweep_every``, each) bisects the knees."""
    passes = []
    start = _clock()
    while True:
        t0 = _clock()
        p = run_pass(name, seed, sweep=sweep_every or not passes,
                     repeat=repeat)
        if on_pass is not None:
            on_pass(p)
        if passes:
            p.outcome = None  # only the first pass's results are kept
        passes.append(p)
        now = _clock()
        if (len(passes) >= min_passes
                and now - start + (now - t0) > budget_s):
            return passes


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
def _rates(passes, scaled: bool) -> tuple[float, float, float]:
    """Encode and decode MB/s summed over the lossless codecs (the
    ``none`` control excluded) and ZipGEMM MB/s over the weight layers,
    each tensor at the median of its times over the run, scaled by the
    host's slowdown when ``scaled``."""

    def times(key, field):
        for p in passes:
            source = p.gemm if field == "s" else p.codec_rows
            for t, slow in source[key][field]:
                yield t / slow if scaled else t

    nbytes = enc_s = dec_s = 0.0
    for key, row in passes[0].codec_rows.items():
        if key[1] == "none":
            continue
        nbytes += row["bytes"]
        enc_s += median(times(key, "encode_s"))
        dec_s += median(times(key, "decode_s"))
    gemm_bytes = gemm_s = 0.0
    for label, product in passes[0].gemm.items():
        gemm_bytes += product["bytes"]
        gemm_s += median(times(label, "s"))
    return (nbytes / enc_s / 1e6, nbytes / dec_s / 1e6,
            gemm_bytes / gemm_s / 1e6)


def _latency(group) -> dict:
    """TTFT and TPOT samples (finished requests) and token throughput of
    one group of results."""
    ttft, tpot = [], []
    for r in group:
        for t in r.timings:
            if t.finish_s is not None:
                ttft.append(t.ttft_s)
                tpot.append(t.tpot_s)
    return {
        "ttft": ttft, "tpot": tpot,
        "tok_s": sum(r.tokens_generated for r in group)
        / sum(r.makespan_s for r in group),
    }


def _tail_note(groups, key) -> str:
    notes = [f"{tail(g[key])[0]} of n={len(g[key])}" for g in groups]
    if len(notes) == 1:
        return notes[0]
    return f"geomean over {len(notes)} groups: " + ", ".join(notes)


def end_to_end(passes) -> tuple[dict, list[str]]:
    """The metric values and the report lines that explain them."""
    first = passes[0]
    outcome = first.outcome
    setup = [t for p in passes for t, _ in p.setup_s]
    setup_scaled = [t / slow for p in passes for t, slow in p.setup_s]
    sim_s = [t for p in passes for t, _ in p.sim_s]
    sim_scaled = [t / slow for p in passes for t, slow in p.sim_s]
    encode_mb_s, decode_mb_s, zipgemm_mb_s = _rates(passes, scaled=False)
    zipgemm = [t for p in passes for g in p.gemm.values() for t, _ in g["s"]]
    raw_bytes = enc_bytes = 0
    for (label, codec), row in first.codec_rows.items():
        if codec == "tcatbe" and label.startswith("weight:"):
            raw_bytes += row["bytes"]
            enc_bytes += row["encoded"]
    groups = [_latency(g) for g in outcome.latency_groups]
    knees = [k for ks in outcome.knees.values() for k in ks]
    reference = [[t[i] for p in passes for t in p.reference_s]
                 for i in range(2)]
    raw = {
        "setup_s": median(setup),
        "requests_per_host_s": first.n_finished / median(sim_s),
        "encode_mb_s": encode_mb_s,
        "decode_mb_s": decode_mb_s,
        "zipgemm_mb_s": zipgemm_mb_s,
    }
    encode_mb_s, decode_mb_s, zipgemm_mb_s = _rates(passes, scaled=True)
    values = {
        "setup_s": median(setup_scaled),
        "requests_per_host_s": first.n_finished / median(sim_scaled),
        "peak_rss_mb": first.peak_rss_mb,
        "encode_mb_s": encode_mb_s,
        "decode_mb_s": decode_mb_s,
        "zipgemm_mb_s": zipgemm_mb_s,
        "compression_ratio": raw_bytes / enc_bytes,
        "sim_ttft_p50_s": geomean(median(g["ttft"]) for g in groups),
        "sim_ttft_tail_s": geomean(tail(g["ttft"])[1] for g in groups),
        "sim_tpot_p50_s": geomean(median(g["tpot"]) for g in groups),
        "sim_tpot_tail_s": geomean(tail(g["tpot"])[1] for g in groups),
        "sim_tok_per_s": geomean(g["tok_s"] for g in groups),
        "sim_knee_rps": geomean(knees),
    }
    notes = {
        "setup_s": "median; scaled " + describe(setup_scaled),
        "requests_per_host_s": "median; scaled per serve run s "
        + describe(sim_scaled),
        "zipgemm_mb_s": "median; per product s " + describe(zipgemm),
    }
    for name, value in raw.items():
        notes[name] = f"(as measured {value:.6g}) " + notes.get(name, "")
    notes.update({
        "sim_ttft_tail_s": _tail_note(groups, "ttft"),
        "sim_tpot_tail_s": _tail_note(groups, "tpot"),
        "sim_knee_rps": " ".join(
            f"{k}={geomean(v):.4g}" for k, v in sorted(outcome.knees.items())),
    })
    lines = [
        f"  {name:22s} {values[name]:14.6g} {unit:9s} {notes.get(name, '')}"
        for name, unit in END_TO_END
    ]
    lines.append("  serve runs as measured s: " + describe(sim_s))
    lines.append(
        f"  host reference loops s: interpreter {describe(reference[0])},"
        f" array {describe(reference[1])}; every host time is scaled by"
        " the loops timed around it to nominal"
        f" {REFERENCE_NOMINAL_S[0]:g} s / {REFERENCE_NOMINAL_S[1]:g} s")
    return values, lines


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def traced(name, seed, budget_s, out_path) -> tuple[list, dict]:
    """One untraced reference pass, then traced passes; returns all
    passes and the per-layer metric values (per-pass means)."""
    start = _clock()
    reference = run_pass(name, seed, sweep=True, repeat=False)
    reference.outcome = None
    tracer = Tracer()
    probe = layers.LayerProbe()
    per_pass: list[dict] = []
    layers.install(tracer, probe)

    mark = tracer.mark()

    def on_pass(p):
        nonlocal mark
        per_pass.append(layers.pass_metrics(
            tracer.aggregate(mark), tracer.folded_since(mark), probe,
            p.outcome, len(tracer.spans) - mark[0],
        ))
        probe.reset()
        mark = tracer.mark()

    try:
        passes = _run_passes(name, seed, budget_s - (_clock() - start), 1,
                             on_pass, sweep_every=True, repeat=False)
    finally:
        tracer.unwrap()
    tracer.save(out_path)
    values = {
        key: float(np.mean([m[key] for m in per_pass]))
        for key in per_pass[0]
    }
    untraced_rate = reference.n_finished / reference.sim_s[0][0]
    traced_rate = median(p.n_finished / p.sim_s[0][0] for p in passes)
    values["trace.untraced_requests_per_host_s"] = untraced_rate
    values["trace.traced_requests_per_host_s"] = traced_rate
    values["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    return [reference] + passes, values


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print(f"workload {args.workload} seed {args.seed}"
          f" budget {args.seconds:g}s trace {args.trace}")
    if args.trace:
        out_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.npz"
        passes, values = traced(args.workload, args.seed, args.seconds,
                                out_path)
        units = dict(layers.PER_LAYER)
        lines = [f"  {k:46s} {values[k]:14.6g} {units[k]}"
                 for k, _ in layers.PER_LAYER]
        lines.append(f"  spans written to {out_path}")
    else:
        passes = _run_passes(args.workload, args.seed, args.seconds,
                             MIN_PASSES)
        values, lines = end_to_end(passes)
        units = dict(END_TO_END)

    problems = [msg for p in passes for msg in p.problems]
    for kind in ("digest", "sweep_digest"):
        digests = {getattr(p, kind) for p in passes} - {None}
        if len(digests) > 1:
            problems.append(f"{kind} differs between passes of one seed:"
                            f" {sorted(digests)}")
    sweep_digest = next(p.sweep_digest for p in passes if p.sweep_digest)
    identity = hashlib.sha256(
        f"{passes[0].digest}{sweep_digest}".encode()).hexdigest()
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    succeeded = attempted - failed
    correct = not problems and failed == 0

    print(f"  passes {len(passes)}: sent {attempted} succeeded {succeeded}"
          f" failed {failed} (simulated requests, knee probes and codec"
          " round trips)")
    for line in lines:
        print(line)
    print(f"  identity digest sha256:{identity}")
    for msg in problems:
        print(f"  CHECK FAILED: {msg}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": values[k], "unit": units[k]} for k in units
        },
    }))
    return 0 if correct else 1

"""Discrete-event simulation of ZipGEMM's two-level software pipeline.

§4.3.3 / Figure 10: the fused kernel overlaps three engines per CTA —

* the **copy** engine (``cp.async`` global->shared transfers), double-
  buffered at tile granularity;
* the **ALU** pipe (shared->register decode of TCA-TBE slices);
* the **tensor-core** pipe (``mma`` on the previous slice).

This module executes that schedule event by event: tile ``t+1``'s copy can
start once a shared-memory buffer frees, slice ``s+1``'s decode runs while
slice ``s``'s mma executes, and the inter-tile barrier sits after the last
decode but before the last mma of a tile.  The simulation yields the busy
time of each engine and the end-to-end cycle count, letting tests verify the
claim behind the analytic model: with enough slices, throughput is bound by
``max(copy, decode, mma)`` per slice — decompression latency is *hidden*,
not paid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError


@dataclass
class PipelineEvent:
    """One executed stage instance (for timeline inspection)."""

    stage: str
    tile: int
    slice_index: int
    start: float
    end: float


@dataclass
class PipelineReport:
    """Outcome of a pipeline simulation."""

    total_cycles: float
    copy_busy: float
    decode_busy: float
    mma_busy: float
    n_tiles: int
    slices_per_tile: int
    events: list[PipelineEvent] = field(default_factory=list)

    @property
    def bottleneck_bound(self) -> float:
        """Steady-state lower bound: slowest engine, fully pipelined."""
        return max(self.copy_busy, self.decode_busy, self.mma_busy)

    @property
    def overlap_efficiency(self) -> float:
        """bound / achieved — 1.0 means perfect latency hiding."""
        if self.total_cycles == 0:
            return 1.0
        return self.bottleneck_bound / self.total_cycles


def simulate_zipgemm_pipeline(
    n_tiles: int,
    slices_per_tile: int,
    copy_cycles_per_tile: float,
    decode_cycles_per_slice: float,
    mma_cycles_per_slice: float,
    n_buffers: int = 2,
    keep_events: bool = False,
) -> PipelineReport:
    """Run the two-level pipeline schedule and account engine time.

    Parameters
    ----------
    n_tiles:
        K-dimension tiles processed by the CTA (the main loop trips).
    slices_per_tile:
        16-wide K slices per tile (§4.3.3: "computation is sliced along K").
    copy_cycles_per_tile / decode_cycles_per_slice / mma_cycles_per_slice:
        Engine costs in cycles.
    n_buffers:
        Shared-memory buffers; 2 = the kernel's double buffering, 1 is the
        non-pipelined ablation.
    """
    if n_tiles <= 0 or slices_per_tile <= 0:
        raise ConfigError("pipeline needs at least one tile and slice")
    if n_buffers < 1:
        raise ConfigError("need at least one shared-memory buffer")
    if min(copy_cycles_per_tile, decode_cycles_per_slice,
           mma_cycles_per_slice) < 0:
        raise ConfigError("stage costs must be non-negative")

    copy_free = 0.0     # the async-copy engine
    decode_free = 0.0   # the integer/ALU pipe
    mma_free = 0.0      # the tensor-core pipe
    # Time each tile's shared buffer is released (= its last decode done).
    release = [0.0] * n_tiles
    copy_done = [0.0] * n_tiles
    events: list[PipelineEvent] = []

    for tile in range(n_tiles):
        # Copy waits for the engine and for a free buffer slot.
        gate = release[tile - n_buffers] if tile >= n_buffers else 0.0
        start = max(copy_free, gate)
        copy_free = start + copy_cycles_per_tile
        copy_done[tile] = copy_free
        if keep_events:
            events.append(
                PipelineEvent("copy", tile, -1, start, copy_free)
            )

        last_decode_end = 0.0
        for s in range(slices_per_tile):
            d_start = max(decode_free, copy_done[tile])
            d_end = d_start + decode_cycles_per_slice
            decode_free = d_end
            last_decode_end = d_end
            if keep_events:
                events.append(PipelineEvent("decode", tile, s, d_start, d_end))

            m_start = max(mma_free, d_end)
            m_end = m_start + mma_cycles_per_slice
            mma_free = m_end
            if keep_events:
                events.append(PipelineEvent("mma", tile, s, m_start, m_end))
        release[tile] = last_decode_end

    return PipelineReport(
        total_cycles=mma_free,
        copy_busy=n_tiles * copy_cycles_per_tile,
        decode_busy=n_tiles * slices_per_tile * decode_cycles_per_slice,
        mma_busy=n_tiles * slices_per_tile * mma_cycles_per_slice,
        n_tiles=n_tiles,
        slices_per_tile=slices_per_tile,
        events=events,
    )


def zipgemm_cta_pipeline(
    spec,
    k_extent: int,
    n_cols: int,
    compressed_fraction: float,
    decode_cycles_per_element: float,
    n_buffers: int = 2,
) -> PipelineReport:
    """Pipeline simulation with costs derived from a device spec.

    Models one CTA processing a 64-row BlockTile over ``k_extent`` of K with
    ``n_cols`` output columns: per 64-deep tile, the copy engine moves the
    compressed bytes at the CTA's DRAM-bandwidth share, the ALU pipe decodes
    64x16 slices at the measured per-element cycle cost, and the tensor-core
    pipe executes the slice mma.
    """
    if k_extent % 64:
        raise ConfigError("K extent must be a multiple of the 64-tile")
    n_tiles = k_extent // 64
    slices = 4  # 64 deep / 16 per mma slice

    # Per-CTA bandwidth share, in bytes per SM-clock cycle.
    bytes_per_cycle = (
        spec.dram_bytes_per_s * spec.fused_bw_frac
        / spec.sm_count / spec.clock_hz
    )
    tile_bytes = 64 * 64 * 2 * compressed_fraction
    copy_cycles = tile_bytes / bytes_per_cycle

    # Decode cost of one 64x16 slice on this CTA's SM (the per-element cycle
    # figure is already normalised to one SM's issue width).
    elements_per_slice = 64 * 16
    decode_cycles = elements_per_slice * decode_cycles_per_element

    # Slice mma: 64x16 weights x n_cols activations on one SM's tensor cores.
    flops = 2.0 * 64 * 16 * n_cols
    tc_flops_per_sm_cycle = spec.tc_flops / spec.sm_count / spec.clock_hz
    mma_cycles = flops / (tc_flops_per_sm_cycle * 0.8)

    return simulate_zipgemm_pipeline(
        n_tiles=n_tiles,
        slices_per_tile=slices,
        copy_cycles_per_tile=copy_cycles,
        decode_cycles_per_slice=decode_cycles,
        mma_cycles_per_slice=mma_cycles,
        n_buffers=n_buffers,
    )

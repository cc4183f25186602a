"""Paged KV-cache manager (PagedAttention-style block allocator).

§6.5 of the paper: the memory freed by weight compression is "automatically
repurposed by the memory manager to expand the KV cache capacity", growing
batch sizes and context lengths.  This module is that memory manager: fixed
-size token blocks, per-sequence block tables, exact capacity accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..compression import resolve_spec
from ..errors import CapacityError, ConfigError, SchedulingError
from ..utils import ceil_div
from .models import ModelSpec

#: vLLM's default tokens-per-block.
DEFAULT_BLOCK_SIZE = 16


@dataclass(frozen=True)
class KVCacheSpec:
    """Geometry of the KV cache for one model shard."""

    n_layers: int
    kv_heads: int
    head_dim: int
    block_size: int = DEFAULT_BLOCK_SIZE
    dtype_bytes: int = 2

    @classmethod
    def for_model(
        cls, model: ModelSpec, tensor_parallel: int = 1,
        pipeline_parallel: int = 1,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> "KVCacheSpec":
        """KV geometry of one shard.

        Tensor parallelism splits KV heads; pipeline parallelism splits
        layers (each stage caches only its own layers).
        """
        kv_heads = max(1, model.n_kv_heads // tensor_parallel)
        n_layers = ceil_div(model.n_layers, pipeline_parallel)
        return cls(
            n_layers=n_layers,
            kv_heads=kv_heads,
            head_dim=model.head_dim,
            block_size=block_size,
        )

    @property
    def bytes_per_token(self) -> int:
        """K and V bytes for one token across all layers of this shard."""
        return (
            2 * self.n_layers * self.kv_heads * self.head_dim
            * self.dtype_bytes
        )

    @property
    def bytes_per_block(self) -> int:
        """Bytes of one block (``block_size`` tokens)."""
        return self.bytes_per_token * self.block_size

    @property
    def raw_bytes_per_token(self) -> int:
        """Uncompressed K+V bytes per token (identical here; the
        compressed spec reports its inner geometry)."""
        return self.bytes_per_token


@dataclass(frozen=True)
class CompressedKVCacheSpec:
    """KV geometry with losslessly compressed blocks.

    Wraps a :class:`KVCacheSpec`; bytes per token shrink by ``ratio``,
    which the block allocator and memory planner then turn into
    proportionally more token capacity.  Any registered codec can back
    it — build one with :meth:`from_codec` and the registry resolves
    the analytic KV ratio (``extensions.kvcomp`` keeps its historical
    Vector-TBE constructor on top of this class).
    """

    inner: KVCacheSpec
    ratio: float
    codec: str = "vector_tbe"

    def __post_init__(self) -> None:
        if self.ratio < 1.0:
            raise ConfigError("KV compression ratio must be >= 1")

    @classmethod
    def from_codec(
        cls,
        inner: KVCacheSpec,
        codec: str,
        ratio: float | None = None,
        profile=None,
    ) -> "CompressedKVCacheSpec":
        """Compressed geometry for any registered codec.

        ``ratio=None`` resolves the codec's activation ratio through the
        compression registry — **measured** when a calibration
        ``profile`` (:class:`~repro.compression.MeasuredRatioProfile`)
        is given or installed process-wide, analytic otherwise; an
        explicit ratio overrides both.
        """
        spec = resolve_spec(codec, "kv", ratio=ratio, profile=profile)
        return cls(inner=inner, ratio=spec.ratio, codec=spec.codec)

    @property
    def bytes_per_token(self) -> int:
        """Compressed K+V bytes per token (ceil, per-block container)."""
        return max(1, math.ceil(self.inner.bytes_per_token / self.ratio))

    @property
    def bytes_per_block(self) -> int:
        """Compressed bytes of one block."""
        return self.bytes_per_token * self.inner.block_size

    @property
    def raw_bytes_per_token(self) -> int:
        """Uncompressed K+V bytes per token (what goes on a raw wire)."""
        return self.inner.bytes_per_token

    @property
    def capacity_gain(self) -> float:
        """Token-capacity multiplier at equal memory."""
        return self.inner.bytes_per_token / self.bytes_per_token

    # Geometry passthrough: the block allocator and serving cores read
    # these off whichever spec flavour they were handed.
    @property
    def block_size(self) -> int:
        return self.inner.block_size

    @property
    def n_layers(self) -> int:
        return self.inner.n_layers

    @property
    def kv_heads(self) -> int:
        return self.inner.kv_heads

    @property
    def head_dim(self) -> int:
        return self.inner.head_dim

    @property
    def dtype_bytes(self) -> int:
        return self.inner.dtype_bytes


class PagedKVCache:
    """Block allocator with per-sequence block tables."""

    def __init__(self, spec: KVCacheSpec, capacity_bytes: float):
        if capacity_bytes <= 0:
            raise CapacityError(
                f"KV cache capacity must be positive, got {capacity_bytes}"
            )
        self.spec = spec
        self.n_blocks = int(capacity_bytes // spec.bytes_per_block)
        if self.n_blocks == 0:
            raise CapacityError(
                "KV capacity smaller than a single block:"
                f" {capacity_bytes} < {spec.bytes_per_block}"
            )
        self._free: list[int] = list(range(self.n_blocks))
        self._tables: dict[int, list[int]] = {}
        self._lengths: dict[int, int] = {}

    # ------------------------------------------------------------------
    @property
    def free_blocks(self) -> int:
        """Blocks currently unallocated."""
        return len(self._free)

    @property
    def used_blocks(self) -> int:
        """Blocks currently held by sequences."""
        return self.n_blocks - len(self._free)

    @property
    def utilization(self) -> float:
        """Fraction of blocks in use."""
        return self.used_blocks / self.n_blocks

    def sequence_length(self, seq_id: int) -> int:
        """Tokens currently cached for ``seq_id``."""
        if seq_id not in self._lengths:
            raise SchedulingError(f"unknown sequence {seq_id}")
        return self._lengths[seq_id]

    def block_table(self, seq_id: int) -> list[int]:
        """The sequence's block table (copy)."""
        if seq_id not in self._tables:
            raise SchedulingError(f"unknown sequence {seq_id}")
        return list(self._tables[seq_id])

    # ------------------------------------------------------------------
    def blocks_needed(self, seq_id: int | None, n_tokens: int) -> int:
        """Blocks that must be newly allocated to grow by ``n_tokens``."""
        current = self._lengths.get(seq_id, 0) if seq_id is not None else 0
        have = ceil_div(current, self.spec.block_size) if current else 0
        need = ceil_div(current + n_tokens, self.spec.block_size)
        return need - have

    def can_allocate(self, seq_id: int | None, n_tokens: int) -> bool:
        """Whether growing by ``n_tokens`` fits without eviction."""
        return self.blocks_needed(seq_id, n_tokens) <= len(self._free)

    def allocate(self, seq_id: int, n_tokens: int) -> None:
        """Create a sequence and reserve blocks for its first tokens."""
        if seq_id in self._tables:
            raise SchedulingError(f"sequence {seq_id} already allocated")
        if n_tokens <= 0:
            raise SchedulingError("initial allocation must be > 0 tokens")
        self._tables[seq_id] = []
        self._lengths[seq_id] = 0
        self._grow(seq_id, n_tokens)

    def append_token(self, seq_id: int, n_tokens: int = 1) -> None:
        """Extend an existing sequence by ``n_tokens`` (decode steps)."""
        if seq_id not in self._tables:
            raise SchedulingError(f"unknown sequence {seq_id}")
        self._grow(seq_id, n_tokens)

    def append_decode(self, seq_ids: list[int]) -> None:
        """Append one token to each sequence (one decode iteration).

        The batched form of :meth:`append_token` — one call per step
        instead of one per sequence, which is the serving loop's hottest
        allocator path.  Raises partway on exhaustion like the sequential
        equivalent; callers that preempt first never hit that.
        """
        lengths = self._lengths
        block = self.spec.block_size
        for seq_id in seq_ids:
            current = lengths.get(seq_id)
            if current is None:
                raise SchedulingError(f"unknown sequence {seq_id}")
            if current % block:
                lengths[seq_id] = current + 1
            else:
                self._grow(seq_id, 1)

    def free(self, seq_id: int) -> int:
        """Release a sequence; returns the number of blocks freed."""
        table = self._tables.pop(seq_id, None)
        if table is None:
            raise SchedulingError(f"unknown sequence {seq_id}")
        del self._lengths[seq_id]
        self._free.extend(table)
        return len(table)

    # ------------------------------------------------------------------
    def _grow(self, seq_id: int, n_tokens: int) -> None:
        if n_tokens == 1:
            # Decode fast path: a token that fits in the sequence's last
            # block needs no allocator work (this is every step of a long
            # decode except one in ``block_size``).
            current = self._lengths[seq_id]
            if current % self.spec.block_size:
                self._lengths[seq_id] = current + 1
                return
        new_blocks = self.blocks_needed(seq_id, n_tokens)
        if new_blocks > len(self._free):
            raise CapacityError(
                f"KV cache exhausted: need {new_blocks} blocks,"
                f" {len(self._free)} free"
            )
        for _ in range(new_blocks):
            self._tables[seq_id].append(self._free.pop())
        self._lengths[seq_id] += n_tokens

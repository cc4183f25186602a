"""Canonical Huffman codec with a chunk-parallel container (DFloat11-style).

DFloat11 compresses the BF16 exponent plane with Huffman codes and decodes on
GPU by (1) partitioning the bitstream into chunks with recorded start offsets,
(2) extracting symbols through lookup tables, and (3) advancing a bit pointer
by the just-decoded symbol's length (§3.2 of the paper).  This module
implements exactly that container:

* canonical, length-limited Huffman codes (max 16 bits, matching a 16-bit
  peek LUT);
* chunked encoding with per-chunk bit offsets as side information;
* a chunk-parallel decoder.  A GPU runs one thread per chunk; here every
  chunk's chain of symbol positions is followed through a successor table
  over all bit positions, with a squared jump table so only a few hundred
  vectorised steps run in Python (see :meth:`HuffmanCodec.decode`).

The GPU divergence model (:func:`repro.gpu.warp.huffman_divergence`) reads
per-symbol code lengths from :meth:`HuffmanCodec.symbol_lengths`, not from
the decoder.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..errors import CodecError
from ..utils import ceil_div
from .base import EncodedStream, as_u8, register_byte_codec
from .bitstream import BitReader, pack_bits

#: Default decode-table width; DFloat11 uses hierarchical LUTs, we use one
#: flat 2^16-entry table.
MAX_CODE_LEN = 16

#: Default number of symbols per independently-decodable chunk.
DEFAULT_CHUNK_SYMBOLS = 4096


def huffman_code_lengths(
    freqs: np.ndarray, max_len: int = MAX_CODE_LEN
) -> np.ndarray:
    """Compute length-limited Huffman code lengths for a 256-symbol alphabet.

    Standard two-queue/heap Huffman construction followed by a Kraft-sum
    repair pass that caps lengths at ``max_len`` (the approach used by
    practical coders such as zlib/zstd).

    Parameters
    ----------
    freqs:
        Symbol frequencies, shape ``(256,)``; zeros mean "symbol absent".
    max_len:
        Maximum permitted code length.

    Returns
    -------
    uint8 array of code lengths, 0 for absent symbols.
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    if freqs.shape != (256,):
        raise CodecError(f"freqs must have shape (256,), got {freqs.shape}")
    if (freqs < 0).any():
        raise CodecError("frequencies must be non-negative")

    present = np.flatnonzero(freqs > 0)
    lengths = np.zeros(256, dtype=np.uint8)
    if present.size == 0:
        return lengths
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths

    # Heap of (weight, tiebreak, node); leaves are symbol ids, internal nodes
    # are lists of their leaf symbols so we can bump depths on merge.
    heap: list[tuple[int, int, list[int]]] = []
    counter = 0
    for sym in present:
        heap.append((int(freqs[sym]), counter, [int(sym)]))
        counter += 1
    heapq.heapify(heap)
    depth = np.zeros(256, dtype=np.int64)
    while len(heap) > 1:
        w1, _, leaves1 = heapq.heappop(heap)
        w2, _, leaves2 = heapq.heappop(heap)
        merged = leaves1 + leaves2
        depth[merged] += 1
        heapq.heappush(heap, (w1 + w2, counter, merged))
        counter += 1

    depth = np.minimum(depth, max_len)
    lengths[present] = depth[present].astype(np.uint8)

    # Kraft repair: clamping may overfill the code space.  Each increment of a
    # length ell < max_len frees 2^(max_len - ell - 1) units of 2^-max_len.
    unit = 1 << max_len
    kraft = int(np.sum(unit >> lengths[present].astype(np.int64)))
    while kraft > unit:
        candidates = lengths[present].astype(np.int64)
        candidates[candidates >= max_len] = -1  # not adjustable
        deepest = present[int(np.argmax(candidates))]
        if lengths[deepest] >= max_len:
            raise CodecError("cannot satisfy Kraft inequality")  # pragma: no cover
        kraft -= unit >> (int(lengths[deepest]) + 1)
        lengths[deepest] += 1
    return lengths


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical (lexicographic-by-length) codes for given lengths."""
    lengths = np.asarray(lengths, dtype=np.uint8)
    codes = np.zeros(256, dtype=np.uint32)
    order = sorted(np.flatnonzero(lengths > 0), key=lambda s: (lengths[s], s))
    code = 0
    prev_len = 0
    for sym in order:
        ell = int(lengths[sym])
        code <<= ell - prev_len
        codes[sym] = code
        code += 1
        prev_len = ell
    return codes


def build_decode_lut(
    lengths: np.ndarray, max_len: int = MAX_CODE_LEN
) -> tuple[np.ndarray, np.ndarray]:
    """Build a flat peek-LUT: ``max_len`` peeked bits -> (symbol, length)."""
    codes = canonical_codes(lengths)
    lut_sym = np.zeros(1 << max_len, dtype=np.uint8)
    lut_len = np.zeros(1 << max_len, dtype=np.uint8)
    for sym in np.flatnonzero(lengths > 0):
        ell = int(lengths[sym])
        start = int(codes[sym]) << (max_len - ell)
        end = start + (1 << (max_len - ell))
        lut_sym[start:end] = sym
        lut_len[start:end] = ell
    return lut_sym, lut_len


#: Squaring the successor table stops once ``n_chunks * 2^(D+1)`` exceeds
#: this.  A squaring is one gather over every bit position of the stream
#: (about ``2.7 * n_chunks * chunk_symbols`` on an exponent plane) and saves
#: ``chunk_symbols / 2^(D+1)`` coarse steps, each a Python-level gather over
#: ``n_chunks`` lanes that costs about as much as gathering ~600 positions,
#: so it pays off while ``n_chunks * 2^(D+1)`` is below ~220; 128 leaves a
#: margin for long streams, whose whole-table gathers miss cache more.
JUMP_LANES = 128

#: At most this many squarings (a 16-step jump table).
MAX_SQUARINGS = 4


def _jump_squarings(n_chunks: int) -> int:
    """How often to square the successor table for ``n_chunks`` chunks."""
    squarings = 0
    while (squarings < MAX_SQUARINGS
           and n_chunks << (squarings + 1) <= JUMP_LANES):
        squarings += 1
    return squarings


def _check_container(
    stream: EncodedStream, max_len: int
) -> tuple[np.ndarray, int, np.ndarray, int]:
    """Validate a non-empty container's header before any table is built.

    Returns ``(lengths, chunk_symbols, chunk_bit_offsets, total_bits)``.
    """
    n = stream.n_symbols
    lengths = np.asarray(stream.meta_field("lengths"))
    if lengths.shape != (256,) or not np.issubdtype(lengths.dtype, np.integer):
        raise CodecError("Huffman lengths must be 256 integers")
    if lengths.min() < 0 or lengths.max() > max_len or not lengths.any():
        raise CodecError(f"Huffman lengths must lie in [0, {max_len}]")
    present = lengths[lengths > 0].astype(np.int64)
    if int(np.sum(np.int64(1) << (max_len - present))) > 1 << max_len:
        raise CodecError("Huffman lengths violate the Kraft inequality")
    chunk_symbols = stream.meta_field("chunk_symbols")
    if not isinstance(chunk_symbols, (int, np.integer)) or chunk_symbols < 1:
        raise CodecError(
            f"chunk_symbols must be a positive integer, got {chunk_symbols!r}")
    total_bits = stream.meta_field("total_bits")
    if not isinstance(total_bits, (int, np.integer)) or not (
            n <= total_bits <= 8 * stream.payload.size):
        raise CodecError(
            f"total_bits={total_bits!r} must lie in [n_symbols={n},"
            f" 8 * payload bytes={8 * stream.payload.size}]")
    starts = np.asarray(stream.meta_field("chunk_bit_offsets"))
    n_chunks = ceil_div(n, int(chunk_symbols))
    if starts.shape != (n_chunks,) or not np.issubdtype(
            starts.dtype, np.integer):
        raise CodecError(
            f"chunk_bit_offsets must hold ceil(n_symbols / chunk_symbols) ="
            f" {n_chunks} integers, got shape {starts.shape}")
    starts = starts.astype(np.int64)
    if starts[0] != 0 or (np.diff(starts) <= 0).any() or (
            starts[-1] >= total_bits):
        raise CodecError(
            "chunk_bit_offsets must start at 0 and rise strictly below"
            " total_bits")
    return lengths, int(chunk_symbols), starts, int(total_bits)


@dataclass
class HuffmanCodec:
    """Chunked canonical-Huffman byte codec."""

    chunk_symbols: int = DEFAULT_CHUNK_SYMBOLS
    max_len: int = MAX_CODE_LEN
    name: str = "huffman"

    def __post_init__(self) -> None:
        if not isinstance(self.chunk_symbols, (int, np.integer)) or (
                self.chunk_symbols < 1):
            raise CodecError(
                "chunk_symbols must be a positive integer,"
                f" got {self.chunk_symbols!r}")
        if not isinstance(self.max_len, (int, np.integer)) or not (
                1 <= self.max_len <= MAX_CODE_LEN):
            raise CodecError(
                f"max_len must be an integer in [1, {MAX_CODE_LEN}] (the"
                f" peek table's width), got {self.max_len!r}")

    def encode(self, data: np.ndarray) -> EncodedStream:
        """Encode a uint8 array; see the module docstring for the container."""
        data = as_u8(data)
        n = data.size
        if n == 0:
            return EncodedStream(
                codec=self.name,
                payload=np.zeros(0, dtype=np.uint8),
                n_symbols=0,
                header_nbytes=0,
                meta={"lengths": np.zeros(256, dtype=np.uint8)},
            )
        freqs = np.bincount(data, minlength=256)
        lengths = huffman_code_lengths(freqs, self.max_len)
        codes = canonical_codes(lengths)

        sym_lengths = lengths[data].astype(np.int64)
        buffer, total_bits = pack_bits(codes[data], sym_lengths)

        ends = np.cumsum(sym_lengths)
        starts = ends - sym_lengths
        chunk_starts = starts[:: self.chunk_symbols].astype(np.int64)

        # Container side info: 256-byte length table + one 32-bit offset per
        # chunk + a small fixed header.
        header_nbytes = 256 + 4 * chunk_starts.size + 16
        return EncodedStream(
            codec=self.name,
            payload=buffer,
            n_symbols=n,
            header_nbytes=header_nbytes,
            meta={
                "lengths": lengths,
                "chunk_bit_offsets": chunk_starts,
                "total_bits": int(total_bits),
                "chunk_symbols": int(self.chunk_symbols),
            },
        )

    def decode(self, stream: EncodedStream) -> np.ndarray:
        """Chunk-parallel decode; bit-exact inverse of :meth:`encode`.

        Each chunk's symbol positions are a chain through the successor
        table ``nxt[p] = p + code_len(p)`` over every bit position ``p``.
        Squaring ``nxt`` gives a ``2^D``-step jump table, so the chunks
        advance ``ceil(chunk_symbols / 2^D)`` coarse steps in lockstep and
        ``2^D - 1`` vectorised gathers through ``nxt`` fill the positions in
        between.  Position ``total_bits + 1`` absorbs chains that run past
        the payload.
        """
        n = stream.n_symbols
        if n == 0:
            return np.zeros(0, dtype=np.uint8)
        lengths, chunk_symbols, starts, total_bits = _check_container(
            stream, self.max_len)
        lut_sym, lut_len = build_decode_lut(lengths, self.max_len)
        peek = BitReader(stream.payload, total_bits).peek_all(self.max_len)

        end = total_bits + 1
        index = np.int32 if end < np.iinfo(np.int32).max else np.int64
        nxt = np.arange(total_bits + 2, dtype=index)
        nxt[:total_bits] += lut_len.take(peek[:total_bits])
        tail = nxt[max(0, total_bits - self.max_len):total_bits]
        np.minimum(tail, end, out=tail)
        nxt[total_bits:] = end

        n_chunks = starts.size
        squarings = _jump_squarings(n_chunks)
        jump = nxt
        for _ in range(squarings):
            jump = jump.take(jump)
        stride = 1 << squarings
        coarse = [starts.astype(index)]
        for _ in range(ceil_div(chunk_symbols, stride) - 1):
            coarse.append(jump.take(coarse[-1]))
        del jump
        grid = np.empty((stride, len(coarse), n_chunks), dtype=index)
        np.stack(coarse, out=grid[0])
        del coarse
        for i in range(1, stride):
            nxt.take(grid[i - 1], out=grid[i])
        # (stride, coarse step, chunk) -> chunk-major symbol order.
        pos = grid.transpose(2, 1, 0).reshape(n_chunks, -1)[:, :chunk_symbols]
        pos = pos.reshape(-1)[:n]
        del grid

        if int(pos.max()) >= total_bits:
            raise CodecError(
                "corrupt Huffman stream: a chunk runs past total_bits")
        codes = peek.take(pos)
        if not lut_len.take(codes).all():
            raise CodecError("corrupt Huffman stream: unknown code")
        last = np.minimum(
            np.arange(1, n_chunks + 1, dtype=np.int64) * chunk_symbols, n) - 1
        chunk_ends = nxt.take(pos.take(last))
        if not np.array_equal(chunk_ends[:-1], starts[1:]) or (
                int(chunk_ends[-1]) != total_bits):
            raise CodecError(
                "corrupt Huffman stream: a chunk does not end where the next"
                " chunk_bit_offsets entry (or total_bits) says")
        return lut_sym.take(codes)

    def symbol_lengths(self, data: np.ndarray) -> np.ndarray:
        """Per-symbol code lengths for ``data`` (feeds the divergence model)."""
        data = as_u8(data)
        if data.size == 0:
            return np.zeros(0, dtype=np.uint8)
        freqs = np.bincount(data, minlength=256)
        return huffman_code_lengths(freqs, self.max_len)[data]


register_byte_codec(HuffmanCodec())

"""TCA-TBE decompression (the vectorised analogue of Algorithm 2).

Algorithm 2 gives each warp lane the constant-time recipe for its two
elements: OR the three bit-planes into a spatial indicator, popcount a prefix
mask for dynamic addressing, reassemble the exponent as ``base + code``.
This module performs the same steps for *all* tiles at once with numpy, and
is exercised against the literal per-lane reference
(:mod:`repro.tcatbe.warp_ref`) in the test suite.
"""

from __future__ import annotations

import numpy as np

from ..bf16 import assemble, unpack_sign_mantissa
from ..errors import FormatError
from .format import TcaTbeMatrix
from .layout import FRAG_ELEMS, from_tiles


def _codes_from_bitmaps(bitmaps: np.ndarray) -> np.ndarray:
    """Expand ``(n_tiles, 3)`` bit-planes into ``(n_tiles, 64)`` codewords."""
    # Bit p of a little-endian uint64 is bit p % 8 of its byte p // 8.
    planes = np.unpackbits(
        np.ascontiguousarray(bitmaps, dtype="<u8").view(np.uint8),
        bitorder="little",
    ).reshape(-1, 3, FRAG_ELEMS)
    return planes[:, 0] | (planes[:, 1] << 1) | (planes[:, 2] << 2)


def _decode_tiles(matrix: TcaTbeMatrix) -> np.ndarray:
    """Decode every FragTile to ``(n_tiles, 64)`` BF16 words, canonical order.

    Shared by :func:`decompress` and ZipGEMM (:mod:`repro.kernels.functional`),
    so both check the buffer sizes the same way.
    """
    codes = _codes_from_bitmaps(matrix.bitmaps)
    in_window = codes > 0

    expected_high = int(np.count_nonzero(in_window))
    if expected_high != matrix.n_high:
        raise FormatError(
            f"bitmap indicator says {expected_high} compressed elements,"
            f" buffer holds {matrix.n_high}"
        )
    if matrix.n_padded_elements - expected_high != matrix.n_low:
        raise FormatError("fallback buffer size disagrees with bitmaps")

    tiles = np.empty((matrix.n_tiles, FRAG_ELEMS), dtype=np.uint16)

    # Case A (high-frequency path): exponent = base_exp + code, sign/mantissa
    # from the packed byte.  Boolean C-order indexing matches the canonical
    # buffer order the compressor used.
    sign, mantissa = unpack_sign_mantissa(matrix.high)
    exponent = matrix.base_exp + codes[in_window].astype(np.uint16)
    tiles[in_window] = assemble(sign, exponent, mantissa)

    # Case B (fallback path): raw 16-bit words.
    tiles[~in_window] = matrix.low
    return tiles


def decompress(matrix: TcaTbeMatrix) -> np.ndarray:
    """Reconstruct the exact original BF16 (uint16) matrix."""
    padded = from_tiles(_decode_tiles(matrix), matrix.padded_shape)
    rows, cols = matrix.shape
    return np.ascontiguousarray(padded[:rows, :cols])


def decompress_tile(matrix: TcaTbeMatrix, tile_index: int) -> np.ndarray:
    """Decode a single FragTile to its 64 BF16 words (canonical order).

    This is the unit of work the fused ZipGEMM kernel performs per warp and
    per K-slice; the warp-level reference :mod:`repro.tcatbe.warp_ref` is
    tested against it.
    """
    if not 0 <= tile_index < matrix.n_tiles:
        raise FormatError(
            f"tile index {tile_index} out of range [0, {matrix.n_tiles})"
        )
    codes = _codes_from_bitmaps(matrix.bitmaps[tile_index:tile_index + 1])[0]
    in_window = codes > 0

    h0 = matrix.high_starts[tile_index]
    h1 = matrix.high_starts[tile_index + 1]
    l0 = matrix.low_starts[tile_index]
    l1 = matrix.low_starts[tile_index + 1]

    out = np.empty(FRAG_ELEMS, dtype=np.uint16)
    sign, mantissa = unpack_sign_mantissa(matrix.high[h0:h1])
    exponent = matrix.base_exp + codes[in_window].astype(np.uint16)
    out[in_window] = assemble(sign, exponent, mantissa)
    out[~in_window] = matrix.low[l0:l1]
    return out

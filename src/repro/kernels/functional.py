"""Bit-exact functional GEMM executors (correctness layer of ZipGEMM).

Performance is modelled analytically elsewhere; *values* are computed here.
Both executors obtain every FragTile at once, as ``(n_tiles, 64)`` BF16 words
in canonical tile order, and run the same batched schedule on them:

* :func:`dense_gemm_tiled` takes them from the uncompressed weights
  (``to_tiles`` of the padded matrix);
* :func:`zipgemm_execute` decodes them from the TCA-TBE buffers in one
  vectorised pass — the decode, buffer checks included, of
  :func:`repro.tcatbe.decompress` ("load-compressed, compute-decompressed",
  §4.3; each FragTile decodes independently of the others).

The schedule multiplies all FragTiles as one stacked ``matmul`` of
``(8,8) @ (8,N)`` products, then accumulates each output row strip from
zeros over its K slices in ascending K — the order in which the canonical
tile order visits them.  The float operations are therefore those of a
one-FragTile-at-a-time loop, in the same order, and since TCA-TBE is
lossless the two executors return bit-identical float32 arrays: the paper's
"bit-exact inference" property, asserted in the tests against such a loop.
"""

from __future__ import annotations

import numpy as np

from ..bf16 import bf16_to_f32
from ..errors import ShapeError
from ..tcatbe.decompressor import _decode_tiles
from ..tcatbe.format import TcaTbeMatrix
from ..tcatbe.layout import FRAG_TILE, from_tiles, pad_matrix, to_tiles
from ..utils import require_2d


def _pad_activations(x: np.ndarray, k_padded: int) -> np.ndarray:
    if x.dtype != np.float32:
        raise ShapeError("activations must be float32")
    require_2d(x, "activations")
    if x.shape[0] == k_padded:
        return x
    out = np.zeros((k_padded, x.shape[1]), dtype=np.float32)
    out[: x.shape[0]] = x
    return out


def _tiled_gemm(
    tiles: np.ndarray,
    shape: tuple[int, int],
    shape_padded: tuple[int, int],
    x: np.ndarray,
) -> np.ndarray:
    """Shared batched schedule over canonical-order FragTiles.

    Every FragTile product ``(8,8) @ (8,N)`` is taken in one stacked
    ``matmul``, each the same contiguous BLAS call a one-tile-at-a-time loop
    makes.  Each output row strip then starts from zeros and gets one
    vectorised ``+=`` per K slice in ascending K, the order in which the
    canonical tile order visits a strip's slices (the kernel's split-K chunk
    loop).  The float operations and their order are thus the per-tile
    loop's, and so are the output bits; ``np.sum`` or ``einsum`` would leave
    the reduction order unspecified.
    """
    m, k = shape
    mp, kp = shape_padded
    if x.shape[0] != k:
        raise ShapeError(f"K mismatch: weights {m}x{k} vs activations {x.shape}")
    xp = _pad_activations(x, kp)
    n = x.shape[1]
    strips, slices = mp // FRAG_TILE, kp // FRAG_TILE
    grid = from_tiles(tiles, shape_padded).reshape(
        strips, FRAG_TILE, slices, FRAG_TILE)
    # (slice, strip, 8, 8): BLAS may order a strided fragment's sums
    # differently, so each FragTile is made contiguous.
    frags = bf16_to_f32(np.ascontiguousarray(grid.transpose(2, 0, 1, 3)))
    products = np.matmul(frags, xp.reshape(slices, 1, FRAG_TILE, n))
    out = np.zeros((strips, FRAG_TILE, n), dtype=np.float32)
    for product in products:
        out += product
    return out.reshape(mp, n)[:m]


def dense_gemm_tiled(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Reference BF16 GEMM over uncompressed weights (uint16 MxK)."""
    require_2d(weights, "weights")
    if weights.dtype != np.uint16:
        raise ShapeError("weights must be BF16 bit patterns (uint16)")
    padded = pad_matrix(weights, 0)
    return _tiled_gemm(to_tiles(padded), weights.shape, padded.shape, x)


def zipgemm_execute(matrix: TcaTbeMatrix, x: np.ndarray) -> np.ndarray:
    """Fused execution: decode every FragTile in one pass, then accumulate."""
    return _tiled_gemm(
        _decode_tiles(matrix), matrix.shape, matrix.padded_shape, x)


def dense_gemm_reference(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Plain ``W @ X`` in float32 (library order) for approximate checks."""
    require_2d(weights, "weights")
    if weights.dtype != np.uint16:
        raise ShapeError("weights must be BF16 bit patterns (uint16)")
    return bf16_to_f32(weights) @ x

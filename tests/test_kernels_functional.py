"""Bit-exactness tests for the functional fused GEMM executors."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bf16 import bf16_to_f32, gaussian_bf16_matrix
from repro.errors import FormatError, ShapeError
from repro.kernels.functional import (
    dense_gemm_reference,
    dense_gemm_tiled,
    zipgemm_execute,
)
from repro.tcatbe import compress, decompress
from repro.tcatbe.layout import FRAG_TILE, pad_matrix, tile_base_coords


def per_tile_gemm(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Oracle: the one-FragTile-at-a-time schedule of the fused kernel.

    Each FragTile is sliced out as a contiguous (8, 8) block, multiplied by
    its (8, N) slice of the activations, and added into its output row strip,
    in canonical tile order (which visits a strip's K slices in ascending K).
    """
    padded = bf16_to_f32(pad_matrix(weights, 0))
    mp, kp = padded.shape
    xp = np.zeros((kp, x.shape[1]), dtype=np.float32)
    xp[: x.shape[0]] = x
    out = np.zeros((mp, x.shape[1]), dtype=np.float32)
    for row0, col0 in tile_base_coords(mp, kp):
        frag = np.ascontiguousarray(
            padded[row0:row0 + FRAG_TILE, col0:col0 + FRAG_TILE]
        )
        out[row0:row0 + FRAG_TILE] += frag @ xp[col0:col0 + FRAG_TILE]
    return out[: weights.shape[0]]


def assert_matches_oracle(weights: np.ndarray, x: np.ndarray) -> None:
    expected = per_tile_gemm(weights, x)
    assert np.array_equal(zipgemm_execute(compress(weights), x), expected)
    assert np.array_equal(dense_gemm_tiled(weights, x), expected)


class TestBitExactness:
    @pytest.mark.parametrize(
        "shape,n", [((64, 64), 1), ((64, 128), 8), ((100, 70), 5),
                    ((130, 200), 3), ((1, 1), 2)]
    )
    def test_fused_equals_dense_tiled(self, shape, n, rng):
        w = gaussian_bf16_matrix(*shape, sigma=0.02, seed=shape[0] + n)
        x = rng.normal(0, 1, (shape[1], n)).astype(np.float32)
        matrix = compress(w)
        fused = zipgemm_execute(matrix, x)
        dense = dense_gemm_tiled(w, x)
        assert np.array_equal(fused, dense)  # exact, not approx

    def test_close_to_library_gemm(self, rng):
        w = gaussian_bf16_matrix(96, 96, sigma=0.02, seed=61)
        x = rng.normal(0, 1, (96, 4)).astype(np.float32)
        fused = zipgemm_execute(compress(w), x)
        ref = dense_gemm_reference(w, x)
        assert np.allclose(fused, ref, rtol=1e-4, atol=1e-6)

    def test_random_bit_patterns_still_exact(self, rng):
        bits = rng.integers(0, 2**16, (64, 64)).astype(np.uint16)
        # Remove NaN/Inf exponents so float compare semantics stay simple.
        exp = ((bits >> 7) & 0xFF)
        bits[exp == 255] = 0
        x = rng.normal(0, 1, (64, 2)).astype(np.float32)
        with np.errstate(over="ignore"):  # huge exponents overflow to inf
            assert_matches_oracle(bits, x)

    def test_output_shape_unpadded(self, rng):
        w = gaussian_bf16_matrix(65, 70, sigma=0.02, seed=62)
        x = rng.normal(0, 1, (70, 3)).astype(np.float32)
        out = zipgemm_execute(compress(w), x)
        assert out.shape == (65, 3)

    @settings(max_examples=10)
    @given(st.integers(1, 200), st.integers(1, 200), st.integers(1, 16))
    @example(200, 200, 1)
    def test_property_fused_equals_dense(self, m, k, n):
        w = gaussian_bf16_matrix(m, k, sigma=0.02, seed=m * 91 + k)
        x = np.random.default_rng(n).normal(0, 1, (k, n)).astype(np.float32)
        assert_matches_oracle(w, x)


class TestValidation:
    def test_k_mismatch(self, rng):
        w = gaussian_bf16_matrix(64, 64, seed=63)
        x = rng.normal(0, 1, (65, 2)).astype(np.float32)
        with pytest.raises(ShapeError):
            dense_gemm_tiled(w, x)
        with pytest.raises(ShapeError):
            zipgemm_execute(compress(w), x)

    def test_dtype_checks(self, rng):
        w = gaussian_bf16_matrix(64, 64, seed=64)
        with pytest.raises(ShapeError):
            dense_gemm_tiled(w.astype(np.int32), np.zeros((64, 2), np.float32))
        with pytest.raises(ShapeError):
            dense_gemm_tiled(w, np.zeros((64, 2), np.float64))

    def test_activations_must_be_2d(self):
        w = gaussian_bf16_matrix(64, 64, seed=65)
        with pytest.raises(ShapeError):
            dense_gemm_tiled(w, np.zeros(64, np.float32))

    @pytest.mark.parametrize("edit", ["truncated", "extended"])
    @pytest.mark.parametrize("buffer", ["high", "low"])
    @pytest.mark.parametrize("run", [
        decompress,
        lambda matrix: zipgemm_execute(
            matrix, np.zeros((64, 2), dtype=np.float32)),
    ], ids=["decompress", "zipgemm_execute"])
    def test_malformed_buffer_sizes(self, run, buffer, edit):
        matrix = compress(gaussian_bf16_matrix(64, 64, seed=66))
        data = getattr(matrix, buffer)
        assert data.size > 0
        data = data[:-1] if edit == "truncated" else np.append(data, data[:1])
        with pytest.raises(FormatError):
            run(dataclasses.replace(matrix, **{buffer: data}))

"""Throughput benchmarks of the functional building blocks.

These time the actual Python implementations (not the GPU model): the
TCA-TBE compressor/decompressor, the baseline entropy codecs, and the fused
functional GEMM.  They track regressions in the repository's own hot paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bf16 import exponent_field, gaussian_bf16_matrix
from repro.codecs import HuffmanCodec, RansCodec, get_bf16_codec
from repro.kernels.functional import dense_gemm_tiled, zipgemm_execute
from repro.tcatbe import compress, decompress

LAYER = gaussian_bf16_matrix(1024, 1024, sigma=0.015, seed=0)
SMALL = gaussian_bf16_matrix(256, 256, sigma=0.015, seed=1)
EXPONENTS = exponent_field(LAYER.ravel())


def test_tcatbe_compress(benchmark):
    matrix = benchmark(compress, LAYER)
    assert 1.35 < matrix.ratio < 1.5


def test_tcatbe_decompress(benchmark):
    matrix = compress(LAYER)
    out = benchmark(decompress, matrix)
    assert np.array_equal(out, LAYER)


def test_huffman_encode(benchmark):
    codec = HuffmanCodec()
    stream = benchmark(codec.encode, EXPONENTS)
    assert stream.ratio > 2.5


def test_huffman_decode(benchmark):
    codec = HuffmanCodec()
    stream = codec.encode(EXPONENTS)
    out = benchmark(codec.decode, stream)
    assert np.array_equal(out, EXPONENTS)


def test_rans_encode(benchmark):
    codec = RansCodec()
    stream = benchmark(codec.encode, EXPONENTS)
    assert stream.ratio > 2.5


def test_rans_decode(benchmark):
    codec = RansCodec()
    stream = codec.encode(EXPONENTS)
    out = benchmark(codec.decode, stream)
    assert np.array_equal(out, EXPONENTS)


@pytest.mark.parametrize("name", ["dfloat11", "dietgpu", "nvcomp"])
def test_bf16_codec_roundtrip(benchmark, name):
    codec = get_bf16_codec(name)

    def roundtrip():
        return codec.decompress(codec.compress(SMALL))

    out = benchmark(roundtrip)
    assert np.array_equal(out, SMALL)


def test_fused_functional_gemm(benchmark):
    matrix = compress(LAYER)
    x = np.random.default_rng(3).normal(0, 1, (1024, 8)).astype(np.float32)
    fused = benchmark(zipgemm_execute, matrix, x)
    assert np.array_equal(fused, dense_gemm_tiled(LAYER, x))

"""Byte-identity goldens for the entropy-coded baseline containers.

``tests/data/codec_goldens.json`` holds one SHA-256 per (codec, input) of
the *whole* encoded container: payload, ``n_symbols``, ``header_nbytes``
and every ``meta`` entry with its type, dtype and shape.  The digests were
recorded from the codecs before their hot loops were vectorised (the
step-loop schedules ``tests/codec_oracles.py`` keeps), so any change to
those loops must leave every container byte for byte as it was: calibrated
ratios, auto-codec choices and every simulated result downstream depend on
those bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bf16 import exponent_field, gaussian_bf16_matrix
from repro.codecs import HuffmanCodec, RansCodec, get_bf16_codec
from repro.codecs.base import EncodedStream
from repro.codecs.bf16_split import CompressedBF16
from repro.compression.spec import ACTIVATION_SIGMA

GOLDEN_PATH = Path(__file__).parent / "data" / "codec_goldens.json"

#: The weight-plane scale of ``benchmarks/bench_core_ops.py``.
WEIGHT_SIGMA = 0.015
#: Shape of the benchmark's weight layers and KV blocks.
PLANE_SHAPE = (256, 512)


def _update(h, value) -> None:
    """Feed one container field, with its type, into ``h``."""
    if isinstance(value, np.ndarray):
        h.update(f"ndarray:{value.dtype.str}:{value.shape}:".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(f"{type(value).__name__}:{value!r};".encode())


def container_digest(blob) -> str:
    """SHA-256 of an :class:`EncodedStream` or :class:`CompressedBF16`."""
    h = hashlib.sha256()
    if isinstance(blob, CompressedBF16):
        h.update(f"bf16:{blob.codec}:{blob.shape}:".encode())
        _update(h, blob.header_nbytes)
        _update(h, blob.sign_mantissa)
        blob = blob.exponent_stream
    assert isinstance(blob, EncodedStream)
    h.update(f"stream:{blob.codec}:".encode())
    _update(h, blob.n_symbols)
    _update(h, blob.header_nbytes)
    _update(h, blob.payload)
    for key in sorted(blob.meta):
        h.update(f"meta:{key}:".encode())
        _update(h, blob.meta[key])
    return h.hexdigest()


def _plane(sigma: float, seed: int) -> np.ndarray:
    return gaussian_bf16_matrix(*PLANE_SHAPE, sigma=sigma, seed=seed)


def _fibonacci_bytes(n_symbols: int = 22, seed: int = 0) -> np.ndarray:
    """Symbol ``i`` appears ``fib(i)`` times: the unclamped Huffman tree is
    ``n_symbols - 1`` deep, so the 16-bit Kraft repair must run."""
    counts = [1, 1]
    while len(counts) < n_symbols:
        counts.append(counts[-1] + counts[-2])
    data = np.repeat(np.arange(n_symbols, dtype=np.uint8) * 7 + 3, counts)
    return np.random.default_rng(seed).permutation(data)


def byte_inputs() -> dict[str, np.ndarray]:
    """The byte-codec inputs, by name."""
    rng = np.random.default_rng(11)
    return {
        "weight_plane": exponent_field(_plane(WEIGHT_SIGMA, 0).ravel()),
        "activation_plane": exponent_field(
            _plane(ACTIVATION_SIGMA, 1).ravel()),
        "uniform": rng.integers(0, 256, 10_000).astype(np.uint8),
        "single_symbol": np.full(1000, 7, dtype=np.uint8),
        # 1001 symbols: 1001 % 32 == 9 rANS lanes in the last step and a
        # ragged last Huffman chunk at every chunk size below.
        "ragged": (rng.geometric(0.45, 1001).clip(1, 40) + 100).astype(
            np.uint8),
        "kraft_repair": _fibonacci_bytes(),
        "empty": np.zeros(0, dtype=np.uint8),
    }


def byte_codecs() -> dict[str, object]:
    """The byte-codec configurations, by name."""
    return {
        "huffman": HuffmanCodec(),  # 4096 symbols per chunk
        "huffman.chunk64": HuffmanCodec(chunk_symbols=64),
        "huffman.chunk256": HuffmanCodec(chunk_symbols=256),
        "rans": RansCodec(),
        "rans.streams32": RansCodec(num_streams=32),
    }


def bf16_inputs() -> dict[str, np.ndarray]:
    """The BF16 tensors the split-plane baselines compress, by name."""
    return {
        "weight": _plane(WEIGHT_SIGMA, 0),
        "activation": _plane(ACTIVATION_SIGMA, 1),
    }


BF16_CODEC_NAMES = ("dfloat11", "dietgpu", "nvcomp")


def compute_goldens() -> dict[str, str]:
    """Every digest the golden file pins, keyed ``<codec>/<input>``."""
    out = {}
    for cname, codec in byte_codecs().items():
        for iname, data in byte_inputs().items():
            out[f"{cname}/{iname}"] = container_digest(codec.encode(data))
    for cname in BF16_CODEC_NAMES:
        codec = get_bf16_codec(cname)
        for iname, weights in bf16_inputs().items():
            out[f"{cname}/{iname}"] = container_digest(codec.compress(weights))
    return out


GOLDENS = json.loads(GOLDEN_PATH.read_text())


def test_golden_keys_cover_every_case():
    assert sorted(GOLDENS) == sorted(compute_goldens())


@pytest.mark.parametrize("cname", sorted(byte_codecs()))
def test_byte_codec_containers_match_goldens(cname):
    codec = byte_codecs()[cname]
    for iname, data in byte_inputs().items():
        stream = codec.encode(data)
        assert container_digest(stream) == GOLDENS[f"{cname}/{iname}"], iname
        assert np.array_equal(codec.decode(stream), data), iname


@pytest.mark.parametrize("cname", BF16_CODEC_NAMES)
def test_bf16_codec_containers_match_goldens(cname):
    codec = get_bf16_codec(cname)
    for iname, weights in bf16_inputs().items():
        blob = codec.compress(weights)
        assert container_digest(blob) == GOLDENS[f"{cname}/{iname}"], iname
        assert np.array_equal(codec.decompress(blob), weights), iname


def test_kraft_repair_input_hits_the_length_cap():
    data = _fibonacci_bytes()
    lengths = HuffmanCodec().symbol_lengths(data)
    assert lengths.max() == 16

"""The vectorised entropy codecs against their step-loop oracles.

:mod:`codec_oracles` keeps the one-symbol-per-step schedules (lockstep
Huffman chunks, per-step rANS lanes).  Here hypothesis drives both paths
over random bytes, random chunk sizes and lane counts, ragged tails, empty
input and inputs whose Huffman codes reach the 16-bit cap; the containers
must hash identically and the decodes must match byte for byte.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from codec_oracles import (
    huffman_decode_lockstep,
    rans_decode_steps,
    rans_encode_steps,
)
from repro.codecs import HuffmanCodec, RansCodec
from test_codec_goldens import _fibonacci_bytes, container_digest

RANDOM_BYTES = st.binary(min_size=0, max_size=3000).map(
    lambda raw: np.frombuffer(raw, dtype=np.uint8).copy())
#: Few distinct symbols: long runs and a one-symbol alphabet.
NARROW_BYTES = st.lists(st.integers(0, 3), max_size=3000).map(
    lambda vals: np.asarray(vals, dtype=np.uint8) * np.uint8(80))
#: Fibonacci counts over 18-22 symbols: the deepest codes are 16 bits.
MAX_LENGTH_BYTES = st.builds(
    _fibonacci_bytes, n_symbols=st.integers(18, 22),
    seed=st.integers(0, 1000))
INPUTS = st.one_of(RANDOM_BYTES, NARROW_BYTES, MAX_LENGTH_BYTES)


EMPTY = np.zeros(0, dtype=np.uint8)


@given(data=INPUTS, chunk_symbols=st.integers(1, 5000))
@example(data=EMPTY, chunk_symbols=64)
@example(data=_fibonacci_bytes(20, seed=1), chunk_symbols=4096)
@example(data=_fibonacci_bytes(18, seed=2), chunk_symbols=999)
def test_huffman_decode_matches_lockstep(data, chunk_symbols):
    codec = HuffmanCodec(chunk_symbols=chunk_symbols)
    stream = codec.encode(data)
    decoded = codec.decode(stream)
    assert np.array_equal(decoded, huffman_decode_lockstep(stream))
    assert np.array_equal(decoded, data)


@given(data=INPUTS, num_streams=st.none() | st.integers(1, 300),
       prob_bits=st.integers(9, 16))
@example(data=EMPTY, num_streams=None, prob_bits=12)
@example(data=_fibonacci_bytes(20, seed=1), num_streams=None, prob_bits=12)
@example(data=_fibonacci_bytes(18, seed=2), num_streams=37, prob_bits=16)
def test_rans_matches_step_loops(data, num_streams, prob_bits):
    codec = RansCodec(num_streams=num_streams, prob_bits=prob_bits)
    stream = codec.encode(data)
    oracle = rans_encode_steps(data, num_streams, prob_bits)
    assert container_digest(stream) == container_digest(oracle)
    decoded = codec.decode(stream)
    assert np.array_equal(decoded, rans_decode_steps(stream))
    assert np.array_equal(decoded, data)


def test_max_length_strategy_reaches_the_cap():
    data = _fibonacci_bytes(n_symbols=18, seed=0)
    assert HuffmanCodec().symbol_lengths(data).max() == 16

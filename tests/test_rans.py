"""Tests for the interleaved rANS codec (DietGPU-style)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.codecs.rans import PROB_SCALE, RansCodec, normalize_freqs
from repro.errors import CodecError


def skewed_bytes(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.geometric(0.5, size=n).clip(1, 30) + 110).astype(np.uint8)


class TestNormalize:
    def test_sums_to_scale(self, rng):
        freqs = rng.integers(0, 1000, 256)
        scaled = normalize_freqs(freqs)
        assert scaled.sum() == PROB_SCALE

    def test_present_symbols_nonzero(self, rng):
        freqs = rng.integers(0, 3, 256)
        scaled = normalize_freqs(freqs)
        assert np.all((scaled > 0) == (freqs > 0))

    def test_empty(self):
        assert normalize_freqs(np.zeros(256, dtype=np.int64)).sum() == 0

    def test_extreme_skew(self):
        freqs = np.zeros(256, dtype=np.int64)
        freqs[0] = 10**9
        freqs[1] = 1
        scaled = normalize_freqs(freqs)
        assert scaled.sum() == PROB_SCALE
        assert scaled[1] >= 1

    def test_bad_shape(self):
        with pytest.raises(CodecError):
            normalize_freqs(np.zeros(10, dtype=np.int64))


class TestRoundTrip:
    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 1000, 16_384, 50_000])
    def test_sizes(self, n):
        data = skewed_bytes(n, seed=n)
        codec = RansCodec()
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_uniform(self, rng):
        data = rng.integers(0, 256, 8192).astype(np.uint8)
        codec = RansCodec()
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_single_distinct_symbol(self):
        data = np.full(5000, 200, dtype=np.uint8)
        codec = RansCodec()
        stream = codec.encode(data)
        assert np.array_equal(codec.decode(stream), data)
        # Entropy ~0: payload should be tiny.
        assert stream.payload.nbytes < 200

    def test_fixed_stream_count(self):
        codec = RansCodec(num_streams=32)
        data = skewed_bytes(10_000, seed=2)
        stream = codec.encode(data)
        assert stream.meta["num_streams"] == 32
        assert np.array_equal(codec.decode(stream), data)

    def test_more_streams_than_symbols(self):
        codec = RansCodec(num_streams=64)
        data = skewed_bytes(10, seed=3)
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_near_entropy_on_skewed(self):
        data = skewed_bytes(100_000, seed=7)
        stream = RansCodec().encode(data)
        counts = np.bincount(data, minlength=256)
        p = counts[counts > 0] / data.size
        entropy_bytes = float(-(p * np.log2(p)).sum()) * data.size / 8.0
        assert stream.payload.nbytes <= entropy_bytes * 1.10 + 4 * \
            stream.meta["num_streams"]

    def test_corrupt_payload_detected(self):
        codec = RansCodec(num_streams=32)
        data = skewed_bytes(20_000, seed=8)
        stream = codec.encode(data)
        stream.payload[: stream.payload.nbytes // 2] = 0
        try:
            decoded = codec.decode(stream)
        except CodecError:
            return
        assert not np.array_equal(decoded, data)

    def test_non_u8_rejected(self):
        with pytest.raises(CodecError):
            RansCodec().encode(np.zeros(4, dtype=np.float32))

    @given(st.binary(min_size=0, max_size=2000))
    def test_roundtrip_property(self, raw):
        data = np.frombuffer(raw, dtype=np.uint8).copy()
        codec = RansCodec(num_streams=32)
        assert np.array_equal(codec.decode(codec.encode(data)), data)


class TestCorruptContainers:
    """Bad headers and payloads raise :class:`CodecError`, never a bare
    numpy error or silently wrong bytes."""

    @staticmethod
    def stream():
        codec = RansCodec(num_streams=32)
        return codec, codec.encode(skewed_bytes(20_000, seed=8))

    def test_odd_length_payload(self):
        codec, stream = self.stream()
        stream.payload = stream.payload[:-1]
        with pytest.raises(CodecError, match="16-bit words"):
            codec.decode(stream)

    def test_truncated_payload(self):
        codec, stream = self.stream()
        stream.payload = stream.payload[:-64]
        with pytest.raises(CodecError, match="word_offsets"):
            codec.decode(stream)

    def test_word_offsets_past_the_payload(self):
        codec, stream = self.stream()
        stream.meta["word_offsets"] = stream.meta["word_offsets"] + 50
        with pytest.raises(CodecError, match="word_offsets"):
            codec.decode(stream)

    def test_decreasing_word_offsets(self):
        codec, stream = self.stream()
        offsets = stream.meta["word_offsets"]
        offsets[5], offsets[6] = offsets[6], offsets[5]
        with pytest.raises(CodecError, match="word_offsets"):
            codec.decode(stream)

    def test_short_states(self):
        codec, stream = self.stream()
        stream.meta["states"] = stream.meta["states"][:-1]
        with pytest.raises(CodecError, match="states"):
            codec.decode(stream)

    @pytest.mark.parametrize("state", [0, (1 << 16) - 1, 1 << 32])
    def test_state_out_of_range(self, state):
        codec, stream = self.stream()
        stream.meta["states"][3] = state
        with pytest.raises(CodecError, match="states"):
            codec.decode(stream)

    def test_flipped_payload_word(self):
        codec, stream = self.stream()
        stream.payload[100] ^= 0x5A  # a word mid-lane: no underrun
        with pytest.raises(CodecError, match="initial state"):
            codec.decode(stream)

    def test_frequency_table_off_scale(self):
        codec, stream = self.stream()
        stream.meta["freqs"][stream.meta["freqs"].argmax()] += 1
        with pytest.raises(CodecError, match="frequency table"):
            codec.decode(stream)

    def test_prob_bits_beyond_16(self):
        with pytest.raises(CodecError, match="prob_bits"):
            RansCodec(prob_bits=17)
        codec, stream = self.stream()
        stream.meta["prob_bits"] = 20
        with pytest.raises(CodecError, match="prob_bits"):
            codec.decode(stream)


@pytest.mark.parametrize("num_streams", [0, -3, 2.5])
def test_bad_num_streams_rejected(num_streams):
    with pytest.raises(CodecError, match="num_streams"):
        RansCodec(num_streams=num_streams)

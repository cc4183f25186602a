"""Tests for the canonical Huffman codec (DFloat11-style container)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.codecs.huffman import (
    HuffmanCodec,
    build_decode_lut,
    canonical_codes,
    huffman_code_lengths,
)
from repro.errors import CodecError


def skewed_bytes(n: int, seed: int = 0) -> np.ndarray:
    """Zipf-ish byte stream resembling an exponent plane."""
    rng = np.random.default_rng(seed)
    vals = rng.geometric(0.45, size=n).clip(1, 40) + 100
    return vals.astype(np.uint8)


class TestCodeLengths:
    def test_kraft_inequality(self):
        freqs = np.bincount(skewed_bytes(50_000), minlength=256)
        lengths = huffman_code_lengths(freqs)
        present = lengths[lengths > 0].astype(int)
        assert sum(2.0 ** -l for l in present) <= 1.0 + 1e-12

    def test_all_present_get_codes(self):
        freqs = np.bincount(skewed_bytes(10_000), minlength=256)
        lengths = huffman_code_lengths(freqs)
        assert np.all((lengths > 0) == (freqs > 0))

    def test_frequent_symbols_get_short_codes(self):
        freqs = np.zeros(256, dtype=np.int64)
        freqs[10] = 1000
        freqs[20] = 10
        freqs[30] = 10
        lengths = huffman_code_lengths(freqs)
        assert lengths[10] < lengths[20]

    def test_single_symbol(self):
        freqs = np.zeros(256, dtype=np.int64)
        freqs[42] = 99
        lengths = huffman_code_lengths(freqs)
        assert lengths[42] == 1
        assert lengths.sum() == 1

    def test_empty(self):
        assert huffman_code_lengths(np.zeros(256, dtype=np.int64)).sum() == 0

    def test_max_length_respected(self):
        # 256 symbols with exponentially growing counts force deep trees.
        freqs = np.array(
            [2**min(i, 40) for i in range(256)], dtype=np.int64
        )
        lengths = huffman_code_lengths(freqs, max_len=12)
        assert lengths.max() <= 12
        present = lengths[lengths > 0].astype(int)
        assert sum(2.0 ** -l for l in present) <= 1.0 + 1e-12

    def test_bad_shape(self):
        with pytest.raises(CodecError):
            huffman_code_lengths(np.zeros(10, dtype=np.int64))

    def test_negative_freqs(self):
        freqs = np.zeros(256, dtype=np.int64)
        freqs[0] = -1
        with pytest.raises(CodecError):
            huffman_code_lengths(freqs)


class TestCanonicalCodes:
    def test_prefix_free(self):
        freqs = np.bincount(skewed_bytes(20_000), minlength=256)
        lengths = huffman_code_lengths(freqs)
        codes = canonical_codes(lengths)
        entries = [
            (int(codes[s]), int(lengths[s]))
            for s in np.flatnonzero(lengths > 0)
        ]
        for code_a, len_a in entries:
            for code_b, len_b in entries:
                if (code_a, len_a) == (code_b, len_b):
                    continue
                shorter, longer = sorted(
                    [(code_a, len_a), (code_b, len_b)], key=lambda e: e[1]
                )
                assert (longer[0] >> (longer[1] - shorter[1])) != shorter[0]

    def test_lut_covers_all_codes(self):
        freqs = np.bincount(skewed_bytes(5_000), minlength=256)
        lengths = huffman_code_lengths(freqs)
        lut_sym, lut_len = build_decode_lut(lengths)
        codes = canonical_codes(lengths)
        for sym in np.flatnonzero(lengths > 0):
            ell = int(lengths[sym])
            peek = int(codes[sym]) << (16 - ell)
            assert lut_sym[peek] == sym
            assert lut_len[peek] == ell


class TestRoundTrip:
    @pytest.mark.parametrize("n", [0, 1, 5, 100, 4096, 4097, 20_000])
    def test_sizes(self, n):
        data = skewed_bytes(n, seed=n)
        codec = HuffmanCodec()
        stream = codec.encode(data)
        assert np.array_equal(codec.decode(stream), data)

    def test_uniform_bytes(self, rng):
        data = rng.integers(0, 256, 10_000).astype(np.uint8)
        codec = HuffmanCodec()
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_single_distinct_symbol(self):
        data = np.full(1000, 7, dtype=np.uint8)
        codec = HuffmanCodec()
        stream = codec.encode(data)
        assert np.array_equal(codec.decode(stream), data)
        # One bit per symbol plus container overhead.
        assert stream.payload.nbytes <= 1000 // 8 + 8

    def test_small_chunks(self):
        codec = HuffmanCodec(chunk_symbols=64)
        data = skewed_bytes(1000, seed=3)
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_compression_ratio_on_skewed(self):
        data = skewed_bytes(100_000, seed=9)
        stream = HuffmanCodec().encode(data)
        assert stream.ratio > 2.0  # low-entropy stream compresses well

    def test_header_counted(self):
        stream = HuffmanCodec().encode(skewed_bytes(1000))
        assert stream.header_nbytes >= 256
        assert stream.compressed_nbytes > stream.payload.nbytes

    def test_corrupt_stream_detected(self):
        codec = HuffmanCodec()
        data = skewed_bytes(5000, seed=4)
        stream = codec.encode(data)
        # Point a chunk offset into garbage territory.
        stream.meta["chunk_bit_offsets"] = (
            stream.meta["chunk_bit_offsets"] + 1
        )
        decoded_or_error = None
        try:
            decoded_or_error = codec.decode(stream)
        except CodecError:
            return
        assert not np.array_equal(decoded_or_error, data)

    def test_non_u8_rejected(self):
        with pytest.raises(CodecError):
            HuffmanCodec().encode(np.zeros(4, dtype=np.int32))

    def test_symbol_lengths(self):
        data = skewed_bytes(2000, seed=5)
        lengths = HuffmanCodec().symbol_lengths(data)
        assert lengths.shape == data.shape
        assert lengths.min() >= 1

    @given(st.binary(min_size=0, max_size=3000))
    def test_roundtrip_property(self, raw):
        data = np.frombuffer(raw, dtype=np.uint8).copy()
        codec = HuffmanCodec(chunk_symbols=256)
        assert np.array_equal(codec.decode(codec.encode(data)), data)


class TestCorruptContainers:
    """Bad headers raise :class:`CodecError` before any table is built."""

    @staticmethod
    def stream(n: int = 5000, chunk_symbols: int = 1024):
        codec = HuffmanCodec(chunk_symbols=chunk_symbols)
        return codec, codec.encode(skewed_bytes(n, seed=6))

    def test_offset_past_the_end(self):
        codec, stream = self.stream()
        stream.meta["chunk_bit_offsets"][-1] = stream.meta["total_bits"] + 800
        with pytest.raises(CodecError, match="chunk_bit_offsets"):
            codec.decode(stream)

    def test_negative_offset(self):
        codec, stream = self.stream()
        stream.meta["chunk_bit_offsets"][2] = -8
        with pytest.raises(CodecError, match="chunk_bit_offsets"):
            codec.decode(stream)

    def test_fewer_chunks_than_n_symbols_needs(self):
        codec, stream = self.stream()
        stream.n_symbols += 2 * 1024
        with pytest.raises(CodecError, match="chunk_bit_offsets"):
            codec.decode(stream)

    def test_n_symbols_past_the_last_code(self):
        codec, stream = self.stream()
        stream.n_symbols += 100  # same chunk count, padding bits after
        with pytest.raises(CodecError, match="past total_bits"):
            codec.decode(stream)

    def test_n_symbols_short_of_the_last_code(self):
        codec, stream = self.stream()
        stream.n_symbols -= 1
        with pytest.raises(CodecError, match="does not end"):
            codec.decode(stream)

    def test_shifted_chunk_start(self):
        codec, stream = self.stream()
        stream.meta["chunk_bit_offsets"][1] += 1
        with pytest.raises(CodecError):
            codec.decode(stream)

    def test_total_bits_beyond_payload(self):
        codec, stream = self.stream()
        stream.meta["total_bits"] = 8 * stream.payload.size + 1
        with pytest.raises(CodecError, match="total_bits"):
            codec.decode(stream)

    def test_overfull_length_table(self):
        codec, stream = self.stream()
        stream.meta["lengths"][:8] = 1
        with pytest.raises(CodecError, match="Kraft"):
            codec.decode(stream)

    def test_missing_field(self):
        codec, stream = self.stream()
        del stream.meta["chunk_symbols"]
        with pytest.raises(CodecError, match="chunk_symbols"):
            codec.decode(stream)


@pytest.mark.parametrize("field, value", [
    ("chunk_symbols", 0), ("chunk_symbols", -64), ("max_len", 0),
    ("max_len", 17),
])
def test_bad_config_rejected(field, value):
    with pytest.raises(CodecError, match=field):
        HuffmanCodec(**{field: value})

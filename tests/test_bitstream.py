"""Tests for the MSB-first bit packing / reading layer."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.codecs.bitstream import MAX_CODE_BITS, BitReader, pack_bits
from repro.errors import CodecError


class TestPackBits:
    def test_single_byte_pattern(self):
        # 0b101 then 0b11 then 0b0 -> 10111 0... = 0xB8.
        buf, total = pack_bits(np.array([0b101, 0b11, 0b0]),
                               np.array([3, 2, 1]))
        assert total == 6
        assert buf[0] == 0b10111000

    def test_cross_byte(self):
        buf, total = pack_bits(np.array([0xAB, 0xCD]), np.array([8, 8]))
        assert total == 16
        assert buf[0] == 0xAB and buf[1] == 0xCD

    def test_empty(self):
        buf, total = pack_bits(np.array([], dtype=np.uint64),
                               np.array([], dtype=np.int64))
        assert total == 0
        assert buf.size >= 4

    def test_length_bounds(self):
        with pytest.raises(CodecError):
            pack_bits(np.array([1]), np.array([0]))
        with pytest.raises(CodecError):
            pack_bits(np.array([1]), np.array([MAX_CODE_BITS + 1]))

    def test_code_too_wide(self):
        with pytest.raises(CodecError):
            pack_bits(np.array([4]), np.array([2]))

    def test_shape_mismatch(self):
        with pytest.raises(CodecError):
            pack_bits(np.array([1, 2]), np.array([1]))


class TestBitReader:
    def test_peek_known(self):
        buf, total = pack_bits(np.array([0b1011]), np.array([4]))
        reader = BitReader(buf, total)
        assert reader.peek(0, 4) == 0b1011
        assert reader.peek(1, 3) == 0b011

    def test_peek_vector_matches_scalar(self):
        codes = np.arange(1, 40) % 7 + 1
        lengths = np.full(codes.size, 3)
        buf, total = pack_bits(codes, lengths)
        reader = BitReader(buf, total)
        offsets = np.arange(0, total - 3, 3)
        vec = reader.peek_vector(offsets, 3)
        for off, val in zip(offsets, vec):
            assert reader.peek(int(off), 3) == int(val)

    @pytest.mark.parametrize("nbits", [1, 3, 12, 16])
    def test_peek_all_matches_peek_vector(self, nbits, rng):
        lengths = rng.integers(1, 17, 300)
        codes = rng.integers(0, 1 << 16, 300) & ((1 << lengths) - 1)
        buf, total = pack_bits(codes, lengths)
        reader = BitReader(buf, total)
        table = reader.peek_all(nbits)
        assert table.dtype == np.uint16 and table.size >= total
        offsets = np.arange(total)
        assert np.array_equal(table[:total],
                              reader.peek_vector(offsets, nbits))
        with pytest.raises(CodecError):
            reader.peek_all(17)

    def test_short_buffer_rejected(self):
        with pytest.raises(CodecError):
            BitReader(np.zeros(1, dtype=np.uint8), 100)

    def test_bad_width(self):
        buf, total = pack_bits(np.array([1]), np.array([1]))
        reader = BitReader(buf, total)
        with pytest.raises(CodecError):
            reader.peek_vector(np.array([0]), 17)

    def test_buffer_read_only(self):
        buf, total = pack_bits(np.array([1]), np.array([1]))
        reader = BitReader(buf, total)
        with pytest.raises(ValueError):
            reader.buffer[0] = 1


class TestRoundTripProperty:
    @given(
        st.lists(
            st.tuples(st.integers(1, MAX_CODE_BITS)),
            min_size=1, max_size=200,
        ),
        st.randoms(use_true_random=False),
    )
    def test_pack_then_peek_recovers_codes(self, lens, rnd):
        lengths = np.array([l[0] for l in lens], dtype=np.int64)
        codes = np.array(
            [rnd.randrange(1 << l) for l in lengths], dtype=np.uint64
        )
        buf, total = pack_bits(codes, lengths)
        assert total == lengths.sum()
        reader = BitReader(buf, total)
        offset = 0
        for code, length in zip(codes, lengths):
            peeked = 0
            # Read in <=16-bit chunks (peek limit) and reassemble.
            remaining = int(length)
            pos = offset
            while remaining > 0:
                take = min(16, remaining)
                peeked = (peeked << take) | reader.peek(pos, take)
                pos += take
                remaining -= take
            assert peeked == int(code)
            offset += int(length)

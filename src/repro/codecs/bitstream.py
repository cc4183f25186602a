"""Vectorised variable-length bit packing and reading.

The baselines' bitstreams are MSB-first: the first symbol occupies the highest
bits of the first byte.  Packing a million variable-length codes one at a time
in Python would be hopeless, so :func:`pack_bits` places every code with a
single scatter-add — codes never overlap bit-wise, so add equals bitwise-or.
"""

from __future__ import annotations

import numpy as np

from ..errors import CodecError

#: Longest supported code in bits; a (shift<=7 + length<=24) window fits in
#: a 32-bit word spanning at most four bytes.
MAX_CODE_BITS = 24


def pack_bits(codes: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, int]:
    """Pack variable-length codes into an MSB-first bitstream.

    Parameters
    ----------
    codes:
        Integer code values; code ``i`` occupies ``lengths[i]`` bits.
    lengths:
        Bit length per code, each in ``[1, MAX_CODE_BITS]``.

    Returns
    -------
    (buffer, total_bits):
        ``buffer`` is a uint8 array padded with four trailing bytes so that a
        4-byte window read never runs off the end; ``total_bits`` is the
        number of meaningful bits.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if codes.shape != lengths.shape:
        raise CodecError("codes and lengths must have the same shape")
    if codes.size == 0:
        return np.zeros(4, dtype=np.uint8), 0
    if lengths.min() < 1 or lengths.max() > MAX_CODE_BITS:
        raise CodecError(
            f"code lengths must be in [1, {MAX_CODE_BITS}],"
            f" got range [{lengths.min()}, {lengths.max()}]"
        )
    if (codes >> lengths.astype(np.uint64)).any():
        raise CodecError("a code value does not fit in its declared length")

    ends = np.cumsum(lengths)
    offsets = ends - lengths
    total_bits = int(ends[-1])
    nbytes = (total_bits + 7) // 8 + 4

    byte_pos = (offsets >> 3).astype(np.int64)
    shift = (offsets & 7).astype(np.uint64)
    # Place each code at its bit offset inside a 32-bit big-endian window.
    window = codes << (np.uint64(32) - shift - lengths.astype(np.uint64))

    buffer = np.zeros(nbytes, dtype=np.uint8)
    for byte_index in range(4):
        part = ((window >> np.uint64(8 * (3 - byte_index))) & np.uint64(0xFF))
        np.add.at(buffer, byte_pos + byte_index, part.astype(np.uint8))
    return buffer, total_bits


class BitReader:
    """Random-access MSB-first bit reader over a packed buffer.

    Supports both scalar reads (sequential decode loops) and vectorised peeks
    at many independent offsets at once (the chunk-parallel decoders).
    """

    def __init__(self, buffer: np.ndarray, total_bits: int):
        buffer = np.asarray(buffer, dtype=np.uint8)
        if buffer.nbytes * 8 < total_bits:
            raise CodecError("buffer shorter than declared bit length")
        # Guarantee a 4-byte window read at any valid offset stays in bounds.
        self._buffer = np.concatenate([buffer, np.zeros(4, dtype=np.uint8)])
        self.total_bits = int(total_bits)

    def peek_vector(self, offsets: np.ndarray, nbits: int) -> np.ndarray:
        """Peek ``nbits`` (<= 16) starting at each bit offset, vectorised.

        Offsets may point anywhere in the stream (including past the last
        symbol, where padding zeros are returned); this mirrors how a GPU
        thread speculatively loads a word and masks it.
        """
        if not 1 <= nbits <= 16:
            raise CodecError("peek_vector supports 1..16 bits")
        offsets = np.asarray(offsets, dtype=np.int64)
        byte_pos = offsets >> 3
        shift = (offsets & 7).astype(np.uint64)
        b = self._buffer
        window = (
            (b[byte_pos].astype(np.uint64) << np.uint64(24))
            | (b[byte_pos + 1].astype(np.uint64) << np.uint64(16))
            | (b[byte_pos + 2].astype(np.uint64) << np.uint64(8))
            | b[byte_pos + 3].astype(np.uint64)
        )
        out = (window >> (np.uint64(32 - nbits) - shift)) & np.uint64(
            (1 << nbits) - 1
        )
        return out

    def peek_all(self, nbits: int) -> np.ndarray:
        """The ``nbits``-bit (<= 16) peek at every bit offset, as uint16.

        Entry ``p`` equals ``peek(p, nbits)`` for every ``p`` below
        ``total_bits``; the array may run up to seven offsets past it.  One
        big-endian 32-bit window per byte serves its eight bit offsets, so
        the table costs a few passes over the payload, not one per offset.
        """
        if not 1 <= nbits <= 16:
            raise CodecError("peek_all supports 1..16 bits")
        nb = (self.total_bits + 7) // 8
        b = self._buffer
        window = (
            (b[:nb].astype(np.uint32) << np.uint32(24))
            | (b[1:nb + 1].astype(np.uint32) << np.uint32(16))
            | (b[2:nb + 2].astype(np.uint32) << np.uint32(8))
            | b[3:nb + 3]
        )
        # Offset 8*i + s reads window i shifted right by 32 - nbits - s; the
        # unsafe cast to uint16 keeps the low 16 bits, so only narrower
        # peeks need a mask.
        peeks = np.empty((nb, 8), dtype=np.uint16)
        for s in range(8):
            np.right_shift(window, np.uint32(32 - nbits - s), out=peeks[:, s],
                           casting="unsafe")
        peeks = peeks.reshape(-1)
        if nbits < 16:
            peeks &= np.uint16((1 << nbits) - 1)
        return peeks

    def peek(self, offset: int, nbits: int) -> int:
        """Scalar convenience wrapper over :meth:`peek_vector`."""
        return int(self.peek_vector(np.asarray([offset]), nbits)[0])

    @property
    def buffer(self) -> np.ndarray:
        """The padded backing buffer (read-only view)."""
        view = self._buffer.view()
        view.flags.writeable = False
        return view

"""Interleaved range-ANS codec (DietGPU / nvCOMP-style).

DietGPU decodes floating-point tensors with a GPU-native rANS coder: the
symbol stream is split across many independent ANS states that renormalise in
16-bit words, one state per GPU lane.  This module implements the same
construction with the lane dimension vectorised in numpy:

* frequencies normalised to a 2^12 probability scale;
* ``num_streams`` interleaved encoders, symbol ``i`` belonging to stream
  ``i % num_streams``;
* 32-bit states, 16-bit renormalisation (at most one word in or out per
  symbol, which is what makes the lane loop vectorisable).

Round-trips are bit-exact.  The codec's GPU *cost* (table gathers, scattered
payload reads) is modelled separately in :mod:`repro.kernels.decompress`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CodecError
from .base import EncodedStream, as_u8, register_byte_codec
from ..utils import ceil_div, round_up

#: Probability resolution: frequencies are scaled to sum to 2^PROB_BITS.
PROB_BITS = 12
PROB_SCALE = 1 << PROB_BITS

#: The ANS state interval [2^16, 2^32); every stream starts at STATE_LOW.
STATE_LOW = 1 << 16
STATE_HIGH = 1 << 32

#: 16-bit renormalisation needs ``prob_bits <= 16`` (see ``_check_prob_bits``).
MAX_PROB_BITS = 16


def normalize_freqs(freqs: np.ndarray, prob_scale: int = PROB_SCALE) -> np.ndarray:
    """Scale raw counts so they sum to ``prob_scale``, keeping present >= 1."""
    freqs = np.asarray(freqs, dtype=np.int64)
    if freqs.shape != (256,):
        raise CodecError(f"freqs must have shape (256,), got {freqs.shape}")
    total = int(freqs.sum())
    if total == 0:
        return np.zeros(256, dtype=np.int64)
    scaled = np.floor(freqs * (prob_scale / total) + 0.5).astype(np.int64)
    scaled[(freqs > 0) & (scaled == 0)] = 1
    diff = prob_scale - int(scaled.sum())
    while diff != 0:
        if diff > 0:
            idx = int(np.argmax(scaled))
            scaled[idx] += 1
            diff -= 1
        else:
            adjustable = np.where(scaled > 1, scaled, -1)
            idx = int(np.argmax(adjustable))
            if adjustable[idx] <= 1:
                raise CodecError("cannot normalise frequency table")
            scaled[idx] -= 1
            diff += 1
    return scaled


def _auto_streams(n: int) -> int:
    """Pick a lane count: multiples of a warp, ~512 symbols per lane."""
    if n == 0:
        return 32
    return min(4096, max(32, round_up(ceil_div(n, 512), 32)))


def _check_prob_bits(prob_bits) -> int:
    # 16-bit renormalisation keeps every state and intermediate value below
    # 2^32 only while the probability scale fits in 16 bits.
    if not isinstance(prob_bits, (int, np.integer)) or not (
            1 <= prob_bits <= MAX_PROB_BITS):
        raise CodecError(
            f"prob_bits must be an integer in [1, {MAX_PROB_BITS}],"
            f" got {prob_bits!r}")
    return int(prob_bits)


def _int_array(stream: EncodedStream, key: str, shape: tuple[int, ...]):
    value = np.asarray(stream.meta_field(key))
    if value.shape != shape or not np.issubdtype(value.dtype, np.integer):
        raise CodecError(
            f"rANS meta[{key!r}] must hold integers of shape {shape},"
            f" got {value.dtype} {value.shape}")
    return value


def _check_container(stream: EncodedStream):
    """Validate a non-empty container's header before decoding.

    Returns ``(num_streams, prob_bits, freqs, states, word_offsets)``.
    """
    k = stream.meta_field("num_streams")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise CodecError(f"num_streams must be a positive integer, got {k!r}")
    k = int(k)
    prob_bits = _check_prob_bits(stream.meta_field("prob_bits"))
    freqs = _int_array(stream, "freqs", (256,))
    if freqs.min() < 0 or int(freqs.sum()) != 1 << prob_bits:
        raise CodecError("corrupt rANS frequency table")
    states = _int_array(stream, "states", (k,))
    if states.min() < STATE_LOW or states.max() >= STATE_HIGH:
        raise CodecError("rANS states must lie in [2^16, 2^32)")
    offsets = _int_array(stream, "word_offsets", (k + 1,)).astype(np.int64)
    if stream.payload.size % 2:
        raise CodecError("rANS payload must hold whole 16-bit words")
    if offsets[0] != 0 or (np.diff(offsets) < 0).any() or (
            offsets[-1] > stream.payload.size // 2):
        raise CodecError(
            "rANS word_offsets must start at 0 and rise monotonically within"
            f" the payload's {stream.payload.size // 2} words")
    return k, prob_bits, freqs, states, offsets


@dataclass
class RansCodec:
    """Interleaved rANS byte codec.

    Symbol ``i`` is lane ``i % num_streams`` of step ``i // num_streams``,
    so the input reshapes to a ``(steps, num_streams)`` grid whose only
    ragged row is the last one (its active lanes are a prefix).  Encode and
    decode loop over the steps with every lane vectorised; states stay in
    uint32 because every intermediate value is below 2^32.
    """

    num_streams: int | None = None
    prob_bits: int = PROB_BITS
    name: str = "rans"

    def __post_init__(self) -> None:
        _check_prob_bits(self.prob_bits)
        if self.num_streams is not None and not (
                isinstance(self.num_streams, (int, np.integer))
                and self.num_streams >= 1):
            raise CodecError(
                "num_streams must be None (automatic) or a positive integer,"
                f" got {self.num_streams!r}")

    def encode(self, data: np.ndarray) -> EncodedStream:
        """Encode a uint8 array into interleaved rANS streams."""
        data = as_u8(data)
        n = data.size
        k = self.num_streams or _auto_streams(n)
        pb = self.prob_bits
        if n == 0:
            return EncodedStream(
                codec=self.name,
                payload=np.zeros(0, dtype=np.uint8),
                n_symbols=0,
                header_nbytes=0,
                meta={"num_streams": k},
            )
        freqs = normalize_freqs(np.bincount(data, minlength=256), 1 << pb)
        cum = np.concatenate([[0], np.cumsum(freqs)])[:256]

        steps = ceil_div(n, k)
        grid = np.zeros(steps * k, dtype=np.uint8)
        grid[:n] = data
        grid = grid.reshape(steps, k)
        f_grid = freqs.astype(np.uint32).take(grid)
        # ((x // f) << pb) + x % f + cum == x + (x // f) * (2^pb - f) + cum;
        # the gap and cum of every symbol that occurs are below 2^pb <= 2^16.
        gap_grid = ((1 << pb) - freqs).astype(np.uint16).take(grid)
        cum_grid = cum.astype(np.uint16).take(grid)
        del grid
        words = np.empty((steps, k), dtype=np.uint16)
        emitted = np.zeros((steps, k), dtype=bool)

        x = np.full(k, STATE_LOW, dtype=np.uint32)
        high = np.uint32(32 - pb)
        ragged = n - (steps - 1) * k
        # Encode in reverse symbol order so the decoder runs forward.
        for step in range(steps - 1, -1, -1):
            m = ragged if step == steps - 1 else k
            xs, f = x[:m], f_grid[step, :m]
            # Renormalise x >= f << (32 - pb) by one 16-bit word.
            emit = (xs >> high) >= f
            emitted[step, :m] = emit
            words[step, :m] = xs  # the low 16 bits
            np.right_shift(xs, np.uint32(16), out=xs, where=emit)
            q = xs // f
            q *= gap_grid[step, :m]
            xs += q
            xs += cum_grid[step, :m]

        # Stream j's payload is its words in decode (ascending-step) order.
        payload_words = words.T[emitted.T]
        offsets = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(emitted.sum(axis=0), out=offsets[1:])

        header_nbytes = 512 + 8 * k + 16  # freq table + per-stream state/offset
        return EncodedStream(
            codec=self.name,
            payload=payload_words.view(np.uint8),
            n_symbols=n,
            header_nbytes=header_nbytes,
            meta={
                "num_streams": k,
                "freqs": freqs,
                "states": x.astype(np.uint64),
                "word_offsets": offsets,
                "prob_bits": pb,
            },
        )

    def decode(self, stream: EncodedStream) -> np.ndarray:
        """Decode interleaved rANS streams; bit-exact inverse of encode."""
        n = stream.n_symbols
        if n == 0:
            return np.zeros(0, dtype=np.uint8)
        k, pb, freqs, states, offsets = _check_container(stream)
        # Slot tables: slot -> symbol, its frequency, and slot - cum[symbol].
        counts = freqs.astype(np.int64)
        slot_sym = np.repeat(np.arange(256, dtype=np.uint8), counts)
        slot_freq = np.repeat(freqs.astype(np.uint32), counts)
        cum = np.concatenate([[0], np.cumsum(counts)])[:256]
        slot_bias = (
            np.arange(1 << pb, dtype=np.int64) - np.repeat(cum, counts)
        ).astype(np.uint32)

        # A zero word past the end lets every lane gather each step; lanes
        # that do not renormalise discard it.
        words = np.zeros(stream.payload.size // 2 + 1, dtype=np.uint16)
        words[:-1] = stream.payload.view(np.uint16)
        cursor = offsets[:-1].astype(np.intp)
        x = states.astype(np.uint32)

        steps = ceil_div(n, k)
        slots = np.empty((steps, k), dtype=np.uint16)  # slot < 2^pb <= 2^16
        mask = np.uint32((1 << pb) - 1)
        pbits = np.uint32(pb)
        shift16 = np.uint32(16)
        ragged = n - (steps - 1) * k
        for step in range(steps):
            m = ragged if step == steps - 1 else k
            xs, cs = x[:m], cursor[:m]
            slot = np.bitwise_and(xs, mask, out=slots[step, :m])
            xs >>= pbits
            xs *= slot_freq.take(slot)
            xs += slot_bias.take(slot)
            renorm = xs < STATE_LOW
            word = words.take(cs, mode="clip")
            np.left_shift(xs, shift16, out=xs, where=renorm)
            np.bitwise_or(xs, word, out=xs, where=renorm)
            cs += renorm

        # An overrun lane read its neighbour's words (or the zero pad):
        # reject before trusting the output.
        if (cursor > offsets[1:]).any():
            raise CodecError("corrupt rANS stream: payload underrun")
        if (cursor != offsets[1:]).any() or (x != STATE_LOW).any():
            raise CodecError(
                "corrupt rANS stream: a lane does not end in the encoder's"
                " initial state with its words consumed")
        return slot_sym.take(slots.reshape(-1)[:n])


register_byte_codec(RansCodec())

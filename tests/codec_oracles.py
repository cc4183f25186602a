"""Step-loop reference implementations of the entropy codecs' hot loops.

These are the straightforward schedules the vectorised codecs in
:mod:`repro.codecs.huffman` and :mod:`repro.codecs.rans` must reproduce
bit for bit:

* :func:`huffman_decode_lockstep` advances every chunk one symbol per step
  (one GPU thread per chunk, in lockstep);
* :func:`rans_encode_steps` / :func:`rans_decode_steps` run all
  ``num_streams`` lanes one interleaved symbol per step.

They are kept as oracles for the differential tests, never called by the
library.
"""

from __future__ import annotations

import numpy as np

from repro.codecs.base import EncodedStream, as_u8
from repro.codecs.bitstream import BitReader
from repro.codecs.huffman import MAX_CODE_LEN, build_decode_lut
from repro.codecs.rans import PROB_BITS, _auto_streams, normalize_freqs
from repro.errors import CodecError
from repro.utils import ceil_div

STATE_LOW = np.uint64(1) << np.uint64(16)


def huffman_decode_lockstep(
    stream: EncodedStream, max_len: int = MAX_CODE_LEN
) -> np.ndarray:
    """Decode a Huffman container one symbol of every chunk per step."""
    n = stream.n_symbols
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    lengths = stream.meta["lengths"]
    chunk_symbols = stream.meta["chunk_symbols"]
    offsets = stream.meta["chunk_bit_offsets"].astype(np.int64).copy()
    lut_sym, lut_len = build_decode_lut(lengths, max_len)
    reader = BitReader(stream.payload, stream.meta["total_bits"])

    n_chunks = offsets.size
    counts = np.full(n_chunks, chunk_symbols, dtype=np.int64)
    counts[-1] = n - chunk_symbols * (n_chunks - 1)
    base = np.arange(n_chunks, dtype=np.int64) * chunk_symbols

    out = np.empty(n, dtype=np.uint8)
    for step in range(int(counts.max())):
        active = counts > step
        peek = reader.peek_vector(offsets[active], max_len)
        syms = lut_sym[peek]
        lens = lut_len[peek]
        if (lens == 0).any():
            raise CodecError("corrupt Huffman stream: unknown code")
        out[base[active] + step] = syms
        offsets[active] += lens
    return out


def rans_encode_steps(
    data: np.ndarray,
    num_streams: int | None = None,
    prob_bits: int = PROB_BITS,
    name: str = "rans",
) -> EncodedStream:
    """Encode with one vectorised lane step per interleaved symbol."""
    data = as_u8(data)
    n = data.size
    k = num_streams or _auto_streams(n)
    prob_scale = 1 << prob_bits
    if n == 0:
        return EncodedStream(
            codec=name,
            payload=np.zeros(0, dtype=np.uint8),
            n_symbols=0,
            header_nbytes=0,
            meta={"num_streams": k},
        )
    freqs = normalize_freqs(np.bincount(data, minlength=256), prob_scale)
    cum = np.concatenate([[0], np.cumsum(freqs)])[:256].astype(np.uint64)
    freqs_u = freqs.astype(np.uint64)

    steps = ceil_div(n, k)
    padded = np.zeros(k * steps, dtype=np.uint8)
    padded[:n] = data
    lanes = padded.reshape(steps, k).T  # (k, steps)
    valid = (np.arange(k)[:, None] + np.arange(steps)[None, :] * k) < n

    x = np.full(k, STATE_LOW, dtype=np.uint64)
    emit_stream: list[np.ndarray] = []
    emit_word: list[np.ndarray] = []
    shift16 = np.uint64(16)
    pbits = np.uint64(prob_bits)
    for step in range(steps - 1, -1, -1):
        syms = lanes[:, step].astype(np.int64)
        active = valid[:, step]
        f = np.where(active, freqs_u[syms], np.uint64(1))
        x_max = (f << np.uint64(20)) if prob_bits == 12 else (
            (STATE_LOW >> pbits) << shift16
        ) * f
        renorm = active & (x >= x_max)
        if renorm.any():
            emit_stream.append(np.flatnonzero(renorm).astype(np.int64))
            emit_word.append((x[renorm] & np.uint64(0xFFFF)).astype(np.uint16))
            x[renorm] >>= shift16
        q = x // f
        r = x - q * f
        x_new = (q << pbits) + r + cum[syms]
        x = np.where(active, x_new, x)

    if emit_stream:
        streams_cat = np.concatenate(emit_stream)
        words_cat = np.concatenate(emit_word)
    else:
        streams_cat = np.zeros(0, dtype=np.int64)
        words_cat = np.zeros(0, dtype=np.uint16)
    order = np.argsort(streams_cat, kind="stable")
    counts = np.bincount(streams_cat, minlength=k)
    sorted_words = words_cat[order]
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    payload_words = np.empty_like(sorted_words)
    for j in range(k):
        seg = sorted_words[offsets[j]:offsets[j + 1]]
        payload_words[offsets[j]:offsets[j + 1]] = seg[::-1]

    return EncodedStream(
        codec=name,
        payload=payload_words.view(np.uint8).copy(),
        n_symbols=n,
        header_nbytes=512 + 8 * k + 16,
        meta={
            "num_streams": k,
            "freqs": freqs,
            "states": x.copy(),
            "word_offsets": offsets,
            "prob_bits": prob_bits,
        },
    )


def rans_decode_steps(stream: EncodedStream) -> np.ndarray:
    """Decode interleaved rANS streams one lane step per symbol."""
    n = stream.n_symbols
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    k = stream.meta["num_streams"]
    prob_bits = stream.meta["prob_bits"]
    prob_scale = 1 << prob_bits
    freqs = stream.meta["freqs"].astype(np.uint64)
    cum = np.concatenate([[0], np.cumsum(freqs)])[:256].astype(np.uint64)
    slot_to_sym = np.repeat(
        np.arange(256, dtype=np.uint8), freqs.astype(np.int64)
    )
    if slot_to_sym.size != prob_scale:
        raise CodecError("corrupt rANS frequency table")

    words = stream.payload.view(np.uint16)
    offsets = stream.meta["word_offsets"]
    cursor = offsets[:-1].astype(np.int64).copy()
    limit = offsets[1:].astype(np.int64)
    x = stream.meta["states"].astype(np.uint64).copy()

    steps = ceil_div(n, k)
    out = np.zeros((k, steps), dtype=np.uint8)
    mask = np.uint64(prob_scale - 1)
    pbits = np.uint64(prob_bits)
    shift16 = np.uint64(16)
    for step in range(steps):
        active = (np.arange(k) + step * k) < n
        slot = x & mask
        syms = slot_to_sym[slot.astype(np.int64)]
        f = freqs[syms]
        x_new = f * (x >> pbits) + slot - cum[syms]
        x = np.where(active, x_new, x)
        out[active, step] = syms[active]
        renorm = active & (x < STATE_LOW)
        if renorm.any():
            idx = np.flatnonzero(renorm)
            take = cursor[idx]
            if (take >= limit[idx]).any():
                raise CodecError("corrupt rANS stream: payload underrun")
            x[idx] = (x[idx] << shift16) | words[take].astype(np.uint64)
            cursor[idx] += 1
    return out.T.reshape(-1)[:n].copy()

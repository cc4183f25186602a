"""Common codec interfaces and the byte-codec registry."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from ..errors import CodecError


@dataclass
class EncodedStream:
    """An entropy-coded byte stream plus the metadata needed to decode it.

    Attributes
    ----------
    codec:
        Registered name of the codec that produced the stream.
    payload:
        The compressed bits, as a uint8 array.
    n_symbols:
        Number of source symbols (bytes) encoded.
    header_nbytes:
        Size of the side information a real container would store (frequency
        tables, chunk offsets, stream states...).  Counted into
        :attr:`compressed_nbytes` so compression ratios are honest.
    meta:
        Codec-specific decoding state (tables, offsets, ...).  Not counted
        beyond ``header_nbytes``.
    """

    codec: str
    payload: np.ndarray
    n_symbols: int
    header_nbytes: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.payload.dtype != np.uint8:
            raise CodecError("EncodedStream payload must be uint8")
        if self.n_symbols < 0:
            raise CodecError("n_symbols must be non-negative")
        if self.header_nbytes < 0:
            raise CodecError("header_nbytes must be non-negative")

    def meta_field(self, key: str):
        """``meta[key]``, or a :class:`CodecError` naming the missing field."""
        try:
            return self.meta[key]
        except KeyError:
            raise CodecError(
                f"{self.codec} container lacks meta[{key!r}]") from None

    @property
    def compressed_nbytes(self) -> int:
        """Total on-device footprint: payload plus container metadata."""
        return int(self.payload.nbytes) + int(self.header_nbytes)

    @property
    def ratio(self) -> float:
        """Compression ratio (source bytes / compressed bytes)."""
        if self.compressed_nbytes == 0:
            return float("inf")
        return self.n_symbols / self.compressed_nbytes


class ByteCodec(Protocol):
    """Protocol for codecs over byte alphabets (the exponent plane)."""

    name: str

    def encode(self, data: np.ndarray) -> EncodedStream:
        """Encode a uint8 array into an :class:`EncodedStream`."""
        ...

    def decode(self, stream: EncodedStream) -> np.ndarray:
        """Decode back the exact original uint8 array."""
        ...


_BYTE_CODECS: dict[str, ByteCodec] = {}


def register_byte_codec(codec: ByteCodec) -> ByteCodec:
    """Register a byte codec instance under ``codec.name``."""
    _BYTE_CODECS[codec.name] = codec
    return codec


def get_byte_codec(name: str) -> ByteCodec:
    """Look up a registered byte codec by name."""
    try:
        return _BYTE_CODECS[name]
    except KeyError:
        raise CodecError(
            f"unknown byte codec {name!r}; known: {sorted(_BYTE_CODECS)}"
        ) from None


def as_u8(data: np.ndarray, name: str = "data") -> np.ndarray:
    """Validate and flatten a uint8 input array."""
    array = np.asarray(data)
    if array.dtype != np.uint8:
        raise CodecError(f"{name} must be uint8, got {array.dtype}")
    return np.ascontiguousarray(array).ravel()

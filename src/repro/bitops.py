"""Bit-array utilities shared across the library.

The convention everywhere is: a *bitstream* is a 1-D ``numpy.uint8`` array
with values in {0, 1}, most-significant-bit-first when packed to bytes.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import BitstreamError


def is_binary(values: np.ndarray) -> bool:
    """True when every element is 0 or 1 (the bitstream value set)."""
    arr = np.asarray(values)
    return bool(((arr == 0) | (arr == 1)).all())


def ensure_bits(bits: np.ndarray) -> np.ndarray:
    """Validate and normalize a bitstream to 1-D uint8 of {0, 1}."""
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise BitstreamError(f"bitstream must be 1-D, got shape {arr.shape}")
    if not is_binary(arr):
        raise BitstreamError("bitstream values must be 0 or 1")
    return arr.astype(np.uint8, copy=False)


def pack_bits(bits: np.ndarray) -> bytes:
    """Pack a bitstream into bytes (MSB first, zero-padded at the end)."""
    arr = ensure_bits(bits)
    return np.packbits(arr).tobytes()


def unpack_bits(data: bytes, n_bits: int = None) -> np.ndarray:
    """Unpack bytes into a bitstream (MSB first).

    ``n_bits`` truncates the tail padding; defaults to ``8 * len(data)``.
    """
    arr = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if n_bits is not None:
        if n_bits > arr.size:
            raise BitstreamError(
                f"requested {n_bits} bits from {arr.size}-bit buffer")
        arr = arr[:n_bits]
    return arr.astype(np.uint8)


def bits_to_int(bits: np.ndarray) -> int:
    """Interpret a bitstream as a big-endian unsigned integer.

    Vectorized: the bits are packed to bytes (after left-padding to a
    byte boundary, which preserves the big-endian value) and converted
    in one ``int.from_bytes`` call.
    """
    arr = ensure_bits(bits)
    if arr.size == 0:
        return 0
    pad = (-arr.size) % 8
    if pad:
        arr = np.concatenate([np.zeros(pad, dtype=np.uint8), arr])
    return int.from_bytes(np.packbits(arr).tobytes(), "big")


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Big-endian ``width``-bit representation of a non-negative int."""
    if width < 0:
        raise BitstreamError("width must be non-negative")
    if value < 0:
        raise BitstreamError("value must be non-negative")
    if value >> width:
        raise BitstreamError(f"value {value} does not fit in {width} bits")
    n_bytes = (width + 7) // 8
    data = value.to_bytes(n_bytes, "big")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    return bits[8 * n_bytes - width:].astype(np.uint8)


def chunks(bits: np.ndarray, size: int,
           drop_partial: bool = True) -> Iterator[np.ndarray]:
    """Yield consecutive ``size``-bit chunks of a bitstream.

    The trailing partial chunk is dropped by default (NIST sequences and
    SHA input blocks both require exact sizes).
    """
    arr = ensure_bits(bits)
    if size <= 0:
        raise BitstreamError(f"chunk size must be positive, got {size}")
    full = arr.size // size
    for i in range(full):
        yield arr[i * size: (i + 1) * size]
    if not drop_partial and arr.size % size:
        yield arr[full * size:]


def bias(bits: np.ndarray) -> float:
    """Fraction of ones in a bitstream (0.5 = unbiased)."""
    arr = ensure_bits(bits)
    if arr.size == 0:
        raise BitstreamError("cannot compute the bias of an empty bitstream")
    return float(arr.mean())


class BitBuffer:
    """FIFO bit accumulator stored packed (eight bits per ``uint8`` byte).

    The generation pipeline produces conditioned bits in large batches
    and consumers drain arbitrary amounts; the seed implementation kept
    the surplus as an unpacked array and re-concatenated the whole pool
    on every call (O(pool) per draw).  This buffer keeps the pool packed
    and moves only the bits actually appended or taken:

    * :meth:`append` / :meth:`append_bytes` write at the tail,
    * :meth:`take` / :meth:`take_bytes` read from the head,

    both O(bits moved) with O(1)-amortized bookkeeping -- consumed bytes
    are reclaimed only once they outnumber the live ones, and capacity
    grows geometrically.
    """

    _INITIAL_BYTES = 64

    def __init__(self) -> None:
        self._data = np.zeros(self._INITIAL_BYTES, dtype=np.uint8)
        self._start = 0   # read cursor (bit index into _data)
        self._end = 0     # write cursor (bit index into _data)

    def __len__(self) -> int:
        """Number of bits currently held."""
        return self._end - self._start

    def __repr__(self) -> str:
        return (f"BitBuffer({len(self)} bits, "
                f"{self._data.size} bytes capacity)")

    # -- writing -------------------------------------------------------

    def append(self, bits: np.ndarray) -> None:
        """Append a bitstream (any shape; flattened in C order)."""
        arr = np.asarray(bits)
        if arr.size == 0:
            return
        if not is_binary(arr):
            raise BitstreamError("bitstream values must be 0 or 1")
        arr = np.ravel(arr).astype(np.uint8, copy=False)
        self._reserve(arr.size)
        byte, offset = divmod(self._end, 8)
        if offset:
            # Re-pack the tail's partial byte together with the new bits.
            head = np.unpackbits(self._data[byte:byte + 1])[:offset]
            packed = np.packbits(np.concatenate([head, arr]))
        else:
            packed = np.packbits(arr)
        self._data[byte:byte + packed.size] = packed
        self._end += arr.size

    def append_bytes(self, data: bytes) -> None:
        """Append pre-packed bytes (MSB first).

        When the write cursor is byte-aligned this is a straight byte
        copy; otherwise the bytes are unpacked and appended as bits.
        """
        raw = np.frombuffer(data, dtype=np.uint8)
        if self._end % 8:
            self.append(np.unpackbits(raw))
            return
        self._reserve(8 * raw.size)
        byte = self._end // 8
        self._data[byte:byte + raw.size] = raw
        self._end += 8 * raw.size

    # -- reading -------------------------------------------------------

    def take(self, n_bits: int) -> np.ndarray:
        """Remove and return the oldest ``n_bits`` as an unpacked array."""
        if n_bits < 0:
            raise BitstreamError("bit count must be non-negative")
        if n_bits > len(self):
            raise BitstreamError(
                f"requested {n_bits} bits, buffer holds {len(self)}")
        byte, offset = divmod(self._start, 8)
        stop_byte = (self._start + n_bits + 7) // 8
        out = np.unpackbits(self._data[byte:stop_byte])[offset:offset + n_bits]
        self._start += n_bits
        self._reclaim()
        return out

    def take_bytes(self, n_bytes: int) -> bytes:
        """Remove ``8 * n_bytes`` bits and return them packed."""
        if n_bytes < 0:
            raise BitstreamError("byte count must be non-negative")
        n_bits = 8 * n_bytes
        if n_bits > len(self):
            raise BitstreamError(
                f"requested {n_bits} bits, buffer holds {len(self)}")
        if self._start % 8 == 0:
            byte = self._start // 8
            data = self._data[byte:byte + n_bytes].tobytes()
            self._start += n_bits
            self._reclaim()
            return data
        return np.packbits(self.take(n_bits)).tobytes()

    def clear(self) -> None:
        """Drop all buffered bits."""
        self._start = 0
        self._end = 0

    # -- internals -----------------------------------------------------

    def _reserve(self, extra_bits: int) -> None:
        needed = (self._end + extra_bits + 7) // 8
        if needed <= self._data.size:
            return
        grown = np.zeros(max(2 * self._data.size, needed), dtype=np.uint8)
        grown[:self._data.size] = self._data
        self._data = grown

    def _reclaim(self) -> None:
        """Drop fully-consumed head bytes once they outnumber live ones.

        The threshold guarantees the source and destination ranges of
        the copy never overlap and keeps the per-bit amortized cost
        constant.
        """
        consumed = self._start // 8
        live = (self._end + 7) // 8 - consumed
        if consumed >= max(self._INITIAL_BYTES, live):
            self._data[:live] = self._data[consumed:consumed + live]
            self._start -= 8 * consumed
            self._end -= 8 * consumed

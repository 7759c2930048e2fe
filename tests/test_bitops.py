"""Bit-array utilities."""

import numpy as np
import pytest

from repro import bitops
from repro.errors import BitstreamError


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, 75).astype(np.uint8)
    packed = bitops.pack_bits(bits)
    unpacked = bitops.unpack_bits(packed, 75)
    np.testing.assert_array_equal(bits, unpacked)


def test_pack_msb_first():
    assert bitops.pack_bits(np.array([1, 0, 0, 0, 0, 0, 0, 0],
                                     dtype=np.uint8)) == b"\x80"


def test_unpack_default_length():
    assert bitops.unpack_bits(b"\xff").tolist() == [1] * 8


def test_unpack_rejects_overrun():
    with pytest.raises(BitstreamError):
        bitops.unpack_bits(b"\x00", 9)


def test_ensure_bits_rejects_non_binary():
    with pytest.raises(BitstreamError):
        bitops.ensure_bits(np.array([0, 1, 2]))


def test_ensure_bits_rejects_2d():
    with pytest.raises(BitstreamError):
        bitops.ensure_bits(np.zeros((2, 2)))


def test_bits_to_int_big_endian():
    assert bitops.bits_to_int(np.array([1, 0, 1], dtype=np.uint8)) == 5


def test_int_to_bits_round_trip():
    bits = bitops.int_to_bits(1234, 16)
    assert bitops.bits_to_int(bits) == 1234


@pytest.mark.parametrize("width", [1, 7, 8, 9, 63, 64, 256, 1000, 4096])
def test_int_round_trip_wide_widths(width):
    rng = np.random.default_rng(width)
    bits = rng.integers(0, 2, width).astype(np.uint8)
    value = bitops.bits_to_int(bits)
    np.testing.assert_array_equal(bitops.int_to_bits(value, width), bits)


@pytest.mark.parametrize("width", [5, 32, 129, 2048])
def test_bits_to_int_matches_reference_loop(width):
    rng = np.random.default_rng(width + 1)
    bits = rng.integers(0, 2, width).astype(np.uint8)
    reference = 0
    for bit in bits.tolist():
        reference = (reference << 1) | bit
    assert bitops.bits_to_int(bits) == reference


def test_bits_to_int_empty_is_zero():
    assert bitops.bits_to_int(np.zeros(0, dtype=np.uint8)) == 0


def test_int_to_bits_zero_width():
    assert bitops.int_to_bits(0, 0).size == 0


def test_int_to_bits_rejects_negative_width():
    with pytest.raises(BitstreamError):
        bitops.int_to_bits(0, -1)


def test_int_to_bits_rejects_overflow():
    with pytest.raises(BitstreamError):
        bitops.int_to_bits(256, 8)


def test_int_to_bits_rejects_negative():
    with pytest.raises(BitstreamError):
        bitops.int_to_bits(-1, 8)


def test_chunks_drops_partial_by_default():
    chunks = list(bitops.chunks(np.zeros(10, dtype=np.uint8), 4))
    assert [c.size for c in chunks] == [4, 4]


def test_chunks_keeps_partial_when_asked():
    chunks = list(bitops.chunks(np.zeros(10, dtype=np.uint8), 4,
                                drop_partial=False))
    assert [c.size for c in chunks] == [4, 4, 2]


def test_chunks_rejects_bad_size():
    with pytest.raises(BitstreamError):
        list(bitops.chunks(np.zeros(4, dtype=np.uint8), 0))


def test_bias():
    assert bitops.bias(np.array([1, 1, 0, 0], dtype=np.uint8)) == 0.5


def test_bias_empty_raises():
    with pytest.raises(BitstreamError):
        bitops.bias(np.zeros(0, dtype=np.uint8))


class TestBitBuffer:
    def test_starts_empty(self):
        buf = bitops.BitBuffer()
        assert len(buf) == 0

    def test_append_take_round_trip(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, 1003).astype(np.uint8)
        buf = bitops.BitBuffer()
        buf.append(bits)
        np.testing.assert_array_equal(buf.take(1003), bits)
        assert len(buf) == 0

    def test_fifo_order_across_unaligned_appends(self):
        rng = np.random.default_rng(2)
        pieces = [rng.integers(0, 2, n).astype(np.uint8)
                  for n in (3, 17, 64, 1, 255, 9)]
        buf = bitops.BitBuffer()
        for piece in pieces:
            buf.append(piece)
        whole = np.concatenate(pieces)
        out = np.concatenate([buf.take(100), buf.take(200),
                              buf.take(len(buf))])
        np.testing.assert_array_equal(out, whole)

    def test_interleaved_append_take(self):
        # Heavy churn exercises reclamation and regrowth together.
        rng = np.random.default_rng(3)
        buf = bitops.BitBuffer()
        mirror = []
        for _ in range(200):
            piece = rng.integers(0, 2, int(rng.integers(1, 97))
                                 ).astype(np.uint8)
            buf.append(piece)
            mirror.extend(piece.tolist())
            n = int(rng.integers(0, len(mirror) + 1))
            np.testing.assert_array_equal(buf.take(n),
                                          np.array(mirror[:n],
                                                   dtype=np.uint8))
            del mirror[:n]
        assert len(buf) == len(mirror)

    def test_append_flattens_2d_batches(self):
        block = np.arange(16).reshape(4, 4) % 2
        buf = bitops.BitBuffer()
        buf.append(block.astype(np.uint8))
        np.testing.assert_array_equal(buf.take(16),
                                      block.reshape(-1).astype(np.uint8))

    def test_append_bytes_matches_unpack(self):
        buf = bitops.BitBuffer()
        buf.append_bytes(b"\xa5\x0f")
        np.testing.assert_array_equal(buf.take(16),
                                      bitops.unpack_bits(b"\xa5\x0f"))

    def test_append_bytes_unaligned(self):
        buf = bitops.BitBuffer()
        buf.append(np.array([1, 0, 1], dtype=np.uint8))
        buf.append_bytes(b"\x0f")
        np.testing.assert_array_equal(buf.take(11),
                                      np.array([1, 0, 1, 0, 0, 0, 0, 1,
                                                1, 1, 1], dtype=np.uint8))

    def test_take_bytes_packs_msb_first(self):
        buf = bitops.BitBuffer()
        buf.append(np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8))
        assert buf.take_bytes(1) == b"\x81"

    def test_take_too_many_raises(self):
        buf = bitops.BitBuffer()
        buf.append(np.ones(4, dtype=np.uint8))
        with pytest.raises(BitstreamError):
            buf.take(5)

    def test_negative_take_raises(self):
        with pytest.raises(BitstreamError):
            bitops.BitBuffer().take(-1)

    def test_rejects_non_binary(self):
        with pytest.raises(BitstreamError):
            bitops.BitBuffer().append(np.array([0, 2], dtype=np.uint8))

    def test_clear(self):
        buf = bitops.BitBuffer()
        buf.append(np.ones(100, dtype=np.uint8))
        buf.clear()
        assert len(buf) == 0

    def test_memory_reclaimed_under_streaming(self):
        # A sustained produce/consume cycle must not grow the backing
        # store without bound.
        buf = bitops.BitBuffer()
        chunk = np.ones(4096, dtype=np.uint8)
        for _ in range(100):
            buf.append(chunk)
            buf.take(4096)
        assert buf._data.size < 16 * 4096

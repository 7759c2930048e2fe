"""An executable specification of every generator's output stream.

The determinism contract (``docs/ARCHITECTURE.md``) says a generator's
stream is a pure function of (module seeds, unit).  This module
computes that function from a generator's *substrate* alone -- the
module seed, the settling probabilities of the characterized segments,
the SHA input block slices and the channel order -- with nothing but
numpy's PCG64 and ``hashlib``.  It shares no code with the harvest
engine, the execution backends, the wire, the bit buffer or the
sampling kernel, so a served stream that equals :class:`SpecStream`'s
bytes is evidence about all of them at once, and the golden streams of
``tests/test_determinism.py`` are explained rather than merely pinned.

The stream, read from the top:

* A generator serves a FIFO of *units*: unit ``u`` is iteration
  ``u // C`` of channel ``u % C`` over its ``C`` channels.
* A channel's iteration ``k`` is, for each driven bank in order, the
  SHA-256 digest of every SHA input block slice of that bank's read-out
  row ``k``, in slice order.
* Read-out row ``k`` of a segment comes from the segment's thermal
  stream, a PCG64 seeded through ``SeedSequence`` with
  ``derive_key(seed, "quac-thermal", EPOCH, bank group, bank,
  segment)``.  Epoch 3: a ``W``-bit row is the ``D = B + R`` raw draws
  from draw ``k * D``, ``B = ceil(W / 8)``, ``R = max(8, ceil(W /
  128))``, read little-endian.  Bitline ``j`` with threshold ``t_j =
  ceil(p_j * 2**32)`` settles to one iff ``(b << 24 | r) < t_j``, where
  ``b`` is byte ``j`` of the first ``B`` draws and ``r`` is 0 unless
  ``b == min(t_j >> 24, 255)`` (a tie).  The row's ``n``-th tie, in
  column order, takes ``r`` = 32-bit lane ``n`` of the last ``R``
  draws shifted right by 8, or past its ``2R`` lanes, lane ``n - 2R``
  of the stream advanced to draw ``k * D + 2**126``.
"""

import hashlib

import numpy as np

from repro.rng import derive_key

#: The thermal-stream epoch this specification describes.
EPOCH = 3


def lane_thresholds(p):
    """``t = ceil(p * 2**32)`` per bitline (exact in float64)."""
    return np.ceil(np.asarray(p, dtype=np.float64) * 2.0 ** 32) \
        .astype(np.uint64)


def read_out(key, t, k):
    """Read-out row ``k`` of the segment keyed ``key``, as 0/1 bytes."""
    width = t.size
    decision, refinement = -(-width // 8), max(8, -(-width // 128))
    draws = decision + refinement
    raw = _draws(key, k * draws, draws)
    b = raw[:decision].view(np.uint8)[:width].astype(np.uint64)
    lanes = raw[decision:].view("<u4") >> 8
    ties = np.flatnonzero(b == np.minimum(t >> 24, 255))
    if ties.size > lanes.size:
        overflow = _draws(key, k * draws + 2 ** 126, width)
        lanes = np.concatenate([lanes, overflow.view("<u4") >> 8])
    r = np.zeros(width, dtype=np.uint64)
    r[ties] = lanes[:ties.size]
    return ((b << 24 | r) < t).astype(np.uint8)


def _draws(key, first, count):
    """Raw draws ``[first, first + count)`` of the stream keyed ``key``."""
    bit_generator = np.random.PCG64(np.random.SeedSequence(key))
    bit_generator.advance(first)
    return bit_generator.random_raw(count).astype("<u8")


def channel_banks(trng):
    """Per driven bank of one :class:`~repro.core.trng.QuacTrng`
    channel: ``(thermal key, lane thresholds, block slices)``."""
    module = trng.module
    banks = []
    for segment, bank in zip(trng.segments, trng._banks):
        key = derive_key(module.seed, "quac-thermal", EPOCH,
                         segment.bank_group, segment.bank, segment.segment)
        p = module.segment_probabilities(segment, trng.data_pattern)
        slices = [(plan.bit_slice.start, plan.bit_slice.stop)
                  for plan in trng._plans[bank]]
        banks.append((key, lane_thresholds(p), slices))
    return banks


def unit_bytes(banks, k):
    """Iteration ``k`` of one channel: every bank's digests, in order."""
    digests = []
    for key, t, slices in banks:
        row = read_out(key, t, k)
        for start, stop in slices:
            assert start % 8 == 0 and stop % 8 == 0, "planned slices are bytes"
            digests.append(hashlib.sha256(
                np.packbits(row[start:stop]).tobytes()).digest())
    return b"".join(digests)


class SpecStream:
    """The unit FIFO of a generator, computed from its substrate.

    ``generator`` is any harvest planner (its ``channels`` are read once,
    at the module's current operating point); it is never drawn from.
    """

    def __init__(self, generator):
        self.channels = [channel_banks(trng) for trng in generator.channels]
        self._stream = bytearray()
        self._units = 0

    def unit_bits(self, channel=0):
        """Width of one of ``channel``'s units, in bits."""
        return 256 * sum(len(slices) for _, _, slices in
                         self.channels[channel])

    def prefix(self, n_bytes):
        """The first ``n_bytes`` the generator serves."""
        count = len(self.channels)
        while len(self._stream) < n_bytes:
            channel, k = self._units % count, self._units // count
            self._stream += unit_bytes(self.channels[channel], k)
            self._units += 1
        return bytes(self._stream[:n_bytes])

    def bits(self, n_bits):
        """The first ``n_bits`` the generator serves, unpacked."""
        data = np.frombuffer(self.prefix(-(-n_bits // 8)), dtype=np.uint8)
        return np.unpackbits(data)[:n_bits]

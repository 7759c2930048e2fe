"""Batched generation: every row is its iteration of the stream spec.

The batched engine must be a pure speedup, not a different generator:
iteration ``k`` of a segment's thermal stream is the same whether it is
drawn alone or inside a refill round, so ``random_bits`` of ``n``
iterations' worth of bits, reshaped to ``n`` rows, is bit-identical to
the first ``n`` units of the executable spec
(:class:`stream_spec.SpecStream`), for any partition of the iterations
into draws.  The bulk stream also passes the NIST frequency and runs
tests.
"""

import numpy as np
import pytest

from stream_spec import SpecStream

from repro.core.harvest import MAX_BATCH_ITERATIONS
from repro.core.trng import QuacTrng
from repro.errors import ConfigurationError
from repro.nist.suite import run_all_tests


@pytest.fixture()
def make_trng(module_m13, small_geometry):
    scale = small_geometry.row_bits / 65536

    def build(**kwargs):
        return QuacTrng(module_m13, entropy_per_block=256.0 * scale,
                        **kwargs)

    return build


def _rows(trng, n):
    """``n`` iterations' worth of ``random_bits``, one row each."""
    return trng.random_bits(n * trng.bits_per_iteration).reshape(n, -1)


class TestBatchIdentity:
    def test_batch_one_bit_identical_to_spec(self, make_trng):
        batched = make_trng()
        width = batched.bits_per_iteration
        # Identity must hold for every draw size and across the
        # cursor state left by earlier draws.
        draws = (1, 1, 3, 2, 5)
        rows = [_rows(batched, n) for n in draws]
        assert [r.shape for r in rows] == [(n, width) for n in draws]
        want = SpecStream(batched).bits(sum(draws) * width)
        np.testing.assert_array_equal(np.vstack(rows).ravel(), want)

    def test_first_batch_row_matches_first_iteration(self, make_trng):
        # Every row of a draw is its iteration, wherever the draw
        # boundaries fall: one draw of 6 equals draws of 1, 3 and 2.
        whole = _rows(make_trng(), 6)
        trng = make_trng()
        first = _rows(trng, 1)
        middle = _rows(trng, 3)
        last = _rows(trng, 2)
        np.testing.assert_array_equal(whole,
                                      np.vstack([first, middle, last]))

    def test_batch_shape_and_latency(self, make_trng):
        trng = make_trng()
        bits = _rows(trng, 7)
        assert bits.shape == (7, trng.bits_per_iteration)
        # Whole iterations leave no surplus and claim exactly 7.
        assert len(trng._pool) == 0
        assert trng.cursors() == [7] * len(trng.cursors())
        # Latency is the scheduled command sequence's, not wall clock.
        assert trng.iteration_latency_ns == pytest.approx(
            trng.breakdown.total_ns)

    def test_batch_rows_are_distinct(self, make_trng):
        bits = _rows(make_trng(), 4)
        for i in range(3):
            assert not np.array_equal(bits[i], bits[i + 1])

    def test_nonpositive_batch_rejected(self, make_trng):
        trng = make_trng()
        with pytest.raises(ConfigurationError):
            trng.plan_batch(0)
        with pytest.raises(ConfigurationError):
            trng.plan_batch(-3)


class TestBatchStatisticalAgreement:
    N_BITS = 120_000

    def test_nist_frequency_and_runs_agree(self, make_trng):
        trng = make_trng()
        batched = trng.random_bits(self.N_BITS)
        report = run_all_tests(batched, tests=["monobit", "runs"])
        assert report.passes_all(), report.failing()
        # A bulk draw is the spec's stream, bit for bit.
        np.testing.assert_array_equal(batched,
                                      SpecStream(trng).bits(self.N_BITS))


class TestBatchedRandomBits:
    def test_exact_length_and_pooling(self, make_trng):
        trng = make_trng()
        out = trng.random_bits(10_000)
        assert out.size == 10_000
        pooled = len(trng._pool)
        assert 0 < pooled < trng.bits_per_iteration

    def test_pool_serves_next_draw_without_regeneration(self, make_trng):
        trng = make_trng()
        trng.random_bits(trng.bits_per_iteration // 2)
        counter = sum(trng.cursors())
        again = trng.random_bits(100)
        assert sum(trng.cursors()) == counter
        assert again.size == 100

    def test_consecutive_draws_are_distinct(self, make_trng):
        trng = make_trng()
        first = trng.random_bits(5000)
        second = trng.random_bits(5000)
        assert not np.array_equal(first, second)

    def test_small_draw_matches_spec(self, make_trng):
        # Draws of any size -- below one iteration or spanning several
        # -- serve the spec's stream in order.
        trng = make_trng()
        width = trng.bits_per_iteration
        draws = [100, 300, 50, 3 * width + 17, width, 2 * width - 1, 9]
        batched = np.concatenate([trng.random_bits(n) for n in draws])
        np.testing.assert_array_equal(batched,
                                      SpecStream(trng).bits(sum(draws)))

    def test_large_draw_is_chunked(self, make_trng):
        trng = make_trng()
        n_bits = trng.bits_per_iteration * 3 + 17
        out = trng.random_bits(n_bits)
        assert out.size == n_bits
        assert MAX_BATCH_ITERATIONS >= 3  # the cap exists and is sane


class TestIterBytes:
    def test_streams_chunks(self, make_trng):
        trng = make_trng()
        stream = trng.iter_bytes(64)
        chunks = [next(stream) for _ in range(3)]
        assert all(len(c) == 64 for c in chunks)
        assert chunks[0] != chunks[1]

    def test_chunk_size_validated(self, make_trng):
        with pytest.raises(ConfigurationError):
            next(make_trng().iter_bytes(0))

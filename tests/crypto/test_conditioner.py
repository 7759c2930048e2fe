"""SHA-256 conditioning and hardware-cost constants."""

import numpy as np
import pytest

from repro.crypto.conditioner import (SHA256_HW_AREA_MM2,
                                      SHA256_HW_LATENCY_NS,
                                      SHA256_HW_THROUGHPUT_GBPS,
                                      Sha256Conditioner)
from repro.crypto.sha256 import sha256_bits
from repro.errors import BitstreamError


class TestHardwareConstants:
    def test_paper_values(self):
        # Section 9: 65 cycles at 5.15 GHz, 19.7 Gb/s, 0.001 mm^2.
        assert SHA256_HW_LATENCY_NS == pytest.approx(65 / 5.15)
        assert SHA256_HW_THROUGHPUT_GBPS == 19.7
        assert SHA256_HW_AREA_MM2 == 0.001


class TestSha256Conditioner:
    def test_condition_is_sha(self):
        bits = np.ones(512, dtype=np.uint8)
        out = Sha256Conditioner().condition(bits)
        np.testing.assert_array_equal(out, sha256_bits(bits))

    def test_builtin_and_hashlib_paths_identical(self):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2, 700).astype(np.uint8)
        fast = Sha256Conditioner().condition(bits)
        np.testing.assert_array_equal(fast, sha256_bits(bits))


class TestConditionMany:
    def _blocks(self, n=5, width=384, seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 2, (n, width)).astype(np.uint8)

    def test_sha_bulk_matches_per_block(self):
        blocks = self._blocks()
        model = Sha256Conditioner()
        bulk = model.condition_many(blocks)
        loop = np.concatenate([model.condition(b) for b in blocks])
        np.testing.assert_array_equal(bulk, loop)

    def test_sha_bulk_matches_builtin(self):
        blocks = self._blocks(seed=1)
        fast = Sha256Conditioner().condition_many(blocks)
        builtin = np.concatenate([sha256_bits(row) for row in blocks])
        np.testing.assert_array_equal(fast, builtin)

    def test_sha_output_shape(self):
        out = Sha256Conditioner().condition_many(self._blocks(n=7))
        assert out.shape == (7 * 256,)

    def test_empty_matrix(self):
        empty = np.zeros((0, 64), dtype=np.uint8)
        assert Sha256Conditioner().condition_many(empty).size == 0

    def test_rejects_1d_input(self):
        with pytest.raises(BitstreamError):
            Sha256Conditioner().condition_many(np.zeros(8, dtype=np.uint8))

    def test_rejects_non_binary(self):
        with pytest.raises(BitstreamError):
            Sha256Conditioner().condition_many(
                np.full((2, 8), 3, dtype=np.uint8))

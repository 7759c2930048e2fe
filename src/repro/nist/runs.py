"""NIST tests 3-4: runs and longest run of ones in a block."""

from __future__ import annotations

import numpy as np

from repro.nist.common import TestResult, check_sequence, erfc_scalar, igamc

#: Longest-run parameterizations from SP 800-22 Section 2.4.4: for each
#: minimum sequence length, the block size M, the category boundaries
#: (longest-run values clamped into [low, high]) and the category
#: probabilities pi.
_LONGEST_RUN_CONFIGS = (
    # (min_n, M, low, high, pi)
    (128, 8, 1, 4, (0.2148, 0.3672, 0.2305, 0.1875)),
    (6272, 128, 4, 9, (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (750000, 10000, 10, 16, (0.0882, 0.2092, 0.2483, 0.1933, 0.1208,
                             0.0675, 0.0727)),
)


def runs(bits: np.ndarray) -> TestResult:
    """Runs test -- SP 800-22 Section 2.3.

    Counts maximal runs of identical bits; too many runs means the
    sequence oscillates too fast, too few means it is too sticky.  The
    test is only meaningful when the monobit proportion is sane, which
    the specification encodes as the |pi - 1/2| < 2/sqrt(n) precondition.
    """
    arr = check_sequence(bits, 100, "runs")
    n = arr.size
    pi = float(arr.mean())
    tau = 2.0 / np.sqrt(n)
    if abs(pi - 0.5) >= tau:
        # Precondition failed: the spec assigns p = 0 (the monobit test
        # will fail too).
        return TestResult(name="runs", p_value=0.0,
                          statistics={"pi": pi, "tau": tau},
                          applicable=True)
    v_obs = 1 + int((arr[1:] != arr[:-1]).sum())
    numerator = abs(v_obs - 2.0 * n * pi * (1 - pi))
    denominator = 2.0 * np.sqrt(2.0 * n) * pi * (1 - pi)
    p = erfc_scalar(numerator / denominator)
    return TestResult(name="runs", p_value=p,
                      statistics={"v_obs": float(v_obs), "pi": pi})


def _longest_runs_vectorized(blocks: np.ndarray) -> np.ndarray:
    """Longest run of ones per row of a 2-D 0/1 array.

    Vectorized via cumulative sums reset at zeros: for each row, the
    running length at position j is cumsum - (max cumsum at the last
    zero at-or-before j).
    """
    n_blocks, m = blocks.shape
    cums = np.cumsum(blocks, axis=1)
    # Value of cumsum at the most recent zero (0 before any zero).
    reset = np.where(blocks == 0, cums, 0)
    reset = np.maximum.accumulate(reset, axis=1)
    run_lengths = cums - reset
    return run_lengths.max(axis=1)


def longest_run_ones_in_a_block(bits: np.ndarray) -> TestResult:
    """Longest run of ones in a block -- SP 800-22 Section 2.4.

    Block size and category table auto-select on sequence length, as the
    specification prescribes.
    """
    arr = check_sequence(bits, 128, "longest_run_ones_in_a_block")
    n = arr.size
    config = None
    for min_n, m, low, high, pi in _LONGEST_RUN_CONFIGS:
        if n >= min_n:
            config = (m, low, high, pi)
    if config is None:  # pragma: no cover - guarded by check_sequence
        raise ValueError("sequence too short for longest-run test")
    m, low, high, pi = config
    n_blocks = n // m
    blocks = arr[: n_blocks * m].reshape(n_blocks, m)
    longest = _longest_runs_vectorized(blocks)
    clamped = np.clip(longest, low, high)
    counts = np.bincount(clamped - low, minlength=high - low + 1)
    expected = n_blocks * np.asarray(pi)
    chi_squared = float(((counts - expected) ** 2 / expected).sum())
    k = len(pi) - 1
    p = igamc(k / 2.0, chi_squared / 2.0)
    return TestResult(name="longest_run_ones_in_a_block", p_value=p,
                      statistics={"chi_squared": chi_squared,
                                  "block_size": float(m),
                                  "n_blocks": float(n_blocks)})

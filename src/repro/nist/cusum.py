"""NIST test 13: cumulative sums."""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from repro.nist.common import TestResult, check_sequence, to_plus_minus_one


def _cusum_p_value(z: float, n: int) -> float:
    """The SP 800-22 Section 2.13.3 p-value for max |partial sum| = z."""
    if z == 0:
        return 0.0
    sqrt_n = np.sqrt(n)
    k_start = int((-n / z + 1) // 4)
    k_end = int((n / z - 1) // 4)
    total = 1.0
    for k in range(k_start, k_end + 1):
        total -= (ndtr((4 * k + 1) * z / sqrt_n) -
                  ndtr((4 * k - 1) * z / sqrt_n))
    k_start = int((-n / z - 3) // 4)
    for k in range(k_start, k_end + 1):
        total += (ndtr((4 * k + 3) * z / sqrt_n) -
                  ndtr((4 * k + 1) * z / sqrt_n))
    return float(min(max(total, 0.0), 1.0))


def cumulative_sums(bits: np.ndarray) -> TestResult:
    """Cumulative sums test -- SP 800-22 Section 2.13.

    Examines the maximal excursion of the +/-1 random walk, both forward
    and backward; both p-values must pass, and the headline value is the
    minimum of the two.
    """
    arr = check_sequence(bits, 100, "cumulative_sums")
    n = arr.size
    x = to_plus_minus_one(arr)
    forward = np.cumsum(x)
    z_forward = float(np.abs(forward).max())
    backward = np.cumsum(x[::-1])
    z_backward = float(np.abs(backward).max())
    p_forward = _cusum_p_value(z_forward, n)
    p_backward = _cusum_p_value(z_backward, n)
    return TestResult(name="cumulative_sums",
                      p_value=min(p_forward, p_backward),
                      extra_p_values={"forward": p_forward,
                                      "backward": p_backward},
                      statistics={"z_forward": z_forward,
                                  "z_backward": z_backward})

"""Temperature and ageing response of the QUAC entropy source.

Section 8 of the paper measures segment entropy at 50, 65 and 85 C on 40
chips and finds two populations: *trend-1* chips (24/40) whose entropy
rises with temperature and *trend-2* chips (16/40) whose entropy falls.
It also measures a 30-day drift of at most a few percent.

We model both effects as multiplicative factors on the per-bitline entropy
scale (equivalently, inverse factors on the SA-offset spread ``zeta``):

* temperature: ``factor = exp(slope * (T - 50))`` with a positive slope
  for trend-1 chips and a negative slope for trend-2 chips, calibrated to
  the Figure 14 magnitudes (trend-1: +15% from 50 to 85 C; trend-2: -48%).
* ageing: a small deterministic per-(module, day) lognormal drift whose
  30-day magnitude matches the paper's 2.4% average / 5.2% maximum.

DDR4 modules interleave eight x8 chips across the 64-bit bus, so a
bitline's temperature trend is decided by which *chip* it lives in; the
model assigns a trend to each chip deterministically from the module seed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.rng import generator_for

#: Reference temperature of the paper's characterization (Celsius).
REFERENCE_TEMPERATURE_C = 50.0

#: Fraction of chips following trend-1 in the paper's 40-chip study (24/40).
TREND1_FRACTION = 0.6

#: Entropy-vs-temperature slopes (per Celsius), calibrated to Figure 14:
#: trend-1 average segment entropy grows 1442 -> 1660 (x1.15) over 35 C;
#: trend-2 falls 1711 -> 892 (x0.52) over 35 C.
TREND1_SLOPE_PER_C = float(np.log(1659.6 / 1442.0) / 35.0)
TREND2_SLOPE_PER_C = float(np.log(892.5 / 1710.6) / 35.0)

#: Per-day lognormal sigma of the ageing drift (30-day aggregate ~2-5%).
AGEING_DAILY_SIGMA = 0.0045

#: Chips per x8 DDR4 module; chip k drives byte lane k of the 64-bit bus.
CHIPS_PER_MODULE = 8


class TemperatureTrend(enum.Enum):
    """Direction of a chip's entropy response to temperature."""

    TREND1_RISING = 1
    TREND2_FALLING = 2

    @property
    def slope_per_c(self) -> float:
        """log-entropy change per degree Celsius."""
        if self is TemperatureTrend.TREND1_RISING:
            return TREND1_SLOPE_PER_C
        return TREND2_SLOPE_PER_C


@dataclass(frozen=True)
class ThermalModel:
    """Temperature/ageing response of one module's chips.

    Parameters
    ----------
    seed:
        Module seed; decides each chip's trend assignment and the ageing
        path deterministically.
    trend1_fraction:
        Probability a chip follows trend-1 (paper: 24/40 = 0.6).
    """

    seed: int
    trend1_fraction: float = TREND1_FRACTION

    def chip_trends(self) -> list:
        """Trend assignment of the module's eight chips."""
        gen = generator_for(self.seed, "chip-trend")
        draws = gen.random(CHIPS_PER_MODULE)
        return [TemperatureTrend.TREND1_RISING if d < self.trend1_fraction
                else TemperatureTrend.TREND2_FALLING for d in draws]

    def chip_of_bitline(self, bitline_index: np.ndarray) -> np.ndarray:
        """Chip index (0..7) owning each bitline of a module-level row.

        x8 chips interleave at byte granularity across the 64-bit bus:
        bitline b belongs to chip ``(b // 8) % 8``.
        """
        return (np.asarray(bitline_index) // 8) % CHIPS_PER_MODULE

    def entropy_factor(self, n_bitlines: int, temperature_c: float) -> np.ndarray:
        """Per-bitline multiplicative entropy factor at ``temperature_c``.

        1.0 at the 50 C reference for every bitline; above it, trend-1
        bitlines gain entropy and trend-2 bitlines lose it.
        """
        trends = self.chip_trends()
        slopes = np.array([t.slope_per_c for t in trends])
        chip = self.chip_of_bitline(np.arange(n_bitlines))
        delta = temperature_c - REFERENCE_TEMPERATURE_C
        return np.exp(slopes[chip] * delta)

    def module_trend_majority(self) -> TemperatureTrend:
        """The trend followed by the majority of this module's chips."""
        trends = self.chip_trends()
        rising = sum(1 for t in trends if t is TemperatureTrend.TREND1_RISING)
        if rising * 2 >= len(trends):
            return TemperatureTrend.TREND1_RISING
        return TemperatureTrend.TREND2_FALLING

    def ageing_factor(self, day: int) -> float:
        """Cumulative entropy drift factor after ``day`` days.

        A deterministic random walk in log space: each day contributes an
        independent N(0, AGEING_DAILY_SIGMA) increment, so a 30-day drift
        has sigma ~ 0.0045 * sqrt(30) ~ 2.5%, matching Section 8's
        measurement (average 2.4%, max 5.2% over five modules).
        """
        if day < 0:
            raise ValueError(f"day must be non-negative, got {day}")
        if day == 0:
            return 1.0
        # Rebuild the walk from per-day increments so factors are
        # consistent: factor(day) uses increments 1..day.
        total = 0.0
        for d in range(1, day + 1):
            step_gen = generator_for(self.seed, "ageing-step", d)
            total += step_gen.normal(0.0, AGEING_DAILY_SIGMA)
        return float(np.exp(total))

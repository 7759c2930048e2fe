"""Startup-value entropy source of the DRNG baseline (Section 7.4).

Cells powering up into weakly-biased states; usable only once per power
cycle.  Retention failures live in :mod:`repro.dram.retention`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dram.geometry import DramGeometry
from repro.rng import generator_for


@dataclass(frozen=True)
class StartupValueModel:
    """Power-up startup values (the DRNG mechanism).

    A fraction of cells power up into metastable states; the rest are
    strongly biased by their physical asymmetry.  Startup entropy is only
    available once per power cycle (the paper's core criticism: a 700 us
    power-up sequence gates every harvest).
    """

    geometry: DramGeometry
    seed: int
    metastable_fraction: float = 0.05
    #: DDR4 power-up initialization latency (SK Hynix datasheet): 700 us.
    power_cycle_latency_ns: float = 700_000.0

    def startup_row(self, bank_group: int, bank: int, row: int,
                    power_cycle: int) -> np.ndarray:
        """Cell values of a row immediately after power-up."""
        self.geometry.check_row(row)
        gen = generator_for(self.seed, "startup-bias", bank_group, bank, row)
        biased = (gen.random(self.geometry.row_bits) < 0.5).astype(np.uint8)
        meta = gen.random(self.geometry.row_bits) < self.metastable_fraction
        rng = generator_for(self.seed, "startup-draw", bank_group, bank, row,
                            power_cycle)
        random_bits = (rng.random(self.geometry.row_bits) < 0.5)
        return np.where(meta, random_bits, biased).astype(np.uint8)

    def row_entropy(self) -> float:
        """Expected per-row startup entropy in bits."""
        return self.geometry.row_bits * self.metastable_fraction


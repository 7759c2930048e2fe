"""Characterization pins: every Table 3 module's segment and SIB choices.

The characterization picks, per bank, the segment a generator draws from
and the SHA input blocks (SIBs) that segment's read-out splits into
(Section 6.1).  These pins hold those choices for all 17 Table 3 modules
at ``DramGeometry.small()``, root seed 2021, bank groups 0-3 (bank 0)
and four data patterns: the best segment of each
:class:`ModuleCharacterization` and the selected segments and SIB
``block_slices`` of each :class:`QuacTrng` exactly, and every segment
entropy to ``rtol=1e-12``, so an arithmetic regrouping may move the
maps by rounding but never a choice.

The segment entropies live in ``segment_entropies_small_2021.npy``, one
``(module, bank group, pattern, segment)`` array in ``TABLE3_SPECS``,
bank-group and ``PATTERNS`` order.  They were recorded once and are
never regenerated to make a change pass.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.throughput import TrngConfiguration
from repro.core.trng import QuacTrng
from repro.dram.geometry import CACHE_BLOCK_BITS, DramGeometry
from repro.dram.module_factory import TABLE3_SPECS, build_module
from repro.entropy.characterization import ModuleCharacterization
from repro.errors import InsufficientEntropyError

PATTERNS = ("0111", "0100", "1000", "0000")
BANK_GROUPS = range(4)
NAMES = [spec.name for spec in TABLE3_SPECS]

#: Shannon entropy credited per SIB: 256 bits scaled to the small row.
ENTROPY_PER_BLOCK = 256.0 * DramGeometry.small().row_bits / 65536

#: Best segment of each module: one tuple per bank group, one entry per
#: pattern in ``PATTERNS`` order.
_BEST_SEGMENT = {
    "M1": ((62, 60, 37, 47), (10, 60, 10, 60),
           (42, 56, 63, 56), (59, 54, 37, 27)),
    "M2": ((33, 44, 33, 28), (48, 47, 43, 2),
           (60, 27, 62, 27), (54, 18, 59, 22)),
    "M3": ((62, 33, 62, 40), (59, 0, 59, 0),
           (60, 17, 61, 13), (62, 48, 62, 48)),
    "M4": ((59, 63, 59, 55), (62, 8, 62, 8),
           (49, 46, 49, 46), (61, 31, 61, 15)),
    "M5": ((61, 3, 61, 9), (59, 10, 59, 10),
           (58, 26, 21, 33), (35, 3, 35, 3)),
    "M6": ((28, 15, 2, 15), (59, 29, 59, 1),
           (4, 21, 4, 11), (46, 18, 46, 8)),
    "M7": ((3, 27, 3, 36), (62, 34, 60, 61),
           (31, 16, 33, 16), (32, 22, 32, 47)),
    "M8": ((14, 10, 14, 5), (46, 37, 7, 58),
           (30, 28, 30, 52), (38, 16, 38, 16)),
    "M9": ((12, 16, 12, 23), (33, 2, 33, 36),
           (22, 38, 60, 57), (44, 32, 44, 57)),
    "M10": ((62, 55, 62, 55), (6, 22, 6, 18),
            (24, 22, 24, 28), (0, 21, 0, 29)),
    "M11": ((22, 51, 24, 51), (48, 29, 41, 3),
            (23, 34, 37, 34), (60, 52, 60, 29)),
    "M12": ((42, 35, 16, 14), (24, 56, 24, 45),
            (17, 51, 17, 51), (15, 49, 28, 22)),
    "M13": ((63, 45, 63, 45), (32, 36, 59, 36),
            (52, 42, 26, 44), (20, 18, 20, 18)),
    "M14": ((57, 31, 57, 25), (58, 35, 59, 35),
            (54, 35, 54, 35), (62, 17, 62, 17)),
    "M15": ((59, 8, 63, 4), (59, 40, 59, 40),
            (5, 45, 63, 2), (63, 4, 9, 48)),
    "M16": ((59, 0, 59, 41), (54, 31, 36, 52),
            (36, 52, 14, 2), (61, 28, 61, 28)),
    "M17": ((22, 3, 63, 9), (29, 62, 59, 18),
            (38, 34, 16, 20), (62, 26, 62, 45)),
}

#: Each module's ``QuacTrng`` (BGP, one pattern): the selected segment of
#: each bank group and that bank's SIB slices, as ``start:stop`` in cache
#: blocks; ``None`` where a best segment carries less than one SIB.
_TRNG_CHOICE = {
    ("M1", "0111"): ((62, 10, 42, 59),
                     ("0:1 1:2 2:3 3:4 4:5 5:6 6:8",
                      "0:2 2:3 3:4 4:5 5:7",
                      "0:2 2:3 3:5 5:6 6:8",
                      "0:2 2:3 3:4 4:5 5:6 6:8")),
    ("M1", "0100"): None,
    ("M1", "1000"): ((37, 10, 30, 37),
                     ("0:2 2:4 4:5 5:6 6:8",
                      "0:2 2:3 3:4 4:5 5:7",
                      "0:2 2:3 3:4 4:6 6:8",
                      "0:2 2:3 3:4 4:5 5:6 6:8")),
    ("M1", "0000"): None,
    ("M2", "0111"): ((33, 48, 60, 54),
                     ("0:2 2:4 4:6 6:8",
                      "0:2 2:3 3:5 5:7",
                      "0:2 2:4 4:6",
                      "0:2 2:3 3:5 5:7")),
    ("M2", "0100"): ((44, 47, 27, 18),
                     ("0:7",
                      "0:8",
                      "0:8",
                      "0:8")),
    ("M2", "1000"): ((33, 43, 62, 59),
                     ("0:2 2:4 4:6 6:8",
                      "0:2 2:4 4:6",
                      "0:2 2:4 4:6",
                      "0:2 2:3 3:4 4:6")),
    ("M2", "0000"): None,
    ("M3", "0111"): ((62, 59, 60, 62),
                     ("0:1 1:2 2:3 3:4 4:6 6:8",
                      "0:1 1:2 2:4 4:6 6:8",
                      "0:2 2:4 4:6 6:8",
                      "0:2 2:4 4:5 5:7")),
    ("M3", "0100"): ((33, 0, 17, 48),
                     ("0:7",
                      "0:7",
                      "0:7",
                      "0:8")),
    ("M3", "1000"): ((62, 59, 61, 62),
                     ("0:2 2:3 3:4 4:6 6:8",
                      "0:1 1:2 2:4 4:5 5:7",
                      "0:2 2:3 3:5 5:7",
                      "0:2 2:4 4:5 5:7")),
    ("M3", "0000"): None,
    ("M4", "0111"): ((59, 62, 49, 61),
                     ("0:2 2:3 3:4 4:5 5:6 6:7",
                      "0:2 2:3 3:4 4:5 5:6 6:7",
                      "0:2 2:3 3:4 4:5 5:6 6:8",
                      "0:1 1:2 2:3 3:5 5:6 6:8")),
    ("M4", "0100"): None,
    ("M4", "1000"): ((59, 62, 49, 61),
                     ("0:1 1:2 2:3 3:4 4:5 5:6 6:7",
                      "0:2 2:3 3:4 4:5 5:6 6:7",
                      "0:2 2:3 3:4 4:5 5:6 6:8",
                      "0:1 1:2 2:3 3:5 5:6 6:8")),
    ("M4", "0000"): None,
    ("M5", "0111"): ((61, 59, 58, 35),
                     ("0:2 2:3 3:4 4:5 5:6 6:7",
                      "0:2 2:3 3:4 4:5 5:6 6:8",
                      "0:2 2:3 3:4 4:5 5:6 6:8",
                      "0:2 2:3 3:4 4:5 5:6 6:8")),
    ("M5", "0100"): None,
    ("M5", "1000"): ((61, 59, 21, 35),
                     ("0:2 2:3 3:4 4:5 5:6 6:7",
                      "0:2 2:3 3:4 4:5 5:6 6:8",
                      "0:2 2:3 3:4 4:6 6:8",
                      "0:2 2:3 3:4 4:5 5:6 6:8")),
    ("M5", "0000"): None,
    ("M6", "0111"): ((28, 59, 4, 46),
                     ("0:2 2:3 3:5 5:7",
                      "0:2 2:4 4:6",
                      "0:2 2:4 4:6",
                      "0:2 2:4 4:6")),
    ("M6", "0100"): None,
    ("M6", "1000"): ((2, 59, 4, 46),
                     ("0:2 2:4 4:6",
                      "0:2 2:4 4:6",
                      "0:2 2:4 4:6",
                      "0:2 2:4 4:6")),
    ("M6", "0000"): None,
    ("M7", "0111"): ((3, 62, 31, 32),
                     ("0:2 2:4 4:6 6:8",
                      "0:2 2:4 4:6",
                      "0:2 2:3 3:5 5:7",
                      "0:2 2:4 4:6")),
    ("M7", "0100"): ((27, 34, 16, 22),
                     ("0:3 3:6",
                      "0:8",
                      "0:8",
                      "0:8")),
    ("M7", "1000"): ((3, 60, 33, 32),
                     ("0:2 2:4 4:6 6:8",
                      "0:2 2:4 4:6",
                      "0:2 2:4 4:6",
                      "0:2 2:4 4:6")),
    ("M7", "0000"): None,
    ("M8", "0111"): ((14, 46, 30, 38),
                     ("0:2 2:4 4:5 5:7",
                      "0:2 2:3 3:5 5:7",
                      "0:2 2:4 4:6",
                      "0:2 2:4 4:6 6:8")),
    ("M8", "0100"): None,
    ("M8", "1000"): ((14, 7, 30, 38),
                     ("0:2 2:4 4:5 5:7",
                      "0:2 2:4 4:6 6:8",
                      "0:2 2:4 4:6",
                      "0:2 2:4 4:6 6:8")),
    ("M8", "0000"): None,
    ("M9", "0111"): ((12, 33, 22, 44),
                     ("0:2 2:4 4:6",
                      "0:2 2:4 4:6",
                      "0:2 2:4 4:6",
                      "0:2 2:4 4:6")),
    ("M9", "0100"): ((16, 2, 38, 32),
                     ("0:7",
                      "0:8",
                      "0:3 3:7",
                      "0:2 2:4 4:6")),
    ("M9", "1000"): ((12, 33, 60, 44),
                     ("0:2 2:4 4:6",
                      "0:2 2:4 4:6",
                      "0:2 2:4 4:6",
                      "0:2 2:4 4:6")),
    ("M9", "0000"): None,
    ("M10", "0111"): ((62, 6, 24, 0),
                     ("0:2 2:4 4:6",
                      "0:2 2:4 4:5 5:7",
                      "0:2 2:3 3:5 5:7",
                      "0:2 2:4 4:6")),
    ("M10", "0100"): ((55, 22, 22, 21),
                     ("0:7",
                      "0:8",
                      "0:8",
                      "0:3 3:6")),
    ("M10", "1000"): ((62, 6, 24, 0),
                     ("0:2 2:4 4:6",
                      "0:2 2:4 4:5 5:7",
                      "0:2 2:3 3:5 5:7",
                      "0:2 2:4 4:6")),
    ("M10", "0000"): None,
    ("M11", "0111"): ((22, 48, 23, 60),
                     ("0:2 2:4 4:6",
                      "0:2 2:4 4:6",
                      "0:2 2:4 4:5 5:7",
                      "0:3 3:5 5:7")),
    ("M11", "0100"): ((51, 29, 34, 52),
                     ("0:8",
                      "0:7",
                      "0:8",
                      "0:2 2:4 4:7")),
    ("M11", "1000"): ((24, 41, 37, 60),
                     ("0:2 2:4 4:6",
                      "0:2 2:4 4:6",
                      "0:2 2:4 4:6",
                      "0:3 3:5 5:7")),
    ("M11", "0000"): None,
    ("M12", "0111"): ((42, 24, 17, 15),
                     ("0:2 2:3 3:4 4:6 6:8",
                      "0:2 2:3 3:4 4:5 5:7",
                      "0:1 1:3 3:5 5:7",
                      "0:2 2:4 4:5 5:7")),
    ("M12", "0100"): None,
    ("M12", "1000"): ((16, 24, 17, 28),
                     ("0:2 2:3 3:5 5:7",
                      "0:2 2:3 3:4 4:5 5:7",
                      "0:1 1:3 3:5 5:7",
                      "0:2 2:4 4:5 5:6 6:8")),
    ("M12", "0000"): None,
    ("M13", "0111"): ((55, 32, 52, 20),
                     ("0:1 1:2 2:3 3:4 4:5 5:6 6:8",
                      "0:1 1:2 2:3 3:4 4:5 5:6 6:7",
                      "0:1 1:2 2:3 3:4 4:5 5:6 6:7",
                      "0:1 1:2 2:3 3:4 4:5 5:6 6:7")),
    ("M13", "0100"): None,
    ("M13", "1000"): ((62, 59, 26, 20),
                     ("0:1 1:2 2:3 3:4 4:5 5:6 6:7",
                      "0:1 1:2 2:3 3:4 4:5 5:6 6:7",
                      "0:1 1:2 2:3 3:4 4:5 5:6 6:7",
                      "0:1 1:2 2:3 3:4 4:5 5:6 6:7")),
    ("M13", "0000"): None,
    ("M14", "0111"): ((57, 58, 54, 62),
                     ("0:2 2:4 4:5 5:7",
                      "0:1 1:3 3:4 4:6 6:8",
                      "0:2 2:3 3:4 4:6 6:8",
                      "0:2 2:3 3:4 4:5 5:6 6:8")),
    ("M14", "0100"): None,
    ("M14", "1000"): ((57, 59, 54, 62),
                     ("0:2 2:4 4:5 5:7",
                      "0:1 1:3 3:4 4:6 6:8",
                      "0:2 2:3 3:4 4:6 6:8",
                      "0:2 2:3 3:4 4:5 5:6 6:8")),
    ("M14", "0000"): None,
    ("M15", "0111"): ((59, 59, 5, 9),
                     ("0:2 2:3 3:4 4:5 5:6 6:8",
                      "0:2 2:3 3:4 4:5 5:6 6:8",
                      "0:2 2:3 3:4 4:5 5:6 6:8",
                      "0:1 1:3 3:4 4:6 6:8")),
    ("M15", "0100"): None,
    ("M15", "1000"): ((59, 59, 5, 9),
                     ("0:2 2:3 3:4 4:6 6:8",
                      "0:2 2:3 3:4 4:5 5:6 6:8",
                      "0:2 2:3 3:4 4:5 5:6 6:7",
                      "0:1 1:3 3:4 4:5 5:7")),
    ("M15", "0000"): None,
    ("M16", "0111"): ((59, 54, 36, 61),
                     ("0:1 1:3 3:4 4:5 5:7",
                      "0:2 2:3 3:4 4:5 5:6",
                      "0:2 2:3 3:4 4:5 5:7",
                      "0:1 1:2 2:3 3:4 4:5 5:6 6:7")),
    ("M16", "0100"): None,
    ("M16", "1000"): ((59, 36, 14, 61),
                     ("0:1 1:3 3:4 4:5 5:7",
                      "0:2 2:3 3:4 4:5 5:7",
                      "0:1 1:3 3:4 4:5 5:6 6:8",
                      "0:1 1:2 2:3 3:4 4:5 5:6 6:7")),
    ("M16", "0000"): None,
    ("M17", "0111"): ((22, 29, 38, 62),
                     ("0:2 2:3 3:4 4:6 6:8",
                      "0:2 2:3 3:4 4:5 5:6 6:8",
                      "0:1 1:2 2:3 3:4 4:5 5:6 6:8",
                      "0:2 2:3 3:4 4:5 5:6 6:8")),
    ("M17", "0100"): None,
    ("M17", "1000"): ((22, 59, 16, 62),
                     ("0:2 2:3 3:4 4:6 6:8",
                      "0:2 2:3 3:4 4:5 5:7",
                      "0:2 2:3 3:4 4:5 5:7",
                      "0:2 2:3 3:4 4:5 5:6 6:8")),
    ("M17", "0000"): None,
}

_ENTROPIES = Path(__file__).with_name("segment_entropies_small_2021.npy")


@pytest.fixture(scope="module")
def population():
    geometry = DramGeometry.small()
    return {spec.name: build_module(spec, geometry, 2021)
            for spec in TABLE3_SPECS}


def _characterizations(module):
    return [ModuleCharacterization(module, group, 0) for group in BANK_GROUPS]


@pytest.mark.parametrize("name", NAMES)
def test_best_segments(population, name):
    got = tuple(tuple(chars.best_segment(p) for p in PATTERNS)
                for chars in _characterizations(population[name]))
    assert got == _BEST_SEGMENT[name]


def test_segment_entropies(population):
    got = np.array([[[chars.segment_entropies(p) for p in PATTERNS]
                     for chars in _characterizations(population[name])]
                    for name in NAMES])
    np.testing.assert_allclose(got, np.load(_ENTROPIES), rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", NAMES)
def test_trng_choices(population, name):
    for pattern in PATTERNS:
        expected = _TRNG_CHOICE[(name, pattern)]
        if expected is None:
            with pytest.raises(InsufficientEntropyError):
                QuacTrng(population[name], TrngConfiguration.BGP, pattern,
                         entropy_per_block=ENTROPY_PER_BLOCK,
                         backend="serial")
            continue
        trng = QuacTrng(population[name], TrngConfiguration.BGP, pattern,
                        entropy_per_block=ENTROPY_PER_BLOCK,
                        backend="serial")
        segments, banks = expected
        slices = [tuple((int(a) * CACHE_BLOCK_BITS, int(b) * CACHE_BLOCK_BITS)
                        for a, b in (pair.split(":") for pair in bank.split()))
                  for bank in banks]
        assert tuple(s.segment for s in trng.segments) == segments
        assert [task.block_slices for task in trng.plan_batch(1)] == slices

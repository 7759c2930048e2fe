"""Entropy-model calibration."""

import numpy as np
import pytest

import repro.dram.calibration as calibration
import repro.dram.variation as variation
from repro.dram.calibration import (C_H, calibrate_offset_zeta,
                                    expected_bitline_entropy,
                                    expected_bitline_entropy_fast)
from repro.controller.rowclone import check_rowclone_pattern
from repro.dram.device import cells_for_pattern, parse_data_pattern
from repro.dram.geometry import CACHE_BLOCK_BITS, DramGeometry
from repro.dram.module_factory import TABLE3_SPECS, build_module, spec_by_name
from repro.dram.timing import speed_grade
from repro.dram.variation import VariationModel, VariationParameters
from repro.entropy.characterization import ModuleCharacterization
from repro.errors import CharacterizationError, ConfigurationError
from repro.softmc.program import row_initialization_program


class TestExpectedEntropy:
    def test_decreases_with_zeta(self):
        h = expected_bitline_entropy(np.array([10.0, 40.0, 160.0]))
        assert h[0] > h[1] > h[2]

    def test_shift_suppresses_entropy(self):
        base = expected_bitline_entropy(np.array([40.0]), 0.0)[0]
        shifted = expected_bitline_entropy(np.array([40.0]), 80.0)[0]
        assert shifted < base / 2

    def test_inverse_scaling_regime(self):
        # For large zeta, h ~ C_H / (sqrt(2 pi) zeta).
        h = expected_bitline_entropy(np.array([200.0]))[0]
        approx = C_H / (np.sqrt(2 * np.pi) * 200.0)
        assert h == pytest.approx(approx, rel=0.02)

    def test_rejects_nonpositive_zeta(self):
        with pytest.raises(CharacterizationError):
            expected_bitline_entropy(np.array([0.0]))

    def test_fast_matches_exact_for_moderate_zeta(self):
        zetas = np.array([8.0, 15.0, 40.0, 120.0])
        for shift in (0.0, 20.0, 60.0):
            exact = expected_bitline_entropy(zetas, shift)
            fast = expected_bitline_entropy_fast(zetas, shift)
            # Deep-tail values (entropies < 1e-6 bits) may disagree
            # relatively but are irrelevant absolutely.
            np.testing.assert_allclose(fast, exact, rtol=0.06, atol=1e-6)

    def test_fast_broadcasts(self):
        zetas = np.ones((3, 4)) * 40.0
        shifts = np.array([[0.0], [10.0], [20.0]])
        out = expected_bitline_entropy_fast(zetas, shifts)
        assert out.shape == (3, 4)
        assert (out[0] > out[1]).all() and (out[1] > out[2]).all()


class TestCalibration:
    def test_hits_target(self, small_geometry):
        params = VariationParameters()
        target = 120.0
        calibrated, achieved = calibrate_offset_zeta(
            small_geometry, seed=7, params=params,
            target_avg_segment_entropy=target)
        assert achieved == pytest.approx(target, rel=0.02)
        assert calibrated.offset_zeta > 0

    def test_higher_target_means_lower_zeta(self, small_geometry):
        params = VariationParameters()
        low, _ = calibrate_offset_zeta(small_geometry, 7, params, 60.0)
        high, _ = calibrate_offset_zeta(small_geometry, 7, params, 200.0)
        assert high.offset_zeta < low.offset_zeta

    def test_unreachable_target_raises(self, small_geometry):
        with pytest.raises(CharacterizationError):
            calibrate_offset_zeta(small_geometry, 7, VariationParameters(),
                                  1e9)

    def test_rejects_nonpositive_target(self, small_geometry):
        with pytest.raises(CharacterizationError):
            calibrate_offset_zeta(small_geometry, 7, VariationParameters(),
                                  0.0)

    def test_fields_are_drawn_once_per_calibration(self, small_geometry,
                                                   monkeypatch):
        # The segment profile takes three draws and each sampled segment
        # two (column roughness, row weights), however many bisection
        # steps the target needs.
        draws, integrals = [], []
        generator_for = variation.generator_for
        integral = calibration.expected_bitline_entropy

        def counted_generator_for(*args):
            draws.append(args)
            return generator_for(*args)

        def counted_integral(*args):
            integrals.append(args)
            return integral(*args)

        monkeypatch.setattr(variation, "generator_for", counted_generator_for)
        monkeypatch.setattr(calibration, "expected_bitline_entropy",
                            counted_integral)
        counts = {}
        for target in (60.0, 200.0):
            draws.clear()
            integrals.clear()
            calibrate_offset_zeta(small_geometry, 7, VariationParameters(),
                                  target)
            counts[target] = (len(draws), len(integrals))
        sampled = 48
        assert counts[60.0][0] == counts[200.0][0] == 3 + 2 * sampled
        assert counts[60.0][1] != counts[200.0][1]

    def test_characterization_draws_each_segment_once(self, module_m4,
                                                      monkeypatch):
        # A characterization draws the bank's segment profile (three
        # draws) and each segment's column roughness and row weights
        # once, however many patterns it is asked about.
        draws = []
        generator_for = variation.generator_for

        def counted_generator_for(*args):
            draws.append(args)
            return generator_for(*args)

        monkeypatch.setattr(variation, "generator_for", counted_generator_for)
        chars = ModuleCharacterization(module_m4, 1, 0)
        for pattern in ("0111", "0100", "0000"):
            chars.segment_entropies(pattern)
        segments = module_m4.geometry.segments_per_bank
        assert len(draws) == 3 + 2 * segments

    def test_expected_segment_entropy_matches_sampled(self, module_m4,
                                                      small_geometry):
        # The analytic expectation should agree with the sampled-offset
        # entropy map within sampling noise.
        model = module_m4.variation
        segment = 10
        scales = model.block_scales(0, 0, [segment])[0]
        shift = model.pattern_shift(model.row_charge_weights(0, 0, segment, 0),
                                    parse_data_pattern("0111"))
        h = expected_bitline_entropy(model.params.offset_zeta / scales, shift)
        expected = float((h * CACHE_BLOCK_BITS).sum())
        addr = small_geometry.segment_address(0, 0, segment)
        sampled = float(module_m4.segment_entropy_map(addr, "0111").sum())
        assert sampled == pytest.approx(expected, rel=0.25)


#: Each entry point that takes a data pattern, as ``(fixtures, pattern)``.
_PATTERN_ENTRY_POINTS = {
    "calibrate_offset_zeta": lambda f, p: calibrate_offset_zeta(
        f["geometry"], 7, VariationParameters(), 120.0, pattern=p),
    "segment_entropies": lambda f, p: f["chars"].segment_entropies(p),
    "cells_for_pattern": lambda f, p: cells_for_pattern(p, 16),
    "check_rowclone_pattern": lambda f, p: check_rowclone_pattern(p),
    "row_initialization_program": lambda f, p: row_initialization_program(
        f["geometry"], speed_grade(2400),
        f["geometry"].segment_address(0, 0, 1), p),
}


@pytest.mark.parametrize("pattern", ["01x1", "011", "01111", "0121", ""])
@pytest.mark.parametrize("entry_point", sorted(_PATTERN_ENTRY_POINTS))
def test_malformed_pattern_is_refused_before_any_draw(
        entry_point, pattern, module_m4, small_geometry, monkeypatch):
    fixtures = {"geometry": small_geometry,
                "chars": ModuleCharacterization(module_m4)}
    draws = []
    generator_for = variation.generator_for

    def counted_generator_for(*args):
        draws.append(args)
        return generator_for(*args)

    monkeypatch.setattr(variation, "generator_for", counted_generator_for)
    with pytest.raises(ConfigurationError, match="4 chars of 0/1"):
        _PATTERN_ENTRY_POINTS[entry_point](fixtures, pattern)
    assert draws == []


@pytest.mark.parametrize("n_sample_segments", [0, -1])
def test_no_sample_segment_is_refused_before_any_draw(
        n_sample_segments, small_geometry, monkeypatch):
    draws = []
    generator_for = variation.generator_for

    def counted_generator_for(*args):
        draws.append(args)
        return generator_for(*args)

    monkeypatch.setattr(variation, "generator_for", counted_generator_for)
    with pytest.raises(ConfigurationError, match="n_sample_segments"):
        calibrate_offset_zeta(small_geometry, 7, VariationParameters(),
                              120.0, n_sample_segments=n_sample_segments)
    assert draws == []


#: Calibrated ``offset_zeta`` of every Table 3 module at
#: ``DramGeometry.small()``, root seed 2021, as exact float hex.
_SMALL_2021_ZETA = {
    "M1": "0x1.30c6000000000p+5", "M2": "0x1.ada6000000000p+5",
    "M3": "0x1.a5d8000000000p+5", "M4": "0x1.3894000000000p+5",
    "M5": "0x1.3894000000000p+5", "M6": "0x1.a5d8000000000p+5",
    "M7": "0x1.ada6000000000p+5", "M8": "0x1.7ed2000000000p+5",
    "M9": "0x1.ccde000000000p+5", "M10": "0x1.a5d8000000000p+5",
    "M11": "0x1.b574000000000p+5", "M12": "0x1.4ffe000000000p+5",
    "M13": "0x1.118e000000000p+5", "M14": "0x1.7ed2000000000p+5",
    "M15": "0x1.4c17000000000p+5", "M16": "0x1.28f8000000000p+5",
    "M17": "0x1.28f8000000000p+5",
}

#: The hostbench population (64 segments, 8 cache blocks, root seed 1).
_HOSTBENCH_ZETA = {
    "M13": "0x1.118e000000000p+5", "M4": "0x1.4062000000000p+5",
    "M15": "0x1.3894000000000p+5", "M1": "0x1.28f8000000000p+5",
}

#: Full scale, root seed 2021.
_FULL_SCALE_ZETA = {
    "M1": "0x1.30c6000000000p+5", "M13": "0x1.118e000000000p+5",
}


class TestCalibrationPins:
    """A module's silicon is a pure function of its spec and seed.

    These pins hold every calibrated ``offset_zeta`` to the exact float,
    so a faster calibration must land on the same bisection midpoint,
    not merely near it.
    """

    def test_table3_at_small_geometry(self):
        geometry = DramGeometry.small()
        got = {spec.name: build_module(spec, geometry, 2021)
               .variation.params.offset_zeta.hex() for spec in TABLE3_SPECS}
        assert got == _SMALL_2021_ZETA

    def test_hostbench_population(self):
        geometry = DramGeometry.small(segments_per_bank=64,
                                      cache_blocks_per_row=8)
        got = {name: build_module(spec_by_name(name), geometry, 1)
               .variation.params.offset_zeta.hex() for name in _HOSTBENCH_ZETA}
        assert got == _HOSTBENCH_ZETA

    def test_full_scale(self):
        got = {name: build_module(spec_by_name(name))
               .variation.params.offset_zeta.hex() for name in _FULL_SCALE_ZETA}
        assert got == _FULL_SCALE_ZETA

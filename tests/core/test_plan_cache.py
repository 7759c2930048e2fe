"""The planner's per-slot plan cache (``QuacExecutor.plan_direct``).

A segment's settling probabilities depend on the module's operating
point (``temperature_c``, ``age_days``) and on inputs fixed when the
module is built, so the executor keeps one plan per planned slot -- the
probability vector and its lane thresholds -- and rebuilds it in place
when the operating point moves.  These tests pin that contract: every
plan equals a fresh computation at the current operating point, plans
of one slot share one read-only vector and threshold pair, the cache
holds one entry per slot whatever the readings, and a generator whose
cache is emptied before every draw serves the same bytes.
"""

import numpy as np
import pytest

from repro.core.temperature_manager import TemperatureManagedTrng
from repro.core.trng import QuacTrng
from repro.dram.module_factory import build_module, spec_by_name
from repro.dram.sense_amplifier import settle_thresholds

#: Operating points walked between draws: a swing across every default
#: temperature range, back, and one ageing step.
OPERATING_POINTS = ((50.0, 0), (80.0, 0), (63.25, 0), (50.0, 0),
                    (50.0, 30), (88.5, 30))


@pytest.fixture()
def module(small_geometry):
    """A fresh M13 module: these tests move its temperature and age."""
    return build_module(spec_by_name("M13"), small_geometry)


def _quac(module, entropy_scale):
    return QuacTrng(module, entropy_per_block=256.0 * entropy_scale)


def _managed(module, entropy_scale):
    return TemperatureManagedTrng(module,
                                  entropy_per_block=256.0 * entropy_scale)


GENERATORS = {"quac": _quac, "managed": _managed}


def _record_plans(executor):
    """Wrap ``executor.plan_direct`` to log each plan beside a fresh
    computation of its probabilities at the current operating point."""
    plans = []
    planned = executor.plan_direct

    def plan_direct(segment, pattern, first_position=0, iterations=1):
        key, p, thresholds, first = planned(segment, pattern,
                                            first_position, iterations)
        fresh = executor.module.segment_probabilities(segment, pattern,
                                                      first_position)
        plans.append(((segment.bank_group, segment.bank, segment.segment),
                      pattern, first_position, (p, thresholds), fresh,
                      executor.module.temperature_c))
        return key, p, thresholds, first

    executor.plan_direct = plan_direct
    return plans


def _set_point(module, temperature_c, age_days):
    module.temperature_c = temperature_c
    module.age_days = age_days


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_every_plan_matches_a_fresh_computation(kind, module,
                                                entropy_scale):
    trng = GENERATORS[kind](module, entropy_scale)
    plans = _record_plans(trng.executor)
    for temperature_c, age_days in OPERATING_POINTS:
        _set_point(module, temperature_c, age_days)
        start = len(plans)
        trng.random_bytes(4096)
        assert len(plans) > start
        for _, _, _, (p, (hi, lo)), fresh, _ in plans[start:]:
            np.testing.assert_array_equal(p, fresh)
            want_hi, want_lo = settle_thresholds(fresh)
            np.testing.assert_array_equal(hi, want_hi)
            np.testing.assert_array_equal(lo, want_lo)


def test_plans_of_one_slot_share_one_read_only_vector(module,
                                                      entropy_scale):
    trng = _quac(module, entropy_scale)
    segment = trng.segments[0]
    _, first_p, first_t, _ = trng.executor.plan_direct(segment,
                                                       trng.data_pattern)
    _, second_p, second_t, _ = trng.executor.plan_direct(segment,
                                                         trng.data_pattern)
    assert second_p is first_p and second_t is first_t
    for array in (first_p, *first_t):
        assert array.flags.writeable is False
        with pytest.raises(ValueError):
            array[0] = 1
    tasks = trng.plan_batch(2)
    assert tasks[0].thresholds is first_t


def test_an_operating_point_change_rebuilds_the_plan(module,
                                                     entropy_scale):
    trng = _quac(module, entropy_scale)
    segment = trng.segments[0]
    _, cold, cold_t, _ = trng.executor.plan_direct(segment,
                                                   trng.data_pattern)
    module.temperature_c = 85.0
    _, hot, hot_t, _ = trng.executor.plan_direct(segment, trng.data_pattern)
    assert hot is not cold and hot_t is not cold_t
    assert not np.array_equal(hot, cold)
    assert not np.array_equal(hot_t.hi, cold_t.hi)
    module.temperature_c = 50.0
    _, back, back_t, _ = trng.executor.plan_direct(segment,
                                                   trng.data_pattern)
    np.testing.assert_array_equal(back, cold)
    np.testing.assert_array_equal(back_t.lo, cold_t.lo)


def test_the_table1_probabilities_are_the_callers_own(module,
                                                      entropy_scale):
    trng = _quac(module, entropy_scale)
    segment = trng.segments[0]
    _, planned, _, _ = trng.executor.plan_direct(segment,
                                                 trng.data_pattern)
    owned = trng.executor.probabilities(segment, trng.data_pattern)
    assert owned is not planned
    assert owned.flags.writeable
    np.testing.assert_array_equal(owned, planned)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_one_entry_per_slot_after_100_temperatures(kind, module,
                                                   entropy_scale):
    trng = GENERATORS[kind](module, entropy_scale)
    plans = _record_plans(trng.executor)
    for temperature_c in np.linspace(40.0, 94.0, 100):
        module.temperature_c = float(temperature_c)
        trng.random_bytes(4096)
    assert len({plan[-1] for plan in plans}) == 100
    slots = {(coords, pattern, first_position)
             for coords, pattern, first_position, _, _, _ in plans}
    assert len(slots) >= len(trng.sib_per_bank)
    assert set(trng.executor._plans) == slots


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_an_uncached_twin_serves_the_same_bytes(kind, small_geometry,
                                                entropy_scale):
    cached_module = build_module(spec_by_name("M13"), small_geometry)
    twin_module = build_module(spec_by_name("M13"), small_geometry)
    cached = GENERATORS[kind](cached_module, entropy_scale)
    twin = GENERATORS[kind](twin_module, entropy_scale)
    for temperature_c, age_days in OPERATING_POINTS:
        _set_point(cached_module, temperature_c, age_days)
        _set_point(twin_module, temperature_c, age_days)
        twin.executor._plans.clear()
        assert cached.random_bytes(4096) == twin.random_bytes(4096)

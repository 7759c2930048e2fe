"""The paper's 17-module DDR4 population (Appendix A, Table 3).

Each :class:`ModuleSpec` records one row of Table 3: module / chip
identifiers, speed grade, organization, and the measured average and
maximum segment entropy (plus the 30-day re-measurement where the paper
reports one).  :func:`build_module` turns a spec into a simulated
:class:`~repro.dram.device.DramModule` whose variation model is
calibrated so its *expected* average segment entropy matches the
measurement; the spatial fields then spread per-segment entropies around
that average, giving each module its own maximum.

Scaled-down geometries (for tests) scale the entropy targets by the
row-width ratio, preserving per-bitline statistics exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.dram.calibration import calibrate_offset_zeta
from repro.dram.device import DramModule
from repro.dram.geometry import DramGeometry
from repro.dram.timing import speed_grade
from repro.dram.variation import VariationModel, VariationParameters
from repro.rng import derive_key

#: Bitlines per full-scale module-level row; Table 3 entropies are quoted
#: against this width (64K bitlines per segment).
_FULL_SCALE_ROW_BITS = 65536


@dataclass(frozen=True)
class ModuleSpec:
    """One row of the paper's Table 3."""

    name: str
    module_identifier: str
    chip_identifier: str
    freq_mts: int
    size_gb: int
    avg_segment_entropy: float
    max_segment_entropy: float
    avg_segment_entropy_30d: Optional[float] = None

    @property
    def chips(self) -> int:
        """All modules in the population carry eight x8 chips."""
        return 8


#: Table 3, verbatim.  Entropy columns are for the "0111" data pattern.
TABLE3_SPECS: List[ModuleSpec] = [
    ModuleSpec("M1", "Unknown", "H5AN4G8NAFR-TFC", 2133, 4, 1688.1, 2247.4),
    ModuleSpec("M2", "Unknown", "Unknown", 2133, 4, 1180.4, 1406.1),
    ModuleSpec("M3", "Unknown", "H5AN4G8NAFR-TFC", 2133, 4, 1205.0, 1858.3,
               1192.9),
    ModuleSpec("M4", "76TT21NUS1R8-4G", "H5AN4G8NAFR-TFC", 2133, 4, 1608.1,
               2406.5, 1588.0),
    ModuleSpec("M5", "Unknown", "T4D5128HT-21", 2133, 4, 1618.2, 2121.6),
    ModuleSpec("M6", "TLRD44G2666HC18F-SBK", "H5AN4G8NMFR-VKC", 2666, 4,
               1211.5, 1444.6),
    ModuleSpec("M7", "TLRD44G2666HC18F-SBK", "H5AN4G8NMFR-VKC", 2666, 4,
               1177.7, 1404.4),
    ModuleSpec("M8", "TLRD44G2666HC18F-SBK", "H5AN4G8NMFR-VKC", 2666, 4,
               1332.9, 1600.9, 1407.0),
    ModuleSpec("M9", "TLRD44G2666HC18F-SBK", "H5AN4G8NMFR-VKC", 2666, 4,
               1137.1, 1370.9),
    ModuleSpec("M10", "TLRD44G2666HC18F-SBK", "H5AN4G8NMFR-VKC", 2666, 4,
               1208.5, 1473.2, 1251.8),
    ModuleSpec("M11", "TLRD44G2666HC18F-SBK", "H5AN4G8NMFR-VKC", 2666, 4,
               1176.0, 1382.9, 1165.1),
    ModuleSpec("M12", "TLRD44G2666HC18F-SBK", "H5AN4G8NMFR-VKC", 2666, 4,
               1485.0, 1740.6),
    ModuleSpec("M13", "KSM32RD8/16HDR", "H5AN4G8NAFA-UHC", 2400, 4, 1853.5,
               2849.6),
    ModuleSpec("M14", "F4-2400C17S-8GNT", "H5AN4G8NMFR-UHC", 2400, 8, 1369.3,
               1942.2),
    ModuleSpec("M15", "F4-2400C17S-8GNT", "H5AN4G8NMFR-UHC", 3200, 8, 1545.8,
               2147.2),
    ModuleSpec("M16", "KSM32RD8/16HDR", "H5AN8G8NDJR-XNC", 3200, 16, 1634.4,
               1944.6),
    ModuleSpec("M17", "KSM32RD8/16HDR", "H5AN8G8NDJR-XNC", 3200, 16, 1664.7,
               2016.6),
]

#: Total chips in the population; the paper's headline "136 DDR4 chips".
TOTAL_CHIPS = sum(spec.chips for spec in TABLE3_SPECS)


def spec_by_name(name: str) -> ModuleSpec:
    """Look up a Table 3 module by its name (``"M1"``..``"M17"``)."""
    for spec in TABLE3_SPECS:
        if spec.name == name:
            return spec
    raise KeyError(f"no module named {name!r} in Table 3")


def build_module(spec: ModuleSpec, geometry: Optional[DramGeometry] = None,
                 root_seed: int = 2021,
                 params: VariationParameters = VariationParameters(),
                 ) -> DramModule:
    """Build a simulated module matching a Table 3 spec.

    The module's seed derives from (root_seed, spec name), so the same
    spec always produces the same "silicon".  The variation model's
    ``offset_zeta`` is calibrated so the expected average segment entropy
    (pattern "0111") matches the spec, scaled to the geometry's row width.
    The calibration draws each sampled segment's variation fields once;
    each bisection step then re-evaluates only the entropy integral.
    """
    geometry = geometry or DramGeometry.full_scale()
    seed = derive_key(root_seed, "module", _module_index(spec))[0]
    scale = geometry.row_bits / _FULL_SCALE_ROW_BITS
    target = spec.avg_segment_entropy * scale
    params = _shape_tail(params, geometry, seed,
                         spec.max_segment_entropy / spec.avg_segment_entropy)
    calibrated, _achieved = calibrate_offset_zeta(
        geometry, seed, params, target)
    module = DramModule(geometry, speed_grade(spec.freq_mts), seed,
                        variation=calibrated, name=spec.name)
    return module


def _shape_tail(params: VariationParameters, geometry: DramGeometry,
                seed: int, target_ratio: float) -> VariationParameters:
    """Choose ``profile_exponent`` so max/avg segment entropy ~ Table 3.

    Segment entropy is, to first order, linear in the spatial profile
    factor, so matching the profile's max/mean ratio to the module's
    measured max/avg entropy ratio (with a small deflation for the extra
    spread contributed by column roughness and charge-weight jitter)
    lands the per-module maximum close to the measurement.
    """
    probe = VariationModel(geometry, seed, params)
    profile = probe.segment_entropy_profile(0, 0)
    # Exclude repair collapses: they drag the mean but never set the max.
    usable = profile[profile > 0.5 * profile.mean()]
    base_ratio = float(usable.max() / usable.mean())
    if base_ratio <= 1.0:
        return params
    deflated_target = max(1.02, target_ratio * 0.93)
    exponent = float(np.log(deflated_target) / np.log(base_ratio))
    exponent = float(np.clip(exponent, 0.25, 4.0))
    return replace(params, profile_exponent=exponent)


def build_table3_population(geometry: Optional[DramGeometry] = None,
                            root_seed: int = 2021,
                            names: Optional[List[str]] = None,
                            ) -> List[DramModule]:
    """Build the full 17-module population (or a named subset).

    Parameters
    ----------
    geometry:
        Shared geometry; defaults to full scale.  Tests pass
        ``DramGeometry.small()`` to keep runtimes short.
    names:
        Optional subset, e.g. ``["M1", "M2", "M13"]``.
    """
    specs = TABLE3_SPECS if names is None else [spec_by_name(n) for n in names]
    return [build_module(spec, geometry, root_seed) for spec in specs]


def _module_index(spec: ModuleSpec) -> int:
    return int(spec.name[1:])

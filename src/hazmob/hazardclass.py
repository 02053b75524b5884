"""Binary high-hazard masks from raw hazard values.

Air pollution and toxic layers carry percentile ranks and are masked by
a strict > threshold comparison. Heat layers carry per-tract heat-day
counts and are masked per county: tracts at or above the county's 75th
percentile (linear interpolation between order statistics, (n+1)
plotting positions). Counties with fewer than 4 tracts mask only their
maximum tract.
"""

from __future__ import annotations

import logging

from .model import HazardLayer, TractTable, county_fips

logger = logging.getLogger(__name__)


class ClassifyError(Exception):
    """Raised for invalid classification configuration."""


def percentile_interpolated(sorted_values: list[float], q: float) -> float:
    """Quantile via linear interpolation at plotting position q*(n+1).

    This is the method whose 0.75 quantile of [10, 20, 30, 40] is 37.5.
    """
    n = len(sorted_values)
    if n == 0:
        raise ValueError("empty sample")
    h = q * (n + 1)
    if h <= 1:
        return sorted_values[0]
    if h >= n:
        return sorted_values[-1]
    k = int(h)  # 1-based rank of the lower order statistic
    frac = h - k
    lo = sorted_values[k - 1]
    hi = sorted_values[k]
    return lo + frac * (hi - lo)


def classify_percentile(layer: HazardLayer, threshold: float = 0.5) -> HazardLayer:
    """Mask percentile-ranked tracts with value strictly above threshold."""
    if layer.hazard_type not in ("air_pollution", "toxic"):
        raise ClassifyError(f"percentile classification does not apply to {layer.hazard_type!r}")
    if not 0.0 <= threshold <= 1.0:
        raise ClassifyError(f"threshold {threshold} outside [0, 1]")
    mask = {g: v > threshold for g, v in layer.values.items()}
    return HazardLayer(hazard_type=layer.hazard_type, values=dict(layer.values), mask=mask)


def classify_heat_quartile(layer: HazardLayer, tracts: TractTable) -> HazardLayer:
    """Mask the top heat-day quartile of each county's tracts."""
    if layer.hazard_type != "heat":
        raise ClassifyError(f"heat classification does not apply to {layer.hazard_type!r}")
    known = tracts.position
    by_county: dict[str, list[str]] = {}
    for geoid in layer.values:
        if geoid not in known:
            logger.warning("heat layer geoid %s not in tract list; skipped", geoid)
            continue
        by_county.setdefault(county_fips(geoid), []).append(geoid)

    mask: dict[str, bool] = {}
    for county, geoids in by_county.items():
        values = [layer.values[g] for g in geoids]
        if len(geoids) < 4:
            # Too small for quartiles: mask the single maximum tract
            # (ties resolve to the smallest geoid).
            top = min(geoids, key=lambda g: (-layer.values[g], g))
            for g in geoids:
                mask[g] = g == top
            continue
        cutoff = percentile_interpolated(sorted(values), 0.75)
        for g in geoids:
            mask[g] = layer.values[g] >= cutoff
    return HazardLayer(hazard_type="heat", values=dict(layer.values), mask=mask)

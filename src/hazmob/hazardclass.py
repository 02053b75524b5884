"""Binary high-hazard masks from raw hazard values.

Each classifier returns one bool column aligned with the tract geoids it
is given; a tract absent from the layer is not masked. Air pollution and
toxic layers carry percentile ranks and are masked by a strict > threshold
comparison. Heat layers carry per-tract heat-day counts and are masked per
county, all counties in one sort: tracts at or above the county's 75th
percentile (linear interpolation between order statistics, (n+1) plotting
positions; the scalar oracle is percentile_interpolated() in
tests/conftest.py). Counties with fewer than 4 tracts mask only their
maximum tract.
"""

from __future__ import annotations

import logging
from typing import Sequence

import numpy as np

from .model import HazardLayer, positions, run_heads

logger = logging.getLogger(__name__)


class ClassifyError(Exception):
    """Raised for invalid classification configuration."""


def classify_percentile(layer: HazardLayer, geoids: Sequence[str], threshold: float = 0.5) -> np.ndarray:
    """Per tract of geoids: whether its percentile rank lies strictly above threshold."""
    if layer.hazard_type not in ("air_pollution", "toxic"):
        raise ClassifyError(f"percentile classification does not apply to {layer.hazard_type!r}")
    if not 0.0 <= threshold <= 1.0:
        raise ClassifyError(f"threshold {threshold} outside [0, 1]")
    code = positions(layer.geoids, geoids)
    mask = np.zeros(len(geoids), dtype=bool)
    mask[code[code >= 0]] = layer.values[code >= 0] > threshold
    return mask


def classify_heat_quartile(layer: HazardLayer, geoids: Sequence[str]) -> np.ndarray:
    """Per tract of geoids: whether it is in the top heat-day quartile of its county."""
    if layer.hazard_type != "heat":
        raise ClassifyError(f"heat classification does not apply to {layer.hazard_type!r}")
    code = positions(layer.geoids, geoids)
    for geoid in layer.geoids[code < 0].tolist():
        logger.warning("heat layer geoid %s not in tract list; skipped", geoid)
    known = code >= 0
    names, values, code = layer.geoids[known], layer.values[known], code[known]

    # Each county's tracts in descending value order, ties by ascending
    # geoid: a county's first tract is its maximum with the smallest geoid.
    county = names.astype("U5")
    order = np.lexsort((names, -values, county))
    county, values, code = county[order], values[order], code[order]
    head = run_heads(county)
    n = np.diff(np.r_[head, len(county)])
    # Plotting position h = 0.75 (n + 1) between the ascending order
    # statistics k and k + 1 (1-based), at head + n - k and head + n - k - 1
    # in descending order; counties under 4 tracts have no such pair.
    h = 0.75 * (n + 1)
    k = np.floor(h).astype(np.int64)
    big = n >= 4
    lo, hi = values[head + n - k], values[np.maximum(head + n - k - 1, 0)]
    cutoff = np.where(big, lo + (h - k) * (hi - lo), 0.0)
    masked = np.repeat(big, n) & (values >= np.repeat(cutoff, n))
    masked[head[~big]] = True

    mask = np.zeros(len(geoids), dtype=bool)
    mask[code[masked]] = True
    return mask

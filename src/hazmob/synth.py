"""Synthetic worlds with planted ground truth.

A world is a square grid of unit-square tracts (one county per grid
row), three hazard layers, demographics, and a month of stop records for
a population of users. Every user has a planted home tract; nighttime
stops are forced to the home tract so home inference can recover the
plant, and daytime stops are drawn from a distance-decay law. The
generator also produces the exact expected exposure index per tract by
enumerating the destination distribution, which is the oracle the
pipeline is validated against.

Separate named random streams cover hazards, demographics, and stops, so
changing the user count never perturbs the hazard fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hazardclass import classify_heat_quartile, classify_percentile
from .model import HAZARD_TYPES, HazardLayer, Stops, TractTable

# 2019-04-01T00:00:00Z; the synthetic month spans 30 days from here.
MONTH_START_TS = 1554076800
MONTH_DAYS = 30

NIGHTS_PER_USER = 8
NIGHT_DWELL = (21600, 25200)  # rng.integers bounds, mean 23399.5 s
DAY_DWELL = (1800, 5400)  # mean 3599.5 s
HEAT_DAYS_MAX = 90

# Archetype mode: probability mass a day stop leaves the home tract.
ARCHETYPE_CROSS_RATE = 0.05

# Percentile rank above which a tract counts as high-hazard for the
# demographic plant (air/toxic; heat uses its county quartile mask).
DEMO_PLANT_QUANTILE = 0.8

_STREAM_HAZARD = 0
_STREAM_DEMO = 1
_STREAM_STOPS = 2
_STREAM_ARCHETYPE = 3


class SynthConfigError(Exception):
    """Raised for impossible world configurations."""


@dataclass(frozen=True, slots=True)
class WorldConfig:
    seed: int
    grid_n: int = 10
    hazard_autocorr: int = 2
    decay_alpha: float = 2.5
    users: int = 100
    stops_per_user: int = 50
    archetype_mode: bool = False
    demo_hazard_gain: float = 0.0
    hazard_overlap: float = 0.0  # 0 = independent hazard fields, 1 = identical

    def check(self) -> None:
        if self.seed < 0:
            raise SynthConfigError("seed must be >= 0")
        if not 1 <= self.grid_n <= 64:
            raise SynthConfigError("grid_n must be in [1, 64]")
        if self.hazard_autocorr < 0:
            raise SynthConfigError("hazard_autocorr must be >= 0")
        if not 0 < self.decay_alpha < math.inf:
            raise SynthConfigError("decay_alpha must be positive and finite")
        if not math.isfinite(self.demo_hazard_gain):
            raise SynthConfigError("demo_hazard_gain must be finite")
        if self.users < 1:
            raise SynthConfigError("users must be >= 1")
        if self.stops_per_user < 0:
            raise SynthConfigError("stops_per_user must be >= 0")
        if not 0.0 <= self.hazard_overlap <= 1.0:
            raise SynthConfigError("hazard_overlap must lie in [0, 1]")
        if self.archetype_mode and (self.grid_n < 16 or self.grid_n % 4):
            raise SynthConfigError("archetype_mode requires grid_n >= 16 and divisible by 4")


@dataclass(frozen=True, slots=True)
class PlantedTruth:
    """Ground truth the generator committed to while sampling."""

    homes: dict[str, str]
    masks: dict[str, frozenset[str]]
    expected_mei: dict[str, dict[str, float]]
    archetype_labels: dict[str, int] | None


@dataclass(frozen=True, slots=True)
class World:
    config: WorldConfig
    tracts: TractTable
    layers: dict[str, HazardLayer]  # values only; masks live in the truth
    stops: Stops  # line numbers are those of the written stops.csv
    truth: PlantedTruth = field(repr=False)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def _geoid(row: int, col: int) -> str:
    return f"48{row:03d}{col:06d}"


def _box_smooth(grid: np.ndarray, radius: int) -> np.ndarray:
    """Mean filter with a (2r+1)^2 window, truncated at the edges."""
    if radius <= 0:
        return grid
    n = grid.shape[0]
    padded = np.zeros((n + 1, n + 1))
    padded[1:, 1:] = np.cumsum(np.cumsum(grid, axis=0), axis=1)
    out = np.empty_like(grid)
    for i in range(n):
        lo_i, hi_i = max(0, i - radius), min(n, i + radius + 1)
        for j in range(n):
            lo_j, hi_j = max(0, j - radius), min(n, j + radius + 1)
            total = (
                padded[hi_i, hi_j]
                - padded[lo_i, hi_j]
                - padded[hi_i, lo_j]
                + padded[lo_i, lo_j]
            )
            out[i, j] = total / ((hi_i - lo_i) * (hi_j - lo_j))
    return out


def _percentile_rank(flat: np.ndarray) -> np.ndarray:
    """Midpoint percentile ranks in (0, 1); never exactly 0.5 for even n."""
    order = np.argsort(flat, kind="stable")
    ranks = np.empty(len(flat), dtype=float)
    ranks[order] = np.arange(len(flat))
    return (ranks + 0.5) / len(flat)


def _quota_split(total: int, weights: list[int]) -> list[int]:
    """Split total into len(weights) parts proportional to integer weights."""
    parts = [total * w // sum(weights) for w in weights]
    short = total - sum(parts)
    for i in range(short):
        parts[i % len(parts)] += 1
    return parts


def _archetype_bits(config: WorldConfig, rng: np.random.Generator) -> np.ndarray:
    """Plant one of 8 mask combinations per tract.

    Heat bits are exactly the per-county count that the top-quartile rule
    reproduces; the all-three-high combination is the largest archetype.
    """
    n = config.grid_n
    total = n * n
    bits = np.zeros((total, 3), dtype=int)  # columns: air, toxic, heat
    heat_per_county = n // 4  # n % 4 == 0 enforced by check()
    heat_idx: list[int] = []
    for row in range(n):
        cols = rng.permutation(n)[:heat_per_county]
        heat_idx.extend(row * n + c for c in sorted(cols))
    heat_set = set(heat_idx)
    cold_idx = [i for i in range(total) if i not in heat_set]
    bits[heat_idx, 2] = 1

    minor = max(4, total // 64)
    n_all_high = len(heat_idx) - 3 * minor
    cold_quota = _quota_split(len(cold_idx), [1, 1, 1, 1])
    if n_all_high <= max(cold_quota) + 1:
        raise SynthConfigError("grid too small to make the all-high archetype dominant")

    heat_order = rng.permutation(len(heat_idx))
    for pos, which in enumerate(heat_order):
        idx = heat_idx[which]
        if pos < n_all_high:
            bits[idx, 0] = bits[idx, 1] = 1
        elif pos < n_all_high + minor:
            bits[idx, 0] = 1  # air + heat
        elif pos < n_all_high + 2 * minor:
            bits[idx, 1] = 1  # toxic + heat
        # remainder: heat only
    cold_order = rng.permutation(len(cold_idx))
    combo_bits = [(1, 1), (1, 0), (0, 1), (0, 0)]
    bounds = np.cumsum(cold_quota)
    for pos, which in enumerate(cold_order):
        idx = cold_idx[which]
        slot = int(np.searchsorted(bounds, pos, side="right"))
        bits[idx, 0], bits[idx, 1] = combo_bits[slot]
    return bits


def _hazard_layers(config: WorldConfig, rng: np.random.Generator, bits: np.ndarray | None):
    """Generate the three hazard value fields (and heat counts)."""
    n = config.grid_n
    total = n * n
    values: dict[str, np.ndarray] = {}
    if bits is None:
        shared = rng.random((n, n))
        for h in HAZARD_TYPES:
            own = rng.random((n, n))
            noise = config.hazard_overlap * shared + (1.0 - config.hazard_overlap) * own
            field_ = _box_smooth(noise, config.hazard_autocorr)
            pct = _percentile_rank(field_.ravel())
            if h == "heat":
                values[h] = np.rint(HEAT_DAYS_MAX * pct)
            else:
                values[h] = pct
    else:
        air = np.where(bits[:, 0] == 1, rng.uniform(0.55, 0.95, total), rng.uniform(0.05, 0.45, total))
        toxic = np.where(bits[:, 1] == 1, rng.uniform(0.55, 0.95, total), rng.uniform(0.05, 0.45, total))
        heat = np.where(bits[:, 2] == 1, rng.integers(60, 91, total), rng.integers(0, 31, total))
        values = {"air_pollution": air, "toxic": toxic, "heat": heat.astype(float)}
    return values


def _demo_exposure_score(config, value_fields, heat_mask, weights, bits, n) -> np.ndarray:
    """Structural exposure score in [0, 1] for the demographic plant.

    High-hazard tracts score 1; everything else scores by its decay-law
    visit rate into high-hazard tracts, square-root shaped and normalized
    so near-hazard neighborhoods stay clearly above far ones.
    """
    total = n * n
    if config.demo_hazard_gain == 0.0:
        return np.zeros(total)
    if bits is not None:
        mask_vecs = [bits[:, 0].astype(float), bits[:, 1].astype(float), bits[:, 2].astype(float)]
    else:
        mask_vecs = [
            (value_fields["air_pollution"] > DEMO_PLANT_QUANTILE).astype(float),
            (value_fields["toxic"] > DEMO_PLANT_QUANTILE).astype(float),
            heat_mask.astype(float),
        ]
    probs = weights / weights.sum(axis=1, keepdims=True)
    parts = []
    for mask_vec in mask_vecs:
        rate = probs @ mask_vec
        unmasked = mask_vec == 0.0
        if unmasked.any():
            top = rate[unmasked].max()
            bottom = rate[unmasked].min()
        else:
            top = bottom = 0.0
        span = top - bottom
        if span > 0.0:
            proximity = np.sqrt(np.clip((rate - bottom) / span, 0.0, 1.0))
        else:
            proximity = np.zeros(total)
        parts.append(np.where(mask_vec > 0.0, 1.0, proximity))
    # Worst-hazard exposure: a tract bordering any hazard zone is treated
    # as a vulnerable location even when the other hazards are far away.
    return np.maximum.reduce(parts)


def _decay_weights(config: WorldConfig) -> np.ndarray:
    """Destination weight matrix W[home, dest] = (1 + d)^-alpha."""
    n = config.grid_n
    rows, cols = np.divmod(np.arange(n * n), n)
    dr = rows[:, None] - rows[None, :]
    dc = cols[:, None] - cols[None, :]
    dist = np.sqrt(dr * dr + dc * dc)
    return (1.0 + dist) ** (-config.decay_alpha)


def _archetype_weights(config: WorldConfig) -> np.ndarray:
    n = config.grid_n
    total = n * n
    if total == 1:
        return np.ones((1, 1))
    w = np.full((total, total), ARCHETYPE_CROSS_RATE / (total - 1))
    np.fill_diagonal(w, 1.0 - ARCHETYPE_CROSS_RATE)
    return w


def gen_world(config: WorldConfig) -> World:
    """Generate a fully specified world; identical seeds give identical worlds."""
    config.check()
    n = config.grid_n
    total = n * n

    bits = _archetype_bits(config, _rng(config.seed, _STREAM_ARCHETYPE)) if config.archetype_mode else None
    value_fields = _hazard_layers(config, _rng(config.seed, _STREAM_HAZARD), bits)

    geoids = [_geoid(i // n, i % n) for i in range(total)]
    layers = {
        h: HazardLayer(hazard_type=h, geoids=np.array(geoids, dtype=str),
                       values=np.asarray(value_fields[h], dtype=np.float64))
        for h in HAZARD_TYPES
    }
    # Masks the pipeline is expected to reproduce from the value layers.
    mask_columns = {
        "air_pollution": classify_percentile(layers["air_pollution"], geoids),
        "toxic": classify_percentile(layers["toxic"], geoids),
        "heat": classify_heat_quartile(layers["heat"], geoids),
    }
    masks = {h: frozenset(layers[h].geoids[column].tolist()) for h, column in mask_columns.items()}

    weights = _archetype_weights(config) if config.archetype_mode else _decay_weights(config)
    cum_weights = np.cumsum(weights, axis=1)

    # Demographics: optionally correlated with structural hazard exposure
    # (own high-hazard status, or the decay-law visit rate into high-hazard
    # tracts for everyone else), so vulnerability concentrates in and
    # around hazard clusters.
    demo_rng = _rng(config.seed, _STREAM_DEMO)
    score = _demo_exposure_score(config, value_fields, mask_columns["heat"], weights, bits, n)
    minority = np.clip(0.2 + config.demo_hazard_gain * score + 0.05 * demo_rng.standard_normal(total), 0.01, 0.99)
    poverty = np.clip(0.12 + 0.75 * config.demo_hazard_gain * score + 0.05 * demo_rng.standard_normal(total), 0.01, 0.99)
    population = demo_rng.integers(500, 5001, total)

    # Tract i is the unit square at column i % n, row i // n: one ring of 5 vertices.
    rows, cols = np.divmod(np.arange(total), n)
    corners = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)])
    xy = (np.stack([cols, rows], axis=1)[:, None, :] + corners).reshape(-1, 2)
    ones = [1] * total
    tracts = TractTable.from_vertices(geoids, population, minority, poverty, xy, np.full(total, 5), ones, ones)

    if config.archetype_mode and not np.array_equal(bits == 1, np.stack(list(mask_columns.values()), 1)):
        raise AssertionError("archetype mask plant does not survive classification")

    stops_rng = _rng(config.seed, _STREAM_STOPS)
    columns: list[tuple[np.ndarray, ...]] = []  # (lon, lat, start_ts, dwell_s) per batch of stops
    homes: dict[str, str] = {}
    n_day = config.stops_per_user
    for u in range(config.users):
        user_id = f"u{u:06d}"
        home_idx = u % total
        homes[user_id] = geoids[home_idx]
        home_row, home_col = divmod(home_idx, n)
        # Nighttime stays pin the home tract for home inference.
        night_minutes = stops_rng.integers(0, 30, NIGHTS_PER_USER)
        night_dwells = stops_rng.integers(*NIGHT_DWELL, NIGHTS_PER_USER)
        night_coords = stops_rng.uniform(0.05, 0.95, (NIGHTS_PER_USER, 2))
        nights = np.arange(NIGHTS_PER_USER)
        columns.append((
            home_col + night_coords[:, 0],
            home_row + night_coords[:, 1],
            MONTH_START_TS + nights * 86400 + 23 * 3600 + night_minutes * 60,
            night_dwells,
        ))
        if n_day == 0:
            continue
        cum = cum_weights[home_idx]
        dests = np.searchsorted(cum, stops_rng.random(n_day) * cum[-1], side="right")
        dests = np.minimum(dests, total - 1)
        days = stops_rng.integers(0, MONTH_DAYS, n_day)
        hours = stops_rng.integers(8, 17, n_day)
        minutes = stops_rng.integers(0, 60, n_day)
        dwells = stops_rng.integers(*DAY_DWELL, n_day)
        coords = stops_rng.uniform(0.05, 0.95, (n_day, 2))
        columns.append((
            dests % n + coords[:, 0],
            dests // n + coords[:, 1],
            MONTH_START_TS + days * 86400 + hours * 3600 + minutes * 60,
            dwells,
        ))
    lon, lat, start_ts, dwell_s = map(np.concatenate, zip(*columns))
    stops = Stops(
        user=np.repeat(np.arange(config.users, dtype=np.int32), NIGHTS_PER_USER + n_day),
        user_ids=np.array(list(homes), dtype=object),
        lon=lon, lat=lat, start_ts=start_ts, dwell_s=dwell_s,
        line=np.arange(2, len(lon) + 2, dtype=np.int64),
    )

    expected = _expected_mei(config, geoids, weights, mask_columns)
    labels = None
    if config.archetype_mode:
        labels = {
            geoids[i]: int(bits[i, 0] << 2 | bits[i, 1] << 1 | bits[i, 2]) for i in range(total)
        }
    truth = PlantedTruth(homes=homes, masks=masks, expected_mei=expected, archetype_labels=labels)
    return World(config=config, tracts=tracts, layers=layers, stops=stops, truth=truth)


def _expected_mei(
    config: WorldConfig,
    geoids: list[str],
    weights: np.ndarray,
    masks: dict[str, np.ndarray],
) -> dict[str, dict[str, float]]:
    """Exact expected index per home tract from the destination law."""
    night_total = NIGHTS_PER_USER * (NIGHT_DWELL[0] + NIGHT_DWELL[1] - 1) / 2.0
    day_total = config.stops_per_user * (DAY_DWELL[0] + DAY_DWELL[1] - 1) / 2.0
    mask_vec = {h: masks[h].astype(float) for h in HAZARD_TYPES}
    probs = weights / weights.sum(axis=1, keepdims=True)
    out: dict[str, dict[str, float]] = {}
    for i, geoid in enumerate(geoids):
        row = probs[i]
        out[geoid] = {}
        for h in HAZARD_TYPES:
            hazard_day = float(row @ mask_vec[h])
            home_masked = float(mask_vec[h][i])
            numer = night_total * home_masked + day_total * hazard_day
            out[geoid][h] = float(numer / (night_total + day_total))
    return out


def write_world(world: World, out_dir) -> dict[str, str]:
    """Write the world in the exact formats the ingest module consumes."""
    from pathlib import Path

    from . import ingest

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "stops": str(out / "stops.csv"),
        "tracts": str(out / "tracts.geojson"),
    }
    ingest.write_stops(world.stops, paths["stops"])
    ingest.write_tracts(world.tracts, paths["tracts"])
    for h in HAZARD_TYPES:
        paths[f"hazard_{h}"] = str(out / f"hazard_{h}.csv")
        ingest.write_hazard(world.layers[h], paths[f"hazard_{h}"])
    return paths

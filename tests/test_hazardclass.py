import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazmob.hazardclass import ClassifyError, classify_heat_quartile, classify_percentile
from hazmob.model import HazardLayer

from conftest import layer_of, masked_set, percentile_interpolated, unit_square_tract


def air_layer(values) -> HazardLayer:
    return layer_of("air_pollution", values)


def mask_by_geoid(mask, geoids) -> dict:
    return dict(zip(geoids, mask.tolist()))


def test_percentile_mask_strict_inequality():
    mask = classify_percentile(air_layer({"G1": 0.73, "G2": 0.10}), ["G1", "G2"], threshold=0.5)
    assert mask_by_geoid(mask, ["G1", "G2"]) == {"G1": True, "G2": False}
    # exactly at the threshold stays unmasked
    mask = classify_percentile(air_layer({"G1": 0.5}), ["G1"], threshold=0.5)
    assert mask_by_geoid(mask, ["G1"]) == {"G1": False}


def test_percentile_threshold_zero_masks_positives():
    geoids = ["G1", "G2", "G3"]
    mask = classify_percentile(air_layer({"G1": 0.0, "G2": 0.01, "G3": 1.0}), geoids, threshold=0.0)
    assert mask_by_geoid(mask, geoids) == {"G1": False, "G2": True, "G3": True}


def test_percentile_mask_is_aligned_with_the_tracts():
    """One entry per tract, in the tracts' order: a tract missing from the
    layer is unmasked and a layer geoid that is no tract is ignored."""
    layer = air_layer({"G9": 0.9, "G2": 0.8, "G1": 0.7})
    mask = classify_percentile(layer, ["G3", "G2", "G1"], threshold=0.75)
    assert mask.dtype == bool
    assert mask.tolist() == [False, True, False]


def test_percentile_threshold_out_of_range_fatal():
    with pytest.raises(ClassifyError):
        classify_percentile(air_layer({"G1": 0.5}), ["G1"], threshold=1.5)
    with pytest.raises(ClassifyError):
        classify_percentile(layer_of("heat", {"G1": 10}), ["G1"])


def test_percentile_mask_monotone_in_threshold():
    rng = random.Random(11)
    values = {f"G{i}": rng.random() for i in range(200)}
    previous = None
    for threshold in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]:
        masked = masked_set(classify_percentile(air_layer(values), list(values), threshold), list(values))
        if previous is not None:
            assert masked <= previous
        previous = masked


def test_interpolated_percentile_hand_values():
    # 0.75 quantile of [10, 20, 30, 40] at plotting position 0.75 * 5 = 3.75:
    # between the 3rd (30) and 4th (40) order statistics -> 37.5
    assert percentile_interpolated([10, 20, 30, 40], 0.75) == pytest.approx(37.5)
    assert percentile_interpolated([5, 5, 5, 5], 0.75) == 5
    assert percentile_interpolated([1.0], 0.5) == 1.0


def heat_layer(values) -> HazardLayer:
    return layer_of("heat", values)


def county_tracts(county_row: int, n: int):
    return [unit_square_tract(f"48{county_row:03d}{c:06d}", c, county_row) for c in range(n)]


def heat_masked(values, tracts) -> frozenset:
    geoids = [t.geoid for t in tracts]
    return masked_set(classify_heat_quartile(heat_layer(values), geoids), geoids)


def test_heat_quartile_hand_computed_cutoff():
    tracts = county_tracts(1, 4)
    values = dict(zip([t.geoid for t in tracts], [10, 20, 30, 40]))
    # cutoff 37.5 excludes the 30-day tract
    assert heat_masked(values, tracts) == {tracts[3].geoid}


def test_heat_quartile_cutoff_is_inclusive():
    tracts = county_tracts(1, 4)
    # cutoff 30 + 0.75 * (30 - 30) = 30: every tract at 30 days is masked
    values = dict(zip([t.geoid for t in tracts], [10, 30, 30, 30]))
    assert heat_masked(values, tracts) == {t.geoid for t in tracts[1:]}


def test_heat_quartile_plotting_position_is_n_plus_one():
    tracts = county_tracts(1, 5)
    # h = 0.75 * 6 = 4.5: cutoff 40 + 0.5 * (50 - 40) = 45 masks only the
    # 50-day tract; h = 0.75 * 5 = 3.75 would give 37.5 and mask 40 too.
    values = dict(zip([t.geoid for t in tracts], [10, 20, 30, 40, 50]))
    assert heat_masked(values, tracts) == {tracts[4].geoid}


def test_heat_quartile_cutoff_rounds_as_the_oracle_does():
    tracts = county_tracts(1, 5)
    # h = 4.5: with `below` the float just under 45, the cutoff
    # below + 0.5 * (45 - below) is a tie that rounds to the even 45, so
    # `below` stays unmasked; a cutoff computed a little low would mask it.
    below = math.nextafter(45.0, -math.inf)
    assert percentile_interpolated([10, 20, 30, below, 45.0], 0.75) == 45.0
    values = dict(zip([t.geoid for t in tracts], [10, 20, 30, below, 45.0]))
    assert heat_masked(values, tracts) == {tracts[4].geoid}


def test_heat_quartile_identical_values_all_masked():
    tracts = county_tracts(1, 4)
    values = {t.geoid: 5 for t in tracts}
    assert heat_masked(values, tracts) == {t.geoid for t in tracts}


def test_heat_single_tract_county_masked():
    tracts = county_tracts(2, 1)
    assert heat_masked({tracts[0].geoid: 0}, tracts) == {tracts[0].geoid}


def test_heat_small_county_masks_single_maximum():
    tracts = county_tracts(3, 3)
    values = dict(zip([t.geoid for t in tracts], [7, 12, 3]))
    assert heat_masked(values, tracts) == {tracts[1].geoid}
    # tie at the maximum resolves to the smallest geoid
    values = dict(zip([t.geoid for t in tracts], [12, 12, 3]))
    assert heat_masked(values, tracts) == {tracts[0].geoid}
    # ... whatever the file order
    values = dict(zip([t.geoid for t in reversed(tracts)], [3, 12, 12]))
    assert heat_masked(values, tracts) == {tracts[0].geoid}


def test_heat_unknown_geoid_skipped_with_warning(caplog):
    tracts = county_tracts(1, 4)
    values = {t.geoid: 10 * (i + 1) for i, t in enumerate(tracts)}
    values["99999999999"] = 80
    geoids = [t.geoid for t in tracts]
    with caplog.at_level("WARNING"):
        mask = classify_heat_quartile(heat_layer(values), geoids)
    assert len(mask) == len(tracts)
    assert masked_set(mask, geoids) == {tracts[3].geoid}
    assert any("99999999999" in r.message for r in caplog.records)


def test_heat_large_county_masks_about_a_quarter():
    rng = random.Random(5)
    for n in (16, 40, 101):
        tracts = county_tracts(1, n)
        values = {t.geoid: rng.sample(range(10000), 1)[0] for t in tracts}
        masked = len(heat_masked(values, tracts))
        target = -(-n // 4)  # ceil(n / 4)
        assert 1 <= masked <= n
        assert abs(masked - target) <= 1


def test_heat_masks_deterministic_under_permutation():
    rng = random.Random(6)
    tracts = county_tracts(1, 20) + county_tracts(2, 7)
    values = {t.geoid: rng.randrange(100) for t in tracts}
    masked_a = heat_masked(values, tracts)
    shuffled_tracts = list(tracts)
    rng.shuffle(shuffled_tracts)
    shuffled_values = dict(rng.sample(list(values.items()), len(values)))
    assert heat_masked(shuffled_values, shuffled_tracts) == masked_a


# ---------------------------------------------------------------------------
# The dict-per-geoid classifiers the mask columns replaced: the oracles
# ---------------------------------------------------------------------------


def reference_percentile(values: dict, threshold: float) -> dict:
    """geoid -> masked, for every geoid of the layer."""
    return {g: v > threshold for g, v in values.items()}


def counties(values: dict, known: set) -> list[list[str]]:
    """The layer's geoids that are tracts, grouped by county."""
    by_county: dict[str, list[str]] = {}
    for geoid in values:
        if geoid in known:
            by_county.setdefault(geoid[:5], []).append(geoid)  # state and county digits
    return list(by_county.values())


def reference_heat_quartile(values: dict, known: set) -> dict:
    """geoid -> masked, for every geoid of the layer that is a tract."""
    mask = {}
    for geoids in counties(values, known):
        if len(geoids) < 4:
            top = min(geoids, key=lambda g: (-values[g], g))
            mask.update((g, g == top) for g in geoids)
            continue
        cutoff = percentile_interpolated(sorted(values[g] for g in geoids), 0.75)
        mask.update((g, values[g] >= cutoff) for g in geoids)
    return mask


@st.composite
def layer_worlds(draw):
    """Tract geoids in counties of 1-30 tracts, and the layer's geoids in file
    order: some tracts are missing from the layer, some layer geoids are no tract."""
    n_counties = draw(st.integers(1, 5))
    tracts = []
    for c in draw(st.lists(st.integers(0, 999), min_size=n_counties, max_size=n_counties, unique=True)):
        size = draw(st.integers(1, 30))
        codes = draw(st.lists(st.integers(0, 999999), min_size=size, max_size=size, unique=True))
        tracts += [f"48{c:03d}{code:06d}" for code in codes]
    in_layer = [g for g in tracts if draw(st.integers(0, 9))]
    strays = draw(st.lists(st.sampled_from(["48999000001", "06001000100", "X"]), unique=True))
    return tracts, draw(st.permutations(list(dict.fromkeys(in_layer + strays))))


# Heavily tied integer counts, integers up to 2**53, and floats.
HEAT_VALUES = st.sampled_from([st.integers(0, 3), st.integers(0, 2**53),
                               st.floats(0, 1e6, allow_nan=False)])
RANKS = st.sampled_from([0.0, 0.25, 0.5, 1.0 / 3.0, 0.7, 1.0]) | st.floats(0, 1)


@settings(max_examples=300, deadline=None)
@given(layer_worlds(), HEAT_VALUES, st.sampled_from([0.0, 0.25, 0.5, 0.7, 1.0]), st.data())
def test_mask_columns_equal_the_dict_classifiers(world, heat_values, threshold, data):
    tracts, layer_geoids = world
    values = {g: data.draw(heat_values) for g in layer_geoids}
    heat = classify_heat_quartile(heat_layer(values), tracts)
    expected = reference_heat_quartile(values, set(tracts))
    assert heat.tolist() == [expected.get(g, False) for g in tracts]

    ranks = {g: data.draw(RANKS) for g in layer_geoids}
    air = classify_percentile(air_layer(ranks), tracts, threshold)
    expected = reference_percentile(ranks, threshold)
    assert air.tolist() == [expected.get(g, False) for g in tracts]


def pin_to_cutoffs(values: dict, known: set) -> dict:
    """values with, in each county of 4 or more tracts, the two order
    statistics around its cutoff replaced by the float just below the
    cutoff and the cutoff itself."""
    pinned = dict(values)
    for geoids in counties(values, known):
        if len(geoids) < 4:
            continue
        ranked = sorted(geoids, key=lambda g: (values[g], g))
        cutoff = percentile_interpolated([values[g] for g in ranked], 0.75)
        k = int(0.75 * (len(ranked) + 1))  # 1-based rank of the lower order statistic
        pinned[ranked[k - 1]] = math.nextafter(cutoff, -math.inf)
        pinned[ranked[k]] = cutoff
    return pinned


@settings(max_examples=300, deadline=None)
@given(layer_worlds(), HEAT_VALUES, st.data())
def test_heat_mask_columns_at_and_just_below_each_cutoff(world, heat_values, data):
    """With a tract one float below each county's cutoff, a cutoff computed
    a little low masks that tract too."""
    tracts, layer_geoids = world
    values = pin_to_cutoffs({g: data.draw(heat_values) for g in layer_geoids}, set(tracts))
    heat = classify_heat_quartile(heat_layer(values), tracts)
    expected = reference_heat_quartile(values, set(tracts))
    assert heat.tolist() == [expected.get(g, False) for g in tracts]


def test_mask_columns_on_a_sorted_index_match_any_tract_order():
    rng = random.Random(9)
    tracts = [t.geoid for t in county_tracts(1, 13) + county_tracts(2, 3) + county_tracts(4, 6)]
    values = {g: rng.randrange(5) for g in tracts}
    shuffled = rng.sample(tracts, len(tracts))
    a = classify_heat_quartile(heat_layer(values), sorted(tracts))
    b = classify_heat_quartile(heat_layer(values), shuffled)
    assert masked_set(a, sorted(tracts)) == masked_set(b, shuffled)
    assert np.count_nonzero(a) >= 3

import random

import pytest

from hazmob.hazardclass import (
    ClassifyError,
    classify_heat_quartile,
    classify_percentile,
    percentile_interpolated,
)
from hazmob.model import HazardLayer, TractTable

from conftest import unit_square_tract


def air_layer(values) -> HazardLayer:
    return HazardLayer(hazard_type="air_pollution", values=values)


def test_percentile_mask_strict_inequality():
    layer = classify_percentile(air_layer({"G1": 0.73, "G2": 0.10}), threshold=0.5)
    assert layer.mask == {"G1": True, "G2": False}
    # exactly at the threshold stays unmasked
    layer = classify_percentile(air_layer({"G1": 0.5}), threshold=0.5)
    assert layer.mask == {"G1": False}


def test_percentile_threshold_zero_masks_positives():
    layer = classify_percentile(air_layer({"G1": 0.0, "G2": 0.01, "G3": 1.0}), threshold=0.0)
    assert layer.mask == {"G1": False, "G2": True, "G3": True}


def test_percentile_threshold_out_of_range_fatal():
    with pytest.raises(ClassifyError):
        classify_percentile(air_layer({"G1": 0.5}), threshold=1.5)
    with pytest.raises(ClassifyError):
        classify_percentile(HazardLayer(hazard_type="heat", values={"G1": 10}))


def test_percentile_mask_monotone_in_threshold():
    rng = random.Random(11)
    values = {f"G{i}": rng.random() for i in range(200)}
    previous = None
    for threshold in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]:
        masked = classify_percentile(air_layer(values), threshold).masked_geoids()
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
    return HazardLayer(hazard_type="heat", values=values)


def county_tracts(county_row: int, n: int):
    return [unit_square_tract(f"48{county_row:03d}{c:06d}", c, county_row) for c in range(n)]


def test_heat_quartile_hand_computed_cutoff():
    tracts = county_tracts(1, 4)
    values = dict(zip([t.geoid for t in tracts], [10, 20, 30, 40]))
    layer = classify_heat_quartile(heat_layer(values), TractTable.from_rows(tracts))
    masked = layer.masked_geoids()
    # cutoff 37.5 excludes the 30-day tract
    assert masked == {tracts[3].geoid}


def test_heat_quartile_identical_values_all_masked():
    tracts = county_tracts(1, 4)
    values = {t.geoid: 5 for t in tracts}
    layer = classify_heat_quartile(heat_layer(values), TractTable.from_rows(tracts))
    assert layer.masked_geoids() == {t.geoid for t in tracts}


def test_heat_single_tract_county_masked():
    tracts = county_tracts(2, 1)
    layer = classify_heat_quartile(heat_layer({tracts[0].geoid: 0}), TractTable.from_rows(tracts))
    assert layer.masked_geoids() == {tracts[0].geoid}


def test_heat_small_county_masks_single_maximum():
    tracts = county_tracts(3, 3)
    values = dict(zip([t.geoid for t in tracts], [7, 12, 3]))
    layer = classify_heat_quartile(heat_layer(values), TractTable.from_rows(tracts))
    assert layer.masked_geoids() == {tracts[1].geoid}
    # tie at the maximum resolves to the smallest geoid
    values = dict(zip([t.geoid for t in tracts], [12, 12, 3]))
    layer = classify_heat_quartile(heat_layer(values), TractTable.from_rows(tracts))
    assert layer.masked_geoids() == {tracts[0].geoid}


def test_heat_unknown_geoid_skipped_with_warning(caplog):
    tracts = county_tracts(1, 4)
    values = {t.geoid: 10 * (i + 1) for i, t in enumerate(tracts)}
    values["99999999999"] = 80
    with caplog.at_level("WARNING"):
        layer = classify_heat_quartile(heat_layer(values), TractTable.from_rows(tracts))
    assert "99999999999" not in layer.mask
    assert any("99999999999" in r.message for r in caplog.records)


def test_heat_large_county_masks_about_a_quarter():
    rng = random.Random(5)
    for n in (16, 40, 101):
        tracts = county_tracts(1, n)
        values = {t.geoid: rng.sample(range(10000), 1)[0] for t in tracts}
        layer = classify_heat_quartile(heat_layer(values), TractTable.from_rows(tracts))
        masked = len(layer.masked_geoids())
        target = -(-n // 4)  # ceil(n / 4)
        assert 1 <= masked <= n
        assert abs(masked - target) <= 1


def test_heat_masks_deterministic_under_permutation():
    rng = random.Random(6)
    tracts = county_tracts(1, 20) + county_tracts(2, 7)
    values = {t.geoid: rng.randrange(100) for t in tracts}
    layer_a = classify_heat_quartile(heat_layer(values), TractTable.from_rows(tracts))
    shuffled_tracts = list(tracts)
    rng.shuffle(shuffled_tracts)
    shuffled_values = dict(rng.sample(list(values.items()), len(values)))
    layer_b = classify_heat_quartile(heat_layer(shuffled_values), TractTable.from_rows(shuffled_tracts))
    assert layer_a.mask == layer_b.mask

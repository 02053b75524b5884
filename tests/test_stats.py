"""Statistical primitives against frozen high-precision oracle values.

The Welch table below was computed offline from a reference
t-distribution CDF at double precision and frozen; the implementation
under test shares no code with it.
"""

import math
import statistics

import pytest

from hazmob import synth
from hazmob.exposure import accumulate, classify_regions, compute_mei
from hazmob.geoindex import build_index, locate_stops
from hazmob.homeloc import infer_homes
from hazmob.model import HAZARD_TYPES
from hazmob.stats import (
    TTestResult,
    betainc_regularized,
    disparity_table,
    hazard_pair_correlations,
    pearson,
    scatter_export,
    t_two_sided_p,
    welch_t_test,
)

from conftest import classify_world_masks, mei_rows, mei_table, tract_rows, tract_table, unit_square_tract

# (sample_a, sample_b, t, welch_df, two_sided_p)
WELCH_ORACLE = [
    ([2.1, 2.5, 2.3, 2.7, 2.4], [1.1, 1.5, 1.2, 1.4, 1.3],
     8.981462390204987, 7.199999999999996, 3.6416737695524545e-05),
    ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0],
     0.0, 6.0, 1.0),
    ([5.5, 6.1, 5.8, 6.4, 5.9, 6.0], [5.2, 5.6, 5.4, 5.3],
     3.8368876533674965, 7.914478953457325, 0.005070845736153256),
    ([0.0, 0.1, -0.1, 0.2, -0.2, 0.05], [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 0.8],
     -12.907362240210043, 10.377765010054583, 1.0061393354239829e-07),
    ([10.0, 12.0, 11.0, 13.0, 9.0, 14.0, 10.5], [10.2, 11.8, 11.1, 12.9],
     -0.163645154727913, 8.661902420794057, 0.8737648964906659),
    ([3.14, 2.71, 1.41, 1.73], [2.0, 2.1, 1.9],
     0.603288548127044, 3.120545816695583, 0.5873561751749964),
    ([100.0, 101.0, 99.0, 102.0, 98.0], [100.5, 100.6, 100.4],
     -0.7047614786024097, 4.053150831037236, 0.5193502848067153),
    ([0.001, 0.002, 0.0015, 0.0025], [0.01, 0.02, 0.015, 0.025, 0.0175],
     -6.248147266373855, 4.132913735653461, 0.002997376678644972),
    ([-5.0, -4.5, -5.5, -4.8, -5.2, -4.9], [4.9, 5.1, 5.0, 4.95, 5.05],
     -69.12049726728462, 5.629120466457633, 1.8326126508194262e-09),
    ([7.0, 7.0, 7.1, 6.9, 7.05], [7.2, 7.1, 7.3, 7.15, 7.25, 7.18],
     -4.23320209770335, 8.494085343022382, 0.0025016102802245723),
    ([1000.0, 1100.0, 900.0, 1050.0], [1000.0, 1200.0, 800.0, 1100.0, 900.0],
     0.1513299816915955, 6.327024701978617, 0.8844260248170162),
    ([2.5, 3.5, 2.8, 3.2, 3.0, 2.9, 3.1], [2.4, 3.6, 2.6, 3.4, 3.05],
     -0.03881170160689456, 6.184343895076459, 0.9702632041584005),
]

# Fixed 20-point sample with its exact correlation, frozen offline.
X20 = [0.6094, -2.08, 1.5009, 1.8811, -3.9021, -2.6044, 0.2557, -0.6325,
       -0.0336, -1.7061, 1.7588, 1.5556, 0.1321, 2.2545, 0.935, -1.7186,
       0.7375, -1.9178, 1.7569, -0.0999]
Y20 = [0.1493, -2.4774, 2.8844, 1.085, -3.374, -2.3513, 0.9775, 0.1054,
       0.5956, -0.548, 4.4436, 0.4793, -0.6759, 0.3575, 1.5785, 0.4904,
       0.3453, -2.6027, -0.0069, 0.906]
R20 = 0.7724095427021229
P20 = 6.579402599407541e-05


def test_welch_against_frozen_oracle_table():
    assert len(WELCH_ORACLE) >= 10
    for a, b, t_exp, df_exp, p_exp in WELCH_ORACLE:
        result = welch_t_test(a, b)
        assert result is not None
        assert result.t == pytest.approx(t_exp, abs=1e-10, rel=1e-10)
        assert result.df == pytest.approx(df_exp, abs=1e-10, rel=1e-10)
        assert abs(result.p - p_exp) < 1e-9
        assert result.significant_01 == (p_exp < 0.01)


def test_identical_samples_t_zero_p_one():
    result = welch_t_test([1, 2, 3, 4], [1, 2, 3, 4])
    assert result.t == 0.0
    assert result.p == 1.0


def test_swapping_samples_negates_t_preserves_p():
    a = [2.1, 2.5, 2.3, 2.7, 2.4]
    b = [1.1, 1.5, 1.2, 1.4, 1.3]
    fwd = welch_t_test(a, b)
    rev = welch_t_test(b, a)
    assert fwd.t == pytest.approx(-rev.t, rel=1e-14)
    assert fwd.p == pytest.approx(rev.p, rel=1e-12)
    assert fwd.t > 0  # t sign follows mean_a - mean_b


def test_error_values_not_crashes():
    assert welch_t_test([1.0], [1.0, 2.0, 3.0]) is None
    assert welch_t_test([1.0, 1.0], [2.0, 2.0]) is None  # both variances zero
    assert pearson([1.0, 2.0], [1.0, 2.0]) is None  # undersized
    assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None  # constant


def pooled_t_test(a, b) -> TTestResult:
    """Student's two-sample t-test with pooled variance."""
    na, nb = len(a), len(b)
    mean_a, var_a = statistics.fmean(a), statistics.variance(a)
    mean_b, var_b = statistics.fmean(b), statistics.variance(b)
    sp2 = ((na - 1) * var_a + (nb - 1) * var_b) / (na + nb - 2)
    t = (mean_a - mean_b) / math.sqrt(sp2 * (1.0 / na + 1.0 / nb))
    df = float(na + nb - 2)
    p = t_two_sided_p(t, df)
    return TTestResult(mean_a=mean_a, mean_b=mean_b, t=t, df=df, p=p, significant_01=p < 0.01)


def test_welch_reduces_to_pooled_at_equal_sizes_and_variances():
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    b = [2.5, 3.5, 4.5, 5.5, 6.5]  # same variance, shifted
    welch = welch_t_test(a, b)
    pooled = pooled_t_test(a, b)
    assert welch.t == pytest.approx(pooled.t, rel=1e-12)
    assert welch.df == pytest.approx(pooled.df, rel=1e-12)
    assert welch.p == pytest.approx(pooled.p, rel=1e-12)


def test_p_invariant_under_common_affine_rescale():
    a = [2.1, 2.5, 2.3, 2.7, 2.4, 2.2]
    b = [1.1, 1.5, 1.2, 1.4]
    base = welch_t_test(a, b)
    for scale, shift in ((2.5, 10.0), (-3.0, 1.0), (0.004, -7.0)):
        result = welch_t_test([scale * v + shift for v in a], [scale * v + shift for v in b])
        assert result.p == pytest.approx(base.p, rel=1e-9)
        assert abs(result.t) == pytest.approx(abs(base.t), rel=1e-9)


def test_betainc_endpoints_and_symmetry():
    assert betainc_regularized(2.0, 3.0, 0.0) == 0.0
    assert betainc_regularized(2.0, 3.0, 1.0) == 1.0
    # I_x(a, b) = 1 - I_{1-x}(b, a)
    for a, b, x in ((0.5, 4.0, 0.3), (2.0, 2.0, 0.7), (10.0, 0.5, 0.9)):
        lhs = betainc_regularized(a, b, x)
        rhs = 1.0 - betainc_regularized(b, a, 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_pearson_perfect_lines():
    xs = list(range(10))
    up = pearson(xs, [2 * x + 1 for x in xs])
    assert up.r == pytest.approx(1.0)
    assert up.p == 0.0
    down = pearson(xs, [-x for x in xs])
    assert down.r == pytest.approx(-1.0)


def test_pearson_against_frozen_sample():
    result = pearson(X20, Y20)
    assert abs(result.r - R20) < 1e-12
    assert result.p == pytest.approx(P20, rel=1e-9)
    assert result.n == 20


def test_pearson_affine_invariance_and_sign_flip():
    base = pearson(X20, Y20)
    scaled = pearson([3.0 * x + 5.0 for x in X20], [0.5 * y - 2.0 for y in Y20])
    assert scaled.r == pytest.approx(base.r, rel=1e-12)
    flipped = pearson([-2.0 * x for x in X20], Y20)
    assert flipped.r == pytest.approx(-base.r, rel=1e-12)
    assert flipped.p == pytest.approx(base.p, rel=1e-9)


# ---------------------------------------------------------------------------
# Disparity and export tables
# ---------------------------------------------------------------------------


def make_table(region_by_geoid, mei_value=0.5):
    return mei_table({geoid: dict(mei=mei_value, nonhome_share=0.0, region_class=dict(zip(HAZARD_TYPES, regions)))
                      for geoid, regions in region_by_geoid.items()})


def test_disparity_planted_minority_in_direct_tracts():
    import random

    rng = random.Random(8)
    tracts, regions = [], {}
    for i in range(40):
        geoid = f"48001{i:06d}"
        direct = i < 15
        tracts.append(
            unit_square_tract(geoid, i, 0,
                              minority=(0.8 if direct else 0.2) + rng.gauss(0, 0.01),
                              poverty=(0.6 if direct else 0.25) + rng.gauss(0, 0.01))
        )
        regions[geoid] = ("direct" if direct else "latent",) * 3
    table = disparity_table(make_table(regions), tract_table(tracts))
    baseline = table.rows[0]
    assert baseline.hazard == "all"
    assert baseline.mean_minority == pytest.approx((15 * 0.8 + 25 * 0.2) / 40, abs=0.02)
    direct_air = next(r for r in table.rows if r.hazard == "air_pollution" and r.region_class == "direct")
    assert direct_air.n_tracts == 15
    assert direct_air.mean_minority == pytest.approx(0.8, abs=0.02)
    assert direct_air.minority_test is not None
    assert direct_air.minority_test.significant_01
    assert direct_air.poverty_test.significant_01
    compound_direct = next(r for r in table.rows if r.hazard == "compound" and r.region_class == "direct")
    assert compound_direct.n_tracts == 15


def test_disparity_uniform_demographics_nothing_significant():
    import random

    rng = random.Random(2)
    tracts, regions = [], {}
    for i in range(60):
        geoid = f"48001{i:06d}"
        tracts.append(
            unit_square_tract(geoid, i, 0, minority=0.4 + rng.gauss(0, 0.05),
                              poverty=0.3 + rng.gauss(0, 0.05))
        )
        regions[geoid] = ("direct" if i % 2 == 0 else "latent",) * 3
    table = disparity_table(make_table(regions), tract_table(tracts))
    for row in table.rows[1:]:
        for test in (row.poverty_test, row.minority_test):
            if test is not None:
                assert not test.significant_01


def test_disparity_empty_class_has_blank_cells():
    tracts, regions = [], {}
    for i in range(6):
        geoid = f"48001{i:06d}"
        tracts.append(unit_square_tract(geoid, i, 0))
        regions[geoid] = ("direct",) * 3
    table = disparity_table(make_table(regions), tract_table(tracts))
    latent_rows = [r for r in table.rows if r.region_class == "latent"]
    assert all(r.n_tracts == 0 for r in latent_rows)
    assert all(r.mean_poverty is None and r.poverty_test is None for r in latent_rows)
    # single-class world also means no complement, so no test on direct rows
    direct_rows = [r for r in table.rows if r.region_class == "direct"]
    assert all(r.poverty_test is None for r in direct_rows)


def test_disparity_means_match_brute_force(small_world, small_world_index):
    world = small_world
    home_map = infer_homes(world.stops, locate_stops(small_world_index, world.stops), small_world_index.geoids)
    masks = classify_world_masks(world, small_world_index.geoids)
    table = classify_regions(compute_mei(accumulate(world.stops, locate_stops(small_world_index, world.stops), small_world_index.geoids, home_map, masks)), masks, small_world_index.geoids)
    result = disparity_table(table, world.tracts)
    by_geoid = {t.geoid: t for t in tract_rows(world.tracts)}
    rows = mei_rows(table)
    for row in result.rows[1:]:
        if row.hazard == "compound":
            members = [
                by_geoid[g] for g, r in rows.items()
                if not r.excluded and all(r.region_class[h] == row.region_class for h in HAZARD_TYPES)
            ]
        else:
            members = [
                by_geoid[g] for g, r in rows.items()
                if not r.excluded and r.region_class[row.hazard] == row.region_class
            ]
        assert row.n_tracts == len(members)
        if members:
            expected = sum(t.pct_below_poverty200 for t in members) / len(members)
            assert row.mean_poverty == pytest.approx(expected, rel=1e-12)


def test_hazard_pair_correlations_all_pairs(small_world, small_world_index):
    world = small_world
    home_map = infer_homes(world.stops, locate_stops(small_world_index, world.stops), small_world_index.geoids)
    masks = classify_world_masks(world, small_world_index.geoids)
    table = compute_mei(accumulate(world.stops, locate_stops(small_world_index, world.stops), small_world_index.geoids, home_map, masks))
    correlations = hazard_pair_correlations(table)
    pairs = {(a, b) for a, b, _ in correlations.rows}
    assert pairs == {("air_pollution", "toxic"), ("air_pollution", "heat"), ("toxic", "heat")}
    for _, _, c in correlations.rows:
        assert -1.0 <= c.r <= 1.0
        assert 0.0 <= c.p <= 1.0


def test_scatter_export_rows_sorted_and_undefined_blank():
    tracts = tract_table(unit_square_tract(f"48001{i:06d}", i, 0, population=100 + i) for i in range(3))
    rows = {g: dict(mei={"air_pollution": None if i == 1 else 0.4, "toxic": 0.2, "heat": 0.1},
                    nonhome_share=0.0)
            for i, g in enumerate(tracts.geoids.tolist())}
    scatter = scatter_export(mei_table(rows), tracts)
    assert scatter.geoids.tolist() == sorted(rows)
    assert math.isnan(scatter.mei[1, 0])
    assert scatter.population[0] == 100


def test_scatter_round_trips_through_writer(tmp_path):
    from hazmob import ingest

    tracts = tract_table(unit_square_tract(f"48001{i:06d}", i, 0) for i in range(3))
    mei = {"air_pollution": 0.123456789, "toxic": 0.5, "heat": None}
    scatter = scatter_export(mei_table({g: dict(mei=mei, nonhome_share=0.0) for g in tracts.geoids.tolist()}), tracts)
    dest = tmp_path / "scatter.csv"
    ingest.write_report(scatter, dest)
    lines = dest.read_text().splitlines()
    assert lines[0] == "geoid,pct_poverty200,mei_air,mei_toxic,mei_heat,pct_minority,population"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "48001000000"
    assert first[2] == "0.123457"
    assert first[4] == ""  # undefined stays blank

import dataclasses

import numpy as np
import pytest

import hazmob
from hazmob import model
from hazmob.model import HAZARD_TYPES, MAX_DWELL_S, HazardLayer, Stops

from conftest import ExposureAccumulator, Stop, Tract, check, layer_of, mei_table, unit_square_tract


def make_stop(**overrides) -> Stop:
    base = dict(user_id="u1", lon=-70.0, lat=45.0, start_ts=1554076800, dwell_s=3600)
    base.update(overrides)
    return Stop(**base)


def test_a_stop_is_held_in_one_form():
    """The pipeline holds stops only as the Stops columns: no row type, no
    row checker and no line column; the tests' rows live in conftest."""
    for module in (hazmob, model):
        assert not hasattr(module, "StopRecord")
        assert not hasattr(module, "validate")
    assert "StopRecord" not in hazmob.__all__ and "validate" not in hazmob.__all__
    assert [f.name for f in dataclasses.fields(Stops)] == ["user", "user_ids", "lon", "lat", "start_ts", "dwell_s"]


def test_valid_stop_at_dwell_zero_boundary():
    assert check(make_stop(dwell_s=0)) == []


def test_stop_dwell_bounded_at_int32_max():
    assert check(make_stop(dwell_s=MAX_DWELL_S)) == []
    assert MAX_DWELL_S == 2**31 - 1
    for dwell in (MAX_DWELL_S + 1, 10**20):
        assert check(make_stop(dwell_s=dwell)) == ["dwell_s: out of range"]


def test_stop_lat_out_of_range():
    violations = check(make_stop(lat=95.0))
    assert len(violations) == 1
    assert "lat" in violations[0]


def test_stop_negative_dwell_and_empty_user():
    violations = check(make_stop(user_id="", dwell_s=-5))
    assert any("user_id" in v for v in violations)
    assert any("dwell_s" in v for v in violations)


def test_stop_lon_boundaries_accepted():
    assert check(make_stop(lon=-180.0)) == []
    assert check(make_stop(lon=180.0)) == []
    assert check(make_stop(lon=180.0001)) != []


def test_tract_unclosed_ring_reported():
    ring = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))  # not closed
    tract = Tract(
        geoid="48001950100", geometry=((ring,),), population=10,
        pct_minority=0.1, pct_below_poverty200=0.1,
    )
    assert any("not closed" in v for v in check(tract))


def test_tract_bad_geoid_and_demographics():
    assert check(unit_square_tract("48001950100", 0, 0)) == []
    tract = dataclasses.replace(unit_square_tract("48001950100", 0, 0), geoid="123")
    assert any("geoid" in v for v in check(tract))
    tract = dataclasses.replace(unit_square_tract("48001950100", 0, 0), pct_minority=1.5)
    assert any("pct_minority" in v for v in check(tract))
    tract = dataclasses.replace(unit_square_tract("48001950100", 0, 0), geoid="4800195010\r")
    assert "geoid: must be 11 ASCII digits" in check(tract)
    tract = dataclasses.replace(unit_square_tract("48001950100", 0, 0), population=True)
    assert "population: must be a non-negative integer" in check(tract)


def test_hazard_layer_percentile_bound():
    layer = layer_of("air_pollution", {"G1": 1.3})
    violations = check(layer)
    assert len(violations) == 1
    assert "values[G1]" in violations[0]


def test_hazard_layer_heat_counts_allowed():
    layer = layer_of("heat", {"G1": 41, "G2": 0})
    assert check(layer) == []
    assert check(layer_of("heat", {"G1": -1})) != []


def test_hazard_layer_columns_must_align():
    layer = HazardLayer("toxic", np.array(["G1", "G2"]), np.array([0.7]))
    assert "values: must hold one value per geoid" in check(layer)


def test_accumulator_invariants():
    acc = ExposureAccumulator(geoid="G1", tdt_s=100)
    acc.hdt_s["heat"] = 70
    assert check(acc) == []
    acc.hdt_s["heat"] = 170
    assert any("hdt_s[heat]" in v for v in check(acc))


def test_mei_table_validation_prefixes_geoid():
    table = mei_table({"G1": dict(mei=0.5, nonhome_share=0.2, region_class="latent")})
    assert check(table) == []
    bad = mei_table({"G1": dict(mei={"air_pollution": 0.5, "toxic": 0.5, "heat": 1.4}),
                     "G2": dict(mei=2.0)})
    assert check(bad) == ["rows[G1].mei[heat]: outside [0, 1]"] + [
        f"rows[G2].mei[{h}]: outside [0, 1]" for h in HAZARD_TYPES]
    bad = dataclasses.replace(bad, region=np.full((2, 3), 3, dtype=np.int8))
    assert "rows[G1].region_class[air_pollution]: invalid class" in check(bad)


def test_check_is_pure():
    stop = make_stop(lat=95.0)
    assert check(stop) == check(stop)


def test_check_rejects_unknown_type():
    with pytest.raises(TypeError):
        check(42)


import numpy as np
import pytest

from hazmob import synth
from hazmob.geoindex import build_index
from hazmob.hazardclass import classify_heat_quartile, classify_percentile
from hazmob.model import CensusTract, StopRecord, Stops


def unit_square_tract(geoid: str, col: float, row: float, population: int = 1000,
                      minority: float = 0.5, poverty: float = 0.3) -> CensusTract:
    ring = (
        (col, row), (col + 1.0, row), (col + 1.0, row + 1.0), (col, row + 1.0), (col, row),
    )
    return CensusTract(
        geoid=geoid,
        geometry=((ring,),),
        population=population,
        pct_minority=minority,
        pct_below_poverty200=poverty,
    )


def frame_of(records) -> Stops:
    """The Stops frame of a sequence of StopRecords, numbered as lines 2, 3, ..."""
    codes: dict[str, int] = {}
    user = [codes.setdefault(r.user_id, len(codes)) for r in records]
    return Stops(
        user=np.array(user, dtype=np.int32),
        user_ids=np.array(list(codes), dtype=object),
        lon=np.array([r.lon for r in records], dtype=np.float64),
        lat=np.array([r.lat for r in records], dtype=np.float64),
        start_ts=np.array([r.start_ts for r in records], dtype=np.int64),
        dwell_s=np.array([r.dwell_s for r in records], dtype=np.int64),
        line=np.arange(2, len(records) + 2, dtype=np.int64),
    )


def stops_at(points) -> Stops:
    """A frame of one-second stops by one user at the given (lon, lat) points."""
    return frame_of([StopRecord(user_id="u", lon=x, lat=y, start_ts=0, dwell_s=1)
                               for x, y in points])


def geoids_of(index, where) -> list:
    """The geoid (or None) of each tract code that locate_stops() returns."""
    return [index.geoids[code] if code >= 0 else None for code in where.tolist()]


def classify_world_masks(world):
    """Run the real classifiers over a synthetic world's value layers."""
    return {
        "air_pollution": classify_percentile(world.layers["air_pollution"]),
        "toxic": classify_percentile(world.layers["toxic"]),
        "heat": classify_heat_quartile(world.layers["heat"], world.tracts),
    }


@pytest.fixture(scope="session")
def small_world():
    """A compact natural-mode world shared by the cheaper pipeline tests."""
    config = synth.WorldConfig(
        seed=101, grid_n=6, hazard_autocorr=1, decay_alpha=2.5,
        users=72, stops_per_user=40,
    )
    return synth.gen_world(config)


@pytest.fixture(scope="session")
def small_world_index(small_world):
    return build_index(small_world.tracts, cell_size_deg=0.5)

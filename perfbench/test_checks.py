"""Tests of the benchmark's oracle and checker (run: python3 -m pytest perfbench -q).

The checker must pass outputs that agree with the oracle and reject each
kind of disagreement; the oracle must give hand-computed values on a
2x2 world.
"""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import oracle
import worlds

ROOT = Path(__file__).resolve().parent.parent


def _fmt(x) -> str:
    return "" if x is None or not np.isfinite(x) else f"{x:.6f}"


def _write(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_reference(scalars: dict, arrays: dict, out: Path) -> None:
    """Outputs in hazmob's report formats, written from the oracle itself."""
    short = oracle.SHORT
    header = (["geoid"] + [f"{p}_{s}" for p in ("mei", "nonhome_share", "nonhome_cond")
                           for s in short] + [f"class_{s}" for s in short])
    rows = []
    for k, g in enumerate(arrays["geoid"]):
        rows.append([str(g)] + [_fmt(arrays[key][h, k]) for key in ("mei", "share", "cond")
                                for h in range(3)] + list(arrays["classes"][:, k]))
    _write(out / "mei.csv", header, rows)
    labels = []
    for k in range(len(arrays["geoid"])):
        if arrays["core"][k]:
            labels.append(int(arrays["component"][k]))
        elif arrays["noise"][k]:
            labels.append(-1)
        else:
            labels.append(int(arrays["border_components"][arrays["border_indptr"][k]]))
    _write(out / "clusters.csv", ["geoid", "label"],
           [[str(g), lab] for g, lab in zip(arrays["geoid"], labels)])
    rows = []
    for r in scalars["disparity"]:
        cells = [r["hazard"], r["region_class"], r["n_tracts"]] + [_fmt(m) for m in r["means"]]
        for test in ("poverty", "minority"):
            if r[test] is None:
                cells += ["", "", ""]
            else:
                cells += [_fmt(r[test][0]), _fmt(r[test][1]), int(r[test][1] < 0.01)]
        rows.append(cells)
    _write(out / "disparity.csv", ["hazard", "region_class", "n_tracts"] + ["x"] * 10, rows)
    _write(out / "correlations.csv", ["hazard_a", "hazard_b", "r", "p", "n", "sig01"],
           [[c["hazard_a"], c["hazard_b"], _fmt(c["r"]), _fmt(c["p"]), c["n"], int(c["p"] < 0.01)]
            for c in scalars["correlations"]])
    _write(out / "curves.csv", ["hazard", "threshold", "population"],
           [[h, _fmt(t), p] for h, t, p in scalars["curves"]])
    for name in ("cluster_summary.csv", "scatter.csv"):
        _write(out / name, ["unchecked"], [])
    (out / "run_metadata.json").write_text(json.dumps({"counts": scalars["counts"]}))


SMALL = dataclasses.replace(
    worlds.SPECS["messy-feed"], name="small", n_cols=8, n_rows=8, devices_per_tract=6,
    messy=worlds.Messy(multipolygons=3, islands=2, empty_holes=2, multi_night_devices=10,
                       multi_night_only=4, two_night_only=4, malformed_per_kind=2),
)


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    world = worlds.build_world(SMALL, 7)
    data = tmp_path_factory.mktemp("small")
    worlds.write_world(world, data)
    oracle.save(*oracle.expected_outputs(world), data)
    return data


@pytest.fixture
def reference(small, tmp_path):
    scalars, arrays = oracle.load(small)
    write_reference(scalars, arrays, tmp_path)
    return scalars, arrays, tmp_path


def _edit_csv(path: Path, row: int, col: int, edit) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if col is None:
        del rows[row]
    else:
        rows[row][col] = edit(rows[row][col])
    _write(path, rows[0], rows[1:])


def test_reference_outputs_pass(reference):
    scalars, arrays, out = reference
    assert checks.check_run(out, scalars, arrays) == []


def test_mei_off_by_1e5_is_rejected(reference):
    scalars, arrays, out = reference
    _edit_csv(out / "mei.csv", 1, 1, lambda v: f"{float(v) + 1e-5:.6f}")
    assert any("mei_air" in f for f in checks.check_run(out, scalars, arrays))


def test_wrong_class_is_rejected(reference):
    scalars, arrays, out = reference
    flip = {"direct": "latent", "latent": "none", "none": "direct"}
    _edit_csv(out / "mei.csv", 2, 11, flip.get)
    assert any("class_toxic" in f for f in checks.check_run(out, scalars, arrays))


def test_dropped_row_is_rejected(reference):
    scalars, arrays, out = reference
    _edit_csv(out / "mei.csv", 3, None, None)
    assert any("missing" in f for f in checks.check_run(out, scalars, arrays))


@pytest.mark.parametrize("key", ["stops_rejected", "users_unassigned", "unresolved_dwell_s"])
def test_changed_count_is_rejected(reference, key):
    scalars, arrays, out = reference
    meta = json.loads((out / "run_metadata.json").read_text())
    meta["counts"][key] += 1
    (out / "run_metadata.json").write_text(json.dumps(meta))
    assert any(key in f for f in checks.check_run(out, scalars, arrays))


def test_split_cluster_and_stats_changes_are_rejected(reference):
    scalars, arrays, out = reference
    core = np.nonzero(arrays["core"])[0]
    _edit_csv(out / "clusters.csv", int(core[0]) + 1, 1, lambda v: "99")
    _edit_csv(out / "disparity.csv", 1, 4, lambda v: f"{float(v) + 2e-6:.6f}")
    _edit_csv(out / "curves.csv", 1, 2, lambda v: str(int(v) + 1))
    failures = checks.check_run(out, scalars, arrays)
    for name in ("clusters.csv", "disparity.csv", "curves.csv"):
        assert any(f.startswith(name) for f in failures), name


def test_planted_messy_cases_are_counted(small):
    scalars, _ = oracle.load(small)
    planted, counts = scalars["planted"], scalars["counts"]
    assert counts["stops_rejected"] == planted["malformed_rows"] == 2 * len(worlds._MALFORMED)
    assert counts["stops_read"] == planted["stops_valid"] + planted["malformed_rows"]
    assert counts["users_unassigned"] == planted["devices_with_fewer_than_3_nights"]
    assert planted["devices_home_by_long_stay_only"] == 4
    assert planted["stops_outside_every_tract"] > 0 and counts["unresolved_dwell_s"] > 0
    assert planted["multipolygon_tracts"] > 0 and planted["island_tracts"] == 2


def _two_by_two_world() -> worlds.World:
    ring = lambda x, y: [[[[x, y], [x + 1, y], [x + 1, y + 1], [x, y + 1], [x, y]]]]  # noqa: E731
    return worlds.World(
        spec=SMALL,
        geoids=np.array(["48201000100", "48201000200", "48201000300", "48201000400"]),
        county=np.array(["48201"] * 4),
        population=np.array([100, 200, 300, 400]),
        minority=np.array([0.1, 0.2, 0.3, 0.4]),
        poverty=np.array([0.4, 0.3, 0.2, 0.1]),
        air=np.array([0.9, 0.2, 0.5, 0.7]),  # 0.5 is not above the threshold
        toxic=np.array([0.1, 0.6, 0.3, 0.3]),
        heat=np.array([10, 20, 30, 40]),  # weibull 75th percentile 37.5
        geometry=[ring(0, 0), ring(1, 0), ring(0, 1), ring(1, 1)],
        user_ids=["u0", "u1", "u2"],
        home=np.array([0, 2, -1]),
        stop_user=np.array([0, 0, 0, 1, 1, 2]),
        stop_tract=np.array([0, 1, -1, 2, 3, 1]),
        stop_dwell=np.array([3600, 1800, 600, 7200, 3600, 1000]),
        lines=["row"] * 7,  # six accepted rows and one malformed
    )


def test_two_by_two_world_matches_hand_computation():
    scalars, arrays = oracle.expected_outputs(_two_by_two_world())
    assert list(arrays["geoid"]) == ["48201000100", "48201000300"]
    # Tract 1: TDT 6000 = 3600 home (air) + 1800 in tract 2 (toxic) + 600 outside.
    # Tract 3: TDT 10800 = 7200 home + 3600 in tract 4 (air and heat).
    np.testing.assert_allclose(arrays["mei"], [[0.6, 1 / 3], [0.3, 0.0], [0.0, 1 / 3]])
    np.testing.assert_allclose(arrays["share"], [[0.0, 1 / 3], [0.3, 0.0], [0.0, 1 / 3]])
    np.testing.assert_allclose(arrays["cond"], [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    assert arrays["classes"].tolist() == [["direct", "latent"], ["latent", "none"],
                                          ["none", "latent"]]
    assert scalars["masked"] == {"air_pollution": 2, "toxic": 1, "heat": 1}
    assert scalars["counts"] == {
        "stops_read": 7, "stops_accepted": 6, "stops_rejected": 1,
        "users_assigned": 2, "users_unassigned": 1,
        "unresolved_dwell_s": 600, "dropped_dwell_s": 1000,
    }
    assert scalars["curves"] == [["air_pollution", 0.05, 300], ["air_pollution", 0.1, 300],
                                 ["toxic", 0.05, 100], ["toxic", 0.1, 100],
                                 ["heat", 0.05, 300], ["heat", 0.1, 300]]
    assert arrays["noise"].all()  # two points never reach min_pts = 10


def test_small_county_masks_its_maximum_with_ties_to_smallest_geoid():
    geoids = np.array(["48001000300", "48001000100", "48001000200"])
    mask = oracle.heat_mask(np.array([7, 5, 7]), np.array(["48001"] * 3), geoids)
    assert mask.tolist() == [False, False, True]


def test_dbscan_structure_core_border_noise():
    points = np.array([[0.0, 0, 0], [0.06, 0, 0], [0.12, 0, 0], [0.5, 0.5, 0.5]])
    got = oracle.dbscan_structure(points, eps=0.1, min_pts=3)
    assert got["core"].tolist() == [False, True, False, False]
    assert got["noise"].tolist() == [False, False, False, True]
    comp = got["component"][1]
    for border in (0, 2):
        lo, hi = got["border_indptr"][border], got["border_indptr"][border + 1]
        assert got["border_components"][lo:hi].tolist() == [comp]


@pytest.mark.skipif(not (ROOT / "src" / "hazmob").is_dir(), reason="hazmob sources absent")
def test_program_passes_every_check_on_the_small_world(small, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("HAZMOB_THREADS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "hazmob.cli", "run", "--stops", str(small / "stops.csv"),
         "--tracts", str(small / "tracts.geojson"),
         "--hazard-air", str(small / "hazard_air.csv"),
         "--hazard-toxic", str(small / "hazard_toxic.csv"),
         "--hazard-heat", str(small / "hazard_heat.csv"), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert checks.check_run(tmp_path, *oracle.load(small)) == []

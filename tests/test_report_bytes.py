"""Report bytes pinned by sha256.

Two worlds are run through `hazmob run`; every report CSV and sidecar,
and the stdout of `hazmob report` on the run's mei.csv and on the same
rows shuffled, is compared with
digests recorded from the row-by-row tract pipeline that preceded the
columnar MeiTable. A change to any report byte fails
here; if a change is meant to alter the reports, the digests are
re-recorded in the same change and the reason is stated there.
"""

import contextlib
import hashlib
import io
import random

import numpy as np
import pytest

from hazmob import cluster, synth
from hazmob.cli import main

from test_cli import REPORT_FILES

# c08's world (test_acceptance): 36 tracts, default cluster parameters.
C08_WORLD = synth.WorldConfig(seed=555, grid_n=6, hazard_autocorr=1, decay_alpha=2.5,
                              users=108, stops_per_user=40)
# 256 tracts; at eps 0.03 and min_pts 5 its exposure triples form several
# clusters and noise, and some border points lie within eps of core points
# of two clusters (checked in test_cluster_world_exercises_border_rule).
CLUSTER_WORLD = synth.WorldConfig(seed=4242, grid_n=16, hazard_autocorr=2, decay_alpha=2.5,
                                  users=512, stops_per_user=30)
CLUSTER_ARGS = ("--eps", "0.03", "--min-pts", "5")

DIGESTS = {
    "c08": {
        "mei.csv": "9aaa3ee699420e4b76bbe5e9a0dbc2a6a6866631b055e90cb7ea8627fe2d7575",
        "clusters.csv": "b32d66026040a8af2a2e0df6f579028886631bc999e3a85e632aca7a730a458f",
        "cluster_summary.csv": "ccc3fc436654bce959260db1bf0caa9fa2f26c8b7fd22b3b8a210c3d84e2d333",
        "disparity.csv": "ac1c8cd8a2156b9c539868121cbb7a8dbfe22f1c3298b592f3739b5a029e9af1",
        "correlations.csv": "ae96b3f98fa4b67faa81d87ac58409e3c18139f0e2814f2e79c42ad949f29cfa",
        "scatter.csv": "5fed99f51111fc9e596ce278abf4e687335c05b7ef4703e4e7db6b489a80185a",
        "curves.csv": "46aa9ae5ce1f325c888548733123210ebbd209823f9f9e068a6ca16796c3db25",
        "mei.csv.meta.json": "3af93716025026aaea8bcc83b66e9d8305d111ec2121cb5c7e8775d0c60850b9",
        "clusters.csv.meta.json": "3af93716025026aaea8bcc83b66e9d8305d111ec2121cb5c7e8775d0c60850b9",
        "cluster_summary.csv.meta.json": "fe0db6ce1d77e0118aaac747d479ddd907653be2db2fe0c67f3c05ac7797f3c1",
        "disparity.csv.meta.json": "201b56d162854490316756758dd923187dd04cec9848f2de67cca886e8864fa9",
        "correlations.csv.meta.json": "c197475ecd87f9c34e952fc70915a7b600ba23fda24369a888b3b4727aba4f6b",
        "scatter.csv.meta.json": "3af93716025026aaea8bcc83b66e9d8305d111ec2121cb5c7e8775d0c60850b9",
        "curves.csv.meta.json": "e7bcf86f144c70541a9dc2bc2d196d9972ee008941988b93736512d474f6088e",
        "report stdout": "7442e63e16aac0cb60aea78d96eb73f029f951586adadbd86fd6523adbc32a96",
    },
    "cluster": {
        "mei.csv": "3666d6b889c9985d43efa8e65191ba0c070bb4202de9bc1c2870079bbef5962a",
        "clusters.csv": "904c4ef046b5e29db0a3c78f8f86500dd9359403becc05599770b6aeee7a0813",
        "cluster_summary.csv": "c2cf58ce9e85529e7980afd15ff8a355db1cc0c354e2bb169238024dc661a002",
        "disparity.csv": "5d55c43e054b63065deb1bc1fdad114e2293d81999340049d228bf649e227352",
        "correlations.csv": "8b5d76761d379340783ee800c44fc0e1d2b66a287f4e87ccf7f6f0cf80a88c2c",
        "scatter.csv": "74ee52e51ba7daf52519738e0a1075dc885891073ae059d0b592f96bdfe45d52",
        "curves.csv": "06cdb5653126e18f4b3b303abd30ada007d29d9391635cc4ab0a5e352b254bf8",
        "mei.csv.meta.json": "025331a5ab12129d4ee15a6bf5db5101b56b2f3e4391ad5407970e0857dc4978",
        "clusters.csv.meta.json": "025331a5ab12129d4ee15a6bf5db5101b56b2f3e4391ad5407970e0857dc4978",
        "cluster_summary.csv.meta.json": "c2c6d5c0be2b766870251fff8716b88e24495c1fc9206d905257f7dad3f0bf6b",
        "disparity.csv.meta.json": "3ef7bc20f8f2e0fbc52e1f649ae5b3f0f2ae98da88bf7f2ae9b2f6e4d041a449",
        "correlations.csv.meta.json": "9444b7bef03557e7754f59e8cc69e299162276395eda1908e53d48e401bc746b",
        "scatter.csv.meta.json": "025331a5ab12129d4ee15a6bf5db5101b56b2f3e4391ad5407970e0857dc4978",
        "curves.csv.meta.json": "095f925cbe56446372ec064a1ef10288ec0cd278d39eeccd48cf84f925f1cb88",
        "report stdout": "eed761c7086df4c307e1c33c99f69eb862ecf313a4a640817fa8db69ae6fcec1",
    },
}


def _run(world_config, tmp_path, *extra) -> dict[str, str]:
    world_dir, out = tmp_path / "world", tmp_path / "out"
    synth.write_world(synth.gen_world(world_config), world_dir)
    assert main([
        "run",
        "--stops", str(world_dir / "stops.csv"),
        "--tracts", str(world_dir / "tracts.geojson"),
        "--hazard-air", str(world_dir / "hazard_air_pollution.csv"),
        "--hazard-toxic", str(world_dir / "hazard_toxic.csv"),
        "--hazard-heat", str(world_dir / "hazard_heat.csv"),
        "--out", str(out),
        "--cell-size", "0.5",
        *extra,
    ]) == 0
    names = REPORT_FILES + [f"{name}.meta.json" for name in REPORT_FILES]
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}
    header, *rows = (out / "mei.csv").read_text().splitlines(keepends=True)
    random.Random(7).shuffle(rows)
    (tmp_path / "shuffled.csv").write_text(header + "".join(rows))
    for key, mei in (("report stdout", out / "mei.csv"), ("shuffled", tmp_path / "shuffled.csv")):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["report", "--mei", str(mei), "--tracts", str(world_dir / "tracts.geojson")]) == 0
        digests[key] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return digests


@pytest.mark.parametrize("name, world_config, extra", [
    ("c08", C08_WORLD, ()),
    ("cluster", CLUSTER_WORLD, CLUSTER_ARGS),
])
def test_report_bytes_pinned(name, world_config, extra, tmp_path):
    digests = _run(world_config, tmp_path, *extra)
    # report reads mei.csv in any row order: shuffled rows print the same bytes.
    assert digests.pop("shuffled") == DIGESTS[name]["report stdout"]
    assert digests == DIGESTS[name]


def test_cluster_world_exercises_border_rule():
    """The pinned cluster world has clusters, noise and contested border points."""
    from hazmob import exposure, hazardclass
    from hazmob.geoindex import build_index, locate_stops
    from hazmob.homeloc import infer_homes
    from test_cluster import reference_dbscan

    world = synth.gen_world(CLUSTER_WORLD)
    index = build_index(world.tracts, 0.5)
    where = locate_stops(index, world.stops)
    masks = np.stack([
        hazardclass.classify_percentile(world.layers["air_pollution"], index.geoids),
        hazardclass.classify_percentile(world.layers["toxic"], index.geoids),
        hazardclass.classify_heat_quartile(world.layers["heat"], index.geoids),
    ], axis=1)
    acc = exposure.accumulate(world.stops, where, index.geoids,
                              infer_homes(world.stops, where, index.geoids), masks)
    coords = cluster.cluster_points(exposure.compute_mei(acc)).coords
    eps, min_pts = 0.03, 5
    labels = np.array(reference_dbscan([tuple(c) for c in coords], eps, min_pts))
    near = np.linalg.norm(coords[:, None] - coords[None], axis=2) <= eps
    core = near.sum(axis=1) >= min_pts
    contested = [i for i in np.flatnonzero(~core)
                 if len(set(labels[near[i] & core].tolist())) >= 2]
    assert labels.max() >= 1 and (labels == -1).any() and contested

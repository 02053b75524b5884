import argparse
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest

import hazmob
from hazmob import synth
from hazmob.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, load_config_file, main, make_parser
from hazmob.cli import ConfigError, RunConfig
from hazmob.cluster import ClusterConfig

from conftest import mei_table

REPORT_FILES = [
    "mei.csv", "clusters.csv", "cluster_summary.csv", "disparity.csv",
    "correlations.csv", "scatter.csv", "curves.csv",
]


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    world = synth.gen_world(
        synth.WorldConfig(seed=555, grid_n=6, hazard_autocorr=1, decay_alpha=2.5,
                          users=108, stops_per_user=40, demo_hazard_gain=0.4)
    )
    synth.write_world(world, out)
    return out


def run_args(fixture: Path, out: Path, *extra: str) -> list[str]:
    return [
        "run",
        "--stops", str(fixture / "stops.csv"),
        "--tracts", str(fixture / "tracts.geojson"),
        "--hazard-air", str(fixture / "hazard_air_pollution.csv"),
        "--hazard-toxic", str(fixture / "hazard_toxic.csv"),
        "--hazard-heat", str(fixture / "hazard_heat.csv"),
        "--out", str(out),
        "--cell-size", "0.5",
        *extra,
    ]


def test_synth_command_deterministic(tmp_path, capsys):
    args = ["synth", "--seed", "7", "--grid", "4", "--users", "10",
            "--stops-per-user", "5", "--out", str(tmp_path / "w1")]
    assert main(args) == EXIT_OK
    args[-1] = str(tmp_path / "w2")
    assert main(args) == EXIT_OK
    for name in ("stops.csv", "tracts.geojson", "hazard_heat.csv", "world_meta.json"):
        a = (tmp_path / "w1" / name).read_bytes()
        b = (tmp_path / "w2" / name).read_bytes()
        assert a == b, name


def test_synth_creates_missing_output_dir(tmp_path):
    target = tmp_path / "deep" / "nested" / "dir"
    assert main(["synth", "--seed", "1", "--grid", "2", "--users", "4",
                 "--stops-per-user", "3", "--out", str(target)]) == EXIT_OK
    assert (target / "stops.csv").exists()


# A NaN demographic gain would reach tracts.geojson as a bare NaN, which is
# not JSON; a NaN or infinite alpha would reach the destination weights.
@pytest.mark.parametrize("flag", [
    "--grid=0", "--alpha=0", "--alpha=nan", "--alpha=inf", "--alpha=-inf",
    "--demo-gain=nan", "--demo-gain=inf", "--demo-gain=-inf",
])
def test_synth_bad_config_exits_2(tmp_path, capsys, flag):
    assert main(["synth", "--seed", "1", "--grid", "4", flag, "--out", str(tmp_path / "w")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "w").exists()


def test_synth_negative_seed_exits_2(tmp_path, capsys):
    assert main(["synth", "--seed", "-1", "--grid", "2", "--out", str(tmp_path / "w")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: seed must be >= 0\n"
    assert not (tmp_path / "w").exists()


def test_run_writes_all_reports(fixture_dir, tmp_path):
    out = tmp_path / "reports"
    assert main(run_args(fixture_dir, out)) == EXIT_OK
    for name in REPORT_FILES:
        assert (out / name).exists(), name
        assert (out / f"{name}.meta.json").exists(), name
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["counts"]["tracts"] == 36
    assert meta["counts"]["stops_rejected"] == 0
    assert meta["counts"]["users_assigned"] == 108
    assert meta["config_hash"]
    sidecar = json.loads((out / "mei.csv.meta.json").read_text())
    assert sidecar["config_hash"] == meta["config_hash"]
    mei_lines = (out / "mei.csv").read_text().splitlines()
    assert len(mei_lines) - 1 == meta["counts"]["tracts_with_mei"]


@pytest.mark.parametrize("stops", ["fixture", "header-only"])
def test_run_sidecar_rows_count_the_csv_data_lines(fixture_dir, tmp_path, stops):
    """Each sidecar's rows is its CSV's data-line count, also for the reports
    whose rows are generated (cluster_summary.csv, curves.csv)."""
    args = run_args(fixture_dir, tmp_path / "out")
    if stops == "header-only":
        path = tmp_path / "stops.csv"
        path.write_bytes((fixture_dir / "stops.csv").read_bytes().partition(b"\n")[0] + b"\n")
        args[args.index("--stops") + 1] = str(path)
    assert main(args) == EXIT_OK
    counts = {name: (json.loads((tmp_path / "out" / f"{name}.meta.json").read_text())["rows"],
                     (tmp_path / "out" / name).read_bytes().count(b"\n") - 1)
              for name in REPORT_FILES}
    assert all(rows == lines for rows, lines in counts.values()), counts
    assert counts["curves.csv"][0] > 0
    assert (counts["mei.csv"][0] == 0) == (stops == "header-only")


@pytest.mark.filterwarnings("error")
def test_run_tiny_cell_size_names_geoindex_stage(fixture_dir, tmp_path, capsys):
    """A cell size whose grid cannot be counted in int64 fails cleanly, with
    no numpy cast warning."""
    args = run_args(fixture_dir, tmp_path / "out")
    args[args.index("--cell-size") + 1] = "1e-300"
    assert main(args) == EXIT_RUNTIME
    assert capsys.readouterr() == ("", "error in geoindex: cell_size_deg is too small for the tracts' extent\n")


def test_run_corrupt_stops_names_ingest_stage(fixture_dir, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("totally,not,the,right,header\n")
    args = run_args(fixture_dir, tmp_path / "out")
    args[args.index("--stops") + 1] = str(bad)
    assert main(args) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "ingest" in err
    # partial outputs are removed
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize("value, message", [
    ("NaN", "part 0 ring 0 has a non-finite coordinate"),
    ("1e400", "part 0 ring 0 has a non-finite coordinate"),
    ('"-97.1"', "malformed part 0 ring 0: position 0"),
    ("true", "malformed part 0 ring 0: position 0"),
])
def test_run_bad_tract_vertex_names_ingest_and_feature(fixture_dir, tmp_path, capsys, value, message):
    doc = json.loads((fixture_dir / "tracts.geojson").read_text())
    coordinates = doc["features"][3]["geometry"]["coordinates"]
    coordinates[0][0][0] = 1234.5
    bad = tmp_path / "tracts.geojson"
    bad.write_text(json.dumps(doc).replace("1234.5", value))
    args = run_args(fixture_dir, tmp_path / "out")
    args[args.index("--tracts") + 1] = str(bad)
    assert main(args) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error in ingest:")
    assert f"feature 3: {message}" in err


def test_run_feature_not_an_object_prints_one_exact_line(fixture_dir, tmp_path, capsys):
    bad = tmp_path / "tracts.geojson"
    bad.write_text(json.dumps({"type": "FeatureCollection", "features": [1]}))
    args = run_args(fixture_dir, tmp_path / "out")
    args[args.index("--tracts") + 1] = str(bad)
    assert main(args) == EXIT_RUNTIME
    assert capsys.readouterr().err == "error in ingest: feature 0: not a JSON object\n"


def _not_utf8(tmp_path: Path, source: Path) -> Path:
    """A copy of source with a byte 0xff in its second line."""
    lines = source.read_bytes().split(b"\n")
    lines[1] = b"\xff" + lines[1]
    bad = tmp_path / f"not_utf8_{source.name}"
    bad.write_bytes(b"\n".join(lines))
    return bad


def test_validate_stops_not_utf8_exits_1_naming_the_file(fixture_dir, tmp_path, capsys):
    bad = _not_utf8(tmp_path, fixture_dir / "stops.csv")
    assert main(["validate", "--stops", str(bad)]) == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith(f"error in ingest: stops: {bad}: not UTF-8 text (byte 0xff")


def test_report_mei_not_utf8_exits_1_naming_the_file(fixture_dir, tmp_path, capsys):
    out = tmp_path / "for_report"
    assert main(run_args(fixture_dir, out)) == EXIT_OK
    bad = _not_utf8(tmp_path, out / "mei.csv")
    capsys.readouterr()
    assert main(["report", "--mei", str(bad),
                 "--tracts", str(fixture_dir / "tracts.geojson")]) == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith(f"error in ingest: {bad}: not UTF-8 text (byte 0xff")


def test_run_stops_not_utf8_exits_1_naming_the_file(fixture_dir, tmp_path, capsys):
    bad = _not_utf8(tmp_path, fixture_dir / "stops.csv")
    args = run_args(fixture_dir, tmp_path / "out")
    args[args.index("--stops") + 1] = str(bad)
    assert main(args) == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith(f"error in ingest: {bad}: not UTF-8 text (byte 0xff")


def test_run_missing_input_exits_2(fixture_dir, tmp_path, capsys):
    args = run_args(fixture_dir, tmp_path / "out")
    args[args.index("--stops") + 1] = str(tmp_path / "nope.csv")
    assert main(args) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_run_directory_as_input_exits_2_and_writes_nothing(fixture_dir, tmp_path, capsys):
    out = tmp_path / "out"
    args = run_args(fixture_dir, out)
    args[args.index("--stops") + 1] = str(tmp_path)
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: stops must name an existing file, got '{tmp_path}'\n"
    assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_named_pipe_is_an_input_file(tmp_path):
    """A FIFO, such as `--stops <(zcat stops.csv.gz)` gives, passes the input check."""
    fifo = tmp_path / "stops.csv"
    os.mkfifo(fifo)
    RunConfig(stops=str(fifo)).check("stops")


@pytest.mark.parametrize("eps", [2.0**-511, math.nextafter(2.0**-511, 0), math.nextafter(2.0**512, 0), 2.0**512,
                                 math.nan, math.inf, 0.1])
def test_run_config_and_cluster_config_accept_the_same_eps(eps):
    run_error = cluster_error = None
    try:
        RunConfig(eps=eps).check("eps")
    except ConfigError as exc:
        run_error = str(exc)
    try:
        ClusterConfig(eps=eps).check()
    except ValueError as exc:
        cluster_error = str(exc)
    assert (run_error is None) == (cluster_error is None)
    if run_error:
        assert run_error == f"eps must be at least 2**-511 and below 2**512, got {eps!r}"
        assert cluster_error == "eps must be at least 2**-511 and below 2**512"


@pytest.mark.parametrize("flag, value", [
    ("--eps", "nan"), ("--eps", "inf"), ("--eps", "1e-200"), ("--eps", "1e200"),
    ("--curve-thresholds", "abc"), ("--curve-thresholds", "0.5,0.1"),
    ("--curve-thresholds", "0.1,0.1"), ("--curve-thresholds", "0.1,nan"), ("--curve-thresholds", "0.1,1.5"),
    ("--curve-thresholds", "0.1,,0.2"), ("--curve-thresholds", ","), ("--curve-thresholds", ""),
    ("--cell-size", "nan"), ("--cell-size", "inf"),
    ("--compound-threshold", "nan"), ("--compound-threshold", "inf"),
    ("--compound-threshold", "-1"), ("--eps", "abc"),
])
def test_run_bad_cluster_or_curve_flag_exits_2(fixture_dir, tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    assert main(run_args(fixture_dir, out, flag, value)) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


# The hashed keys of the default config, each with the value its `key=value`
# line shows. Input paths and out_dir are not hashed.
DEFAULT_HASHED = {
    "air_threshold": "0.5", "toxic_threshold": "0.5", "heat_quartile": "True",
    "night_start": "22", "night_end": "6", "min_nights": "3", "cell_size_deg": "0.05",
    "eps": "0.1", "min_pts": "10", "curve_thresholds": "'0.05,0.1'", "compound_threshold": "0.05",
}


@pytest.mark.parametrize("changes, lines", [
    ({}, {}),
    ({"stops": "s.csv", "out_dir": "out", "heat_quartile": False,
      "curve_thresholds": (0.05, 0.1, 0.2), "eps": 0.15},
     {"heat_quartile": "False", "curve_thresholds": "'0.05,0.1,0.2'", "eps": "0.15"}),
])
def test_config_hash_is_sha256_of_the_sorted_hashed_lines(changes, lines):
    text = "\n".join(sorted(f"{key}={value}" for key, value in {**DEFAULT_HASHED, **lines}.items()))
    assert RunConfig(**changes).config_hash() == hashlib.sha256(text.encode()).hexdigest()


def test_run_does_not_import_openssl(fixture_dir, tmp_path):
    """config_hash() uses the interpreter's own SHA-256 module: hashlib's
    OpenSSL module maps libcrypto, a few MB of every run's peak RSS."""
    if not (importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256")):
        pytest.skip("this interpreter has no built-in SHA-256 module")
    script = ("import sys\nfrom hazmob.cli import main\n"
              "print(main(sys.argv[1:]), '_hashlib' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(hazmob.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script, *run_args(fixture_dir, tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1] == f"{EXIT_OK} False", done.stderr
    assert (tmp_path / "out" / "mei.csv").exists()


@pytest.mark.parametrize("line, message", [
    ("heat_quartile = ture", "config error: {cfg}:2: bad value for heat_quartile: "),
    # The pipeline runs on one thread; no thread count is read.
    ("threads = 1", "config error: {cfg}:2: unknown config key 'threads'\n"),
    ("compound_threshold = -1", "config error: compound_threshold must be finite and lie in [0, 1]"),
    ("eps = abc", "config error: {cfg}:2: bad value for eps: "),
    # A repeated threshold would write each of its curves.csv rows twice.
    ("curve_thresholds = 0.1,0.1", "config error: curve_thresholds must be finite, lie in [0, 1] "
                                   "and strictly ascend, got (0.1, 0.1)\n"),
    # A repeated key would otherwise be read as its last value.
    ("eps = 0.1\n# same key\neps = 0.3", "config error: {cfg}:4: eps repeats line 2\n"),
])
def test_run_bad_config_line_exits_2(fixture_dir, tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# one bad line\n{line}\n")
    out = tmp_path / "out"
    assert main(run_args(fixture_dir, out, "--config", str(cfg))) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(message.format(cfg=cfg))
    assert not out.exists()


def test_config_file_reads_each_boolean_spelling(tmp_path):
    cfg = tmp_path / "run.cfg"
    for text, value in [("1", True), ("TRUE", True), ("Yes", True), ("on", True),
                        ("0", False), ("false", False), ("NO", False), ("Off", False)]:
        cfg.write_text(f"heat_quartile = {text}\n")
        assert load_config_file(str(cfg)) == {"heat_quartile": value}


def test_option_strings_are_pinned():
    parser = make_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: " ".join(s for a in commands.choices[name]._actions for s in a.option_strings
                       if s not in ("-h", "--help"))
        for name in ("run", "report", "validate")
    }
    assert options == {
        "run": "--config --stops --tracts --hazard-air --hazard-toxic --hazard-heat --out "
               "--air-threshold --toxic-threshold --heat-quartile --no-heat-quartile "
               "--night-start --night-end --min-nights --cell-size --eps --min-pts "
               "--curve-thresholds --compound-threshold",
        "report": "--mei --tracts --curve-thresholds --compound-threshold",
        "validate": "--stops --tracts --hazard-air --hazard-toxic --hazard-heat",
    }


def key_values(fixture: Path, out: Path) -> dict[str, tuple[str, str]]:
    """Each run key's flag, and the text of a value other than its default."""
    return {
        "stops": ("--stops", str(fixture / "stops.csv")),
        "tracts": ("--tracts", str(fixture / "tracts.geojson")),
        "hazard_air": ("--hazard-air", str(fixture / "hazard_air_pollution.csv")),
        "hazard_toxic": ("--hazard-toxic", str(fixture / "hazard_toxic.csv")),
        "hazard_heat": ("--hazard-heat", str(fixture / "hazard_heat.csv")),
        "out_dir": ("--out", str(out)),
        "air_threshold": ("--air-threshold", "0.6"),
        "toxic_threshold": ("--toxic-threshold", "0.4"),
        "heat_quartile": ("--no-heat-quartile", "off"),
        "night_start": ("--night-start", "21"),
        "night_end": ("--night-end", "7"),
        "min_nights": ("--min-nights", "2"),
        "cell_size_deg": ("--cell-size", "0.25"),
        "eps": ("--eps", "0.15"),
        "min_pts": ("--min-pts", "5"),
        "curve_thresholds": ("--curve-thresholds", "0.05,0.1,0.2"),
        "compound_threshold": ("--compound-threshold", "0.1"),
    }


@pytest.mark.parametrize("key", [f.name for f in fields(RunConfig)])
def test_flag_and_config_line_set_a_key_alike(fixture_dir, tmp_path, key):
    out = tmp_path / "out"
    flag, text = key_values(fixture_dir, out)[key]
    base = run_args(fixture_dir, out)
    if flag in base:
        del base[base.index(flag):base.index(flag) + 2]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {text}\n")
    results = []
    for args in ([flag] if key == "heat_quartile" else [flag, text]), ["--config", str(cfg)]:
        assert main(base + args) == EXIT_OK
        meta = json.loads((out / "run_metadata.json").read_text())
        results.append((meta["config"], meta["config_hash"]))
    assert results[0] == results[1]
    assert results[0][0][key] != RunConfig().as_dict()[key]


@pytest.mark.parametrize("value", ["abc", "0.5,0.1", "0.1,0.1", "0.1,nan", "0.1,,0.2", ",", ""])
def test_report_bad_curve_thresholds_exits_2(fixture_dir, tmp_path, capsys, value):
    out = tmp_path / "for_report"
    assert main(run_args(fixture_dir, out)) == EXIT_OK
    capsys.readouterr()
    assert main(["report", "--mei", str(out / "mei.csv"),
                 "--tracts", str(fixture_dir / "tracts.geojson"),
                 "--curve-thresholds", value]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert captured.out == ""


def test_config_file_with_flag_overrides(fixture_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                "# pipeline configuration",
                f"stops = {fixture_dir / 'stops.csv'}",
                f"tracts = {fixture_dir / 'tracts.geojson'}",
                f"hazard_air = {fixture_dir / 'hazard_air_pollution.csv'}",
                f"hazard_toxic = {fixture_dir / 'hazard_toxic.csv'}",
                f"hazard_heat = {fixture_dir / 'hazard_heat.csv'}",
                "cell_size_deg = 0.5",
                "eps = 0.2  # flag should beat this",
                "curve_thresholds = 0.05,0.1,0.2",
            ]
        )
        + "\n"
    )
    out = tmp_path / "cfg_out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--eps", "0.15"]) == EXIT_OK
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["config"]["eps"] == 0.15
    assert meta["config"]["curve_thresholds"] == [0.05, 0.1, 0.2]


def test_config_file_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 1\n")
    with pytest.raises(ConfigError):
        load_config_file(str(cfg))


def test_run_has_no_threads_flag(fixture_dir, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(run_args(fixture_dir, out, "--threads", "2"))
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not out.exists()


def test_run_ignores_hazmob_threads(fixture_dir, tmp_path, monkeypatch):
    assert main(run_args(fixture_dir, tmp_path / "plain")) == EXIT_OK
    monkeypatch.setenv("HAZMOB_THREADS", "zero")
    assert main(run_args(fixture_dir, tmp_path / "env")) == EXIT_OK
    for name in REPORT_FILES:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "env" / name).read_bytes(), name


def test_report_summary_consistent_with_mei_csv(fixture_dir, tmp_path, capsys):
    out = tmp_path / "for_report"
    assert main(run_args(fixture_dir, out)) == EXIT_OK
    capsys.readouterr()
    assert main([
        "report", "--mei", str(out / "mei.csv"), "--tracts", str(fixture_dir / "tracts.geojson"),
        "--curve-thresholds", "0.05,0.1",
    ]) == EXIT_OK
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0].startswith("tracts with defined MEI:")
    # recompute the direct-class mean for air from the CSV itself
    import csv as csv_mod

    with open(out / "mei.csv") as fh:
        rows = list(csv_mod.DictReader(fh))
    direct = [float(r["mei_air"]) for r in rows if r["class_air"] == "direct" and r["mei_air"]]
    expect = sum(direct) / len(direct)
    air_line = next(l for l in lines if l.startswith("air_pollution "))
    segments = air_line[len("air_pollution "):].split(" | ")
    direct_part = next(p for p in segments if p.startswith("direct"))
    assert f"{len(direct)} tracts" in direct_part
    assert f"mean_mei={expect:.6f}" in direct_part
    # population lines match a direct filter-and-sum over the CSV + tracts
    from hazmob import ingest
    from hazmob.exposure import population_curve

    table = ingest.read_mei(out / "mei.csv")
    tracts = ingest.parse_tracts(fixture_dir / "tracts.geojson")
    curve = population_curve(table, tracts, "toxic", [0.05, 0.1])
    for threshold, population in curve.points:
        assert f"latent_population toxic above {threshold:.6f}: {population}" in text


def test_report_empty_latent_class(tmp_path, capsys):
    from hazmob import ingest

    table = mei_table({"48001000001": dict(mei=0.9, nonhome_share=0.1, region_class="direct")})
    ingest.write_report(table, tmp_path / "mei.csv")
    tract_doc = {
        "type": "FeatureCollection",
        "features": [{
            "type": "Feature",
            "properties": {"GEOID": "48001000001", "POP": 10, "PCT_MINORITY": 0.5, "PCT_POV200": 0.5},
            "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]]},
        }],
    }
    (tmp_path / "tracts.geojson").write_text(json.dumps(tract_doc))
    assert main(["report", "--mei", str(tmp_path / "mei.csv"),
                 "--tracts", str(tmp_path / "tracts.geojson")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "latent: 0 tracts" in out


def test_report_geoid_without_a_tract_exits_1_naming_it(fixture_dir, report_dir, tmp_path, capsys):
    doc = json.loads((fixture_dir / "tracts.geojson").read_text())
    doc["features"] = [f for f in doc["features"] if f["properties"]["GEOID"] != "48001000002"]
    (tmp_path / "tracts.geojson").write_text(json.dumps(doc))
    assert main(["report", "--mei", str(report_dir / "mei.csv"),
                 "--tracts", str(tmp_path / "tracts.geojson")]) == EXIT_RUNTIME
    assert capsys.readouterr() == ("", "error in exposure: geoid 48001000002 has no tract in the tract file\n")


def test_validate_dry_run(fixture_dir, tmp_path, capsys):
    assert main([
        "validate",
        "--stops", str(fixture_dir / "stops.csv"),
        "--tracts", str(fixture_dir / "tracts.geojson"),
        "--hazard-air", str(fixture_dir / "hazard_air_pollution.csv"),
    ]) == EXIT_OK
    out = capsys.readouterr().out
    assert "stops: read=" in out
    assert "tracts: 36 features" in out
    bad = tmp_path / "bad_stops.csv"
    bad.write_text("user_id,lon,lat,start_ts,dwell_s\nu1,999,0,2019-04-01T00:00:00Z,5\n")
    assert main(["validate", "--stops", str(bad)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rejected=1" in out


def test_validate_prints_the_first_10_rejects_of_each_csv_input(tmp_path, capsys):
    air = tmp_path / "hazard_air.csv"
    air.write_text("geoid,value\nG1,0.5\nG2,abc\n")
    heat = tmp_path / "hazard_heat.csv"
    heat.write_text("geoid,value\n" + "".join(f"G{k},-{k}\n" for k in range(1, 13)))
    assert main(["validate", "--hazard-air", str(air), "--hazard-heat", str(heat)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "hazard_air_pollution: read=2 accepted=1 rejected=1",
        "  hazard_air_pollution line 3: unparseable value 'abc'",
        "hazard_heat: read=12 accepted=0 rejected=12",
    ] + [f"  hazard_heat line {line}: heat-day count must be >= 0" for line in range(2, 12)]


def test_no_heat_quartile_toggle(fixture_dir, tmp_path):
    out = tmp_path / "no_heat"
    assert main(run_args(fixture_dir, out, "--no-heat-quartile")) == EXIT_OK
    import csv as csv_mod

    with open(out / "mei.csv") as fh:
        rows = list(csv_mod.DictReader(fh))
    assert all(r["class_heat"] != "direct" for r in rows)
    assert all(not r["mei_heat"] or float(r["mei_heat"]) == 0.0 for r in rows)


@pytest.mark.parametrize("module, name, stage", [
    ("cli", "locate_stops", "geoindex"),
    ("homeloc", "infer_homes", "homeloc"),
    ("exposure", "accumulate", "exposure"),
    ("exposure", "compute_mei", "exposure"),
    ("cluster", "dbscan", "cluster"),
    ("stats", "scatter_export", "stats"),
])
def test_run_stage_failure_names_stage_and_leaves_no_outputs(
    fixture_dir, tmp_path, capsys, monkeypatch, module, name, stage
):
    import importlib

    def boom(*args, **kwargs):
        raise RuntimeError("planted failure")

    monkeypatch.setattr(importlib.import_module(f"hazmob.{module}"), name, boom)
    out = tmp_path / "out"
    assert main(run_args(fixture_dir, out)) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert f"error in {stage}:" in err
    assert "planted failure" in err
    assert list(out.iterdir()) == []


def test_report_bad_mei_cell_exits_1_naming_line(fixture_dir, tmp_path, capsys):
    out = tmp_path / "for_report"
    assert main(run_args(fixture_dir, out)) == EXIT_OK
    lines = (out / "mei.csv").read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    cells[header.index("mei_air")] = "abc"
    bad = tmp_path / "bad_mei.csv"
    bad.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
    capsys.readouterr()
    assert main(["report", "--mei", str(bad),
                 "--tracts", str(fixture_dir / "tracts.geojson")]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "error in ingest:" in err
    assert "line 2" in err


@pytest.mark.parametrize("command", ["run", "synth"])
def test_out_below_a_regular_file_exits_1(fixture_dir, tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    out = blocker / "out"
    if command == "run":
        args = run_args(fixture_dir, out)
    else:
        args = ["synth", "--seed", "1", "--grid", "2", "--users", "4",
                "--stops-per-user", "3", "--out", str(out)]
    assert main(args) == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("error in output:")
    assert blocker.read_text() == "not a directory\n"


def test_output_cleanup_skips_a_directory_in_the_way(fixture_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(run_args(fixture_dir, out)) == EXIT_OK
    (out / "scatter.csv").unlink()
    (out / "scatter.csv").mkdir()
    earlier = (out / "mei.csv").read_bytes()
    capsys.readouterr()
    assert main(run_args(fixture_dir, out)) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error in output:")
    assert "scatter.csv" in err
    assert (out / "scatter.csv").is_dir()
    assert (out / "mei.csv").read_bytes() == earlier  # the failed run replaced nothing


def snapshot(out: Path) -> dict:
    """Every entry of a directory: a file's bytes, or None for a directory."""
    return {p.name: None if p.is_dir() else p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("fault", ["non-finite metadata", "scatter.csv is a directory"])
def test_failed_rerun_keeps_the_earlier_outputs(fixture_dir, tmp_path, capsys, monkeypatch, fault):
    from hazmob import exposure

    out = tmp_path / "out"
    assert main(run_args(fixture_dir, out, "--min-pts", "4")) == EXIT_OK
    if fault == "scatter.csv is a directory":
        (out / "scatter.csv").unlink()
        (out / "scatter.csv").mkdir()
    else:
        monkeypatch.setattr(exposure, "compound_latent", lambda *args: ([], float("nan")))
    earlier = snapshot(out)
    assert len(earlier) == 15
    capsys.readouterr()
    # Another config: had any output been replaced, its sidecar's hash would differ.
    assert main(run_args(fixture_dir, out, "--min-pts", "5", "--air-threshold", "0.6")) == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("error in output:")
    assert snapshot(out) == earlier


def test_rerun_replaces_every_output(fixture_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(run_args(fixture_dir, out, "--air-threshold", "0.6")) == EXIT_OK
    assert main(run_args(fixture_dir, tmp_path / "fresh")) == EXIT_OK
    capsys.readouterr()
    assert main(run_args(fixture_dir, out)) == EXIT_OK
    assert capsys.readouterr().out == f"run complete: 15 files in {out}\n"
    fresh = snapshot(tmp_path / "fresh")
    fresh["run_metadata.json"] = fresh["run_metadata.json"].replace(b"fresh", b"out")
    assert snapshot(out) == fresh


def test_non_finite_metadata_is_an_output_error(fixture_dir, tmp_path, capsys, monkeypatch):
    from hazmob import exposure

    monkeypatch.setattr(exposure, "compound_latent", lambda *args: ([], float("nan")))
    out = tmp_path / "out"
    assert main(run_args(fixture_dir, out)) == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("error in output:")
    assert list(out.iterdir()) == []


def test_huge_dwell_row_is_rejected_and_counted(fixture_dir, tmp_path, capsys):
    """One stop of 10**20 s used to make home inference loop over every day of it."""
    stops = tmp_path / "stops.csv"
    good = (fixture_dir / "stops.csv").read_text()
    stops.write_text(good + "u000000,0.06345199285039718,0.7144629343767177,"
                            "2019-04-01T23:16:00Z,100000000000000000000\n")
    args = run_args(fixture_dir, tmp_path / "out")
    args[args.index("--stops") + 1] = str(stops)
    started = time.perf_counter()
    assert main(args) == EXIT_OK
    assert time.perf_counter() - started < 30
    counts = json.loads((tmp_path / "out" / "run_metadata.json").read_text())["counts"]
    assert counts["stops_rejected"] == 1
    assert counts["stops_accepted"] == len(good.splitlines()) - 1
    capsys.readouterr()
    assert main(["validate", "--stops", str(stops)]) == EXIT_OK
    assert f"stops line {len(good.splitlines()) + 1}: dwell_s: out of range" in capsys.readouterr().out


def test_overlong_stops_field_is_rejected_and_counted(fixture_dir, tmp_path, capsys):
    """A 200,000-character user_id used to abort the run in ingest."""
    lines = (fixture_dir / "stops.csv").read_text().splitlines(keepends=True)
    stops = tmp_path / "stops.csv"
    stops.write_text("".join(lines[:2]) + "u" * 200_000 + ",0.5,0.5,2019-04-01T23:16:00Z,60\n"
                     + "".join(lines[2:]))
    args = run_args(fixture_dir, tmp_path / "out")
    args[args.index("--stops") + 1] = str(stops)
    assert main(args) == EXIT_OK
    counts = json.loads((tmp_path / "out" / "run_metadata.json").read_text())["counts"]
    assert (counts["stops_rejected"], counts["stops_accepted"]) == (1, len(lines) - 1)
    capsys.readouterr()
    assert main(["validate", "--stops", str(stops)]) == EXIT_OK
    assert "stops line 3: unreadable row: field larger than field limit" in capsys.readouterr().out


def test_overlong_hazard_field_is_rejected_and_counted(fixture_dir, tmp_path, capsys):
    """A 200,000-character geoid used to abort the run in ingest."""
    lines = (fixture_dir / "hazard_air_pollution.csv").read_text().splitlines(keepends=True)
    hazard = tmp_path / "hazard_air.csv"
    hazard.write_text("".join(lines) + "G" * 200_000 + ",0.5\n")
    args = run_args(fixture_dir, tmp_path / "out")
    args[args.index("--hazard-air") + 1] = str(hazard)
    assert main(args) == EXIT_OK
    counts = json.loads((tmp_path / "out" / "run_metadata.json").read_text())["counts"]
    assert counts["hazard_rows_rejected"]["air_pollution"] == 1
    capsys.readouterr()
    assert main(["validate", "--hazard-air", str(hazard)]) == EXIT_OK
    assert f"hazard_air_pollution: read={len(lines)} accepted={len(lines) - 1} rejected=1" in (
        capsys.readouterr().out)


def test_heat_count_a_float64_would_round_is_rejected_and_counted(fixture_dir, tmp_path, capsys):
    lines = (fixture_dir / "hazard_heat.csv").read_text().splitlines(keepends=True)
    hazard = tmp_path / "hazard_heat.csv"
    hazard.write_text("".join(lines) + "48999000001,9007199254740993\n48999000002,9007199254740992\n")
    args = run_args(fixture_dir, tmp_path / "out")
    args[args.index("--hazard-heat") + 1] = str(hazard)
    assert main(args) == EXIT_OK
    counts = json.loads((tmp_path / "out" / "run_metadata.json").read_text())["counts"]
    assert counts["hazard_rows_rejected"]["heat"] == 1
    capsys.readouterr()
    assert main(["validate", "--hazard-heat", str(hazard)]) == EXIT_OK
    assert f"hazard_heat: read={len(lines) + 1} accepted={len(lines)} rejected=1" in (
        capsys.readouterr().out)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
def test_report_non_finite_compound_threshold_exits_2(fixture_dir, tmp_path, capsys, value):
    out = tmp_path / "for_report"
    assert main(run_args(fixture_dir, out)) == EXIT_OK
    capsys.readouterr()
    assert main(["report", "--mei", str(out / "mei.csv"),
                 "--tracts", str(fixture_dir / "tracts.geojson"),
                 f"--compound-threshold={value}"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: compound_threshold must be finite")
    assert captured.out == ""


@pytest.mark.parametrize("extra, no_night_dwell, below_min_nights", [
    (("--min-nights", "9"), 0, 108),  # every user has 8 planted nights
    (("--night-start", "5", "--night-end", "5"), 0, 0),  # the whole day is night
    (("--night-start", "18", "--night-end", "19", "--min-nights", "2"), None, None),
])
def test_run_metadata_says_why_users_got_no_home(fixture_dir, tmp_path, extra, no_night_dwell,
                                                 below_min_nights):
    out = tmp_path / "out"
    assert main(run_args(fixture_dir, out, *extra)) == EXIT_OK
    meta = json.loads((out / "run_metadata.json").read_text())
    counts, diagnostics = meta["counts"], meta["diagnostics"]
    assert counts["users_assigned"] + counts["users_unassigned"] == 108
    assert (diagnostics["users_no_night_dwell"] + diagnostics["users_below_min_nights"]
            == counts["users_unassigned"])
    if no_night_dwell is None:  # day stops end by 18:30, night stops start at 23:00
        assert diagnostics["users_no_night_dwell"] > 0
    else:
        assert diagnostics["users_no_night_dwell"] == no_night_dwell
        assert diagnostics["users_below_min_nights"] == below_min_nights


@pytest.fixture(scope="module")
def report_dir(fixture_dir, tmp_path_factory):
    """The outputs of one good run over the fixture world."""
    out = tmp_path_factory.mktemp("report")
    assert main(run_args(fixture_dir, out)) == EXIT_OK
    return out


def _mei_with(report_dir: Path, row: int, column: str, cell: str) -> str:
    """mei.csv's text with one cell of data row `row` (0 is the first) replaced."""
    lines = (report_dir / "mei.csv").read_text().splitlines()
    k = lines[0].split(",").index(column)
    cells = lines[1 + row].split(",")
    cells[k] = cell
    lines[1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("first_geoid, bad_cell, message", [
    # A quoted line break puts the second data row on file line 4.
    ('"48001\n000001"', "abc", "line 4: unparseable field: could not convert string to float: 'abc'"),
    ("48001000001", "9" * 200_000, "line 3: unreadable row: field larger than field limit (131072)"),
], ids=["quoted-line-break", "overlong-cell"])
def test_report_numbers_mei_rows_by_file_line(fixture_dir, report_dir, tmp_path, capsys,
                                              first_geoid, bad_cell, message):
    lines = _mei_with(report_dir, 1, "mei_air", bad_cell).splitlines(keepends=True)
    lines[1] = first_geoid + lines[1][lines[1].index(","):]
    bad = tmp_path / "mei.csv"
    bad.write_text("".join(lines))
    assert main(["report", "--mei", str(bad), "--tracts", str(fixture_dir / "tracts.geojson")]) == EXIT_RUNTIME
    assert capsys.readouterr().err == f"error in ingest: {message}\n"


OVERLONG = "x" * 200_000  # longer than csv.field_size_limit(), 131,072
# Each input: its flag, and the good file that a faulty one is made from.
INPUTS = {"stops": ("--stops", "stops.csv"), "tracts": ("--tracts", "tracts.geojson"),
          "hazard_air_pollution": ("--hazard-air", "hazard_air_pollution.csv"), "mei": ("--mei", "mei.csv")}


def _bad_input(kind: str, source: Path, report_dir: Path) -> bytes:
    text = source.read_bytes()
    if kind == "empty":
        return b""
    if kind == "header-only":
        if source.suffix == ".geojson":
            return json.dumps({"type": "FeatureCollection", "features": []}).encode()
        return text.partition(b"\n")[0] + b"\n"
    if kind == "nested":
        return b"[" * 200_000
    if kind == "overlong-header":
        return (OVERLONG + "\n").encode() + text.partition(b"\n")[2]
    if kind == "overlong-cell":
        return _mei_with(report_dir, 0, "geoid", OVERLONG).encode()
    assert kind == "bad-cell"
    return _mei_with(report_dir, 0, "class_air", "bogus").encode()


# Each command over a faulty input: the exit code and how stderr starts.
# A header-only CSV is a valid, empty input; a tract file without a tract
# fails when the index is built, or when report joins mei.csv's first geoid.
FAULTS = [
    *[(command, key, kind, EXIT_RUNTIME, f"error in ingest: {prefix}{start}")
      for command, prefix in (("run", ""), ("validate", "{key}: "))
      for key, kind, start in [
          ("stops", "not-utf8", "{path}: not UTF-8 text (byte 0xff"),
          ("stops", "empty", "stops file is empty (missing header)"),
          ("stops", "overlong-header", "bad stops header: expected ['user_id', 'lon', 'lat', "
                                       "'start_ts', 'dwell_s'], got unreadable row: field larger"),
          ("hazard_air_pollution", "not-utf8", "{path}: not UTF-8 text (byte 0xff"),
          ("hazard_air_pollution", "empty", "hazard file is empty (missing header)"),
          ("hazard_air_pollution", "overlong-header",
           "bad hazard header: expected ['geoid', 'value'], got unreadable row: field larger"),
          ("tracts", "not-utf8", "{path}: not UTF-8 text (byte 0xff"),
          ("tracts", "empty", "invalid GeoJSON"),
          ("tracts", "nested", "maximum recursion depth exceeded"),
      ]],
    ("run", "stops", "header-only", EXIT_OK, ""),
    ("run", "hazard_air_pollution", "header-only", EXIT_OK, ""),
    ("run", "tracts", "header-only", EXIT_RUNTIME, "error in geoindex: cannot build an index over an empty"),
    ("validate", "stops", "header-only", EXIT_OK, ""),
    ("validate", "tracts", "header-only", EXIT_OK, ""),
    ("report", "mei", "not-utf8", EXIT_RUNTIME, "error in ingest: {path}: not UTF-8 text (byte 0xff"),
    ("report", "mei", "empty", EXIT_RUNTIME, "error in ingest: mei.csv file is empty (missing header)"),
    ("report", "mei", "header-only", EXIT_OK, ""),
    ("report", "mei", "overlong-header", EXIT_RUNTIME, "error in ingest: bad mei.csv header: expected"),
    ("report", "mei", "overlong-cell", EXIT_RUNTIME,
     "error in ingest: line 2: unreadable row: field larger than field limit (131072)"),
    ("report", "mei", "bad-cell", EXIT_RUNTIME, "error in ingest: line 2: region_class[air_pollution]"),
    ("report", "tracts", "nested", EXIT_RUNTIME, "error in ingest: maximum recursion depth exceeded"),
    ("report", "tracts", "empty", EXIT_RUNTIME, "error in ingest: invalid GeoJSON"),
    ("report", "tracts", "header-only", EXIT_RUNTIME,
     "error in exposure: geoid 48000000000 has no tract in the tract file\n"),
    ("run", "out", "below-a-file", EXIT_RUNTIME, "error in output: "),
    ("synth", "out", "below-a-file", EXIT_RUNTIME, "error in output: "),
    ("synth", "grid", "0", EXIT_CONFIG, "config error: grid_n must be in [1, 64]"),
]


@pytest.mark.parametrize("command, key, kind, code, start", FAULTS,
                         ids=["-".join(case[:3]) for case in FAULTS])
def test_each_command_words_a_failure_once_without_a_traceback(fixture_dir, report_dir, tmp_path, capsys,
                                                               command, key, kind, code, start):
    (tmp_path / "file").write_text("not a directory\n")
    path = tmp_path / "file" / "out"
    flag = f"--{key}"
    if key in INPUTS:
        flag, name = INPUTS[key]
        source = (report_dir if key == "mei" else fixture_dir) / name
        if kind == "not-utf8":
            path = _not_utf8(tmp_path, source)
        else:
            path = tmp_path / f"{kind}{source.suffix}"
            path.write_bytes(_bad_input(kind, source, report_dir))
    args = {
        "run": run_args(fixture_dir, tmp_path / "out"),
        "validate": ["validate", flag, str(path)],
        "report": ["report", "--mei", str(report_dir / "mei.csv"), "--tracts", str(fixture_dir / "tracts.geojson")],
        "synth": ["synth", "--seed", "1", "--grid", "2", "--users", "4", "--stops-per-user", "3",
                  "--out", str(tmp_path / "world")],
    }[command]
    args[args.index(flag) + 1] = kind if key == "grid" else str(path)
    assert main(args) == code
    err = capsys.readouterr().err
    assert err.startswith(start.format(key=key, path=path))
    assert "Traceback" not in err
    assert (code == EXIT_OK) == (err == "")

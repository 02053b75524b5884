"""Command-line pipeline runner.

Subcommands: synth (write a synthetic world), run (full pipeline to a
report directory), report (human-readable summary of a prior run), and
validate (dry-run ingest). Runs are config-driven: a plain key=value
file plus flag overrides, flags winning; every output carries a sidecar
naming the resolved config hash. Exit codes: 0 success, 1 runtime
failure, 2 config/usage error. Every failure is printed by one printer,
in one wording: `config error: ...`, or `error in <stage>: ...` naming the
pipeline stage; validate adds the input, as in `error in ingest: stops: ...`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import cluster, exposure, hazardclass, homeloc, ingest, stats
from .geoindex import build_index, locate_stops
from .model import DIRECT_CODE, HAZARD_TYPES, LATENT_CODE, NONE_CODE, REGIONS, MeiTable

# The interpreter's own SHA-256: importing hashlib maps OpenSSL's libcrypto,
# about 3.5 MB resident, for the one digest a run takes.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # an interpreter built without it
        from hashlib import sha256

THREADS_ENV = "HAZMOB_THREADS"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    """Bad configuration or usage."""


class StageError(Exception):
    """Runtime failure attributed to a pipeline stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


@contextmanager
def _stage(name: str):
    """Attribute any failure inside the block to the named pipeline stage."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


def _bool(text: str) -> bool:
    word = text.strip().lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"expected 1/0, true/false, yes/no or on/off, got {text!r}")
    return word in ("1", "true", "yes", "on")


def _floats(text: str) -> tuple[float, ...]:
    """Comma-separated numbers, at least one; an empty item is an error."""
    items = text.split(",")
    if not all(map(str.strip, items)):
        raise ValueError(f"empty item in {text!r}")
    return tuple(map(float, items))


def _exists(path: str) -> bool:
    return bool(path) and Path(path).exists()


def _key(default, parse=str, check=None, must="", *, flag=None, hashed=True, hazard=None):
    """Declare a run key: its default; the parser of its config-file or flag
    text; the check its value must pass, worded as `<key> must <must>`; its
    flag, when not `--` plus the key with `_` -> `-`; whether it enters the
    config hash; and, for a hazard layer's path, the hazard type."""
    return field(default=default, metadata={"parse": parse, "check": check, "must": must,
                                            "flag": flag, "hashed": hashed, "hazard": hazard})


# Input paths do not change results, so they stay out of the config hash.
_INPUT = {"check": _exists, "must": "name an existing file", "hashed": False}
_FRACTION = {"check": lambda v: 0.0 <= v <= 1.0, "must": "be finite and lie in [0, 1]"}
_HOUR = {"check": lambda v: 0 <= v <= 23, "must": "lie in [0, 23]"}
_POSITIVE = {"check": lambda v: math.isfinite(v) and v > 0, "must": "be finite and positive"}
_COUNT = {"check": lambda v: v >= 1, "must": "be >= 1"}


@dataclass
class RunConfig:
    stops: str = _key("", **_INPUT)
    tracts: str = _key("", **_INPUT)
    hazard_air: str = _key("", **_INPUT, hazard="air_pollution")
    hazard_toxic: str = _key("", **_INPUT, hazard="toxic")
    hazard_heat: str = _key("", **_INPUT, hazard="heat")
    out_dir: str = _key("", check=bool, must="be given", flag="--out", hashed=False)
    air_threshold: float = _key(0.5, float, **_FRACTION)
    toxic_threshold: float = _key(0.5, float, **_FRACTION)
    heat_quartile: bool = _key(True, _bool)
    night_start: int = _key(22, int, **_HOUR)
    night_end: int = _key(6, int, **_HOUR)
    min_nights: int = _key(3, int, **_COUNT)
    cell_size_deg: float = _key(0.05, float, **_POSITIVE, flag="--cell-size")
    # The range cluster.ClusterConfig.check() accepts.
    eps: float = _key(0.1, float, lambda v: 2.0**-511 <= v < 2.0**512,
                      "be at least 2**-511 and below 2**512")
    min_pts: int = _key(10, int, **_COUNT)
    curve_thresholds: tuple[float, ...] = _key(
        (0.05, 0.10), _floats,
        lambda v: all(0.0 <= t <= 1.0 for t in v) and all(a < b for a, b in zip(v, v[1:])),
        "be finite, lie in [0, 1] and strictly ascend")
    compound_threshold: float = _key(0.05, float, **_FRACTION)
    # 0 = resolve from the environment, else 1. Validated and recorded, but
    # without effect: the pipeline runs on one thread.
    threads: int = _key(0, int, lambda v: v >= 0, "be >= 0", hashed=False)

    def resolved_threads(self) -> int:
        if self.threads > 0:
            return self.threads
        env = os.environ.get(THREADS_ENV, "")
        if env.strip():
            try:
                n = int(env)
            except ValueError:
                raise ConfigError(f"{THREADS_ENV} must be an integer, got {env!r}")
            if n < 1:
                raise ConfigError(f"{THREADS_ENV} must be >= 1")
            return n
        return 1

    def check(self, *names: str) -> None:
        """Raise ConfigError for the first of the named keys (all if none are
        named) whose value fails its declared check."""
        for f in fields(self):
            value = getattr(self, f.name)
            check = f.metadata["check"]
            if (not names or f.name in names) and check and not check(value):
                raise ConfigError(f"{f.name} must {f.metadata['must']}, got {value!r}")

    def config_hash(self) -> str:
        parts = []
        for f in fields(self):
            if not f.metadata["hashed"]:
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(repr(v) for v in value)
            parts.append(f"{f.name}={value!r}")
        return sha256("\n".join(sorted(parts)).encode()).hexdigest()

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


_KEYS = {f.name: f for f in fields(RunConfig)}
# Hazard type -> the run key holding its layer's path.
_HAZARD_KEYS = {f.metadata["hazard"]: f.name for f in _KEYS.values() if f.metadata["hazard"]}
_INPUT_KEYS = [key for key, f in _KEYS.items() if f.metadata["check"] is _exists]
_REPORT_KEYS = ("curve_thresholds", "compound_threshold")


def _parse(key: str, text: str, where: str = ""):
    """Parse a config-file value or flag text for `key`."""
    try:
        return _KEYS[key].metadata["parse"](text)
    except ValueError as exc:
        raise ConfigError(f"{where}bad value for {key}: {exc}") from None


def _flag_values(args: argparse.Namespace, keys) -> dict:
    """The given flags among `keys`, parsed as their config-file values are."""
    values = {}
    for key in keys:
        text = getattr(args, key)
        if text is not None:
            # A boolean flag stores True or False, which reads back the same.
            values[key] = _parse(key, str(text))
    return values


def _add_flags(parser: argparse.ArgumentParser, keys) -> None:
    """Add one flag per run key, storing its text (or a boolean) under the key."""
    for f in map(_KEYS.get, keys):
        default = ",".join(map(str, f.default)) if isinstance(f.default, tuple) else f.default
        parser.add_argument(
            f.metadata["flag"] or "--" + f.name.replace("_", "-"), dest=f.name,
            action=argparse.BooleanOptionalAction if isinstance(f.default, bool) else None,
            help=f"default: {default}" if default != "" else None)


def load_config_file(path: str) -> dict:
    """Parse a key=value config file ('#' starts a comment); a key may appear only once."""
    values: dict = {}
    first_line: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
        if key in first_line:
            raise ConfigError(f"{path}:{line_no}: {key} repeats line {first_line[key]}")
        first_line[key] = line_no
        values[key] = _parse(key, value.strip(), f"{path}:{line_no}: ")
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    values = load_config_file(args.config) if args.config else {}
    return RunConfig(**{**values, **_flag_values(args, _KEYS)})


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    from . import synth  # imported here so that the other commands start without it

    try:
        config = synth.WorldConfig(
            seed=args.seed,
            grid_n=args.grid,
            hazard_autocorr=args.autocorr,
            decay_alpha=args.alpha,
            users=args.users,
            stops_per_user=args.stops_per_user,
            archetype_mode=args.archetype,
            demo_hazard_gain=args.demo_gain,
        )
        config.check()
        world = synth.gen_world(config)
    except synth.SynthConfigError as exc:
        raise ConfigError(str(exc)) from exc
    meta = {
        "config": {f.name: getattr(config, f.name) for f in fields(config)},
        "tracts": len(world.tracts),
        "stops": len(world.stops),
    }
    with _stage("output"):
        paths = synth.write_world(world, args.out)
        with open(Path(args.out) / "world_meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True, indent=2)
            fh.write("\n")
    for name, path in sorted(paths.items()):
        print(f"wrote {name}: {path}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    config.check()
    config.resolved_threads()  # validates HAZMOB_THREADS

    out_dir = Path(config.out_dir)
    with _stage("output"):
        out_dir.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=".hazmob-run-", dir=out_dir))
    try:
        names = _run_into(config, staging)
        with _stage("output"):
            for name in names:
                if (out_dir / name).is_dir():
                    raise StageError("output", f"cannot replace {out_dir / name}: is a directory")
            for name in names:
                os.replace(staging / name, out_dir / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)

    print(f"run complete: {len(names)} files in {out_dir}")
    return EXIT_OK


def _run_into(config: RunConfig, staging: Path) -> list[str]:
    """Run every stage and write every output into staging; returns the file names."""
    with _stage("ingest"):
        stops, stop_report = ingest.parse_stops(config.stops)
        tracts = ingest.parse_tracts(config.tracts)
        hazards = {h: ingest.parse_hazard(getattr(config, key), h) for h, key in _HAZARD_KEYS.items()}

    with _stage("geoindex"):
        index = build_index(tracts, config.cell_size_deg)
        where = locate_stops(index, stops)

    with _stage("homeloc"):
        home_map = homeloc.infer_homes(stops, where, index.geoids, config.night_start,
                                       config.night_end, config.min_nights)

    with _stage("hazardclass"):
        # One mask row per tract code, in HAZARD_TYPES order. Toggle off:
        # heat stays unmasked and contributes no exposure.
        masks = np.stack([
            hazardclass.classify_percentile(hazards["air_pollution"][0], index.geoids, config.air_threshold),
            hazardclass.classify_percentile(hazards["toxic"][0], index.geoids, config.toxic_threshold),
            hazardclass.classify_heat_quartile(hazards["heat"][0], index.geoids) if config.heat_quartile
            else np.zeros(len(index.geoids), dtype=bool),
        ], axis=1)

    with _stage("exposure"):
        acc = exposure.accumulate(stops, where, index.geoids, home_map, masks)
        table = exposure.compute_mei(acc)
        table = exposure.classify_regions(table, masks, index.geoids)
        thresholds = list(config.curve_thresholds)
        curves = [exposure.population_curve(table, tracts, h, thresholds) for h in HAZARD_TYPES]
        compound_tracts, compound_pop = exposure.compound_latent(table, tracts, config.compound_threshold)

    with _stage("cluster"):
        points = cluster.cluster_points(table)
        result = cluster.dbscan(points, cluster.ClusterConfig(eps=config.eps, min_pts=config.min_pts))
        summary = cluster.summarize(result, table)

    with _stage("stats"):
        disparity = stats.disparity_table(table, tracts)
        correlations = stats.hazard_pair_correlations(table)
        scatter = stats.scatter_export(table, tracts)

    config_hash = config.config_hash()
    reports = {
        "mei.csv": table,
        "clusters.csv": result,
        "cluster_summary.csv": summary,
        "disparity.csv": disparity,
        "correlations.csv": correlations,
        "scatter.csv": scatter,
        "curves.csv": exposure.CurveTable(curves),
    }
    with _stage("output"):
        for name, report in reports.items():
            ingest.write_report(report, staging / name, config_hash)

    users_assigned = int((home_map.home >= 0).sum())
    users_unassigned = len(home_map.home) - users_assigned
    metadata = {
        "config": config.as_dict(),
        "config_hash": config_hash,
        "counts": {
            "stops_read": stop_report.rows_read,
            "stops_accepted": stop_report.rows_accepted,
            "stops_rejected": stop_report.rows_rejected,
            "hazard_rows_rejected": {h: hazards[h][1].rows_rejected for h in HAZARD_TYPES},
            "tracts": len(tracts),
            "users_assigned": users_assigned,
            "users_unassigned": users_unassigned,
            "tracts_with_mei": int((~table.excluded).sum()),
            "clusters": sum(1 for r in summary.rows if r.label != cluster.NOISE),
        },
        "diagnostics": {
            "unresolved_dwell_s": int(acc.unresolved_s.sum()),
            "dropped_stops": acc.dropped_stops,
            "dropped_dwell_s": acc.dropped_dwell_s,
            "dropped_users": acc.dropped_users,
            "users_no_night_dwell": home_map.no_night_dwell,
            "users_below_min_nights": users_unassigned - home_map.no_night_dwell,
        },
        "compound_latent": {
            "threshold": config.compound_threshold,
            "n_tracts": len(compound_tracts),
            "population": compound_pop,
        },
    }
    with _stage("output"), open(staging / "run_metadata.json", "w", encoding="utf-8") as fh:
        json.dump(metadata, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
    return [name for report in reports for name in (report, f"{report}.meta.json")] + ["run_metadata.json"]


def _class_means(table: MeiTable, k: int) -> dict[str, tuple[int, float | None]]:
    """Per region class, in direct, latent, none order: the number of tracts with
    a defined index for hazard k and that index's mean, summed in geoid order."""
    out = {}
    for code in (DIRECT_CODE, LATENT_CODE, NONE_CODE):
        values = table.mei[(table.region[:, k] == code) & ~np.isnan(table.mei[:, k]), k].tolist()
        out[REGIONS[code]] = (len(values), sum(values) / len(values) if values else None)
    return out


def cmd_report(args: argparse.Namespace) -> int:
    config = RunConfig(**_flag_values(args, _REPORT_KEYS))
    config.check(*_REPORT_KEYS)
    with _stage("ingest"):
        table = ingest.read_mei(args.mei)
        tracts = ingest.parse_tracts(args.tracts)

    with _stage("exposure"):
        lines = [f"tracts with defined MEI: {int((~table.excluded).sum())}"]
        for k, hazard in enumerate(HAZARD_TYPES):
            parts = [f"{region}: {n} tracts" + ("" if mean is None else f" mean_mei={mean:.6f}")
                     for region, (n, mean) in _class_means(table, k).items()]
            lines.append(f"{hazard} " + " | ".join(parts))
        for hazard in HAZARD_TYPES:
            curve = exposure.population_curve(table, tracts, hazard, list(config.curve_thresholds))
            lines += [f"latent_population {hazard} above {threshold:.6f}: {population}"
                      for threshold, population in curve.points]
        geoids, population = exposure.compound_latent(table, tracts, config.compound_threshold)
        lines.append(f"compound_latent above {config.compound_threshold:.6f}: "
                     f"{len(geoids)} tracts population={population}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    """Parse each given input and print its counts, and a CSV input's first
    10 rejects. A fatal fault in one input is printed, and the other inputs
    are still checked."""
    inputs = [("stops", args.stops, ingest.parse_stops), ("tracts", args.tracts, ingest.parse_tracts)]
    inputs += [(f"hazard_{h}", getattr(args, key), partial(ingest.parse_hazard, hazard_type=h))
               for h, key in _HAZARD_KEYS.items()]
    status = EXIT_OK
    for kind, path, parse in inputs:
        if not path:
            continue
        try:
            with _stage("ingest"):
                parsed = parse(path)
        except StageError as exc:
            status = _print_failure(StageError(exc.stage, f"{kind}: {exc}"))
            continue
        if kind == "tracts":
            print(f"tracts: {len(parsed)} features")
            continue
        report = parsed[1]
        print(f"{kind}: read={report.rows_read} accepted={report.rows_accepted} rejected={report.rows_rejected}")
        for line_no, reason in report.first_10_rejects:
            print(f"  {kind} line {line_no}: {reason}")
    return status


def _print_failure(exc: ConfigError | StageError) -> int:
    """Print a failure in the one wording of every subcommand; return its exit code."""
    if isinstance(exc, StageError):
        print(f"error in {exc.stage}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"config error: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hazmob", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic world on disk")
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--grid", type=int, default=10, help="tracts per grid side")
    p_synth.add_argument("--users", type=int, default=100)
    p_synth.add_argument("--stops-per-user", type=int, default=50)
    p_synth.add_argument("--autocorr", type=int, default=2, help="hazard smoothing radius in cells")
    p_synth.add_argument("--alpha", type=float, default=2.5, help="distance-decay exponent")
    p_synth.add_argument("--archetype", action="store_true", help="plant 8 exposure archetypes")
    p_synth.add_argument("--demo-gain", type=float, default=0.0,
                         help="demographic-hazard correlation strength")
    p_synth.add_argument("--out", required=True, help="output directory")

    p_run = sub.add_parser("run", help="run the full pipeline")
    p_run.add_argument("--config", help="key=value config file; flags override")
    _add_flags(p_run, _KEYS)

    p_report = sub.add_parser("report", help="summarize a prior run")
    p_report.add_argument("--mei", required=True, help="mei.csv from a run")
    p_report.add_argument("--tracts", required=True)
    _add_flags(p_report, _REPORT_KEYS)

    p_validate = sub.add_parser("validate", help="dry-run ingest of input files")
    _add_flags(p_validate, _INPUT_KEYS)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    handler = {
        "synth": cmd_synth,
        "run": cmd_run,
        "report": cmd_report,
        "validate": cmd_validate,
    }[args.command]
    try:
        return handler(args)
    except (ConfigError, StageError) as exc:
        return _print_failure(exc)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line pipeline runner.

Subcommands: synth (write a synthetic world), run (full pipeline to a
report directory), report (human-readable summary of a prior run), and
validate (dry-run ingest). Runs are config-driven: a plain key=value
file plus flag overrides, flags winning; every output carries a sidecar
naming the resolved config hash. Exit codes: 0 success, 1 runtime
failure, 2 config/usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from pathlib import Path

from . import cluster, exposure, hazardclass, homeloc, ingest, stats, synth
from .geoindex import build_index, locate_stops
from .model import HAZARD_TYPES, REGION_DIRECT, REGION_LATENT, REGION_NONE, MeiRow, MeiTable

THREADS_ENV = "HAZMOB_THREADS"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    """Bad configuration or usage."""


class StageError(Exception):
    """Runtime failure attributed to a pipeline stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
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


@dataclass
class RunConfig:
    stops: str = ""
    tracts: str = ""
    hazard_air: str = ""
    hazard_toxic: str = ""
    hazard_heat: str = ""
    out_dir: str = ""
    air_threshold: float = 0.5
    toxic_threshold: float = 0.5
    heat_quartile: bool = True
    night_start: int = 22
    night_end: int = 6
    min_nights: int = 3
    cell_size_deg: float = 0.05
    eps: float = 0.1
    min_pts: int = 10
    curve_thresholds: tuple[float, ...] = (0.05, 0.10)
    compound_threshold: float = 0.05
    # 0 = resolve from the environment, else 1. Validated and recorded, but
    # without effect: the pipeline runs on one thread.
    threads: int = 0

    # Keys that do not change results and stay out of the config hash.
    _NON_SEMANTIC = ("out_dir", "threads", "stops", "tracts",
                     "hazard_air", "hazard_toxic", "hazard_heat")

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

    def validate_for_run(self) -> None:
        for name in ("stops", "tracts", "hazard_air", "hazard_toxic", "hazard_heat"):
            path = getattr(self, name)
            if not path:
                raise ConfigError(f"missing required input path: {name}")
            if not Path(path).exists():
                raise ConfigError(f"{name} path does not exist: {path}")
        if not self.out_dir:
            raise ConfigError("missing required output directory (out_dir)")
        if not 0.0 <= self.air_threshold <= 1.0 or not 0.0 <= self.toxic_threshold <= 1.0:
            raise ConfigError("hazard thresholds must lie in [0, 1]")
        if not 0 <= self.night_start <= 23 or not 0 <= self.night_end <= 23:
            raise ConfigError("night window hours must lie in [0, 23]")
        if self.min_nights < 1:
            raise ConfigError("min_nights must be >= 1")
        if not (math.isfinite(self.cell_size_deg) and self.cell_size_deg > 0):
            raise ConfigError("cell_size_deg must be finite and positive")
        _require_finite("compound_threshold", self.compound_threshold)
        if not (math.isfinite(self.eps) and self.eps > 0) or self.min_pts < 1:
            raise ConfigError("cluster parameters require a finite eps > 0 and min_pts >= 1")

    def config_hash(self) -> str:
        parts = []
        for f in fields(self):
            if f.name in self._NON_SEMANTIC:
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(repr(v) for v in value)
            parts.append(f"{f.name}={value!r}")
        return hashlib.sha256("\n".join(sorted(parts)).encode()).hexdigest()

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite")


def _thresholds(text: str) -> tuple[float, ...]:
    values = tuple(float(v) for v in text.split(",") if v.strip())
    if not all(0.0 <= v <= 1.0 for v in values):
        raise ValueError("must be finite and lie in [0, 1]")
    if list(values) != sorted(values):
        raise ValueError("must be sorted ascending")
    return values


_CONFIG_PARSERS = {
    "stops": str, "tracts": str, "hazard_air": str, "hazard_toxic": str,
    "hazard_heat": str, "out_dir": str,
    "air_threshold": float, "toxic_threshold": float,
    "heat_quartile": lambda s: s.strip().lower() in ("1", "true", "yes", "on"),
    "night_start": int, "night_end": int, "min_nights": int,
    "cell_size_deg": float, "eps": float, "min_pts": int,
    "curve_thresholds": _thresholds,
    "compound_threshold": float, "threads": int,
}


def load_config_file(path: str) -> dict:
    """Parse a key=value config file ('#' starts a comment)."""
    values: dict = {}
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
        parser = _CONFIG_PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
        try:
            values[key] = parser(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{line_no}: bad value for {key}: {exc}")
    return values


def _parse_flag(key: str, text: str):
    """Parse a flag's text with the config-file parser for `key`."""
    try:
        return _CONFIG_PARSERS[key](text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}")


def build_run_config(args: argparse.Namespace) -> RunConfig:
    values = load_config_file(args.config) if args.config else {}
    overrides = {
        "stops": args.stops, "tracts": args.tracts,
        "hazard_air": args.hazard_air, "hazard_toxic": args.hazard_toxic,
        "hazard_heat": args.hazard_heat, "out_dir": args.out,
        "air_threshold": args.air_threshold, "toxic_threshold": args.toxic_threshold,
        "heat_quartile": args.heat_quartile,
        "night_start": args.night_start, "night_end": args.night_end,
        "min_nights": args.min_nights, "cell_size_deg": args.cell_size,
        "eps": args.eps, "min_pts": args.min_pts,
        "curve_thresholds": (
            _parse_flag("curve_thresholds", args.curve_thresholds)
            if args.curve_thresholds is not None
            else None
        ),
        "compound_threshold": args.compound_threshold, "threads": args.threads,
    }
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
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
    except synth.SynthConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    world = synth.gen_world(config)
    meta = {
        "config": {f.name: getattr(config, f.name) for f in fields(config)},
        "tracts": len(world.tracts),
        "stops": len(world.stops),
    }
    try:
        paths = synth.write_world(world, args.out)
        with open(Path(args.out) / "world_meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except (OSError, ingest.IngestError) as exc:
        print(f"error in output: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for name, path in sorted(paths.items()):
        print(f"wrote {name}: {path}")
    return EXIT_OK


def _parse_inputs(config: RunConfig):
    with _stage("ingest"):
        stops, stop_report = ingest.parse_stops(config.stops)
        tracts = ingest.parse_tracts(config.tracts)
        layers = {}
        hazard_reports = {}
        for hazard, path in (
            ("air_pollution", config.hazard_air),
            ("toxic", config.hazard_toxic),
            ("heat", config.hazard_heat),
        ):
            layers[hazard], hazard_reports[hazard] = ingest.parse_hazard(path, hazard)
    return stops, stop_report, tracts, layers, hazard_reports


def _classify_masks(config: RunConfig, layers, tracts):
    with _stage("hazardclass"):
        masks = {
            "air_pollution": hazardclass.classify_percentile(
                layers["air_pollution"], config.air_threshold
            ),
            "toxic": hazardclass.classify_percentile(layers["toxic"], config.toxic_threshold),
        }
        if config.heat_quartile:
            masks["heat"] = hazardclass.classify_heat_quartile(layers["heat"], tracts)
        else:
            # Toggle off: heat stays unmasked and contributes no exposure.
            masks["heat"] = layers["heat"]
        return masks


def cmd_run(args: argparse.Namespace) -> int:
    try:
        config = build_run_config(args)
        config.validate_for_run()
        config.resolved_threads()  # validates HAZMOB_THREADS
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(config.out_dir)
    written: list[Path] = []
    try:
        with _stage("output"):
            out_dir.mkdir(parents=True, exist_ok=True)

        stops, stop_report, tracts, layers, hazard_reports = _parse_inputs(config)

        with _stage("geoindex"):
            index = build_index(tracts, config.cell_size_deg)
            where = locate_stops(index, stops)

        with _stage("homeloc"):
            home_map = homeloc.infer_homes(
                stops, where, index.geoids,
                night_start=config.night_start,
                night_end=config.night_end,
                min_nights=config.min_nights,
            )

        masks = _classify_masks(config, layers, tracts)

        with _stage("exposure"):
            acc = exposure.accumulate(stops, where, index.geoids, home_map, masks)
            table = exposure.compute_mei(acc)
            table = exposure.classify_regions(table, masks)
            curves = [
                exposure.population_curve(table, tracts, h, list(config.curve_thresholds))
                for h in HAZARD_TYPES
            ]
            compound_tracts, compound_pop = exposure.compound_latent(
                table, tracts, config.compound_threshold
            )

        with _stage("cluster"):
            points = cluster.cluster_points(table)
            result = cluster.dbscan(points, cluster.ClusterConfig(eps=config.eps, min_pts=config.min_pts))
            table = cluster.apply_labels(table, result)
            summary = cluster.summarize(result, table)

        with _stage("stats"):
            disparity = stats.disparity_table(table, tracts)
            correlations = stats.hazard_pair_correlations(table)
            scatter = stats.scatter_export(table, tracts)

        config_hash = config.config_hash()

        def emit(obj, name: str) -> None:
            path = out_dir / name
            written.append(path)
            written.append(Path(f"{path}.meta.json"))
            with _stage("output"):
                ingest.write_report(obj, path, config_hash)

        emit(table, "mei.csv")
        emit(result, "clusters.csv")
        emit(summary, "cluster_summary.csv")
        emit(disparity, "disparity.csv")
        emit(correlations, "correlations.csv")
        emit(scatter, "scatter.csv")
        emit(curves, "curves.csv")

        metadata = {
            "config": config.as_dict(),
            "config_hash": config_hash,
            "counts": {
                "stops_read": stop_report.rows_read,
                "stops_accepted": stop_report.rows_accepted,
                "stops_rejected": stop_report.rows_rejected,
                "hazard_rows_rejected": {
                    h: hazard_reports[h].rows_rejected for h in HAZARD_TYPES
                },
                "tracts": len(tracts),
                "users_assigned": len(home_map.assignments),
                "users_unassigned": len(home_map.unassigned),
                "tracts_with_mei": int((~table.excluded).sum()),
                "clusters": sum(1 for r in summary.rows if r.label != cluster.NOISE),
            },
            "diagnostics": {
                "unresolved_dwell_s": acc.unresolved_dwell_s,
                "dropped_stops": acc.dropped_stops,
                "dropped_dwell_s": acc.dropped_dwell_s,
                "dropped_users": len(acc.dropped_users),
                "users_no_night_dwell": home_map.no_night_dwell,
                "users_below_min_nights": len(home_map.unassigned) - home_map.no_night_dwell,
            },
            "compound_latent": {
                "threshold": config.compound_threshold,
                "n_tracts": len(compound_tracts),
                "population": compound_pop,
            },
        }
        meta_path = out_dir / "run_metadata.json"
        written.append(meta_path)
        with _stage("output"), open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(metadata, fh, sort_keys=True, indent=2, allow_nan=False)
            fh.write("\n")
    except StageError as exc:
        for path in written:
            # A directory standing where an output goes is not ours to remove,
            # and failing on it would hide the error being reported.
            with suppress(OSError):
                path.unlink(missing_ok=True)
        print(f"error in {exc.stage}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    print(f"run complete: {len(written)} files in {out_dir}")
    return EXIT_OK


def _class_means(rows: list[MeiRow], hazard: str) -> dict[str, tuple[int, float | None]]:
    out = {}
    for region in (REGION_DIRECT, REGION_LATENT, REGION_NONE):
        values = [
            row.mei[hazard]
            for row in rows
            if row.region_class[hazard] == region and row.mei[hazard] is not None
        ]
        mean = sum(values) / len(values) if values else None
        out[region] = (len(values), mean)
    return out


def cmd_report(args: argparse.Namespace) -> int:
    thresholds = list(_parse_flag("curve_thresholds", args.curve_thresholds))
    _require_finite("compound_threshold", args.compound_threshold)
    try:
        rows = ingest.read_mei_rows(args.mei)
        tracts = ingest.parse_tracts(args.tracts)
    except ingest.IngestError as exc:
        print(f"error in ingest: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    table = MeiTable.from_rows(rows)
    defined = sum(1 for row in rows if not row.excluded)
    print(f"tracts with defined MEI: {defined}")
    for hazard in HAZARD_TYPES:
        means = _class_means(rows, hazard)
        parts = []
        for region in (REGION_DIRECT, REGION_LATENT, REGION_NONE):
            n, mean = means[region]
            if mean is None:
                parts.append(f"{region}: {n} tracts")
            else:
                parts.append(f"{region}: {n} tracts mean_mei={mean:.6f}")
        print(f"{hazard} " + " | ".join(parts))
    for hazard in HAZARD_TYPES:
        curve = exposure.population_curve(table, tracts, hazard, thresholds)
        for threshold, population in curve.points:
            print(f"latent_population {hazard} above {threshold:.6f}: {population}")
    geoids, population = exposure.compound_latent(table, tracts, args.compound_threshold)
    print(
        f"compound_latent above {args.compound_threshold:.6f}: "
        f"{len(geoids)} tracts population={population}"
    )
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    status = EXIT_OK
    if args.stops:
        try:
            _, report = ingest.parse_stops(args.stops)
            print(
                f"stops: read={report.rows_read} accepted={report.rows_accepted} "
                f"rejected={report.rows_rejected}"
            )
            for line_no, reason in report.first_10_rejects:
                print(f"  stops line {line_no}: {reason}")
        except ingest.IngestError as exc:
            print(f"stops: fatal: {exc}", file=sys.stderr)
            status = EXIT_RUNTIME
    if args.tracts:
        try:
            tracts = ingest.parse_tracts(args.tracts)
            print(f"tracts: {len(tracts)} features")
        except ingest.IngestError as exc:
            print(f"tracts: fatal: {exc}", file=sys.stderr)
            status = EXIT_RUNTIME
    for hazard, path in (
        ("air_pollution", args.hazard_air),
        ("toxic", args.hazard_toxic),
        ("heat", args.hazard_heat),
    ):
        if not path:
            continue
        try:
            _, report = ingest.parse_hazard(path, hazard)
            print(
                f"hazard_{hazard}: read={report.rows_read} accepted={report.rows_accepted} "
                f"rejected={report.rows_rejected}"
            )
        except ingest.IngestError as exc:
            print(f"hazard_{hazard}: fatal: {exc}", file=sys.stderr)
            status = EXIT_RUNTIME
    return status


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
    p_run.add_argument("--stops")
    p_run.add_argument("--tracts")
    p_run.add_argument("--hazard-air", dest="hazard_air")
    p_run.add_argument("--hazard-toxic", dest="hazard_toxic")
    p_run.add_argument("--hazard-heat", dest="hazard_heat")
    p_run.add_argument("--out")
    p_run.add_argument("--air-threshold", type=float, dest="air_threshold")
    p_run.add_argument("--toxic-threshold", type=float, dest="toxic_threshold")
    p_run.add_argument("--heat-quartile", dest="heat_quartile", action="store_true", default=None)
    p_run.add_argument("--no-heat-quartile", dest="heat_quartile", action="store_false")
    p_run.add_argument("--night-start", type=int, dest="night_start")
    p_run.add_argument("--night-end", type=int, dest="night_end")
    p_run.add_argument("--min-nights", type=int, dest="min_nights")
    p_run.add_argument("--cell-size", type=float, dest="cell_size")
    p_run.add_argument("--eps", type=float)
    p_run.add_argument("--min-pts", type=int, dest="min_pts")
    p_run.add_argument("--curve-thresholds", dest="curve_thresholds",
                       help="comma-separated ascending thresholds")
    p_run.add_argument("--compound-threshold", type=float, dest="compound_threshold")
    p_run.add_argument("--threads", type=int, help="accepted and recorded; has no effect")

    p_report = sub.add_parser("report", help="summarize a prior run")
    p_report.add_argument("--mei", required=True, help="mei.csv from a run")
    p_report.add_argument("--tracts", required=True)
    p_report.add_argument("--curve-thresholds", dest="curve_thresholds", default="0.05,0.1")
    p_report.add_argument("--compound-threshold", type=float, dest="compound_threshold", default=0.05)

    p_validate = sub.add_parser("validate", help="dry-run ingest of input files")
    p_validate.add_argument("--stops")
    p_validate.add_argument("--tracts")
    p_validate.add_argument("--hazard-air", dest="hazard_air")
    p_validate.add_argument("--hazard-toxic", dest="hazard_toxic")
    p_validate.add_argument("--hazard-heat", dest="hazard_heat")

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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

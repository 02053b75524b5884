"""Traced `hazmob run`, and the per-layer metrics derived from its spans.

Child usage: python3 tracer.py TRACE_JSON -- RUN_ARGS...

The child imports hazmob.cli (that import is what `cli.start_s` times,
together with interpreter start), then replaces every binding of every
public function of the hazmob modules with a wrapper, including names
that one module imported from another (`hazmob.cli.build_index`,
`hazmob.homeloc.locate`, `hazmob.exposure.locate`, `hazmob.geoindex.contains`).
It then calls `hazmob.cli.main(["run", ...])` and writes the spans it
kept in memory to TRACE_JSON. Nothing under src/ changes.

A span is (name, start, end, parent). Per-element helpers called for
every stop or polygon test only count their calls, which keeps the cost
of tracing small next to the work traced. A metric whose functions no
longer exist is reported as absent and reads 0.
"""

import os
import sys
import time

MODULES = ("cli", "ingest", "geoindex", "homeloc", "hazardclass", "exposure",
           "cluster", "stats", "model")
COUNT_ONLY = frozenset({"geoindex.contains", "geoindex.point_in_part", "ingest.parse_iso_utc",
                        "ingest.format_iso_utc", "homeloc.night_overlaps", "model.validate"})
RSS = frozenset({"ingest.parse_stops", "cluster.dbscan"})
SIZE = frozenset({"cluster.dbscan"})  # records len() of the first argument

# metric -> (unit, how, functions). how: "total" sums span time, "self"
# sums span time minus child spans, "calls" counts spans or counted calls.
LAYER_METRICS = {
    "cli.self_s": ("s", "self", ("cli.*",)),
    "ingest.parse_stops_s": ("s", "total", ("ingest.parse_stops",)),
    "ingest.parse_stops_rss_mb": ("MB", "rss", ("ingest.parse_stops",)),
    "ingest.parse_tracts_s": ("s", "total", ("ingest.parse_tracts",)),
    "ingest.parse_hazard_s": ("s", "total", ("ingest.parse_hazard",)),
    "ingest.write_report_s": ("s", "total", ("ingest.write_report",)),
    "geoindex.build_index_s": ("s", "total", ("geoindex.build_index",)),
    "geoindex.locate_calls": ("count", "calls", ("geoindex.locate",)),
    "geoindex.locate_s": ("s", "total", ("geoindex.locate",)),
    "homeloc.infer_homes_self_s": ("s", "self", ("homeloc.infer_homes",)),
    "hazardclass.classify_s": ("s", "total", ("hazardclass.classify_percentile",
                                              "hazardclass.classify_heat_quartile")),
    "exposure.accumulate_self_s": ("s", "self", ("exposure.accumulate",
                                                 "exposure.accumulate_parallel")),
    "exposure.index_s": ("s", "total", ("exposure.compute_mei", "exposure.classify_regions",
                                        "exposure.population_curve", "exposure.compound_latent")),
    "cluster.dbscan_s": ("s", "total", ("cluster.dbscan",)),
    "cluster.dbscan_rss_mb": ("MB", "rss", ("cluster.dbscan",)),
    "cluster.points": ("count", "size", ("cluster.dbscan",)),
    "stats.tables_s": ("s", "total", ("stats.disparity_table", "stats.hazard_pair_correlations",
                                      "stats.scatter_export")),
}


class Tracer:
    """Wraps hazmob's public functions and keeps their spans in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent span index or -1)
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.rss_kb: dict[str, int] = {}
        self.sizes: dict[str, int] = {}

    def _span(self, fn, name: str):
        import functools
        import resource

        key = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        rss, sizes = name in RSS, name in SIZE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if sizes and args and hasattr(args[0], "__len__"):
                self.sizes[name] = self.sizes.get(name, 0) + len(args[0])
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if rss else 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (key, t0, t1, parent)
                if rss:
                    grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
                    self.rss_kb[name] = self.rss_kb.get(name, 0) + grown

        return wrapper

    def _counter(self, fn, name: str):
        import functools

        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> list[str]:
        """Wrap every binding of every public hazmob function; return wrapped names."""
        import importlib
        import inspect

        modules = [importlib.import_module("hazmob")]
        for short in MODULES:
            try:
                modules.append(importlib.import_module(f"hazmob.{short}"))
            except ImportError:
                pass
        wrappers = {}
        for module in modules:
            for fn in vars(module).values():
                if (inspect.isfunction(fn) and fn.__module__.startswith("hazmob.")
                        and not fn.__name__.startswith("_") and id(fn) not in wrappers):
                    name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                    make = self._counter if name in COUNT_ONLY else self._span
                    wrappers[id(fn)] = (fn, make(fn, name), name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
        return sorted(name for _, _, name in wrappers.values())

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "calls": self.calls,
                "rss_kb": self.rss_kb, "sizes": self.sizes}


def _matches(name: str, patterns) -> bool:
    return any(name == p or (p.endswith(".*") and name.startswith(p[:-1])) for p in patterns)


def layer_metrics(trace: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from a trace file's contents; also the absent metrics."""
    names, spans = trace["names"], trace["spans"]
    n = len(spans)
    child_time = [0.0] * n
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    count: dict[str, int] = dict(trace["calls"])
    for idx, (key, t0, t1, _) in enumerate(spans):
        name = names[key]
        total[name] = total.get(name, 0.0) + (t1 - t0)
        self_time[name] = self_time.get(name, 0.0) + (t1 - t0 - child_time[idx])
        count[name] = count.get(name, 0) + 1
    present = set(trace["wrapped"])
    metrics = {"cli.start_s": {"value": trace["start_s"], "unit": "s"}}
    absent = []
    for metric, (unit, how, patterns) in LAYER_METRICS.items():
        found = [name for name in present if _matches(name, patterns)]
        if not found:
            absent.append(metric)
        if how == "total":
            value = sum(total.get(f, 0.0) for f in found)
        elif how == "self":
            value = sum(self_time.get(f, 0.0) for f in found)
        elif how == "calls":
            value = sum(count.get(f, 0) for f in found)
        elif how == "rss":
            value = sum(trace["rss_kb"].get(f, 0) for f in found) / 1024.0
        else:
            value = sum(trace["sizes"].get(f, 0) for f in found)
        metrics[metric] = {"value": value, "unit": unit}
    locates = count.get("geoindex.locate", 0)
    if "geoindex.contains" not in present or "geoindex.locate" not in present:
        absent.append("geoindex.contains_per_locate")
    metrics["geoindex.contains_per_locate"] = {
        "value": count.get("geoindex.contains", 0) / locates if locates else 0.0,
        "unit": "ratio",
    }
    return metrics, absent


def main(argv: list[str]) -> int:
    t_launch = float(os.environ["PERFBENCH_T0"])
    import hazmob.cli

    t_started = time.monotonic()
    import json

    out_path, run_args = argv[0], argv[2:]
    tracer = Tracer()
    wrapped = tracer.install()
    code = hazmob.cli.main(run_args)
    t_end = time.monotonic()
    trace = tracer.dump()
    trace.update(wrapped=wrapped, exit=code, start_s=t_started - t_launch,
                 total_s=t_end - t_launch)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

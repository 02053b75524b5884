"""Benchmark of `hazmob run` on seeded worlds, checked against an independent oracle.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload county-stops --seed 1 --seconds 40 --trace 0

The program is driven only through its public command,
`python -m hazmob.cli run` with the five input paths and `--out`, run
from the checkout's `src/` in a fresh child process per run. Runs go one
at a time (a closed loop with one client) with HAZMOB_THREADS unset and
the BLAS pools at one thread.

A run of this script: build (or reuse) the seeded inputs and the
oracle's expectations, outside every timed region; import hazmob once,
untimed, so bytecode is compiled; time one set-up run (header-only stops
file, `setup_s`); then time full runs for as long as the next one is
expected to end within `--seconds` of the set-up run's start (`run_s`
and `peak_rss_mb` are their medians). Every run's outputs are
checked against the oracle, and every report CSV must be byte-identical
across the full runs. With `--trace 1` one more full run is traced and
the per-layer metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
DEADLINE_S = 170.0  # the whole benchmark run must end within 180 s
CACHE_KEEP = 4  # input sets kept per workload

WORKLOADS = ("county-stops", "state-tracts", "messy-feed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def ensure_inputs(workload: str, seed: int) -> Path:
    """Generate the inputs and expectations for (workload, seed), or reuse them."""
    import oracle
    import worlds

    digest = hashlib.sha256()
    for name in ("worlds.py", "oracle.py"):
        digest.update((BENCH / name).read_bytes())
    base = WORK / "inputs"
    dest = base / f"{workload}-{seed}-{digest.hexdigest()[:12]}"
    if (dest / "expected.json").is_file():
        os.utime(dest)
        return dest
    tmp = base / f".tmp-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    world = worlds.build_world(worlds.SPECS[workload], seed)
    worlds.write_world(world, tmp)
    oracle.save(*oracle.expected_outputs(world), tmp)
    shutil.rmtree(dest, ignore_errors=True)
    os.replace(tmp, dest)
    old = sorted(base.glob(f"{workload}-*"), key=lambda p: p.stat().st_mtime)
    for stale in old[:-CACHE_KEEP]:
        shutil.rmtree(stale, ignore_errors=True)
    return dest


def child_env() -> dict:
    # Bytecode is cached as in a normal install, so no timed run recompiles
    # hazmob whatever the caller's PYTHONDONTWRITEBYTECODE says.
    drop = ("HAZMOB_THREADS", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_args(data: Path, stops: str, out: Path) -> list[str]:
    return ["run", "--stops", str(data / stops), "--tracts", str(data / "tracts.geojson"),
            "--hazard-air", str(data / "hazard_air.csv"),
            "--hazard-toxic", str(data / "hazard_toxic.csv"),
            "--hazard-heat", str(data / "hazard_heat.csv"), "--out", str(out)]


class Runner:
    """Launches children one at a time through launcher.py, within the deadline."""

    def __init__(self, env: dict, started: float):
        self.env = env
        self.started = started

    def launch(self, command: list[str], log: Path) -> dict:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 1:
            return {"exit": None, "error": "no time left before the deadline"}
        argv = [sys.executable, str(BENCH / "launcher.py"), f"{log}.out", f"{log}.err", "--",
                *command]
        proc = subprocess.Popen(argv, env=self.env, stdout=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return {"exit": None, "error": f"killed after {remaining:.0f} s"}
        if proc.returncode != 0:
            return {"exit": None, "error": f"launcher exited {proc.returncode}"}
        return json.loads(out)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def stderr_tail(log: Path) -> str:
    try:
        return log.with_name(log.name + ".err").read_text(encoding="utf-8")[-400:]
    except OSError:
        return ""


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not (ROOT / "src" / "hazmob" / "cli.py").is_file():
        print(f"error: no hazmob sources at {ROOT / 'src' / 'hazmob'}", file=sys.stderr)
        return 2
    import checks
    import oracle

    data = ensure_inputs(args.workload, args.seed)
    scalars, arrays = oracle.load(data)
    planted = scalars["planted"]
    print(f"workload {args.workload} seed {args.seed}: {planted['tracts']} tracts, "
          f"{planted['devices']} devices, {scalars['counts']['stops_read']} stop rows, "
          f"{scalars['dbscan']['points']} clustered tracts")

    runner = Runner(child_env(), started)
    out_root = WORK / "out" / args.workload
    logs = fresh_dir(WORK / "logs" / args.workload)
    warm = subprocess.run([sys.executable, "-c", "import hazmob.cli"], env=runner.env,
                          capture_output=True, text=True, timeout=60)
    if warm.returncode != 0:
        print(f"error: hazmob.cli does not import:\n{warm.stderr[-400:]}", file=sys.stderr)
        return 2

    attempted = failed = 0
    failures: list[str] = []

    def record(op: str, result: dict, problems: list[str]) -> bool:
        nonlocal attempted, failed
        attempted += 1
        if result.get("exit") != 0:
            problems = [f"exit {result.get('exit')} {result.get('error', '')}".strip()] + problems
        if problems:
            failed += 1
            failures.extend(f"{op}: {p}" for p in problems[:5])
        return not problems

    hazmob = [sys.executable, "-m", "hazmob.cli"]
    measure_start = time.monotonic()
    out = fresh_dir(out_root / "setup")
    result = runner.launch(hazmob + run_args(data, "stops_empty.csv", out), logs / "setup")
    record("setup", result, checks.check_setup_run(out) if result.get("exit") == 0
           else [stderr_tail(logs / "setup")])
    setup_s = result.get("wall_s", 0.0)

    walls, rss_mb, cpu = [], [], []
    digests = None
    rounds = 0
    # Whole runs only, and none that would end past the window by the
    # median run's length: a run takes about --seconds plus input set-up.
    while rounds == 0 or (time.monotonic() - measure_start
                          + statistics.median(walls or [0.0]) <= args.seconds):
        rounds += 1
        out = fresh_dir(out_root / "run")
        log = logs / f"run{rounds}"
        result = runner.launch(hazmob + run_args(data, "stops.csv", out), log)
        if result.get("exit") == 0:
            problems = checks.check_run(out, scalars, arrays)
            got = checks.report_digests(out)
            digests = digests or got
            problems += [f"{name} differs from the first run's bytes"
                         for name in digests if got.get(name) != digests[name]]
        else:
            problems = [stderr_tail(log)]
        if record(f"run {rounds}", result, problems):
            walls.append(result["wall_s"])
            rss_mb.append(result["maxrss_kb"] / 1024.0)
            cpu.append(result["cpu_s"])
        elif result.get("exit") is None:
            break  # out of time

    run_s = statistics.median(walls) if walls else 0.0
    if walls:
        lo, hi = quartiles(walls)
        stops = scalars["counts"]["stops_read"]
        print(f"run_s {run_s:.4f} s (median of {len(walls)} runs, quartiles {lo:.4f}-{hi:.4f}); "
              f"{stops / run_s:.0f} stops/s; cpu {statistics.median(cpu):.3f} s")
        print("run_s each: " + " ".join(f"{w:.4f}" for w in walls))
    print(f"setup_s {setup_s:.4f} s (one cold set-up run)")
    peak = statistics.median(rss_mb) if rss_mb else 0.0
    print(f"peak_rss_mb {peak:.2f} MB (median)")

    metrics = {
        "run_s": {"value": run_s, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }
    if args.trace:
        import tracer

        out = fresh_dir(out_root / "traced")
        trace_path = fresh_dir(WORK / "trace") / f"{args.workload}-{args.seed}.json"
        log = logs / "traced"
        result = runner.launch([sys.executable, str(BENCH / "tracer.py"), str(trace_path), "--",
                                *run_args(data, "stops.csv", out)], log)
        problems = (checks.check_run(out, scalars, arrays) if result.get("exit") == 0
                    else [stderr_tail(log)])
        record("traced run", result, problems)
        metrics = {}
        if trace_path.is_file():
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
            metrics, absent = tracer.layer_metrics(trace)
            metrics["trace.overhead_s"] = {"value": trace["total_s"] - run_s, "unit": "s"}
            print(f"traced run: {trace['total_s']:.4f} s from launch to return, "
                  f"{len(trace['spans'])} spans; absent: {', '.join(absent) or 'none'}")
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")

    print(f"attempted {attempted} failed {failed}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

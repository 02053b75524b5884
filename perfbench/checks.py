"""Compare one `hazmob run` output directory with the oracle's expectations.

`check_run` returns a list of failure messages; an empty list means every
check passed. Float columns are compared with the tolerance that their
printed precision allows, counts and classes exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from oracle import SHORT

MEI_TOL = 1e-6
# A value printed at 6 decimals is within half a unit of the last place of
# the exact value; the extra 1e-12 absorbs the two sides' rounding error.
PRINTED_TOL = 5e-7 + 1e-12
REPORTS = ("mei.csv", "clusters.csv", "cluster_summary.csv", "disparity.csv",
           "correlations.csv", "scatter.csv", "curves.csv")


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def _num(cell: str) -> float:
    return float("nan") if cell == "" else float(cell)


def _close(printed: str, expected, tol: float = PRINTED_TOL) -> bool:
    if expected is None:
        return printed == ""
    return printed != "" and abs(float(printed) - expected) <= tol


def check_mei(out: Path, arrays: dict) -> list[str]:
    header, rows = _read_csv(out / "mei.csv")
    expected_header = (["geoid"] + [f"{p}_{s}" for p in ("mei", "nonhome_share", "nonhome_cond")
                                    for s in SHORT] + [f"class_{s}" for s in SHORT])
    if header != expected_header:
        return [f"mei.csv: header {header}"]
    got = {r[0]: r for r in rows if len(r) == len(header)}
    if len(got) != len(rows):
        return ["mei.csv: malformed rows"]
    want = [str(g) for g in arrays["geoid"]]
    failures = []
    missing, extra = set(want) - set(got), set(got) - set(want)
    if missing or extra:
        failures.append(f"mei.csv: {len(missing)} tracts missing (e.g. {sorted(missing)[:3]}), "
                        f"{len(extra)} unexpected (e.g. {sorted(extra)[:3]})")
    present = [k for k, g in enumerate(want) if g in got]
    table = np.array([got[want[k]][1:10] for k in present], dtype=object).reshape(-1, 9)
    values = np.vectorize(_num, otypes=[float])(table) if len(present) else np.empty((0, 9))
    for col, key in enumerate(("mei", "share", "cond")):
        exp = arrays[key][:, present]
        for k in range(3):
            v, e = values[:, 3 * col + k], exp[k]
            bad = (np.isnan(v) != np.isnan(e)) | (np.abs(v - e) > MEI_TOL)
            if bad.any():
                i = int(np.argmax(bad))
                failures.append(f"mei.csv: {expected_header[1 + 3 * col + k]} differs on "
                                f"{int(bad.sum())} tracts, e.g. {want[present[i]]}: "
                                f"{v[i]!r} vs {e[i]!r}")
    classes = np.array([got[want[k]][10:13] for k in present], dtype=object).reshape(-1, 3)
    for k in range(3):
        bad = classes[:, k] != arrays["classes"][k, present]
        if bad.any():
            i = int(np.argmax(bad))
            failures.append(f"mei.csv: class_{SHORT[k]} differs on {int(bad.sum())} tracts, e.g. "
                            f"{want[present[i]]}: {classes[i, k]} vs {arrays['classes'][k, present[i]]}")
    return failures


def check_clusters(out: Path, arrays: dict) -> list[str]:
    header, rows = _read_csv(out / "clusters.csv")
    if header != ["geoid", "label"]:
        return [f"clusters.csv: header {header}"]
    got = {r[0]: int(r[1]) for r in rows}
    want = [str(g) for g in arrays["geoid"]]
    if set(got) != set(want) or len(rows) != len(want):
        return [f"clusters.csv: {len(rows)} rows for {len(want)} clustered tracts"]
    labels = np.array([got[g] for g in want])
    core, comp, noise = arrays["core"], arrays["component"], arrays["noise"]
    failures = []
    if not np.array_equal(labels == -1, noise):
        failures.append(f"clusters.csv: noise set has {int((labels == -1).sum())} tracts, "
                        f"oracle {int(noise.sum())}")
    label_of_comp: dict[int, int] = {}
    for c, lab in zip(comp[core].tolist(), labels[core].tolist()):
        if label_of_comp.setdefault(c, lab) != lab or lab == -1:
            failures.append(f"clusters.csv: core component {c} split or labelled noise")
            break
    if len(set(label_of_comp.values())) != len(label_of_comp):
        failures.append("clusters.csv: two core components share one label")
    indptr, bcomp = arrays["border_indptr"], arrays["border_components"]
    for i in np.nonzero(~core & ~noise)[0].tolist():
        allowed = {label_of_comp.get(c) for c in bcomp[indptr[i]:indptr[i + 1]].tolist()}
        if labels[i] not in allowed:
            failures.append(f"clusters.csv: border tract {want[i]} has label {labels[i]}, "
                            f"not one of its core neighbours' {sorted(a for a in allowed if a is not None)}")
            break
    return failures


def check_disparity(out: Path, scalars: dict) -> list[str]:
    header, rows = _read_csv(out / "disparity.csv")
    want = scalars["disparity"]
    if len(rows) != len(want) or len(header) != 13:
        return [f"disparity.csv: {len(rows)} rows, oracle {len(want)}"]
    failures = []
    for row, exp in zip(rows, want):
        key = f"{exp['hazard']}/{exp['region_class']}"
        if row[:3] != [exp["hazard"], exp["region_class"], str(exp["n_tracts"])]:
            failures.append(f"disparity.csv: row {row[:3]} where oracle has {key} "
                            f"n={exp['n_tracts']}")
            continue
        cells = list(zip(row[3:7], exp["means"]))
        for test, offset in (("poverty", 7), ("minority", 10)):
            result = exp[test]
            t, p = result if result is not None else (None, None)
            cells += [(row[offset], t), (row[offset + 1], p)]
            sig = "" if p is None else str(int(p < 0.01))
            if row[offset + 2] != sig and not (p is not None and abs(p - 0.01) < 1e-9):
                failures.append(f"disparity.csv: {key} sig01_{test} {row[offset + 2]!r}, oracle {sig!r}")
        for printed, value in cells:
            if not _close(printed, value):
                failures.append(f"disparity.csv: {key} value {printed!r}, oracle {value!r}")
                break
    return failures


def check_correlations(out: Path, scalars: dict) -> list[str]:
    header, rows = _read_csv(out / "correlations.csv")
    want = scalars["correlations"]
    if len(rows) != len(want):
        return [f"correlations.csv: {len(rows)} rows, oracle {len(want)}"]
    failures = []
    for row, exp in zip(rows, want):
        ok = (row[0] == exp["hazard_a"] and row[1] == exp["hazard_b"]
              and _close(row[2], exp["r"]) and _close(row[3], exp["p"])
              and row[4] == str(exp["n"]) and row[5] == str(int(exp["p"] < 0.01)))
        if not ok:
            failures.append(f"correlations.csv: {row}, oracle {exp}")
    return failures


def check_curves(out: Path, scalars: dict) -> list[str]:
    _, rows = _read_csv(out / "curves.csv")
    want = [[h, f"{thr:.6f}", str(pop)] for h, thr, pop in scalars["curves"]]
    if rows != want:
        return [f"curves.csv: {rows}, oracle {want}"]
    return []


def check_metadata(out: Path, scalars: dict) -> list[str]:
    meta = json.loads((out / "run_metadata.json").read_text(encoding="utf-8"))
    got = {**meta.get("counts", {}), **meta.get("diagnostics", {})}
    return [f"run_metadata.json: {key} = {got.get(key)!r}, planted {value!r}"
            for key, value in scalars["counts"].items() if got.get(key) != value]


def check_run(out: Path, scalars: dict, arrays: dict) -> list[str]:
    """Every check against the oracle for one full run's output directory."""
    missing = [name for name in REPORTS + ("run_metadata.json",) if not (out / name).is_file()]
    if missing:
        return [f"missing outputs: {missing}"]
    failures = []
    for check in (lambda: check_mei(out, arrays), lambda: check_clusters(out, arrays),
                  lambda: check_disparity(out, scalars), lambda: check_correlations(out, scalars),
                  lambda: check_curves(out, scalars), lambda: check_metadata(out, scalars)):
        try:
            failures += check()
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            failures.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return failures


def check_setup_run(out: Path) -> list[str]:
    """The header-only run reads no stops, assigns no one and writes empty reports."""
    try:
        meta = json.loads((out / "run_metadata.json").read_text(encoding="utf-8"))
        header, rows = _read_csv(out / "mei.csv")
    except (OSError, ValueError) as exc:
        return [f"setup run outputs unreadable: {exc}"]
    counts = meta.get("counts", {})
    if counts.get("stops_read") != 0 or counts.get("users_assigned") != 0 or rows:
        return [f"setup run: stops_read={counts.get('stops_read')} "
                f"users_assigned={counts.get('users_assigned')} mei rows={len(rows)}"]
    return []


def report_digests(out: Path) -> dict[str, str]:
    """sha256 of every report CSV, for the byte-identity check across runs."""
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in REPORTS if (out / name).is_file()}

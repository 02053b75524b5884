"""Expected `hazmob run` outputs, derived from a world's construction.

Nothing here imports hazmob. Dwell sums come from numpy bincount over the
stops' known tracts and homes; masks from `> 0.5` and a per-county
numpy.percentile(method="weibull"); DBSCAN structure from a cKDTree and
scipy.sparse.csgraph connected components; the disparity and correlation
tables from scipy.stats. The result is saved beside the inputs and read
back by `checks`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy import sparse, stats
from scipy.sparse import csgraph
from scipy.spatial import cKDTree

HAZARDS = ("air_pollution", "toxic", "heat")
SHORT = ("air", "toxic", "heat")
THRESHOLD = 0.5
EPS = 0.1
MIN_PTS = 10
CURVE_THRESHOLDS = (0.05, 0.10)
DIRECT, LATENT, NONE = "direct", "latent", "none"


def heat_mask(heat: np.ndarray, county: np.ndarray, geoids: np.ndarray) -> np.ndarray:
    """Top quartile of heat days per county; under 4 tracts, the maximum only."""
    mask = np.zeros(len(heat), dtype=bool)
    for c in np.unique(county):
        idx = np.nonzero(county == c)[0]
        values = heat[idx]
        if len(idx) < 4:
            top = min(idx, key=lambda t: (-heat[t], geoids[t]))
            mask[top] = True
        else:
            mask[idx] = values >= np.percentile(values, 75, method="weibull")
    return mask


def dwell_sums(home: np.ndarray, stop_user: np.ndarray, stop_tract: np.ndarray,
               stop_dwell: np.ndarray, masks: np.ndarray, n_tracts: int) -> dict:
    """TDT, HDT and their non-home parts per home tract, by bincount."""
    home_of_stop = home[stop_user]
    res = home_of_stop >= 0
    h, t, w = home_of_stop[res], stop_tract[res], stop_dwell[res].astype(np.float64)
    resolved = t >= 0
    nonhome = resolved & (t != h)
    in_mask = np.zeros((len(masks), len(t)), dtype=bool)
    in_mask[:, resolved] = masks[:, t[resolved]]

    def bc(sel):
        return np.rint(np.bincount(h[sel], weights=w[sel], minlength=n_tracts)).astype(np.int64)

    return {
        "tdt": bc(np.ones(len(h), dtype=bool)),
        "tdt_nonhome": bc(nonhome),
        "hdt": np.stack([bc(m) for m in in_mask]),
        "hdt_nonhome": np.stack([bc(m & nonhome) for m in in_mask]),
        "unresolved_dwell_s": int(stop_dwell[res][~resolved].sum()),
        "dropped_dwell_s": int(stop_dwell[~res].sum()),
    }


def dbscan_structure(points: np.ndarray, eps: float = EPS, min_pts: int = MIN_PTS) -> dict:
    """Core flags, core components, noise and each border point's core components."""
    n = len(points)
    tree = cKDTree(points)
    pairs = tree.query_pairs(r=eps * (1 + 1e-9), output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    d2 = ((points[i] - points[j]) ** 2).sum(axis=1)
    keep = d2 <= eps * eps
    i, j = i[keep], j[keep]
    degree = 1 + np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
    core = degree >= min_pts
    cc = core[i] & core[j]
    graph = sparse.coo_matrix((np.ones(cc.sum()), (i[cc], j[cc])), shape=(n, n))
    _, comp = csgraph.connected_components(graph, directed=False)
    comp = np.where(core, comp, -1)
    # Border points: non-core with at least one core neighbour.
    src = np.concatenate([i, j])
    dst = np.concatenate([j, i])
    border_edge = ~core[src] & core[dst]
    b_src, b_comp = src[border_edge], comp[dst[border_edge]]
    order = np.lexsort((b_comp, b_src))
    b_src, b_comp = b_src[order], b_comp[order]
    indptr = np.searchsorted(b_src, np.arange(n + 1))
    noise = ~core & (indptr[1:] == indptr[:-1])
    return {
        "core": core,
        "component": comp,
        "noise": noise,
        "border_indptr": indptr,
        "border_components": b_comp,
        "neighbour_pairs": int(len(i)),
    }


def _fmt(value) -> float | None:
    return None if value is None or not np.isfinite(value) else float(value)


def _welch(a: np.ndarray, b: np.ndarray):
    if len(a) < 2 or len(b) < 2 or (a.var() == 0 and b.var() == 0):
        return None
    res = stats.ttest_ind(a, b, equal_var=False)
    return _fmt(res.statistic), _fmt(res.pvalue)


def disparity_rows(classes: dict, poverty, minority, population) -> list[dict]:
    def means(sel):
        if not sel.any():
            return [None] * 4
        pop = population[sel].astype(np.float64)
        weighted = [None, None]
        if pop.sum() > 0:
            weighted = [float((poverty[sel] * pop).sum() / pop.sum()),
                        float((minority[sel] * pop).sum() / pop.sum())]
        return [float(poverty[sel].mean()), float(minority[sel].mean())] + weighted

    n = len(poverty)
    rows = [{"hazard": "all", "region_class": "all", "n_tracts": n,
             "means": means(np.ones(n, dtype=bool)), "poverty": None, "minority": None}]
    for hazard in HAZARDS + ("compound",):
        for region in (DIRECT, LATENT):
            if hazard == "compound":
                sel = np.all([classes[h] == region for h in HAZARDS], axis=0)
            else:
                sel = classes[hazard] == region
            row = {"hazard": hazard, "region_class": region, "n_tracts": int(sel.sum()),
                   "means": means(sel), "poverty": None, "minority": None}
            if sel.sum() >= 2 and (~sel).sum() >= 2:
                row["poverty"] = _welch(poverty[sel], poverty[~sel])
                row["minority"] = _welch(minority[sel], minority[~sel])
            rows.append(row)
    return rows


def correlation_rows(mei: np.ndarray) -> list[dict]:
    rows = []
    for a in range(3):
        for b in range(a + 1, 3):
            x, y = mei[a], mei[b]
            if len(x) < 3 or x.std() == 0 or y.std() == 0:
                continue
            res = stats.pearsonr(x, y)
            rows.append({"hazard_a": HAZARDS[a], "hazard_b": HAZARDS[b],
                         "r": float(res.statistic), "p": float(res.pvalue), "n": len(x)})
    return rows


def expected_outputs(world) -> tuple[dict, dict]:
    """Expected outputs of a run on `world`: (JSON-able scalars/tables, arrays)."""
    n_tracts = len(world.geoids)
    masks = np.stack([world.air > THRESHOLD, world.toxic > THRESHOLD,
                      heat_mask(world.heat, world.county, world.geoids)])
    sums = dwell_sums(world.home, world.stop_user, world.stop_tract, world.stop_dwell,
                      masks, n_tracts)
    has_resident = np.bincount(world.home[world.home >= 0], minlength=n_tracts) > 0
    rows = np.nonzero(has_resident)[0]
    rows = rows[np.argsort(world.geoids[rows])]
    tdt, tdt_nh = sums["tdt"][rows], sums["tdt_nonhome"][rows]
    hdt, hdt_nh = sums["hdt"][:, rows], sums["hdt_nonhome"][:, rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        mei = hdt / tdt
        share = hdt_nh / tdt
        cond = np.where(tdt_nh > 0, hdt_nh / np.where(tdt_nh > 0, tdt_nh, 1), np.nan)
    row_masks = masks[:, rows]
    classes = {}
    for k, h in enumerate(HAZARDS):
        classes[h] = np.where(row_masks[k], DIRECT, np.where(hdt[k] > 0, LATENT, NONE))

    population = world.population[rows]
    curves = []
    for k, h in enumerate(HAZARDS):
        for thr in CURVE_THRESHOLDS:
            sel = (classes[h] == LATENT) & (mei[k] > thr)
            curves.append([h, thr, int(population[sel].sum())])

    cluster = dbscan_structure(mei.T.copy())
    counts = {
        "stops_read": len(world.lines),
        "stops_accepted": int(len(world.stop_user)),
        "stops_rejected": len(world.lines) - int(len(world.stop_user)),
        "users_assigned": int((world.home >= 0).sum()),
        "users_unassigned": int((world.home < 0).sum()),
        "unresolved_dwell_s": sums["unresolved_dwell_s"],
        "dropped_dwell_s": sums["dropped_dwell_s"],
    }
    scalars = {
        "counts": counts,
        "disparity": disparity_rows(classes, world.poverty[rows], world.minority[rows],
                                    population),
        "correlations": correlation_rows(mei),
        "curves": curves,
        "dbscan": {"eps": EPS, "min_pts": MIN_PTS, "points": len(rows),
                   "core": int(cluster["core"].sum()), "noise": int(cluster["noise"].sum()),
                   "clusters": int(len(np.unique(cluster["component"][cluster["core"]]))),
                   "neighbour_pairs": cluster["neighbour_pairs"]},
        "masked": {h: int(masks[k].sum()) for k, h in enumerate(HAZARDS)},
        "planted": world.counts,
    }
    arrays = {
        "geoid": world.geoids[rows],
        "mei": mei, "share": share, "cond": cond,
        "classes": np.stack([classes[h] for h in HAZARDS]),
        "core": cluster["core"], "component": cluster["component"], "noise": cluster["noise"],
        "border_indptr": cluster["border_indptr"],
        "border_components": cluster["border_components"],
    }
    return scalars, arrays


def save(scalars: dict, arrays: dict, dest: Path) -> None:
    (dest / "expected.json").write_text(json.dumps(scalars, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    np.savez(dest / "expected.npz", **arrays)


def load(dest: Path) -> tuple[dict, dict]:
    scalars = json.loads((dest / "expected.json").read_text(encoding="utf-8"))
    with np.load(dest / "expected.npz") as data:
        arrays = {k: data[k] for k in data.files}
    return scalars, arrays

"""Disparity and association statistics.

Welch's unequal-variance t-test with Welch-Satterthwaite degrees of
freedom, two-sided p-values through the regularized incomplete beta
function (continued-fraction evaluation), Pearson correlation with its
t-based p-value, and the table builders for the disparity, correlation
and scatter reports, which run over the MeiTable's columns and the tract
demographics joined to them by geoid; every geoid must name a tract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator

import numpy as np

from .exposure import tract_columns
from .model import (
    DIRECT_CODE,
    HAZARD_TYPES,
    LATENT_CODE,
    REGION_DIRECT,
    REGION_LATENT,
    MeiTable,
    TractTable,
    format6,
    format6_column,
)

_BETACF_MAX_ITER = 400
_BETACF_EPS = 1e-15
_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_two_sided_p(t: float, df: float) -> float:
    """Two-sided p-value for a t statistic with df degrees of freedom."""
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return betainc_regularized(df / 2.0, 0.5, x)


@dataclass(frozen=True, slots=True)
class TTestResult:
    mean_a: float
    mean_b: float
    t: float
    df: float
    p: float
    significant_01: bool


@dataclass(frozen=True, slots=True)
class CorrelationResult:
    r: float
    p: float
    n: int


def _floats(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


def _square_sum(deviations: np.ndarray) -> float:
    """math.fsum of v ** 2 over the values.

    Both v ** 2 and math.pow(v, 2.0) evaluate C pow(v, 2.0) (for v < 0,
    CPython's ** passes -v, and pow() squares the magnitude either way).
    This is not v * v: glibc's pow(v, 2.0) differs from the correctly
    rounded v * v in the last bit for about 1 value in 1,200, and these
    sums feed the reported statistics.
    """
    return math.fsum(map(math.pow, deviations.tolist(), repeat(2.0)))


def _mean_var(sample: np.ndarray) -> tuple[float, float]:
    n = len(sample)
    mean = math.fsum(sample.tolist()) / n
    return mean, _square_sum(sample - mean) / (n - 1)


def welch_t_test(sample_a, sample_b) -> TTestResult | None:
    """Welch's unequal-variance two-sample t-test on two sequences or arrays of numbers.

    Returns None (not an exception) when a sample has fewer than two
    values or both variances are zero.
    """
    a, b = _floats(sample_a), _floats(sample_b)
    if len(a) < 2 or len(b) < 2:
        return None
    mean_a, var_a = _mean_var(a)
    mean_b, var_b = _mean_var(b)
    if var_a == 0.0 and var_b == 0.0:
        return None
    na, nb = len(a), len(b)
    sa, sb = var_a / na, var_b / nb
    se = math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa * sa / (na - 1) + sb * sb / (nb - 1))
    t = (mean_a - mean_b) / se if se > 0 else math.inf * math.copysign(1.0, mean_a - mean_b)
    p = t_two_sided_p(t, df)
    return TTestResult(mean_a=mean_a, mean_b=mean_b, t=t, df=df, p=p, significant_01=p < 0.01)


def pearson(x, y) -> CorrelationResult | None:
    """Sample Pearson correlation of two sequences or arrays of numbers,
    with a two-sided t-based p-value.

    Returns None for undersized or constant input.
    """
    xs, ys = _floats(x), _floats(y)
    n = len(xs)
    if n != len(ys) or n < 3:
        return None
    dx = xs - math.fsum(xs.tolist()) / n
    dy = ys - math.fsum(ys.tolist()) / n
    sxx = _square_sum(dx)
    syy = _square_sum(dy)
    if sxx == 0.0 or syy == 0.0:
        return None
    sxy = math.fsum((dx * dy).tolist())
    r = sxy / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        p = 0.0
    else:
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
        p = t_two_sided_p(t, n - 2)
    return CorrelationResult(r=r, p=p, n=n)


# ---------------------------------------------------------------------------
# Report tables
# ---------------------------------------------------------------------------

COMPOUND = "compound"
DISPARITY_HAZARDS = HAZARD_TYPES + (COMPOUND,)


@dataclass(frozen=True, slots=True)
class DisparityRow:
    hazard: str
    region_class: str
    n_tracts: int
    mean_poverty: float | None
    mean_minority: float | None
    weighted_mean_poverty: float | None
    weighted_mean_minority: float | None
    poverty_test: TTestResult | None
    minority_test: TTestResult | None


@dataclass(frozen=True, slots=True)
class DisparityTable:
    rows: list[DisparityRow]

    header = ("hazard", "region_class", "n_tracts", "mean_poverty", "mean_minority",
              "weighted_mean_poverty", "weighted_mean_minority",
              "t_poverty", "p_poverty", "sig01_poverty",
              "t_minority", "p_minority", "sig01_minority")

    def csv_rows(self) -> Iterator[list]:
        for r in self.rows:
            cells = [r.hazard, r.region_class, str(r.n_tracts),
                     format6(r.mean_poverty), format6(r.mean_minority),
                     format6(r.weighted_mean_poverty), format6(r.weighted_mean_minority)]
            for test in (r.poverty_test, r.minority_test):
                if test is None:
                    cells += ["", "", ""]
                else:
                    cells += [format6(test.t), format6(test.p), str(int(test.significant_01))]
            yield cells


@dataclass(frozen=True, eq=False)
class ScatterTable:
    """Exposure indices beside demographics, one entry per tract, sorted by geoid.

    mei is float64 (n, 3) with NaN where undefined.
    """

    geoids: np.ndarray
    pct_poverty200: np.ndarray
    mei: np.ndarray
    pct_minority: np.ndarray
    population: np.ndarray

    header = ("geoid", "pct_poverty200", "mei_air", "mei_toxic", "mei_heat",
              "pct_minority", "population")

    def csv_rows(self) -> Iterator[tuple]:
        return zip(self.geoids.tolist(), format6_column(self.pct_poverty200),
                   *(format6_column(self.mei[:, k]) for k in range(3)),
                   format6_column(self.pct_minority), map(str, self.population.tolist()))


@dataclass(frozen=True, slots=True)
class CorrelationTable:
    rows: list[tuple[str, str, CorrelationResult]]

    header = ("hazard_a", "hazard_b", "r", "p", "n", "sig01")

    def csv_rows(self) -> Iterator[tuple]:
        return ((a, b, format6(c.r), format6(c.p), str(c.n), str(int(c.p < 0.01))) for a, b, c in self.rows)


def _means(poverty: np.ndarray, minority: np.ndarray, population: np.ndarray):
    """Plain and population-weighted means of a class's poverty and minority shares."""
    n = len(poverty)
    if not n:
        return None, None, None, None
    mean_poverty = math.fsum(poverty.tolist()) / n
    mean_minority = math.fsum(minority.tolist()) / n
    total_pop = sum(population.tolist())
    if total_pop > 0:
        wpoverty = math.fsum((poverty * population).tolist()) / total_pop
        wminority = math.fsum((minority * population).tolist()) / total_pop
    else:
        wpoverty, wminority = None, None
    return mean_poverty, mean_minority, wpoverty, wminority


def disparity_table(table: MeiTable, tracts: TractTable) -> DisparityTable:
    """Group demographic means with significance tests, mirroring Table-style
    direct/latent comparisons for each hazard and the compound case.

    Each class is compared against the complementary tracts with a Welch
    t-test at the 0.01 level; classes with fewer than 2 tracts get their
    means but no test. The first row carries the all-tract baseline. Only
    tracts with a defined index take part; every table geoid must name a
    tract (exposure.tract_columns).
    """
    population, minority, poverty = tract_columns(
        table.geoids, tracts, "population", "pct_minority", "pct_below_poverty200")
    included = ~table.excluded
    region, population = table.region[included], population[included]
    minority, poverty = minority[included], poverty[included]

    def row(hazard: str, region_class: str, members: np.ndarray | None) -> DisparityRow:
        chosen = slice(None) if members is None else members
        means = _means(poverty[chosen], minority[chosen], population[chosen])
        poverty_test = minority_test = None
        if members is not None and 2 <= members.sum() <= len(members) - 2:
            poverty_test = welch_t_test(poverty[members], poverty[~members])
            minority_test = welch_t_test(minority[members], minority[~members])
        return DisparityRow(hazard, region_class, len(poverty[chosen]), *means,
                            poverty_test=poverty_test, minority_test=minority_test)

    rows = [row("all", "all", None)]
    for hazard in DISPARITY_HAZARDS:
        for name, code in ((REGION_DIRECT, DIRECT_CODE), (REGION_LATENT, LATENT_CODE)):
            if hazard == COMPOUND:
                members = (region == code).all(axis=1)
            else:
                members = region[:, HAZARD_TYPES.index(hazard)] == code
            rows.append(row(hazard, name, members))
    return DisparityTable(rows=rows)


def hazard_pair_correlations(table: MeiTable) -> CorrelationTable:
    """Pearson correlation for each hazard pair over fully defined rows."""
    rows = []
    defined = ~np.isnan(table.mei)
    for i, ha in enumerate(HAZARD_TYPES):
        for j in range(i + 1, len(HAZARD_TYPES)):
            both = defined[:, i] & defined[:, j]
            result = pearson(table.mei[both, i], table.mei[both, j])
            if result is not None:
                rows.append((ha, HAZARD_TYPES[j], result))
    return CorrelationTable(rows=rows)


def scatter_export(table: MeiTable, tracts: TractTable) -> ScatterTable:
    """Per-tract rows pairing exposure indices with demographics."""
    population, minority, poverty = tract_columns(
        table.geoids, tracts, "population", "pct_minority", "pct_below_poverty200")
    return ScatterTable(geoids=table.geoids, pct_poverty200=poverty, mei=table.mei,
                        pct_minority=minority, population=population)

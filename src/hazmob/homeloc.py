"""Home-tract inference from nighttime stays.

The rule is a declared heuristic: a user's home is the tract holding the
largest total nighttime dwell (stop intervals clipped to the night
window), provided the user has nighttime dwell on at least min_nights
distinct nights. Ties break by larger all-day dwell, then smallest geoid.
The result is a pure function of the stop set; input order is irrelevant.
It is a column: one tract code per user code (HomeMap.home).

infer_homes() works on whole columns in closed form, with no per-night
loop: a stop's night seconds are a difference of a cumulative night-time
function, the nights it touches form one contiguous range of night ids,
and a user's night count is the size of the union of those ranges. The
test oracle is the scalar night_overlaps() in tests/conftest.py, which
splits one stop night by night.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Stops, run_heads

DAY_S = 86400


@dataclass(frozen=True, eq=False)
class HomeMap:
    """Each user's home tract, plus why users could not be assigned one.

    home holds one int32 tract code per user code of the Stops frame: a
    position in the tract index's geoids, or -1 for a user without a home.
    no_night_dwell counts the users without a home that have no nighttime
    dwell at any located stop; the others have dwell on fewer than
    min_nights nights.
    """

    home: np.ndarray
    no_night_dwell: int = 0


def _window(night_start: int, night_end: int) -> tuple[int, int]:
    """(offset, length) in seconds of the night window opening each UTC day.

    Windows wrap midnight when night_end <= night_start, so equal hours
    make the whole day night.
    """
    wrap = night_end <= night_start
    return night_start * 3600, ((night_end + 24 if wrap else night_end) - night_start) * 3600


def _night_seconds(start_ts: np.ndarray, dwell_s: np.ndarray, night_start: int, night_end: int) -> np.ndarray:
    """Seconds of each stop inside night windows: the sum of its pieces from
    the oracle night_overlaps() in tests/conftest.py.

    With (q, r) = divmod(t - offset, DAY_S), F(t) = q * length + min(r, length)
    counts the night seconds before t, so a stop holds F(end) - F(start).
    """
    offset, length = _window(night_start, night_end)

    def before(t):
        q, r = np.divmod(t - offset, DAY_S)
        q *= length
        q += np.minimum(r, length, out=r)
        return q

    night = before(start_ts + dwell_s)
    night -= before(start_ts)
    return night


def _night_range(start_ts: np.ndarray, dwell_s: np.ndarray, night_start: int, night_end: int):
    """(first, last) night ids, inclusive, of the windows each stop overlaps.

    These are the night ids of its pieces from the oracle night_overlaps()
    in tests/conftest.py; the range is empty (first > last) when the stop
    has no night seconds.
    """
    offset, length = _window(night_start, night_end)
    first = (start_ts - (offset + length)) // DAY_S + 1
    last = np.where(dwell_s > 0, (start_ts + dwell_s - (offset + 1)) // DAY_S, first - 1)
    return first, last


def _count_nights(user: np.ndarray, first: np.ndarray, last: np.ndarray, n_users: int) -> np.ndarray:
    """Per user code, the size of the union of its nonempty [first, last] ranges.

    The ranges are swept in (user, first) order against the running max of
    the last nights. Each user's ranges are shifted into a band of their
    own, so the running max never carries over from the previous user.
    """
    nights = np.zeros(n_users, dtype=np.int64)
    if not len(user):
        return nights
    order = np.lexsort((first, user))
    user = user[order]
    shift = user.astype(np.int64)
    shift *= last.max() - first.min() + 2  # the band
    lo, hi = first[order], last[order]
    del order
    lo += shift
    hi += shift
    del shift
    # Each range adds the nights past both its first and the running max before it.
    covered = np.empty_like(hi)
    covered[0] = lo[0] - 1
    np.maximum.accumulate(hi[:-1], out=covered[1:])
    lo -= 1
    np.maximum(lo, covered, out=covered)
    del lo
    hi -= covered
    np.add.at(nights, user, np.maximum(hi, 0, out=hi))
    return nights


def infer_homes(
    stops: Stops,
    where: np.ndarray,
    geoids: Sequence[str],
    night_start: int = 22,
    night_end: int = 6,
    min_nights: int = 3,
) -> HomeMap:
    """Infer each user's home tract from nighttime dwell.

    where[i] is the tract of stop i (geoindex.locate_stops): a position in
    geoids (sorted, so the smallest code is the smallest geoid), or -1 when
    the stop lies outside every tract. Such stops count toward nothing.
    """
    n_users = len(stops.user_ids)
    located = where >= 0
    start = stops.start_ts[located]
    dwell = stops.dwell_s[located].astype(np.int32)  # exact: dwell is at most MAX_DWELL_S
    night = _night_seconds(start, dwell, night_start, night_end).astype(np.int32)  # at most dwell

    # Nights per user, over the stops with night seconds.
    sel = night > 0
    first, last = _night_range(start[sel], dwell[sel], night_start, night_end)
    del start
    nights = _count_nights(stops.user[located][sel], first, last, n_users)
    del sel, first, last

    # Night and total dwell per (user, tract) pair. Pairs with night dwell
    # are the home candidates; a user's best one comes first in
    # (user, -night dwell, -total dwell, geoid) order.
    n_tracts = max(len(geoids), 1)
    pair = stops.user[located] * np.int64(n_tracts)
    pair += where[located]
    order = np.argsort(pair, kind="stable")
    pair = pair[order]
    head = run_heads(pair)
    pair_user, pair_tract = np.divmod(pair[head], n_tracts)
    del pair
    pair_total = np.add.reduceat(dwell[order], head, dtype=np.int64)
    pair_night = np.add.reduceat(night[order], head, dtype=np.int64)
    del order, dwell, night
    cand = np.flatnonzero(pair_night > 0)
    cand = cand[np.lexsort((pair_tract[cand], -pair_total[cand], -pair_night[cand], pair_user[cand]))]
    best = cand[run_heads(pair_user[cand])]
    home = np.full(n_users, -1, dtype=np.int32)
    home[pair_user[best]] = pair_tract[best]
    home[nights < min_nights] = -1
    return HomeMap(home=home, no_night_dwell=n_users - len(best))

"""Home-tract inference from nighttime stays.

The rule is a declared heuristic: a user's home is the tract holding the
largest total nighttime dwell (stop intervals clipped to the night
window), provided the user has nighttime dwell on at least min_nights
distinct nights. Ties break by larger all-day dwell, then smallest geoid.
The result is a pure function of the stop set; input order is irrelevant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DAY_S = 86400


@dataclass(frozen=True, slots=True)
class HomeMap:
    """Home assignments plus the users that could not be assigned."""

    assignments: dict[str, str]
    unassigned: list[str] = field(default_factory=list)


def night_overlaps(start_ts: int, dwell_s: int, night_start: int, night_end: int) -> list[tuple[int, int]]:
    """Split a stop interval into (night_id, overlap_seconds) pieces.

    A night is identified by the UTC day number on which its window
    opens. Windows wrap midnight when night_end <= night_start.
    """
    if dwell_s <= 0:
        return []
    end_ts = start_ts + dwell_s
    wrap = night_end <= night_start
    span = (night_end + 24 if wrap else night_end) - night_start
    out = []
    first_day = start_ts // DAY_S - 1
    last_day = (end_ts - 1) // DAY_S
    for day in range(first_day, last_day + 1):
        w_start = day * DAY_S + night_start * 3600
        w_end = w_start + span * 3600
        lo = max(start_ts, w_start)
        hi = min(end_ts, w_end)
        if hi > lo:
            out.append((day, hi - lo))
    return out


def infer_homes(
    stops,
    where: list[str | None],
    night_start: int = 22,
    night_end: int = 6,
    min_nights: int = 3,
) -> HomeMap:
    """Infer each user's home tract from nighttime dwell.

    where[i] is the tract holding stops[i] (geoindex.locate_stops), or
    None when the stop lies outside every tract.
    """
    night_dwell: dict[str, dict[str, int]] = {}
    total_dwell: dict[str, dict[str, int]] = {}
    nights_seen: dict[str, set[int]] = {}
    users: set[str] = set()
    for stop, geoid in zip(stops, where, strict=True):
        users.add(stop.user_id)
        if geoid is None:
            continue
        per_tract = total_dwell.setdefault(stop.user_id, {})
        per_tract[geoid] = per_tract.get(geoid, 0) + stop.dwell_s
        pieces = night_overlaps(stop.start_ts, stop.dwell_s, night_start, night_end)
        if not pieces:
            continue
        nd = night_dwell.setdefault(stop.user_id, {})
        seen = nights_seen.setdefault(stop.user_id, set())
        for night_id, seconds in pieces:
            nd[geoid] = nd.get(geoid, 0) + seconds
            seen.add(night_id)

    assignments: dict[str, str] = {}
    unassigned: list[str] = []
    for user in sorted(users):
        nd = night_dwell.get(user)
        if not nd or len(nights_seen.get(user, ())) < min_nights:
            unassigned.append(user)
            continue
        td = total_dwell[user]
        # Max nighttime dwell, then max total dwell, then smallest geoid.
        best = min(nd, key=lambda g: (-nd[g], -td.get(g, 0), g))
        assignments[user] = best
    return HomeMap(assignments=assignments, unassigned=unassigned)

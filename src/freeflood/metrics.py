"""Shortest-path metrics of reduced graphs: eccentricity, radius, center."""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import DisconnectedGraph
from .graphs import ReducedGraph


class Metrics(NamedTuple):
    """Per-zone eccentricities with the derived radius and center set."""

    eccentricity: tuple[int, ...]
    radius: int
    center: tuple[int, ...]


def _distances(adjacency, source: int) -> list[int]:
    dist = [-1] * len(adjacency)
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in adjacency[u]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def _eccentricities(adjacency) -> Iterator[tuple[int, int]]:
    """(eccentricity, zone) of every live zone, ascending, by lockstep ball growth.

    Each live zone's ball, an int bit set of zone ids, takes in its
    neighbors' balls once per round; a zone's eccentricity is the first round
    whose ball holds every live zone, so a caller that needs only the radius
    stops at the first pair.  Two rounds of balls take about zones**2 / 4
    bytes.  None rows are skipped, and a ball that stops short of every zone
    means the graph is disconnected.
    """
    balls = [0 if row is None else 1 << z for z, row in enumerate(adjacency)]
    everything = sum(balls)
    growing = [(z, row) for z, row in enumerate(adjacency) if row is not None]
    if len(growing) == 1:  # the one ball that is full before it grows
        yield 0, growing.pop()[0]
    level = 0
    while growing:
        level += 1
        grown = balls[:]
        kept = []
        for zone in growing:
            z, row = zone  # the pair itself is kept, not rebuilt
            ball = balls[z]
            for w in row:
                ball |= balls[w]
            if ball == everything:
                grown[z] = everything  # one int for every full ball
                yield level, z
            else:
                grown[z] = ball
                kept.append(zone)
        z = growing[0][0]  # unfinished when the round began
        if grown[z] == balls[z]:
            reached, live = balls[z].bit_count(), everything.bit_count()
            raise DisconnectedGraph(f"only {reached} of {live} zones reachable from zone {z}")
        balls, growing = grown, kept


def radius_and_center(rg: ReducedGraph) -> Metrics:
    """Every zone's eccentricity by ball growth, with the radius and center.

    `freeflood radius` and the radius-bounds and far-witness checkers need
    the whole vector; `solve`, `min_moves` and `verify_solution` need only
    the radius and one center and use the eccentricity-bounding search.
    """
    eccs = [0] * rg.zone_count
    for ecc, z in _eccentricities(rg.adjacency):
        eccs[z] = ecc
    radius = min(eccs)
    center = tuple([z for z, e in enumerate(eccs) if e == radius])
    return Metrics(tuple(eccs), radius, center)


def _radius_search(adjacency, start: int = 0, dist=None, target=None) -> tuple[int, int, int]:
    """Exact radius, least-index center zone and the count of searches run.

    A search from v gives every zone w the lower bound
    ecc(w) >= max(d(v, w), ecc(v) - d(v, w)) (Takes & Kosters, Algorithms
    6(1), 2013).  Candidate searches, from the live zone of least (bound, id),
    alternate with peripheral ones, from the unsearched zone farthest from
    the last candidate: a far zone's search is what raises the bounds of the
    zones near the center.  A zone is dropped once its bound shows it cannot
    beat the best (eccentricity, id) found so far, so the result is
    (radius, min(center)) of `radius_and_center`.  A searched zone's bound
    becomes its eccentricity, which drops it too.  The first search runs
    from `start`, or is `dist` when the caller has run it (the list is then
    overwritten).

    With a `target` the search only decides whether the radius is at least
    `target`.  It starts as if (target, -1) were the best found, so a zone
    is dropped once its bound reaches the target, with no tie-break by id,
    and it stops at the first search whose eccentricity is below it.  The
    first value returned is then that eccentricity, or `target` when every
    zone was dropped: it is below `target` exactly when the radius is.
    """
    lower = [0] * len(adjacency)
    if target is None:
        best = best_zone = len(adjacency)  # above any eccentricity and any id
    else:
        best, best_zone = target, -1  # below any id: a bound equal to the target drops its zone
    alive = range(len(adjacency))
    sources = []
    source = candidate = start
    peripheral = False
    if dist is None:
        dist = _distances(adjacency, start)
    while True:
        sources.append(source)
        ecc = max(dist)
        if ecc < best or (ecc == best and source < best_zone):
            if target is not None:  # below the target: the radius is too
                return ecc, source, len(sources)
            best, best_zone = ecc, source
        kept = []
        least = best + 1
        for w in alive:  # ascending ids, so ties keep the least id
            d = dist[w]
            bound = lower[w]
            if d > bound:
                bound = d
            if ecc - d > bound:
                bound = ecc - d
            lower[w] = bound
            if bound < best or (bound == best and w < best_zone):
                kept.append(w)
                if bound < least:
                    least, candidate = bound, w
        alive = kept
        if not alive:
            return best, best_zone, len(sources)
        if peripheral:
            source, peripheral = candidate, False
        else:  # after a candidate's search, the least farthest unsearched zone
            for s in sources:
                dist[s] = -1
            source, peripheral = dist.index(max(dist)), True
        dist = _distances(adjacency, source)

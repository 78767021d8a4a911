"""Independent ground truth for the solver.

A breadth-first search over whole colorations gives exact optima on small
instances, and three exhaustive checkers turn the contraction properties the
solver relies on into executable predicates: radius bounds under contraction,
distance bounds under contraction, and the existence of a far witness
disjoint from a chosen shortest path.  The checkers take the paper's domain,
the connected zone graph of a proper two-coloring, and `_two_color_domain`
turns away anything else; such a graph is bipartite.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .errors import ImproperColoring, InstanceTooLarge, InvariantViolation
from .graphs import ColoredGraph, ReducedGraph, _palette, _validate_reduced, _ZoneState
from .metrics import _distances, _eccentricities, radius_and_center

# Size guards: the default cap on the colorations the search stores (a hit
# budget gives an upper bound), and the checkers' caps on zones and on listed
# shortest paths (InstanceTooLarge past one).
STATE_BUDGET = 1_000_000
DISTANCE_BOUNDS_MAX_ZONES = 30
FAR_WITNESS_MAX_ZONES = 20
FAR_WITNESS_PATH_CAP = 100_000


class StateSpaceReport(NamedTuple):
    """Search outcome; `optimum` is exact iff `exhausted`, else an upper bound."""

    optimum: int
    states_explored: int
    exhausted: bool


class Counterexample(NamedTuple):
    """A concrete violation: the graph plus the witnessing vertices."""

    graph: ReducedGraph
    witness: dict
    detail: str


class LemmaReport(NamedTuple):
    """Outcome of one checker over a single reduced graph."""

    lemma: str
    instances_checked: int
    counterexample: Optional[Counterexample] = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def _zones(neighbors: dict[int, int], state: int, full: int) -> Iterator[int]:
    """The zones of coloring `state` as vertex bit sets, in least-vertex order.

    Bit v of `state` is set when vertex v has the palette's second color, and
    `neighbors` maps the bit of each vertex onto the bit set of its
    neighbors.  Each zone grows from the lowest vertex not yet in a zone,
    one level at a time, inside that vertex's color class.
    """
    left = full
    while left:
        zone = frontier = left & -left
        free = ((state if state & zone else full ^ state) & left) ^ zone
        while frontier:
            reach = 0
            while frontier:
                bit = frontier & -frontier
                reach |= neighbors[bit]
                frontier ^= bit
            frontier = reach & free
            free ^= frontier
            zone |= frontier
        yield zone
        left ^= zone


def brute_force_min_moves(
    g: ColoredGraph | ReducedGraph, state_budget: int | None = STATE_BUDGET
) -> StateSpaceReport:
    """Exact optimum by breadth-first search over colorings as int bit sets.

    g may be a colored graph or its zone graph, with the same report: a
    flood recolors whole zones.  A state is an int whose bit v is set when
    vertex v has the palette's second color, a flood flips the bits of one
    zone, and k zones have at most 2**k states.  A hit budget gives
    exhausted=False and a feasible upper bound: the moves that flooding
    vertex 0's zone again and again takes to leave one zone, which is that
    zone's eccentricity in the zone graph, at most the zone count minus one.
    """
    used = _palette(g.colors)
    if len(used) == 1:
        return StateSpaceReport(0, 1, True)
    second = used[1]
    neighbors = {1 << v: sum([1 << w for w in row]) for v, row in enumerate(g.adjacency)}
    full = (1 << len(g.colors)) - 1
    initial = sum([1 << v for v, c in enumerate(g.colors) if c == second])
    visited = {initial}
    frontier = [initial]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for state in frontier:
            for zone in _zones(neighbors, state, full):
                succ = state ^ zone
                if succ in visited:
                    continue
                visited.add(succ)
                if not succ or succ == full:
                    return StateSpaceReport(depth, len(visited), True)
                if state_budget is not None and len(visited) >= state_budget:
                    upper, coloring = 0, initial
                    while coloring and coloring != full:
                        coloring ^= next(_zones(neighbors, coloring, full))
                        upper += 1
                    return StateSpaceReport(upper, len(visited), False)
                nxt.append(succ)
        frontier = nxt
    raise InvariantViolation("flooding always reaches a monochromatic coloration")


def _two_color_domain(rg: ReducedGraph) -> None:
    """Check that rg is in the paper's domain: a connected zone graph of two
    or more zones, properly colored with two colors."""
    if len(_palette(rg.colors)) != 2:
        raise ImproperColoring("a proper coloration with two or more zones uses two colors")
    _validate_reduced(rg)


def _contractions(rg: ReducedGraph) -> Iterator[tuple[int, _ZoneState]]:
    """Each zone x with a fresh zone state in which x is contracted with its neighborhood.

    rg must be in `_two_color_domain`, so x's neighbors share the other
    color, and x is flooded with it; the live rows are the contracted graph
    by original zone ids, and absorbed zones' rows are None.
    """
    for x, row in enumerate(rg.adjacency):
        state = _ZoneState(rg)
        state.flood(x, rg.colors[row[0]])
        yield x, state


def check_radius_bounds(rg: ReducedGraph) -> LemmaReport:
    """Contract every zone and compare radii.

    The contracted radius must stay within [R-1, R], and contracting any
    center zone must lower it by exactly one; ball growth stops at each
    contracted radius.  Graphs with a single zone are vacuous.
    """
    if rg.zone_count < 2:
        return LemmaReport("radius-bounds", 0)
    _two_color_domain(rg)
    met = radius_and_center(rg)
    centers = set(met.center)
    checked = 0
    for x, state in _contractions(rg):
        rx = next(_eccentricities(state.adjacency))[0]
        checked += 1
        if not met.radius - 1 <= rx <= met.radius:
            detail = "contracted radius outside [R-1, R]"
        elif x in centers and rx != met.radius - 1:
            detail = "contracting a center zone must drop the radius by 1"
        else:
            continue
        witness = {"zone": x, "radius": met.radius, "contracted_radius": rx}
        return LemmaReport("radius-bounds", checked, Counterexample(rg, witness, detail))
    return LemmaReport("radius-bounds", checked)


def check_distance_bounds(rg: ReducedGraph) -> LemmaReport:
    """Distance bounds under contraction, for every zone and surviving pair.

    For a pair (a, b) that survives contracting x: with no shortest a-b path
    through x, the contracted distance is at least d-1 and equals d-1 exactly
    when some simple a-b path of length d+1 passes through x; with x on a
    shortest path the contracted distance is at least d-2.  Whether a
    shortest path passes through x is decided by d(a,x) + d(x,b) == d(a,b).
    A two-color zone graph is bipartite, so it has no a-b path of length
    d+1, and the contracted distance must never equal d-1 off the shortest
    paths.
    """
    n = rg.zone_count
    if n > DISTANCE_BOUNDS_MAX_ZONES:
        raise InstanceTooLarge(f"{n} zones exceeds the checker guard of {DISTANCE_BOUNDS_MAX_ZONES}")
    if n < 2:
        return LemmaReport("distance-bounds", 0)
    _two_color_domain(rg)
    dist = [_distances(rg.adjacency, s) for s in range(n)]
    checked = 0
    for x, state in _contractions(rg):
        adjacency = state.adjacency
        survivors = [v for v in range(n) if adjacency[v] is not None]
        for i, a in enumerate(survivors[:-1]):  # the last survivor has no b after it
            row_a = _distances(adjacency, a)
            for b in survivors[i + 1 :]:
                d = dist[a][b]
                dx = row_a[b]
                checked += 1
                if dx > d:
                    detail = "contraction increased a distance"
                elif dist[a][x] + dist[x][b] == d:
                    detail = "distance below d-2 with x on a shortest path" if dx < d - 2 else None
                elif dx < d - 1:
                    detail = "distance below d-1 with x off all shortest paths"
                elif dx == d - 1:  # every a-b walk has the parity of d: no path of length d+1
                    detail = "equality must coincide with a length d+1 path through x"
                else:
                    detail = None
                if detail is not None:
                    witness = {"a": a, "b": b, "x": x, "d": d, "d_contracted": dx}
                    return LemmaReport("distance-bounds", checked, Counterexample(rg, witness, detail))
    return LemmaReport("distance-bounds", checked)


def _shortest_paths(adjacency, dist, v: int, memo: dict) -> tuple[tuple[int, ...], ...]:
    """All shortest paths from the source of `dist` to v, read off the BFS dag.

    `memo` holds the paths to each vertex already listed from that source.
    """
    got = memo.get(v)
    if got is not None:
        return got
    if dist[v] == 0:
        got = ((v,),)
    else:
        out = []
        for u in adjacency[v]:
            if dist[u] + 1 == dist[v]:
                for p in _shortest_paths(adjacency, dist, u, memo):
                    out.append(p + (v,))
                    if len(out) > FAR_WITNESS_PATH_CAP:
                        raise InstanceTooLarge("shortest-path enumeration budget exceeded")
        got = tuple(out)
    memo[v] = got
    return got


def check_far_witness(rg: ReducedGraph) -> LemmaReport:
    """Far-witness existence for every (center, far vertex, shortest path).

    For each center c, each y at distance R from c, and each shortest c-y
    path: some zone z (distinct from both c and y) at distance R or R-1 must
    have all of its shortest paths from c meeting the chosen path only in c.
    Only the chosen paths are listed: t is on a shortest c-z path exactly
    when d(c,t) + d(t,z) == d(c,z).  The refinement to a witness at R-1,
    about c-z paths one edge longer than shortest, is vacuous here: every
    c-z walk in a bipartite graph has the parity of d(c,z).

    Graphs with at most two zones are skipped (reported with zero checks):
    they have no candidate witness besides c itself.
    """
    n = rg.zone_count
    if n > FAR_WITNESS_MAX_ZONES:
        raise InstanceTooLarge(f"{n} zones exceeds the checker guard of {FAR_WITNESS_MAX_ZONES}")
    if n <= 2:
        return LemmaReport("far-witness", 0)
    _two_color_domain(rg)
    met = radius_and_center(rg)
    radius = met.radius
    dist = [_distances(rg.adjacency, s) for s in range(n)]
    checked = 0
    for c in met.center:
        dc = dist[c]
        memo = {}
        candidates = [z for z in range(n) if z != c and radius - 1 <= dc[z] <= radius]
        for y in range(n):
            if dc[y] != radius:
                continue
            for gamma in _shortest_paths(rg.adjacency, dc, y, memo):
                beyond = gamma[1:]
                checked += 1
                # y ends the chosen path, so it is never a witness
                if not any(all(dc[t] + dist[t][z] > dc[z] for t in beyond) for z in candidates):
                    witness = {"center": c, "far": y, "path": gamma}
                    detail = "no witness with disjoint shortest paths"
                    return LemmaReport("far-witness", checked, Counterexample(rg, witness, detail))
    return LemmaReport("far-witness", checked)

"""Shared strategies and naive reference implementations for the test suite.

The reference routines here deliberately use different algorithms than the
package (fixpoint merging for zones, Floyd-Warshall for distances) so that
agreement between the two is meaningful.
"""

from __future__ import annotations

import gc
import itertools
import random
import sys
from itertools import chain, compress, groupby, repeat
from operator import add
from typing import Sequence

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from freeflood import (
    ColoredGraph,
    Counterexample,
    FloodError,
    LemmaReport,
    Metrics,
    ReducedGraph,
    StateSpaceReport,
    ZoneMap,
    build,
    gen_random,
    gen_reduced_corpus,
    grid_graph,
    oracle,
    reduce,
    solver,
)
from freeflood.errors import (
    ColorOutOfRange,
    DisconnectedGraph,
    DuplicateEdge,
    EdgeCountMismatch,
    Empty,
    EmptyGraph,
    ImproperColoring,
    InstanceTooLarge,
    InvalidCharacter,
    InvalidVertex,
    InvariantViolation,
    MalformedMove,
    NoOpMove,
    ParseError,
    RaggedRows,
    SelfLoop,
    TooManyEdges,
)
from freeflood.graphs import (
    FloodMove,
    _assemble,
    _check_connected,
    _forest_zones,
    _palette,
    _rows,
    _validate_reduced,
)
from freeflood.instances import GridSpec, _BandZones
from freeflood.metrics import _distances, _radius_search
from freeflood.solver import Verdict, _check_rows, _replay

settings.register_profile(
    "freeflood",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("freeflood")


@st.composite
def graph_parts(draw, max_vertices=12, color_count=2, max_extra=3):
    """(edges, colors) of a random connected graph: spanning tree plus extras."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    tree = set(edges)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    if pool and max_extra:
        extra = draw(
            st.lists(st.sampled_from(pool), max_size=min(max_extra, len(pool)), unique=True)
        )
        edges.extend(extra)
    colors = draw(st.lists(st.integers(0, color_count - 1), min_size=n, max_size=n))
    return edges, colors


@st.composite
def colored_graphs(draw, max_vertices=12, color_count=2, max_extra=3):
    edges, colors = draw(graph_parts(max_vertices, color_count, max_extra))
    return build(edges, colors, color_count)


@st.composite
def reduced_graphs(draw, max_vertices=12, max_extra=3):
    g = draw(colored_graphs(max_vertices, 2, max_extra))
    return reduce(g)[0]


def naive_zone_sets(edge_list, colors):
    """Zones by fixpoint merging of same-colored adjacent vertex sets."""
    groups = [{v} for v in range(len(colors))]
    changed = True
    while changed:
        changed = False
        for u, v in edge_list:
            if colors[u] != colors[v]:
                continue
            gu = next(g for g in groups if u in g)
            gv = next(g for g in groups if v in g)
            if gu is not gv:
                gu |= gv
                groups.remove(gv)
                changed = True
    return sorted((frozenset(g) for g in groups), key=min)


def floyd_warshall(adjacency):
    """All-pairs distances by the cubic recurrence; independent of the BFS code."""
    n = len(adjacency)
    inf = float("inf")
    dist = [[inf] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
        for w in adjacency[v]:
            dist[v][w] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def zone_footprints(zone_of):
    """Original-vertex sets of each zone, indexed by zone id.

    `zone_of` maps every original vertex onto a zone id, and every id in
    range(max(zone_of) + 1) is some vertex's zone.
    """
    sets = [set() for _ in range(max(zone_of) + 1)]
    for v, z in enumerate(zone_of):
        sets[z].add(v)
    return [frozenset(s) for s in sets]


def flood_vertices(g, zone_of, move):
    """`g` after a flood by definition: every vertex of the move's zone takes its color.

    `zone_of` maps each vertex of `g` onto its zone, as `reduce(g)` numbers them.
    """
    zone = zone_of[move.vertex]
    colors = tuple(move.color if z == zone else c for z, c in zip(zone_of, g.colors))
    return ColoredGraph(g.adjacency, colors, g.color_count)


def footprint_graph(rg, zone_of):
    """A zone graph with every zone named by its set of original vertices.

    Returns ({footprint: color}, {(footprint, footprint) per adjacency
    entry}).  Two zone graphs of one original graph compare equal exactly
    when they are the same labelled graph: same zones, colors and adjacency
    lists (both directions of every edge), whatever ids each side gives its
    zones.  Linear, so no size guard is needed.
    """
    footprints = zone_footprints(zone_of)
    colors = dict(zip(footprints, rg.colors, strict=True))
    edges = {(footprints[z], footprints[w]) for z, row in enumerate(rg.adjacency) for w in row}
    return colors, edges


def live_footprint_graph(state, zone_of):
    """`footprint_graph` of a flooded zone state, read off its live rows.

    `zone_of` maps every original vertex onto its zone in the graph the
    state started from.  Live zones keep their names, so no renumbering is
    needed: a live zone's footprint is every vertex whose zone it holds.  A
    row that lists an absorbed zone, or a live zone with no vertex, raises
    KeyError.
    """
    members = {}
    for v, z in enumerate(zone_of):
        members.setdefault(state.find(z), set()).add(v)
    live = [z for z, row in enumerate(state.adjacency) if row is not None]
    footprints = {z: frozenset(members[z]) for z in live}
    colors = {footprints[z]: state.colors[z] for z in live}
    edges = {(footprints[z], footprints[w]) for z in live for w in state.adjacency[z]}
    return colors, edges


def monochromatic_zones(
    adjacency: Sequence[Sequence[int]], colors: Sequence[int]
) -> tuple[list[int], list[list[int]]]:
    """Connected monochromatic components, numbered by smallest member vertex.

    Returns (zone_of, zones) where zones[z][0] is the smallest vertex of
    zone z.  Linear in vertices plus edges.
    """
    n = len(colors)
    zone_of = [-1] * n
    zones: list[list[int]] = []
    for v in range(n):
        if zone_of[v] >= 0:
            continue
        zid = len(zones)
        color = colors[v]
        members = [v]
        zone_of[v] = zid
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adjacency[u]:
                if zone_of[w] < 0 and colors[w] == color:
                    zone_of[w] = zid
                    members.append(w)
                    stack.append(w)
        zones.append(members)
    return zone_of, zones


def reduce_by_search(g):
    """The reference for `reduce`: zones by `monochromatic_zones`' depth-first search.

    Each zone keeps its member list, and the zone graph's edges are
    collected in a second pass over the adjacency.
    """
    zone_of, zones = monochromatic_zones(g.adjacency, g.colors)
    k = len(zones)
    zadj = [[] for _ in range(k)]
    seen = set()
    for u in range(g.vertex_count):
        zu = zone_of[u]
        for w in g.adjacency[u]:
            zw = zone_of[w]
            if zu < zw and (zu, zw) not in seen:
                seen.add((zu, zw))
                zadj[zu].append(zw)
                zadj[zw].append(zu)
    rg = ReducedGraph(
        tuple([tuple(sorted(row)) for row in zadj]),
        tuple([g.colors[members[0]] for members in zones]),
    )
    zm = ZoneMap(tuple(zone_of), tuple([members[0] for members in zones]))
    return rg, zm


def bytes_state_search(g, state_budget):
    """The reference for `brute_force_min_moves`: states as one color byte per vertex.

    Zones come from `monochromatic_zones`, in least-vertex order, and each
    successor is a fresh copy of the state with one zone recolored, so the
    search stores states in the same breadth-first order as the bit-set one.
    A hit budget replays flooding vertex 0's zone until one zone is left.
    """
    used = sorted(set(g.colors))
    if len(used) == 1:
        return StateSpaceReport(0, 1, True)
    a, b = used
    code = {a: 0, b: 1}
    initial = bytes([code[c] for c in g.colors])
    n = len(initial)

    def successors(state):
        out = []
        for members in monochromatic_zones(g.adjacency, state)[1]:
            nxt = bytearray(state)
            for u in members:
                nxt[u] = 1 - state[u]
            out.append(bytes(nxt))
        return out

    visited = {initial}
    frontier = [initial]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for state in frontier:
            for succ in successors(state):
                if succ in visited:
                    continue
                visited.add(succ)
                if succ.count(succ[0]) == n:
                    return StateSpaceReport(depth, len(visited), True)
                if state_budget is not None and len(visited) >= state_budget:
                    upper, state = 0, initial
                    while state.count(state[0]) != n:
                        state = successors(state)[0]
                        upper += 1
                    return StateSpaceReport(upper, len(visited), False)
                nxt.append(succ)
        frontier = nxt
    raise AssertionError("flooding always reaches a monochromatic coloration")


# The sweep `radius_and_center` ran before every eccentricity came from ball
# growth, kept verbatim as the reference: one breadth-first search per zone.
def reference_radius_and_center(rg: ReducedGraph) -> Metrics:
    adjacency = rg.adjacency
    eccs = [max(_distances(adjacency, s)) for s in range(rg.zone_count)]
    radius = min(eccs)
    center = tuple([z for z, e in enumerate(eccs) if e == radius])
    return Metrics(tuple(eccs), radius, center)


def eccentricities_by_sweep(adjacency):
    """The reference for `metrics._eccentricities`: one search per live zone,
    the (eccentricity, zone) pairs in the order ball growth yields them."""
    live = [z for z, row in enumerate(adjacency) if row is not None]
    return iter(sorted([(max(_distances(adjacency, z)), z) for z in live]))


# The path search and the far-witness checker that ran it, as they were
# before the lemma checkers took the paper's two-color domain and read the
# length-(d+1) conditions off parity, kept verbatim as references (the
# checker's names go through `oracle`, so a fault patched in there reaches
# this copy and the checker alike; the step cap is this module's own).
PATH_STEP_CAP = 2_000_000


def _has_path_through(adjacency, dist, a, b, x, length) -> bool:
    """Is there a simple a-b path with exactly `length` edges that visits x?"""
    dist_b = dist[b]
    dist_x = dist[x]
    x_to_b = dist[x][b]
    visited = [False] * len(adjacency)
    visited[a] = True
    steps = 0

    def walk(v: int, remaining: int, seen_x: bool) -> bool:
        nonlocal steps
        steps += 1
        if steps > PATH_STEP_CAP:
            raise InstanceTooLarge("path enumeration budget exceeded")
        if remaining == 0:
            return v == b and seen_x
        bound = dist_b[v] if seen_x else dist_x[v] + x_to_b
        if bound > remaining:
            return False
        for w in adjacency[v]:
            if visited[w] or (w == b and remaining != 1):
                continue
            visited[w] = True
            hit = walk(w, remaining - 1, seen_x or w == x)
            visited[w] = False
            if hit:
                return True
        return False

    return walk(a, length, a == x)


def reference_check_far_witness(rg: ReducedGraph) -> LemmaReport:
    """Far-witness existence for every (center, far vertex, shortest path).

    For each center c, each y at distance R from c, and each shortest c-y
    path: some zone z (distinct from both c and y) at distance R or R-1 must
    have all of its shortest paths from c meeting the chosen path only in c.
    Refinement: either such a z exists at distance R, or among those at R-1
    some z0 also keeps every simple path of length R from c disjoint.

    Only the chosen paths are listed: t is on a shortest c-z path exactly
    when d(c,t) + d(t,z) == d(c,z).  A two-color zone graph is bipartite, so
    no c-z0 path has length d(c,z0)+1 and the refinement always holds there.

    Graphs with at most two zones are skipped (reported with zero checks):
    they have no candidate witness besides c itself.
    """
    n = rg.zone_count
    if n > oracle.FAR_WITNESS_MAX_ZONES:
        raise InstanceTooLarge(f"{n} zones exceeds the checker guard of {oracle.FAR_WITNESS_MAX_ZONES}")
    if n <= 2:
        return LemmaReport("far-witness", 0)
    met = oracle.radius_and_center(rg)
    radius = met.radius
    dist = [oracle._distances(rg.adjacency, s) for s in range(n)]
    checked = 0
    for c in met.center:
        dc = dist[c]
        memo = {}
        candidates = [z for z in range(n) if z != c and radius - 1 <= dc[z] <= radius]
        for y in range(n):
            if dc[y] != radius:
                continue
            for gamma in oracle._shortest_paths(rg.adjacency, dc, y, memo):
                beyond = gamma[1:]
                witnesses = [
                    z for z in candidates
                    if z != y and all(dc[t] + dist[t][z] > dc[z] for t in beyond)
                ]
                checked += 1
                if not witnesses:
                    detail = "no witness with disjoint shortest paths"
                elif any(dc[z] == radius for z in witnesses) or not all(
                    any(
                        dc[t] + dist[t][z0] <= dc[z0] + 1
                        and _has_path_through(rg.adjacency, dist, c, z0, t, dc[z0] + 1)
                        for t in beyond
                    )
                    for z0 in witnesses
                ):
                    continue
                else:
                    detail = "every witness at R-1 has an intersecting length-R path"
                witness = {"center": c, "far": y, "path": gamma}
                if witnesses:
                    witness["witnesses"] = tuple(witnesses)
                return LemmaReport("far-witness", checked, Counterexample(rg, witness, detail))
    return LemmaReport("far-witness", checked)


# `verify`'s and `--validate`'s checks as they were before both proved a
# known target with the target search, kept verbatim (only renamed) as the
# references the target-bounded checks must agree with: `verify` exactly, the
# same verdict or the same error class and message, and the certificate as
# `assert_certificate_agrees` says.
def reference_verify_zones(
    rg: ReducedGraph, zm: ZoneMap, color_count: int, moves: Sequence[FloodMove]
) -> Verdict:
    """`verify_solution` on the zone graph (rg, zm) of an instance with `color_count` colors."""
    zones = rg.zone_count
    try:
        for state in _replay(rg, zm, color_count, moves):
            zones = state.count
    except NoOpMove:
        return Verdict.INFEASIBLE
    if zones != 1:
        return Verdict.INFEASIBLE
    _palette(rg.colors)
    if len(moves) == _radius_search(rg.adjacency)[0]:
        return Verdict.OPTIMAL
    return Verdict.FEASIBLE_SUBOPTIMAL


def reference_check_certificate(
    rg: ReducedGraph, zm: ZoneMap, radius: int, center: int, moves: Sequence[FloodMove]
) -> None:
    """Replay the moves `solve` prints and check the theorem on every zone graph.

    The input zone graph must be proper and connected.  After each move, on
    the live rows: the rows the flood touched (the flooded zone's, which
    keeps its name, and its neighbors'), a search from that zone reaching
    every live zone, the radius (by the bounding search) one lower, and
    that zone still central.  One zone must be left at the end.  A failed
    check is a bug in this package and raises InvariantViolation.
    """
    zones = rg.zone_count
    try:
        _validate_reduced(rg)
        for step, state in enumerate(_replay(rg, zm, max(rg.colors) + 1, moves), start=1):
            adjacency, zones = state.adjacency, state.count
            _check_rows(state, [center, *adjacency[center]])
            dist = _distances(adjacency, center)
            reached = len(dist) - dist.count(-1)
            if reached != zones:
                raise InvariantViolation(f"only {reached} of {zones} zones reachable from zone {center}")
            ecc = max(dist)
            now = _radius_search(adjacency, center, dist)[0]  # its first search is this one
            if now != radius - step:
                raise InvariantViolation(
                    f"radius {now} after {step} moves, expected {radius - step}"
                )
            if ecc != now:
                raise InvariantViolation("flooded zone left the center set")
    except (NoOpMove, MalformedMove) as exc:
        raise InvariantViolation(f"replay rejected a solver move: {exc}") from None
    except (ImproperColoring, DisconnectedGraph) as exc:
        raise InvariantViolation(str(exc)) from None
    if zones != 1:
        raise InvariantViolation(f"{zones} zones left after the moves, expected 1")


def spider() -> ColoredGraph:
    """A center with three legs of three zones, colored by depth: zone ids are vertex ids.

    Its radius is 3, from the center.  Zone 1, the first of leg 0, has
    eccentricity 4, and flooding it leaves a zone graph of radius 3 with the
    flooded zone central, as do the three floods after that: a radius of 4
    claimed from zone 1 passes every check made after a move.
    """
    edges = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9)]
    return build(edges, [0, 1, 0, 1, 1, 0, 1, 1, 0, 1])


def claim_on_the_input(monkeypatch, radius, center):
    """Make `solve`'s radius search on the input answer (radius, center, 1).

    Every other search, the certificate's included, is real.
    """
    real = solver._radius_search

    def claimed(adjacency, start=0, dist=None, target=None):
        if dist is None and target is None and start == 0:
            return radius, center, 1
        return real(adjacency, start, dist, target)

    monkeypatch.setattr(solver, "_radius_search", claimed)


def certificate_claims(rg: ReducedGraph, zm: ZoneMap) -> list:
    """(radius, center, moves): every zone claimed as the center, with its
    eccentricity and one off, and `solve`'s moves for the claim, all on the
    zone's representative with the colors alternating."""
    claims = []
    for z in range(rg.zone_count):
        ecc = max(_distances(rg.adjacency, z))
        claims += [(r, z, alternating_moves(rg, zm, r, z)) for r in (ecc - 1, ecc, ecc + 1)]
    return claims


def alternating_moves(rg: ReducedGraph, zm: ZoneMap, radius: int, center: int) -> list:
    """`solve`'s move list for a claimed radius and center zone."""
    rep, color, moves = zm.representative_of[center], rg.colors[center], []
    for _ in range(max(radius, 0)):
        color = 1 - color
        moves.append(FloodMove(rep, color))
    return moves


def assert_certificate_agrees(rg: ReducedGraph, zm: ZoneMap, radius: int, claim) -> None:
    """`solver._check_certificate` on a claim (radius, center, moves) against
    `reference_check_certificate`, on a zone graph of radius `radius`.

    The check refutes two kinds of claim before the replay, which the
    reference never does: a radius above the input's, named by the full
    search, and a radius that is not the center's eccentricity.  The
    reference refutes the second kind too, in its replay or at its end,
    except -1 on a one-zone graph, which it passes with no moves.  Every
    other claim gets the same verdict, or the same error class and message.
    """
    def verdict(check):  # True, or the error's class, message, line and column
        result = outcome(check, rg, zm, *claim)
        return result[0] == "ok" or result

    claimed, center, _ = claim
    got, expected = verdict(solver._check_certificate), verdict(reference_check_certificate)
    ecc = max(_distances(rg.adjacency, center))
    if claimed > radius:
        message = f"radius {radius} after 0 moves, expected {claimed}"
        assert got == (InvariantViolation, message, None, None)
    elif claimed != ecc:
        message = f"zone {center} has eccentricity {ecc}, expected {claimed}"
        assert got == (InvariantViolation, message, None, None)
        assert (expected is True) == (claimed == -1 and rg.zone_count == 1)
    else:
        assert got == expected


# The line-by-line readers and the pool draw the package replaced with
# whole-text passes and unranked draws, kept verbatim as the references the
# fast paths must agree with exactly: same object, or same error class,
# message, line and column.
_DIGITS = "0123456789"
_DIGIT_BYTES = _DIGITS.encode()
_DIGIT_VALUES = bytes.maketrans(_DIGIT_BYTES, bytes(range(10)))


def reference_parse_grid_spec(text: str) -> GridSpec:
    """Parse rows of digit characters into a GridSpec."""
    lines = text.splitlines()
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise Empty("no grid rows", line=1)
    width = len(lines[0])
    if width == 0:
        raise Empty("first grid row is empty", line=1)
    chunks = []
    for i, row in enumerate(lines, start=1):
        if row.isascii() and len(row) == width:
            raw = row.encode()
            if not raw.translate(None, _DIGIT_BYTES):
                chunks.append(raw)
                continue
        # the row is bad: find the first fault the way a reader would
        if len(row) != width:
            raise RaggedRows(f"row has width {len(row)}, expected {width}", line=i)
        for j, ch in enumerate(row, start=1):
            if ch not in _DIGITS:
                raise InvalidCharacter(f"{ch!r} is not a digit", line=i, column=j)
    return GridSpec(len(lines), width, b"".join(chunks).translate(_DIGIT_VALUES))


# Grid labeling as it was before bands were found in place and the run
# tables freed at their last use, kept verbatim as the reference that
# `_grid_zones` must equal exactly, and whose memory peak it must stay under.
def reference_grid_zones(spec: GridSpec) -> tuple[ReducedGraph, ZoneMap]:
    """reduce(grid_graph(spec)), labeled from runs without the vertex graph.

    Consecutive identical rows form a band, and each band is split once into
    runs of one color; a run spans the band's full height.  Runs of one
    color that overlap in adjacent bands are united: a two-pointer merge of
    the two bands' runs feeds a union-find whose roots are least runs, as in
    run-based labeling (He, Chao & Suzuki, IEEE TIP 17(5), 2008).  A run's
    first cell is in its band's first row, so zones are numbered by their
    least cell, as `reduce` numbers them.  Two zones are adjacent when two of
    their runs follow each other in a band or overlap in adjacent bands.
    The zone map is the run tables themselves (`_BandZones`): a cell's zone
    is found by two binary searches, and no per-cell table is written.
    Cells are touched only by C-level work: comparing each row with the one
    above, and cutting a band's row into runs where the row xor itself
    shifted by one byte (no carries, so each byte is one cell xor its left
    neighbor) is nonzero.  The Python-level work grows with the bands and
    their runs.
    """
    rows, cols, cells = spec.rows, spec.cols, spec.cells
    n = rows * cols
    columns = list(range(1, cols))  # the cuts share these ints rather than make one per run
    begin: list[int] = []  # column of each run's first cell; runs are numbered in cell order
    end: list[int] = []  # column after each run's last cell
    top: list[int] = []  # first cell of each run's band
    color: list[int] = []
    parent: list[int] = []  # parent[k] <= k, so a root is its tree's least run
    above: list[int] = []  # above[i] and below[i] are runs of different colors that
    below: list[int] = []  # touch across two bands
    band_runs: list[int] = []  # the first run of each band
    band_rows: list[int] = []  # the first row of each band

    row_slices = map(cells.__getitem__, map(slice, range(0, n, cols), range(cols, n + 1, cols)))
    r = prev_first = 0  # the band's first row
    for row, same in groupby(row_slices):
        height = len(list(same))
        tail = row[1:]
        x = int.from_bytes(row, "big")
        changes = (x ^ (x >> 8)).to_bytes(cols, "big")[1:]  # byte i: cell i+1 xor cell i
        cuts = list(compress(columns, changes))
        first = len(begin)
        last = first + len(cuts)
        begin.append(0)
        begin.extend(cuts)
        end.extend(cuts)
        end.append(cols)
        top.extend(repeat(r * cols, last + 1 - first))
        color.append(row[0])
        color.extend(compress(tail, changes))
        parent.extend(range(first, last + 1))
        band_runs.append(first)
        band_rows.append(r)
        r += height
        if first:
            # runs p (band above) and q (this band) overlap; step past the one
            # that ends first, or past both when they end together
            p, q = prev_first, first
            while True:
                if color[p] != color[q]:
                    above.append(p)
                    below.append(q)
                else:
                    x = p  # find, inlined
                    while parent[x] != x:
                        parent[x] = x = parent[parent[x]]
                    y = q
                    while parent[y] != y:
                        parent[y] = y = parent[parent[y]]
                    if x < y:
                        parent[y] = x
                    elif y < x:
                        parent[x] = y
                end_p, end_q = end[p], end[q]
                if end_p <= end_q:
                    p += 1
                if end_q <= end_p:
                    if q == last:  # both bands end at cols
                        break
                    q += 1
        prev_first = first

    # The zone map keeps `begin` and `zone_of_run` as tuples: a tuple of ints
    # drops out of the garbage collector's tracking, where a list of one entry
    # per run would be traversed by every full collection while the map lives.
    begin = tuple(begin)
    band_runs.append(len(begin))  # the run count ends the last band
    roots, zone_of_run = _forest_zones(parent)  # each zone's first run, each run's zone

    # zones of runs that follow each other in a band, then of runs that touch across bands
    band_slices = map(slice, band_runs, band_runs[1:])
    in_bands = (zip(zs, zs[1:]) for zs in map(zone_of_run.__getitem__, band_slices))
    zone_pairs = chain(
        chain.from_iterable(in_bands),
        zip(map(zone_of_run.__getitem__, above), map(zone_of_run.__getitem__, below)),
    )
    pairs = set()
    for zp, zq in zone_pairs:
        pairs.add((zp, zq) if zp < zq else (zq, zp))
    rg = ReducedGraph(_rows(len(roots), pairs), tuple(list(map(color.__getitem__, roots))))
    starts = list(map(add, map(top.__getitem__, roots), map(begin.__getitem__, roots)))
    zone_of = _BandZones(rows, cols, begin, zone_of_run, band_runs, band_rows)
    return rg, ZoneMap(zone_of, tuple(starts))


# `reduce` as it was before it fed its edges to `graphs._label`, kept
# verbatim as the reference that the CLI's labeling of a graph file, and
# `reduce` itself, must equal exactly.
def reference_reduce(g: ColoredGraph) -> tuple[ReducedGraph, ZoneMap]:
    """Contract every zone of g to a single vertex.

    Same-colored neighbors are united in a union-find whose roots are least
    vertices, as `instances._grid_zones` unites runs, so zones are numbered
    by their least vertex.  The induced coloration is proper by
    construction; zone count and edge count never exceed the original
    graph's.  Near-linear in vertices plus edges.
    """
    adjacency, colors = g.adjacency, g.colors
    parent = list(range(len(colors)))  # parent[k] <= k, so a root is its tree's least vertex
    for u, row in enumerate(adjacency):
        color = colors[u]
        for w in row:
            if w > u and colors[w] == color:
                x = u  # find, inlined
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]
                y = w
                while parent[y] != y:
                    parent[y] = y = parent[parent[y]]
                if x < y:
                    parent[y] = x
                elif y < x:
                    parent[x] = y
    roots, zone_of = _forest_zones(parent)
    del parent  # before the pair set grows
    pairs = set()
    for zu, row in zip(zone_of, adjacency):
        for w in row:
            zw = zone_of[w]
            if zu < zw:
                pairs.add((zu, zw))
    rg = ReducedGraph(_rows(len(roots), pairs), tuple([colors[r] for r in roots]))
    return rg, ZoneMap(zone_of, tuple(roots))


def _content_lines(text: str) -> list[tuple[int, str]]:
    """Logical lines with comments stripped, keeping 1-based line numbers."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def reference_parse_graph(text: str) -> ColoredGraph:
    """Parse an "n m c" header, n color lines, and m edge lines."""
    lines = _content_lines(text)
    if not lines:
        raise Empty("no content", line=1)
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3:
        raise ParseError("header must be 'n m c'", line=lineno)
    try:
        n, m, color_count = (int(p) for p in parts)
    except ValueError:
        raise ParseError("header fields must be integers", line=lineno) from None
    if n < 1:
        raise ParseError("vertex count must be at least 1", line=lineno)
    if m < 0:
        raise ParseError("edge count cannot be negative", line=lineno)
    if color_count < 1:
        raise ParseError("color count must be at least 1", line=lineno)
    pos = 1
    colors = []
    for k in range(n):
        if pos >= len(lines):
            raise ParseError(f"expected {n} color lines, found {k}", line=lines[-1][0])
        lineno, line = lines[pos]
        pos += 1
        try:
            color = int(line)
        except ValueError:
            raise ParseError("expected a single color id", line=lineno) from None
        if not 0 <= color < color_count:
            raise ColorOutOfRange(f"line {lineno}: color {color} outside [0, {color_count})")
        colors.append(color)
    seen: dict[tuple[int, int], None] = {}  # ordered, so assembly walks the edges in file order
    for k in range(m):
        if pos >= len(lines):
            raise EdgeCountMismatch(f"header declares {m} edges, found {k}", line=lines[-1][0])
        lineno, line = lines[pos]
        pos += 1
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected 'u v'", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", line=lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidVertex(f"line {lineno}: edge ({u}, {v}) outside [0, {n})")
        if u == v:
            raise SelfLoop(f"line {lineno}: self-loop at vertex {u}")
        if not u < v:
            raise ParseError("edge endpoints must satisfy u < v", line=lineno)
        if (u, v) in seen:
            raise DuplicateEdge(f"line {lineno}: edge ({u}, {v}) given twice")
        seen[u, v] = None
    if pos < len(lines):
        raise EdgeCountMismatch(
            f"header declares {m} edges, found extra content", line=lines[pos][0]
        )
    g = _assemble(seen, tuple(colors), color_count)  # every line checked above
    _check_connected(g.adjacency)
    return g


def reference_parse_instance(text: str):
    """`cli._parse_instance` on text: the first content line of the whole
    text's `splitlines` picks the format."""
    fields = []
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if fields:
            break
    if len(fields) > 1:
        return reference_parse_graph(text)
    return reference_parse_grid_spec(text)


def reference_gen_random(n: int, extra_edges: int, color_count: int, seed: int) -> ColoredGraph:
    """Seeded connected instance: a random spanning tree plus extra edges.

    The same seed always yields the same instance.
    """
    if n < 1:
        raise EmptyGraph("a graph needs at least one vertex")
    if color_count < 1:
        raise ColorOutOfRange("at least one color is needed")
    slots = n * (n - 1) // 2 - (n - 1)
    if extra_edges > slots:
        raise TooManyEdges(f"{extra_edges} extra edges requested, only {slots} non-tree slots")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((a, b) if a < b else (b, a))
    if extra_edges:
        if extra_edges > slots // 3:
            pool = [
                (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
            ]
            edges.update(rng.sample(pool, extra_edges))
        else:
            want = n - 1 + extra_edges
            while len(edges) < want:
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.add((u, v) if u < v else (v, u))
    colors = [rng.randrange(color_count) for _ in range(n)]
    return _assemble(sorted(edges), tuple(colors), color_count)  # valid by construction


def outcome(call, *args):
    """What `call(*args)` gives: ("ok", its result), or the error's class,
    message, line and column."""
    try:
        return "ok", call(*args)
    except FloodError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


# The acceptance corpora, shared by the acceptance suite and the agreement
# tests that compare fast paths against the reference sweep on them.
ACCEPTANCE_SEED = 20250803


def small_random_graphs(seed: int = ACCEPTANCE_SEED) -> list[ColoredGraph]:
    """500 seeded connected 2-colored graphs with n <= 14: trees and mixes."""
    rng = random.Random(seed)
    out = []
    for _ in range(500):
        n = rng.randint(2, 14)
        slots = n * (n - 1) // 2 - (n - 1)
        extra = min(rng.randint(0, 3), slots)
        out.append(gen_random(n, extra, 2, seed=rng.randrange(2**32)))
    return out


def grid_colorings():
    """(base grid, every 2-coloring) for each grid shape up to 3 rows by 4 columns."""
    corpus = []
    for rows in range(1, 4):
        for cols in range(1, 5):
            base = grid_graph(GridSpec(rows, cols, tuple([0] * (rows * cols))))
            corpus.append((base, list(itertools.product((0, 1), repeat=rows * cols))))
    return corpus


def acceptance_graphs() -> list[ColoredGraph]:
    """Every colored graph of the acceptance corpora of criteria 1 to 4 and 6."""
    graphs = small_random_graphs()
    for base, colorings in grid_colorings():
        graphs.extend(ColoredGraph(base.adjacency, cells, 2) for cells in colorings)
    for count, offset, min_zones, max_zones in ((200, 1, 2, 50), (100, 2, 2, 30), (100, 3, 3, 20)):
        corpus = gen_reduced_corpus(count, ACCEPTANCE_SEED + offset, min_zones, max_zones)
        graphs.extend(g for g, _ in corpus)
    return graphs


def connected_bipartite_graphs(n: int):
    """Every labeled connected bipartite graph on n vertices, as a ColoredGraph
    colored by side, with vertex 0 on side 0.

    Every side mask of vertices 1 to n - 1 is taken with every subset of the
    pairs across it, and the connected graphs are kept.  A connected
    bipartite graph has one bipartition up to a swap, which vertex 0's side
    fixes, so each one comes once: 1, 1, 3, 19, 195 and 3 031 graphs for n = 1
    to 6, the labeled connected bipartite graphs of OEIS A001832.  Each
    vertex is its own zone, so the zone graph is the graph itself.
    """
    for mask in range(1 << (n - 1)):
        colors = [0] + [mask >> (v - 1) & 1 for v in range(1, n)]
        cross = [(u, w) for u in range(n) for w in range(u + 1, n) if colors[u] != colors[w]]
        for subset in range(1 << len(cross)):
            edges = [pair for i, pair in enumerate(cross) if subset >> i & 1]
            rows = [[] for _ in range(n)]
            for u, w in edges:
                rows[u].append(w)
                rows[w].append(u)
            seen, stack = {0}, [0]
            while stack:
                for w in rows[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == n:
                yield build(edges, colors, 2)


CPYTHON_ONLY = pytest.mark.skipif(
    sys.implementation.name != "cpython", reason="pins CPython's tuple free lists"
)


def allocated_block_growth(call, times=3000):
    """Memory blocks still allocated after `times` calls of `call`, with no collection.

    A full collection first empties CPython's free lists, so the count shows
    what the calls park there.  A tuple built from a generator is one case:
    CPython allocates it at 10 items and shrinks it to fit, so each one
    takes a tuple off the size-10 list and, freed, joins the list of its
    final size, which grows by one per such tuple up to 2 000 entries.
    (CPython 3.11 also parks freed tuples of exactly 20 items and never
    reuses them.)
    """
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for _ in range(times):
            call()
        return sys.getallocatedblocks() - before
    finally:
        gc.enable()

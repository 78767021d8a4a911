"""Optimal flooding of two-colored graphs.

The minimum number of flooding moves equals the radius of the zone graph,
and flooding any center zone over and over achieves it: each such move
contracts the center with its whole neighborhood and lowers the radius by
exactly one.
"""

from __future__ import annotations

import enum
from typing import Iterator, NamedTuple, Sequence

from .errors import (
    DisconnectedGraph,
    ImproperColoring,
    InvariantViolation,
    MalformedMove,
    NoOpMove,
)
from .graphs import (
    ColoredGraph,
    FloodMove,
    ReducedGraph,
    ZoneMap,
    _palette,
    _validate_reduced,
    _ZoneState,
    reduce,
)
from .metrics import _distances, _radius_search


class Solution(NamedTuple):
    """A flooding sequence of certified minimum length.

    Every move targets the same representative vertex of the chosen center
    zone, with the two palette colors alternating.
    """

    moves: tuple[FloodMove, ...]
    claimed_optimum: int
    center_zone_representative: int


class Verdict(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE_SUBOPTIMAL = "feasible_suboptimal"
    INFEASIBLE = "infeasible"


def min_moves(g: ColoredGraph) -> int:
    """Optimal number of flooding moves: the radius of the reduced graph."""
    rg, _ = reduce(g)
    _palette(rg.colors)
    return _radius_search(rg.adjacency)[0]


def solve(g: ColoredGraph, validate: bool = False) -> Solution:
    """Minimum-length move list: flood one center zone's representative repeatedly.

    With `validate=True` the moves are replayed on the reduced graph and
    checked against one search from the center zone (`_check_certificate`).
    """
    rg, zm = reduce(g)
    return _solve_zones(rg, zm, validate)[0]


def _solve_zones(
    rg: ReducedGraph, zm: ZoneMap, validate: bool = False
) -> tuple[Solution, int, int]:
    """`solve` on the zone graph (rg, zm) of an instance; also the counts of
    searches run by the radius search and by the certificate (0 without
    `validate`)."""
    palette = _palette(rg.colors)
    radius, center, searches = _radius_search(rg.adjacency)
    rep = zm.representative_of[center]
    moves = []
    color = rg.colors[center]
    for _ in range(radius):
        color = palette[1] if color == palette[0] else palette[0]
        moves.append(FloodMove(rep, color))
    certificate = _check_certificate(rg, zm, radius, center, moves) if validate else 0
    return Solution(tuple(moves), radius, rep), searches, certificate


def _check_certificate(
    rg: ReducedGraph, zm: ZoneMap, radius: int, center: int, moves: Sequence[FloodMove]
) -> int:
    """Check the moves `solve` prints against one search from the center zone c.

    Flooding c on the two-color domain absorbs all of c's neighbors, so after
    k floods c's live zone is the ball B(c, k) of the input zone graph, its
    row is the layer L(k+1) = {z : d(c, z) = k+1}, and zones farther out keep
    their input rows: 1 + |{z : d(c, z) > k}| zones are live, and one is
    left after ecc(c) moves.  A move lowers the radius by at most one, so if
    the input's radius is at least `radius` = ecc(c), the radius after move
    k is `radius` - k, with c central.

    Checked before the replay: the input zone graph proper and connected,
    its radius at least `radius` by the target search seeded with the search
    from c (a full search names the radius if not), and ecc(c) = `radius`.
    After move k <= `radius`: the live count, c's row as a set, and the rows
    of c and its neighbors, the only live rows the flood changed.  One zone
    must be left at the end.  A failed check is a bug in this package and
    raises InvariantViolation.  Returns the count of searches run, the
    target search's.
    """
    zones = rg.zone_count
    try:
        _validate_reduced(rg)
        dist = _distances(rg.adjacency, center)
        ecc = max(dist)
        layers = [set() for _ in range(ecc + 2)]  # L(0) to L(ecc + 1), the last one empty
        for z, d in enumerate(dist):
            layers[d].add(z)
        found, _, searches = _radius_search(rg.adjacency, center, dist, radius)  # overwrites dist
        if found != radius:
            now = _radius_search(rg.adjacency, center)[0]
            raise InvariantViolation(f"radius {now} after 0 moves, expected {radius}")
        if ecc != radius:
            raise InvariantViolation(f"zone {center} has eccentricity {ecc}, expected {radius}")
        for step, state in enumerate(_replay(rg, zm, max(rg.colors) + 1, moves), start=1):
            if step > radius:
                raise InvariantViolation(f"{len(moves)} moves, expected {radius}")
            zones -= len(layers[step])  # 1 + |{z : d(c, z) > step}|
            if state.count != zones:
                raise InvariantViolation(f"{state.count} zones after {step} moves, expected {zones}")
            if (row := state.adjacency[center]) != layers[step + 1]:
                raise InvariantViolation(f"row of zone {center} after {step} moves is not layer {step + 1}")
            _check_rows(state, [center, *row])
    except (NoOpMove, MalformedMove) as exc:
        raise InvariantViolation(f"replay rejected a solver move: {exc}") from None
    except (ImproperColoring, DisconnectedGraph) as exc:
        raise InvariantViolation(str(exc)) from None
    if zones != 1:
        raise InvariantViolation(f"{zones} zones left after the moves, expected 1")
    return searches


def _check_rows(state: _ZoneState, zones: Sequence[int]) -> None:
    """Each row of `zones` lists live zones of another color that list it back."""
    adjacency, colors = state.adjacency, state.colors
    for z in zones:
        for w in adjacency[z]:
            row = adjacency[w]
            if row is None:
                raise InvariantViolation(f"zone {z} lists absorbed zone {w}")
            if z not in row:
                raise InvariantViolation(f"zone {w} does not list its neighbor {z}")
            if colors[w] == colors[z]:
                raise InvariantViolation(f"adjacent zones {z} and {w} share color {colors[z]}")


def _replay(
    rg: ReducedGraph, zm: ZoneMap, color_count: int, moves: Sequence[FloodMove]
) -> Iterator[_ZoneState]:
    """Flood each move on the zone graph (rg, zm) of an instance, one at a time.

    Yields the zone state after every move: one state, flooded in place, so
    a move costs time in the zones it touches.  A move is checked when it is
    reached: MalformedMove for a vertex or a color out of range, NoOpMove for
    a zone that already has the move's color.
    """
    n = len(zm.zone_of)
    state = _ZoneState(rg)
    for move in moves:
        if not 0 <= move.vertex < n:
            raise MalformedMove(f"vertex {move.vertex} outside [0, {n})")
        if not 0 <= move.color < color_count:
            raise MalformedMove(f"color {move.color} outside [0, {color_count})")
        x = state.find(zm.zone_of[move.vertex])
        if state.colors[x] == move.color:
            raise NoOpMove(f"zone of vertex {move.vertex} already has color {move.color}")
        state.flood(x, move.color)
        yield state


def verify_solution(g: ColoredGraph, s: Solution) -> Verdict:
    """Replay s on the zone graph of g: optimal, feasible but too long, or infeasible.

    A move that is out of range raises MalformedMove; a no-op move makes the
    sequence infeasible.
    """
    rg, zm = reduce(g)
    return _verify_zones(rg, zm, g.color_count, s.moves)


def _verify_zones(
    rg: ReducedGraph, zm: ZoneMap, color_count: int, moves: Sequence[FloodMove]
) -> Verdict:
    """`verify_solution` on the zone graph (rg, zm) of an instance with `color_count` colors.

    A replay that ends in one zone shows the moves feasible.  A move merges
    the flooded zone with some of its neighbors, which lowers the radius by
    at most one, so no feasible list is shorter than the radius: the moves
    are optimal exactly when the target search proves the radius at least
    their count.
    """
    zones = rg.zone_count
    try:
        for state in _replay(rg, zm, color_count, moves):
            zones = state.count
    except NoOpMove:
        return Verdict.INFEASIBLE
    if zones != 1:
        return Verdict.INFEASIBLE
    _palette(rg.colors)
    if _radius_search(rg.adjacency, target=len(moves))[0] == len(moves):
        return Verdict.OPTIMAL
    return Verdict.FEASIBLE_SUBOPTIMAL

"""Optimal flooding of two-colored graphs.

The minimum number of flooding moves equals the radius of the zone graph,
and flooding any center zone over and over achieves it: each such move
contracts the center with its whole neighborhood and lowers the radius by
exactly one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import InvariantViolation, MalformedMove, NoOpMove, TooManyColors
from .graphs import (
    ColoredGraph,
    FloodMove,
    ReducedGraph,
    ZoneMap,
    _contraction_color,
    _validate_reduced,
    _ZoneState,
    reduce,
)
from .metrics import _distances, _radius_center, _radius_search


@dataclass(frozen=True)
class Solution:
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


def _palette(colors: Sequence[int]) -> list[int]:
    used = sorted(set(colors))
    if len(used) > 2:
        raise TooManyColors(f"{len(used)} colors in use; this solver handles two")
    return used


def min_moves(g: ColoredGraph) -> int:
    """Optimal number of flooding moves: the radius of the reduced graph."""
    rg, _ = reduce(g)
    _palette(rg.colors)
    return _radius_center(rg.adjacency)[0]


def solve(g: ColoredGraph, validate: bool = False) -> Solution:
    """Minimum-length move list: flood one center zone's representative repeatedly.

    With `validate=True` the certificate is additionally replayed on the
    reduced graph, checking the radius drops by exactly one per step.
    """
    rg, zm = reduce(g)
    return _solve_zones(rg, zm, validate)[0]


def _solve_zones(
    rg: ReducedGraph, zm: ZoneMap, validate: bool = False
) -> tuple[Solution, int]:
    """`solve` on the zone graph (rg, zm) of an instance; also the count of radius searches."""
    palette = _palette(rg.colors)
    radius, center, searches = _radius_search(rg.adjacency)
    rep = zm.representative_of[center]
    moves = []
    color = rg.colors[center]
    for _ in range(radius):
        color = palette[1] if color == palette[0] else palette[0]
        moves.append(FloodMove(rep, color))
    if validate:
        steps = solve_reduced(rg, validate=True)
        if len(steps) != radius:
            raise InvariantViolation("contraction certificate length differs from the radius")
    return Solution(tuple(moves), radius, rep), searches


def solve_reduced(rg: ReducedGraph, validate: bool = False) -> list[int]:
    """Zone ids to contract, one per move, down to a singleton graph.

    Each entry is the current id of the persisting center zone at that step.
    `validate=True` checks that every zone graph on the way is properly
    colored and connected, and after every contraction that the radius
    decreased by exactly one and that the merged zone is still central.
    """
    if validate:
        _validate_reduced(rg)
    radius, center = _radius_center(rg.adjacency)
    steps: list[int] = []
    state = _ZoneState(rg)
    x = center  # the center zone's name in the state; its id is the name's rank
    color = _contraction_color(rg, x) if state.count > 1 else None
    while state.count > 1:
        steps.append(center)
        previous = state.colors[x]
        absorbed = state.flood(x, color)
        color = previous
        center -= sum(y < x for y in absorbed)
        if validate:
            cur, _ = state.snapshot()
            _validate_reduced(cur)
            now = _radius_center(cur.adjacency)[0]
            if now != radius - len(steps):
                raise InvariantViolation(
                    f"radius {now} after {len(steps)} contractions, "
                    f"expected {radius - len(steps)}"
                )
            if max(_distances(cur.adjacency, center)) != now:
                raise InvariantViolation("merged zone left the center set")
    if len(steps) != radius:
        raise InvariantViolation("contraction count differs from the initial radius")
    return steps


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
    if len(moves) == _radius_center(rg.adjacency)[0]:
        return Verdict.OPTIMAL
    return Verdict.FEASIBLE_SUBOPTIMAL

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
    _flood,
    _validate_reduced,
    contract_with_trace,
    reduce,
)
from .metrics import _radius_center, radius_and_center


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
    return _solve_zones(rg, zm, validate)


def _solve_zones(rg: ReducedGraph, zm: ZoneMap, validate: bool = False) -> Solution:
    """`solve` on the zone graph (rg, zm) of an instance."""
    palette = _palette(rg.colors)
    radius, center = _radius_center(rg.adjacency)
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
    return Solution(tuple(moves), radius, rep)


def solve_reduced(rg: ReducedGraph, validate: bool = False) -> list[int]:
    """Zone ids to contract, one per move, down to a singleton graph.

    Each entry is the current id of the persisting center zone at that step.
    `validate=True` checks that every zone graph on the way is properly
    colored and connected, recomputes the metrics after every contraction,
    and checks that the radius decreases by exactly one and that the merged
    zone stays central.
    """
    if validate:
        _validate_reduced(rg)
    radius, center = _radius_center(rg.adjacency)
    steps: list[int] = []
    cur = rg
    while cur.zone_count > 1:
        steps.append(center)
        cur, trace = contract_with_trace(cur, center)
        center = trace.new_id[center]
        if validate:
            _validate_reduced(cur)
            m = radius_and_center(cur)
            if m.radius != radius - len(steps):
                raise InvariantViolation(
                    f"radius {m.radius} after {len(steps)} contractions, "
                    f"expected {radius - len(steps)}"
                )
            if m.eccentricity[center] != m.radius:
                raise InvariantViolation("merged zone left the center set")
    if len(steps) != radius:
        raise InvariantViolation("contraction count differs from the initial radius")
    return steps


def _replay(
    rg: ReducedGraph, zm: ZoneMap, color_count: int, moves: Sequence[FloodMove]
) -> Iterator[tuple[ReducedGraph, list[int]]]:
    """Flood each move on the zone graph (rg, zm) of an instance, one at a time.

    Yields (current zone graph, now) after every move, where now[z] is the
    current id of original zone z.  A move is checked when it is reached:
    MalformedMove for a vertex or a color out of range, NoOpMove for a zone
    that already has the move's color.
    """
    n = len(zm.zone_of)
    now = list(range(rg.zone_count))
    for move in moves:
        if not 0 <= move.vertex < n:
            raise MalformedMove(f"vertex {move.vertex} outside [0, {n})")
        if not 0 <= move.color < color_count:
            raise MalformedMove(f"color {move.color} outside [0, {color_count})")
        x = now[zm.zone_of[move.vertex]]
        if rg.colors[x] == move.color:
            raise NoOpMove(f"zone of vertex {move.vertex} already has color {move.color}")
        rg, trace = _flood(rg, x, move.color)
        now = [trace.new_id[z] for z in now]
        yield rg, now


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
    cur = rg
    try:
        for cur, _ in _replay(rg, zm, color_count, moves):
            pass
    except NoOpMove:
        return Verdict.INFEASIBLE
    if cur.zone_count != 1:
        return Verdict.INFEASIBLE
    _palette(rg.colors)
    if len(moves) == _radius_center(rg.adjacency)[0]:
        return Verdict.OPTIMAL
    return Verdict.FEASIBLE_SUBOPTIMAL

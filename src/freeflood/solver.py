"""Optimal flooding of two-colored graphs.

The minimum number of flooding moves equals the radius of the zone graph,
and flooding any center zone over and over achieves it: each such move
contracts the center with its whole neighborhood and lowers the radius by
exactly one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import NoOpMove, TooManyColors
from .graphs import (
    ColoredGraph,
    FloodMove,
    ReducedGraph,
    apply_flood,
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


def _palette(g: ColoredGraph) -> list[int]:
    used = sorted(set(g.colors))
    if len(used) > 2:
        raise TooManyColors(f"{len(used)} colors in use; this solver handles two")
    return used


def min_moves(g: ColoredGraph) -> int:
    """Optimal number of flooding moves: the radius of the reduced graph."""
    _palette(g)
    rg, _ = reduce(g)
    return _radius_center(rg.adjacency)[0]


def solve(g: ColoredGraph, validate: bool = False) -> Solution:
    """Minimum-length move list: flood one center zone's representative repeatedly.

    With `validate=True` the certificate is additionally replayed on the
    reduced graph, checking the radius drops by exactly one per step.
    """
    palette = _palette(g)
    rg, zm = reduce(g)
    radius, center = _radius_center(rg.adjacency)
    rep = zm.representative_of[center]
    moves = []
    color = g.colors[rep]
    for _ in range(radius):
        color = palette[1] if color == palette[0] else palette[0]
        moves.append(FloodMove(rep, color))
    if validate:
        steps = solve_reduced(rg, validate=True)
        if len(steps) != radius:
            raise AssertionError("contraction certificate length differs from the radius")
    return Solution(tuple(moves), radius, rep)


def solve_reduced(rg: ReducedGraph, validate: bool = False) -> list[int]:
    """Zone ids to contract, one per move, down to a singleton graph.

    Each entry is the current id of the persisting center zone at that step.
    `validate=True` recomputes the metrics after every contraction and checks
    that the radius decreases by exactly one and that the merged zone stays
    central.
    """
    radius, center = _radius_center(rg.adjacency)
    steps: list[int] = []
    cur = rg
    while cur.zone_count > 1:
        steps.append(center)
        cur, trace = contract_with_trace(cur, center)
        center = trace.new_id[center]
        if validate:
            m = radius_and_center(cur)
            if m.radius != radius - len(steps):
                raise AssertionError(
                    f"radius {m.radius} after {len(steps)} contractions, "
                    f"expected {radius - len(steps)}"
                )
            if m.eccentricity[center] != m.radius:
                raise AssertionError("merged zone left the center set")
    if len(steps) != radius:
        raise AssertionError("contraction count differs from the initial radius")
    return steps


def verify_solution(g: ColoredGraph, s: Solution) -> Verdict:
    """Replay s on g: optimal, feasible but too long, or infeasible.

    A move that is out of range raises MalformedMove; a no-op move makes the
    sequence infeasible.
    """
    rg, zm = reduce(g)
    cur = g
    for move in s.moves:
        try:
            cur, zm = apply_flood(cur, zm, move)
        except NoOpMove:
            return Verdict.INFEASIBLE
    if len(set(cur.colors)) != 1:
        return Verdict.INFEASIBLE
    _palette(g)
    if len(s.moves) == _radius_center(rg.adjacency)[0]:
        return Verdict.OPTIMAL
    return Verdict.FEASIBLE_SUBOPTIMAL

"""Colored graphs, zone reduction, flooding moves, and neighborhood contraction.

A flooding move picks a zone (a maximal connected monochromatic vertex set)
and recolors it wholesale, possibly merging it with same-colored neighbor
zones.  The reduced graph, with one vertex per zone and a proper coloration,
is the working representation after `reduce`: moves are replayed on it by
one zone-level flood, which merges the flooded zone with its neighbors of
the new color; with two colors that is contracting the zone together with
all of its neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    ColorOutOfRange,
    DisconnectedGraph,
    DuplicateEdge,
    EmptyGraph,
    ImproperColoring,
    InvalidVertex,
    InvalidZone,
    SelfLoop,
    SingletonGraph,
    TooManyColors,
)

Adjacency = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ColoredGraph:
    """Connected undirected graph with one color per vertex."""

    adjacency: Adjacency
    colors: tuple[int, ...]
    color_count: int

    @property
    def vertex_count(self) -> int:
        return len(self.colors)

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.adjacency) // 2


@dataclass(frozen=True)
class ReducedGraph:
    """Zone graph of a colored graph; its coloration is always proper."""

    adjacency: Adjacency
    colors: tuple[int, ...]

    @property
    def zone_count(self) -> int:
        return len(self.colors)

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.adjacency) // 2


@dataclass(frozen=True)
class ZoneMap:
    """Surjection from original vertices onto zone ids.

    Zones are numbered by their smallest member vertex, and that smallest
    vertex is kept as the zone's representative.
    """

    zone_of: tuple[int, ...]
    representative_of: tuple[int, ...]

    @property
    def zone_count(self) -> int:
        return len(self.representative_of)


@dataclass(frozen=True)
class FloodMove:
    """Recolor the whole zone containing `vertex` with `color`."""

    vertex: int
    color: int


@dataclass(frozen=True)
class ContractionTrace:
    """Renumbering record of one flood (a neighborhood contraction with two colors)."""

    absorbed: tuple[int, ...]  # old zone ids folded into the flooded zone
    new_id: tuple[int, ...]    # old id -> new id; absorbed ids map to `merged`
    merged: int                # new id of the flooded zone


def _check_connected(adjacency: Sequence[Sequence[int]]) -> None:
    n = len(adjacency)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for w in adjacency[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    if count != n:
        raise DisconnectedGraph(f"only {count} of {n} vertices reachable from vertex 0")


def build(
    edge_list: Iterable[tuple[int, int]],
    colors: Sequence[int],
    color_count: int | None = None,
) -> ColoredGraph:
    """Validate and assemble a ColoredGraph.

    The vertex count is len(colors); edge endpoints must fall in that range.
    `color_count` defaults to max(colors) + 1.
    """
    colors = tuple(int(c) for c in colors)
    n = len(colors)
    if n == 0:
        raise EmptyGraph("a graph needs at least one vertex")
    for v, c in enumerate(colors):
        if c < 0:
            raise ColorOutOfRange(f"vertex {v} has negative color {c}")
    if color_count is None:
        color_count = max(colors) + 1
    for v, c in enumerate(colors):
        if c >= color_count:
            raise ColorOutOfRange(f"vertex {v} has color {c}, color_count is {color_count}")
    adj: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidVertex(f"edge ({u}, {v}) outside [0, {n})")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"edge {key} given twice")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    _check_connected(adj)
    return ColoredGraph(tuple(tuple(sorted(row)) for row in adj), colors, color_count)


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


def _validate_reduced(rg: ReducedGraph) -> None:
    """Check what holds by construction: a proper coloration and connectivity.

    Run only on the `validate=True` path, once per zone graph.
    """
    for z, row in enumerate(rg.adjacency):
        for w in row:
            if rg.colors[w] == rg.colors[z]:
                raise ImproperColoring(f"adjacent zones {z} and {w} share color {rg.colors[z]}")
    _check_connected(rg.adjacency)


def reduce(g: ColoredGraph) -> tuple[ReducedGraph, ZoneMap]:
    """Contract every zone of g to a single vertex.

    The induced coloration is proper by construction; zone count and edge
    count never exceed the original graph's.  Linear in vertices plus edges.
    """
    zone_of, zones = monochromatic_zones(g.adjacency, g.colors)
    k = len(zones)
    zadj: list[list[int]] = [[] for _ in range(k)]
    seen: set[tuple[int, int]] = set()
    for u in range(g.vertex_count):
        zu = zone_of[u]
        for w in g.adjacency[u]:
            zw = zone_of[w]
            if zu < zw and (zu, zw) not in seen:
                seen.add((zu, zw))
                zadj[zu].append(zw)
                zadj[zw].append(zu)
    rg = ReducedGraph(
        tuple(tuple(sorted(row)) for row in zadj),
        tuple(g.colors[members[0]] for members in zones),
    )
    zm = ZoneMap(tuple(zone_of), tuple(members[0] for members in zones))
    return rg, zm


def contract_with_trace(rg: ReducedGraph, x: int) -> tuple[ReducedGraph, ContractionTrace]:
    """Neighborhood contraction: fold zone x and all its neighbors into x.

    This is flooding x with the other palette color: the merged zone keeps
    x's slot, adopts all second neighbors, and flips color.  The returned
    trace records the renumbering for move reporting.
    """
    k = rg.zone_count
    if not 0 <= x < k:
        raise InvalidZone(f"zone {x} outside [0, {k})")
    if k < 2:
        raise SingletonGraph("contraction needs at least two zones")
    palette = set(rg.colors)
    if len(palette) > 2:
        raise TooManyColors("neighborhood contraction is defined for two-color instances")
    others = palette - {rg.colors[x]}
    if len(others) != 1:
        raise ImproperColoring("a proper coloration with two or more zones uses two colors")
    return _flood(rg, x, others.pop())


def _flood(rg: ReducedGraph, x: int, color: int) -> tuple[ReducedGraph, ContractionTrace]:
    """Flood zone x with `color`: x takes it and absorbs its neighbors of that color.

    The merged zone keeps x's slot in an order-preserving dense renumbering,
    and every survivor adjacent to x or to an absorbed zone is adjacent to
    it.  With a single zone this only recolors.  Works for any color count.
    """
    k = rg.zone_count
    absorbed = {y for y in rg.adjacency[x] if rg.colors[y] == color}
    new_id = [-1] * k
    survivors = [z for z in range(k) if z not in absorbed]
    for i, z in enumerate(survivors):
        new_id[z] = i
    merged = new_id[x]
    for z in absorbed:
        new_id[z] = merged
    group = absorbed | {x}
    adj_new: list[list[int]] = [[] for _ in survivors]
    around: set[int] = set()
    for y in group:
        for w in rg.adjacency[y]:
            if w not in group:
                around.add(new_id[w])
    adj_new[merged] = sorted(around)
    for s in survivors:
        if s == x:
            continue
        row = []
        touches_merged = False
        for w in rg.adjacency[s]:
            if w in group:
                touches_merged = True
            else:
                row.append(new_id[w])
        if touches_merged:
            row.append(merged)
        adj_new[new_id[s]] = sorted(row)
    colors_new = [rg.colors[s] for s in survivors]
    colors_new[merged] = color
    trace = ContractionTrace(tuple(sorted(absorbed)), tuple(new_id), merged)
    return ReducedGraph(tuple(tuple(row) for row in adj_new), tuple(colors_new)), trace

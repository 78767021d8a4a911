"""Colored graphs, zone reduction, and flooding moves on the zone graph.

A flooding move picks a zone (a maximal connected monochromatic vertex set)
and recolors it wholesale, possibly merging it with same-colored neighbor
zones.  The reduced graph, with one vertex per zone and a proper coloration,
is the working representation after `reduce`: moves are replayed on it by
one zone-level flood, which merges the flooded zone with its neighbors of
the new color; with two colors that is contracting the zone together with
all of its neighbors.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    ColorOutOfRange,
    DisconnectedGraph,
    DuplicateEdge,
    EmptyGraph,
    ImproperColoring,
    InvalidVertex,
    SelfLoop,
    TooManyColors,
)

Adjacency = tuple[tuple[int, ...], ...]


class ColoredGraph(NamedTuple):
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


class ReducedGraph(NamedTuple):
    """Zone graph of a colored graph; its coloration is always proper."""

    adjacency: Adjacency
    colors: tuple[int, ...]

    @property
    def zone_count(self) -> int:
        return len(self.colors)

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.adjacency) // 2


class ZoneMap(NamedTuple):
    """Surjection from original vertices onto zone ids.

    Zones are numbered by their smallest member vertex, and that smallest
    vertex is kept as the zone's representative.  `reduce` gives `zone_of`
    as a tuple.  A grid labeled from its rows gives a map backed by its
    runs, with only `len`, `[v]` for v in [0, n) (O(log runs)) and
    `bands()`, one row of zones per band of identical rows.
    """

    zone_of: Sequence[int]
    representative_of: tuple[int, ...]


class FloodMove(NamedTuple):
    """Recolor the whole zone containing `vertex` with `color`."""

    vertex: int
    color: int


def _check_connected(adjacency: Sequence[Sequence[int]], zone_of: Sequence[int] = ()) -> None:
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
        if zone_of:  # the rows are zones: count the vertices of those reached
            count, n = sum(map(seen.__getitem__, zone_of)), len(zone_of)
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
    colors = tuple([int(c) for c in colors])
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
    seen: dict[tuple[int, int], None] = {}  # ordered, so assembly walks the edges in input order
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidVertex(f"edge ({u}, {v}) outside [0, {n})")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"edge {key} given twice")
        seen[key] = None
    g = _assemble(seen, colors, color_count)
    _check_connected(g.adjacency)
    return g


def _assemble(
    edges: Iterable[tuple[int, int]], colors: tuple[int, ...], color_count: int
) -> ColoredGraph:
    """The ColoredGraph on edges already checked for range, self-loops and repeats."""
    return ColoredGraph(_rows(len(colors), edges), colors, color_count)


def _rows(count: int, pairs: Iterable[tuple[int, int]]) -> Adjacency:
    """Sorted adjacency rows of the items 0 .. count-1, from distinct unordered pairs."""
    rows: list[list[int]] = [[] for _ in range(count)]
    for u, v in pairs:
        rows[u].append(v)
        rows[v].append(u)
    del pairs  # freed here when the caller passed its last reference
    return tuple([tuple(sorted(row)) for row in rows])


def _forest_zones(parent: list[int]) -> tuple[list[int], tuple[int, ...]]:
    """The zones of a union-find forest with parent[k] <= k, numbered by least item.

    Returns the roots, one per zone in item order, and each item's zone;
    `parent` is overwritten with the zones.
    """
    roots = []
    for k, p in enumerate(parent):  # p <= k, so parent[p] already holds p's zone
        if p == k:
            parent[k] = len(roots)
            roots.append(k)
        else:
            parent[k] = parent[p]
    return roots, tuple(parent)


def _palette(colors: Sequence[int]) -> list[int]:
    """The colors in use, ascending: the one place the two-color rule is stated."""
    used = sorted(set(colors))
    if len(used) > 2:
        raise TooManyColors(f"{len(used)} colors in use; freeflood handles two")
    return used


def _validate_reduced(rg: ReducedGraph) -> None:
    """Check what holds by construction: a proper coloration and connectivity.

    Run once per zone graph on the `validate=True` path, and by the lemma
    checkers of `oracle`, whose hand-built inputs hold nothing by construction.
    """
    for z, row in enumerate(rg.adjacency):
        for w in row:
            if rg.colors[w] == rg.colors[z]:
                raise ImproperColoring(f"adjacent zones {z} and {w} share color {rg.colors[z]}")
    _check_connected(rg.adjacency)


def reduce(g: ColoredGraph) -> tuple[ReducedGraph, ZoneMap]:
    """Contract every zone of g to a single vertex: `_label` of g's pairs u < w."""
    return _label(g.colors, ((u, w) for w, row in enumerate(g.adjacency) for u in row if u < w))


def _label(colors: Sequence[int], edges: Iterable[tuple[int, int]]) -> tuple[ReducedGraph, ZoneMap]:
    """Zone graph and zone map of vertices 0 .. len(colors)-1 joined by distinct pairs,
    read once: same-colored pairs are united in a union-find whose roots are least vertices,
    as `instances._grid_zones` unites runs, so zones are numbered by their least vertex; each
    other pair joins two zones a < b, kept as the int a * zones + b (tuples would set off
    garbage collections over the kept pairs)."""
    parent = list(range(len(colors)))  # parent[k] <= k, so a root is its tree's least vertex
    us, ws = [], []  # the pairs of two colors
    for u, w in edges:
        if colors[u] != colors[w]:
            us.append(u)
            ws.append(w)
            continue
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
    zones = len(roots)
    keys = set()
    for u, w in zip(us, ws):
        zu, zw = zone_of[u], zone_of[w]
        keys.add(zu * zones + zw if zu < zw else zw * zones + zu)
    del parent, us, ws  # before the rows are built
    rg = ReducedGraph(_rows(zones, map(divmod, keys, repeat(zones))), tuple([colors[r] for r in roots]))
    return rg, ZoneMap(zone_of, tuple(roots))


class _ZoneState:
    """A zone graph that floods in place, for replaying a sequence of moves.

    Live zones are named by original zone ids.  adjacency[z] holds the live
    neighbors of live zone z: the zone graph's sorted row until a flood
    touches it, a set after that, and None once z is absorbed.  owner is a
    union-find forest from original zones to the live zone holding them
    (Tarjan, JACM 22(2), 1975), colors[z] is live zone z's color, and count
    is the number of live zones.  A flood touches only the rows of the
    flooded zone, of the zones it absorbs and of their neighbors, and the
    merged zone keeps the flooded zone's name.  The live rows are the zone
    graph after the moves, with no renumbering: a search from a live zone
    reaches only live zones, and an absorbed one reads distance -1.
    """

    __slots__ = ("adjacency", "owner", "colors", "count")

    def __init__(self, rg: ReducedGraph) -> None:
        self.adjacency: list[tuple[int, ...] | set[int] | None] = list(rg.adjacency)
        self.owner = list(range(rg.zone_count))
        self.colors = list(rg.colors)
        self.count = rg.zone_count

    def find(self, z: int) -> int:
        """The live zone holding original zone z."""
        owner = self.owner
        while owner[z] != z:
            owner[z] = z = owner[owner[z]]
        return z

    def zone_colors(self) -> list[int]:
        """Each original zone's live color, by C-level passes with no `find` per zone."""
        owner = self.owner
        while (up := list(map(owner.__getitem__, owner))) != owner:  # each zone to its grandparent
            self.owner = owner = up
        return list(map(self.colors.__getitem__, owner))

    def flood(self, x: int, color: int) -> None:
        """Flood live zone x with `color`; x absorbs its neighbors of that color.

        With a single zone this only recolors.  Works for any color count.
        """
        adjacency, owner, colors = self.adjacency, self.owner, self.colors
        row = adjacency[x]
        if type(row) is tuple:
            row = set(row)
        absorbed = [y for y in row if colors[y] == color]
        for y in absorbed:
            other = adjacency[y]
            adjacency[y] = None
            owner[y] = x
            for w in other:
                if w != x:
                    around = adjacency[w]
                    if type(around) is tuple:
                        around = adjacency[w] = set(around)
                    around.discard(y)
                    around.add(x)
            if type(other) is set and len(other) > len(row):  # merge the smaller into the larger
                row, other = other, row
            row.update(other)
        row.difference_update(absorbed)
        row.discard(x)
        adjacency[x] = row
        colors[x] = color
        self.count -= len(absorbed)

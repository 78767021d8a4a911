"""Instance file formats, grid ingestion, and seeded random instances.

Two text formats are supported.  A grid file is rows of digit colors, one
character per cell, inducing the 4-neighbor grid graph.  A general graph
file starts with an "n m c" header, followed by n color lines and m "u v"
edge lines with u < v; '#' starts a comment.  Move files hold one
"vertex color" pair per line.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .errors import (
    ColorOutOfRange,
    DuplicateEdge,
    EdgeCountMismatch,
    Empty,
    EmptyGraph,
    InvalidCharacter,
    InvalidVertex,
    ParseError,
    RaggedRows,
    SelfLoop,
    TooManyEdges,
)
from .graphs import ColoredGraph, FloodMove, ReducedGraph, build, reduce

_DIGITS = "0123456789"


@dataclass(frozen=True)
class GridSpec:
    """Rectangular board of digit colors, row-major."""

    rows: int
    cols: int
    cells: tuple[int, ...]


def parse_grid_spec(text: str) -> GridSpec:
    """Parse rows of digit characters into a GridSpec."""
    lines = text.splitlines()
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise Empty("no grid rows", line=1)
    width = len(lines[0])
    if width == 0:
        raise Empty("first grid row is empty", line=1)
    cells = []
    for i, row in enumerate(lines, start=1):
        if len(row) != width:
            raise RaggedRows(f"row has width {len(row)}, expected {width}", line=i)
        for j, ch in enumerate(row, start=1):
            if ch not in _DIGITS:
                raise InvalidCharacter(f"{ch!r} is not a digit", line=i, column=j)
            cells.append(int(ch))
    return GridSpec(len(lines), width, tuple(cells))


def grid_graph(spec: GridSpec) -> ColoredGraph:
    """4-neighbor grid graph over the board's cells, row-major vertex ids."""
    rows, cols = spec.rows, spec.cols
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return build(edges, spec.cells)


def parse_grid(text: str) -> ColoredGraph:
    """Parse a grid file into its 4-neighbor grid graph."""
    return grid_graph(parse_grid_spec(text))


def emit_grid(spec: GridSpec) -> str:
    """Grid file text for a board; colors must fit one digit each."""
    if any(c > 9 for c in spec.cells):
        raise ColorOutOfRange("grid files carry one digit per cell")
    rows = []
    for r in range(spec.rows):
        rows.append("".join(str(spec.cells[r * spec.cols + c]) for c in range(spec.cols)))
    return "\n".join(rows) + "\n"


def _content_lines(text: str) -> list[tuple[int, str]]:
    """Logical lines with comments stripped, keeping 1-based line numbers."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def parse_graph(text: str) -> ColoredGraph:
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
    edges = []
    seen: set[tuple[int, int]] = set()
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
        seen.add((u, v))
        edges.append((u, v))
    if pos < len(lines):
        raise EdgeCountMismatch(
            f"header declares {m} edges, found extra content", line=lines[pos][0]
        )
    return build(edges, colors, color_count)


def emit_graph(g: Union[ColoredGraph, ReducedGraph]) -> str:
    """Canonical instance text; emit followed by parse is the identity."""
    colors = g.colors
    color_count = getattr(g, "color_count", None)
    if color_count is None:
        color_count = max(colors) + 1
    edges = sorted((u, w) for u, row in enumerate(g.adjacency) for w in row if u < w)
    lines = [f"{len(colors)} {len(edges)} {color_count}"]
    lines.extend(str(c) for c in colors)
    lines.extend(f"{u} {w}" for u, w in edges)
    return "\n".join(lines) + "\n"


def instance_digest(g: Union[ColoredGraph, ReducedGraph]) -> str:
    """Hex digest identifying an instance by its canonical file bytes."""
    return hashlib.sha256(emit_graph(g).encode()).hexdigest()


def parse_moves(text: str) -> list[FloodMove]:
    """Move file: one 'vertex color' pair per line."""
    moves = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected 'vertex color'", line=lineno)
        try:
            vertex, color = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("vertex and color must be integers", line=lineno) from None
        moves.append(FloodMove(vertex, color))
    return moves


def emit_moves(moves: Iterable[FloodMove]) -> str:
    return "".join(f"{m.vertex} {m.color}\n" for m in moves)


def gen_random_bipartite(n: int, extra_edges: int, seed: int) -> ColoredGraph:
    """Seeded connected bipartite instance with its proper two-coloring.

    Every vertex is its own zone, so reducing the result is the identity;
    handy for generating reduced graphs of a chosen size.  The side split is
    random, so `extra_edges` is capped at the available cross pairs.
    """
    if n < 1:
        raise EmptyGraph("a graph needs at least one vertex")
    rng = random.Random(seed)
    side = [0] * n
    edges: set[tuple[int, int]] = set()
    for v in range(1, n):
        side[v] = 1 - side[rng.randrange(v)] if v > 1 else 1
        opposite = [u for u in range(v) if side[u] != side[v]]
        u = opposite[rng.randrange(len(opposite))]
        edges.add((u, v))
    cross = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if side[u] != side[v] and (u, v) not in edges
    ]
    edges.update(rng.sample(cross, min(extra_edges, len(cross))))
    return build(sorted(edges), side, 2)


def gen_random(n: int, extra_edges: int, color_count: int, seed: int) -> ColoredGraph:
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
    return build(sorted(edges), colors, color_count)


def gen_reduced_corpus(
    count: int, seed: int, max_n: int, min_zones: int, max_zones: int
) -> Iterator[tuple[ColoredGraph, ReducedGraph]]:
    """Seeded (graph, reduced graph) pairs with a zone count in [min_zones, max_zones].

    Half the graphs are random two-colored graphs, half random bipartite
    graphs (already reduced), so both small and full-size zone graphs show
    up.  Gives up after 100 * count draws, so it may yield fewer than count.
    """
    rng = random.Random(seed)
    produced = 0
    for _ in range(100 * count):
        if produced == count:
            return
        n = rng.randint(2, max_n)
        if rng.random() < 0.5:
            slots = n * (n - 1) // 2 - (n - 1)
            g = gen_random(n, min(rng.randint(0, 3), slots), 2, seed=rng.randrange(2**32))
        else:
            g = gen_random_bipartite(n, rng.randint(0, n // 3), seed=rng.randrange(2**32))
        rg, _ = reduce(g)
        if min_zones <= rg.zone_count <= max_zones:
            produced += 1
            yield g, rg

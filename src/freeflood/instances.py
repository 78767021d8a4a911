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
from itertools import chain, compress, groupby, repeat, starmap
from operator import add, eq, ne, sub
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
from .graphs import ColoredGraph, FloodMove, ReducedGraph, ZoneMap, build, reduce

_DIGITS = "0123456789"
_DIGIT_BYTES = _DIGITS.encode()
_CELL_VALUES = bytes(range(10))
_DIGIT_VALUES = bytes.maketrans(_DIGIT_BYTES, _CELL_VALUES)
_VALUE_DIGITS = bytes.maketrans(_CELL_VALUES, _DIGIT_BYTES)
_PAD = b"\0"  # fills the unused digit positions and missing lines of a grid's edge band
_BAND_CELLS = 1 << 16  # cells per band when a grid's edges are written
_TILE_CELLS = 1000  # fewest cells in a tiled band; below it the band costs more than it saves
_PIECE_BYTES = 1024  # shortest row hashed as its own piece; a piece costs ~1 KB of pad deleted


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
    cells = tuple(b"".join(chunks).translate(_DIGIT_VALUES))
    return GridSpec(len(lines), width, cells)


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


def _grid_zones(spec: GridSpec) -> tuple[ReducedGraph, ZoneMap]:
    """reduce(grid_graph(spec)), labeled from runs without the vertex graph.

    Consecutive identical rows form a band, and each band is split once into
    runs of one color; a run spans the band's full height.  Runs of one
    color that overlap in adjacent bands are united: a two-pointer merge of
    the two bands' runs feeds a union-find whose roots are least runs, as in
    run-based labeling (He, Chao & Suzuki, IEEE TIP 17(5), 2008).  A run's
    first cell is in its band's first row, so zones are numbered by their
    least cell, as `reduce` numbers them.  Two zones are adjacent when two of
    their runs follow each other in a band or overlap in adjacent bands.
    Cells are touched only by C-level work (comparing each row with the one
    above, writing `zone_of` row by row); the Python-level work grows with
    the bands and their runs.
    """
    rows, cols, cells = spec.rows, spec.cols, spec.cells
    n = rows * cols
    begin: list[int] = []  # column of each run's first cell; runs are numbered in cell order
    end: list[int] = []  # column after each run's last cell
    top: list[int] = []  # first cell of each run's band
    color: list[int] = []
    parent: list[int] = []  # parent[k] <= k, so a root is its tree's least run
    above: list[int] = []  # above[i] and below[i] are runs of different colors that
    below: list[int] = []  # touch across two bands
    band_runs: list[slice] = []  # the runs of each band
    heights: list[int] = []

    row_slices = map(cells.__getitem__, map(slice, range(0, n, cols), range(cols, n + 1, cols)))
    base = prev_first = 0
    for row, same in groupby(row_slices):
        height = len(list(same))
        tail = row[1:]
        changes = list(map(ne, tail, row))
        cuts = list(compress(range(1, cols), changes))
        first = len(begin)
        last = first + len(cuts)
        begin.append(0)
        begin.extend(cuts)
        end.extend(cuts)
        end.append(cols)
        top.extend(repeat(base, last + 1 - first))
        color.append(row[0])
        color.extend(compress(tail, changes))
        parent.extend(range(first, last + 1))
        band_runs.append(slice(first, last + 1))
        heights.append(height)
        base += height * cols
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

    for k, p in enumerate(parent):  # parents come first, so this finds every root
        parent[k] = parent[p]
    runs = range(len(begin))
    roots = list(compress(runs, map(eq, runs, parent)))  # each zone's first run
    zone_of_root = [0] * len(begin)
    for z, k in enumerate(roots):
        zone_of_root[k] = z
    zone_of_run = list(map(zone_of_root.__getitem__, parent))

    def band_row(band: slice) -> tuple[int, ...]:
        """The zone of each cell in one row of a band."""
        widths = map(sub, end[band], begin[band])
        return tuple(chain.from_iterable(map(repeat, zone_of_run[band], widths)))

    band_rows = map(repeat, map(band_row, band_runs), heights)
    zone_of = tuple(chain.from_iterable(chain.from_iterable(band_rows)))
    # zones of runs that follow each other in a band, then of runs that touch across bands
    in_bands = (zip(zs, zs[1:]) for zs in map(zone_of_run.__getitem__, band_runs))
    zone_pairs = chain(
        chain.from_iterable(in_bands),
        zip(map(zone_of_run.__getitem__, above), map(zone_of_run.__getitem__, below)),
    )
    pairs = set()
    for zp, zq in zone_pairs:
        pairs.add((zp, zq) if zp < zq else (zq, zp))
    adjacency: list[list[int]] = [[] for _ in roots]
    for zp, zq in pairs:
        adjacency[zp].append(zq)
        adjacency[zq].append(zp)
    rg = ReducedGraph(
        tuple(tuple(sorted(row)) for row in adjacency),
        tuple(map(color.__getitem__, roots)),
    )
    starts = map(add, map(top.__getitem__, roots), map(begin.__getitem__, roots))
    return rg, ZoneMap(zone_of, tuple(starts))


def parse_grid(text: str) -> ColoredGraph:
    """Parse a grid file into its 4-neighbor grid graph."""
    return grid_graph(parse_grid_spec(text))


def emit_grid(spec: GridSpec) -> str:
    """Grid file text for a board; colors must be 0-9, one digit each."""
    digits = _cell_digits(spec.cells)
    if digits is None:
        raise ColorOutOfRange("grid files carry one digit 0-9 per cell")
    cols = spec.cols
    rows = [digits[base : base + cols] for base in range(0, len(digits), cols)]
    return (b"\n".join(rows) + b"\n").decode()


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


def emit_graph(g: Union[ColoredGraph, ReducedGraph, GridSpec]) -> str:
    """Canonical instance text; emit followed by parse is the identity.

    A GridSpec gives the same text as its grid graph, written from the cells
    in bands of tiled digit places (see `_grid_edge_band`).
    """
    if isinstance(g, GridSpec):
        return b"".join(_grid_text(g)).decode()
    colors = g.colors
    color_count = getattr(g, "color_count", None)
    if color_count is None:
        color_count = max(colors) + 1
    edges = sorted((u, w) for u, row in enumerate(g.adjacency) for w in row if u < w)
    lines = [f"{len(colors)} {len(edges)} {color_count}"]
    lines.extend(str(c) for c in colors)
    lines.extend(f"{u} {w}" for u, w in edges)
    return "\n".join(lines) + "\n"


def _cell_digits(cells: tuple[int, ...]) -> bytes | None:
    """The cells as ASCII digits, or None when a cell is outside 0-9."""
    try:
        raw = bytes(cells)
    except ValueError:  # a cell outside 0-255
        return None
    if raw.translate(None, _CELL_VALUES):
        return None
    return raw.translate(_VALUE_DIGITS)


def _grid_text(spec: GridSpec) -> Iterator[bytes | memoryview]:
    """emit_graph(grid_graph(spec)) in pieces: the header, the colors, then the edges.

    The edges of vertex v are v v+1 and v v+cols, so writing each cell's right
    edge, then its down edge, in cell order gives the sorted edge list.  The
    edge lines are written in bands of whole rows (`_grid_bands`), each by
    `_grid_edge_band`, and the pieces are produced lazily, so a digest that
    hashes piece by piece holds one band at a time at any board size.
    """
    rows, cols, cells = spec.rows, spec.cols, spec.cells
    n = rows * cols
    digits = _cell_digits(cells)
    if digits is None:
        color_count = max(cells) + 1
        colors = ("%d\n" * n % cells).encode()
    else:
        color_count = 1 + max(d - 48 for d in _DIGIT_BYTES if d in digits)
        colors = bytearray(b"\n") * (2 * n)
        colors[0::2] = digits
    header = f"{n} {2 * n - rows - cols} {color_count}\n".encode()
    edges = chain.from_iterable(starmap(_grid_edge_band, _grid_bands(rows, cols)))
    return chain((header, colors), edges)


def _grid_bands(rows: int, cols: int) -> Iterator[tuple[int, int, int, bool, bool]]:
    """`_grid_edge_band`'s arguments (lo, k, cols, last, tiled) for each band, top to bottom.

    A band holds at most max(1, _BAND_CELLS // cols) rows.  The rows whose
    ids (v, v+1 and v+cols alike) all have one digit count, other than the
    last row, form tiled bands; their runs are found from the powers of
    ten, not by a pass over the rows.  The rows between those runs, which
    write ids of two digit counts or are the last row, are merged into
    untiled bands.  A run stays untiled when it has fewer than _TILE_CELLS
    cells or its rows are shorter than _PIECE_BYTES: there a band or a
    piece would cost more than it saves.
    """
    cuts = [0]  # alternately the first and the end row of each tiled run
    low, width = 1, 1  # the ids of `width` digits are low .. 10*low - 1
    while low < rows * cols:
        first = -(-low // cols) if low > 1 else 0  # first row from an id >= low; 0 has 1 digit
        end = min((10 * low - 2 * cols) // cols + 1, rows - 1)  # rows before end stay below 10*low
        if (end - first) * cols >= _TILE_CELLS and cols * (4 * width + 4) >= _PIECE_BYTES:
            cuts += first, end
        low *= 10
        width += 1
    cuts.append(rows)
    step = max(1, _BAND_CELLS // cols)
    for i in range(len(cuts) - 1):
        for first in range(cuts[i], cuts[i + 1], step):
            end = min(first + step, cuts[i + 1])
            yield first * cols, (end - first) * cols, cols, end == rows, i % 2 == 1


def _grid_edge_band(
    lo: int, k: int, cols: int, last: bool, tiled: bool
) -> Iterable[bytes | memoryview]:
    """Sorted edge lines of the cells lo .. lo+k-1, which are whole rows of the board.

    Each cell gets a slot of two lines, "v v+1" and "v v+cols", with every
    number right-aligned in `width` digits behind pad bytes.  Digit place p
    of an id repeats every 10**(p+1) cells, so the low places are tiled: one
    slot holds the spaces and newlines, and each place p that holds no pad
    and repeats within the band is written into 10**(p+1) slots, ten copies
    of the template below it.  The band is the last template repeated and
    cut to k slots; each higher place is one byte column, written into the
    slots with an extended-slice assignment.  A tiled band (every id
    `width` digits, not the last row) is returned as views of the buffer
    between the rows' missing right edges, with no copy.  Any other band
    pads its missing lines (the last column's right edges, the last row's
    down edges) and deletes the pad with one `translate`.
    """
    width = len(str(lo + k - 1 + cols))  # every id the band writes, v + cols included, fits
    line = 2 * width + 2
    slot = 2 * line
    places = min(len(str(lo)), len(str(k)) - 1)  # places that hold no pad and repeat in the band
    tile = bytearray(slot)
    tile[width] = tile[line + width] = ord(" ")
    tile[line - 1] = tile[slot - 1] = ord("\n")
    for place in range(places):
        tile *= 10
        _write_place(tile, lo, 10 ** (place + 1), cols, width, place)
    out = tile * -(-k // 10**places)
    del out[k * slot :]
    for place in range(places, width):
        _write_place(out, lo, k, cols, width, place)
    if tiled:
        view = memoryview(out)
        skips = range((cols - 1) * slot, k * slot, cols * slot)  # each row's missing right edge
        starts = chain((0,), map(line.__add__, skips))
        return map(view.__getitem__, map(slice, starts, chain(skips, (k * slot,))))
    pad = _PAD * (k // cols)
    for i in range((cols - 1) * slot, (cols - 1) * slot + line):
        out[i :: cols * slot] = pad
    if last:
        pad = _PAD * cols
        for i in range((k - cols) * slot + line, (k - cols + 1) * slot):
            out[i::slot] = pad
    return (out.translate(None, _PAD),)


def _write_place(out: bytearray, lo: int, k: int, cols: int, width: int, place: int) -> None:
    """Write decimal place `place` of all four ids into the first k line slots of `out`."""
    line = 2 * width + 2
    slot = 2 * line
    column = _digit_column(lo, k + cols, place)
    at = width - 1 - place
    out[at::slot] = out[line + at :: slot] = column[:k]
    out[width + 1 + at :: slot] = column[1 : k + 1]
    out[line + width + 1 + at :: slot] = column[cols : cols + k]


def _place_pattern(place: int) -> bytes:
    """One period of decimal digit `place` over consecutive ids: "0" * 10**place, "1" * ..."""
    return b"".join(bytes((d,)) * 10**place for d in _DIGIT_BYTES)


_PLACE_PATTERNS = tuple(map(_place_pattern, range(4)))  # the patterns of places 0-3, 11 110 bytes


def _digit_column(lo: int, count: int, place: int) -> bytearray:
    """Decimal digit `place` of the ids lo, lo+1, ..., lo+count-1, pad for a leading zero."""
    unit = 10**place
    period = 10 * unit
    if place >= len(_PLACE_PATTERNS) and count < period:  # fewer than 11 runs of one digit
        runs = []
        end = lo + count
        while lo < end:
            q = lo // unit
            nxt = min((q + 1) * unit, end)
            runs.append((_PAD if not q else bytes((48 + q % 10,))) * (nxt - lo))
            lo = nxt
        return bytearray(b"".join(runs))
    # slice the repeating "0"*unit + "1"*unit + ... + "9"*unit
    pattern = _PLACE_PATTERNS[place] if place < len(_PLACE_PATTERNS) else _place_pattern(place)
    skip = lo % period
    column = bytearray((pattern * ((skip + count) // period + 1))[skip : skip + count])
    if place and lo < unit:
        lead = min(unit - lo, count)
        column[:lead] = _PAD * lead
    return column


def instance_digest(g: Union[ColoredGraph, ReducedGraph, GridSpec]) -> str:
    """Hex digest identifying an instance by its canonical file bytes."""
    if not isinstance(g, GridSpec):
        return hashlib.sha256(emit_graph(g).encode()).hexdigest()
    digest = hashlib.sha256()
    for piece in _grid_text(g):
        digest.update(piece)
    return digest.hexdigest()


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

"""Instance file formats, grid ingestion, and seeded random instances.

Two text formats are supported.  A grid file is rows of digit colors, one
character per cell, inducing the 4-neighbor grid graph.  A general graph
file starts with an "n m c" header, followed by n color lines and m "u v"
edge lines with u < v; '#' starts a comment.  Move files hold one
"vertex color" pair per line.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from itertools import chain, compress, repeat, starmap
from operator import add, lt, mul, sub
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

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
from .graphs import ColoredGraph, FloodMove, ReducedGraph, ZoneMap, _assemble, build, reduce
from .graphs import _check_connected, _forest_zones, _rows

_DIGITS = "0123456789"
_DIGIT_BYTES = _DIGITS.encode()
_CELL_VALUES = bytes(range(10))
_VALUE_DIGITS = bytes.maketrans(_CELL_VALUES, _DIGIT_BYTES)
_GRAPH_BYTES = _DIGIT_BYTES + b" \n"  # all that a graph file for `_graph_in_bulk` holds
_GRID_VALUES = bytes([b - 48 if 48 <= b < 58 else 255 for b in range(256)])  # non-digits to 255
_PAD = b"\0"  # fills the unused digit positions and missing lines of a grid's edge band
_BAND_CELLS = 1 << 16  # cells per band when a grid's edges are written
_TILE_CELLS = 1000  # fewest cells in a tiled band; below it the band costs more than it saves
_PIECE_BYTES = 1024  # shortest row hashed as its own piece; a piece costs ~1 KB of pad deleted


_GridFields = NamedTuple("_GridFields", [("rows", int), ("cols", int), ("cells", bytes)])


class GridSpec(_GridFields):
    """Rectangular board, row-major: `cells` (ints 0-9) is checked and kept as bytes; the grid
    readers and `simulate`, valid by construction, skip the check (`_GridFields.__new__`)."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, cells: Iterable[int]) -> GridSpec:
        if rows < 1 or cols < 1:
            raise EmptyGraph(f"a {rows}x{cols} grid has no cells")
        try:
            cells = bytes(cells)
        except ValueError:  # a cell outside 0-255; 255 fails the 0-9 check below
            cells = b"\xff"
        if cells.translate(None, _CELL_VALUES):
            raise ColorOutOfRange("grid cells hold one color 0-9 each")
        if len(cells) != rows * cols:
            raise InvalidVertex(f"{len(cells)} cells given for a {rows}x{cols} grid")
        return super().__new__(cls, rows, cols, cells)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` checks the board too


def parse_grid_spec(text: str) -> GridSpec:
    """Parse rows of digit characters into a GridSpec.

    The usual file, ASCII rows of one width each ended by "\n" (the last one
    may lack it), is checked and converted in whole-text passes: the
    newlines are read off with one strided slice, and the cells are mapped
    to colors by one `translate` that sends any other byte to 255.  Any
    other text (other line ends, blank lines, a fault) goes to
    `_grid_by_lines`, which accepts the same files and locates the first
    fault.  Either one has proved the board, so it skips `GridSpec`'s check.
    """
    if text.isascii():
        data = text.encode()
        size = len(data)
        width = data.find(b"\n")
        if width < 0:  # one row, no newline
            width = size
        stride = width + 1
        newlines = size // stride  # one per full `stride`-byte line
        if width and size % stride in (0, width) and data[width::stride] == b"\n" * newlines:
            cells = data.replace(b"\n", b"")
            if len(cells) == size - newlines:  # no newline off the stride
                cells = cells.translate(_GRID_VALUES)
                if b"\xff" not in cells:  # every cell 0-9, and rows * width of them
                    return _GridFields.__new__(GridSpec, len(cells) // width, width, cells)
    return _grid_by_lines(text)


def _grid_by_lines(text: str) -> GridSpec:
    """`parse_grid_spec` one line at a time: accepts any line ends and
    trailing blank lines, and reports the first fault with its position."""
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
    return _GridFields.__new__(GridSpec, len(lines), width, b"".join(chunks).translate(_GRID_VALUES))


def grid_graph(spec: GridSpec) -> ColoredGraph:
    """4-neighbor grid graph over the board's cells, row-major vertex ids."""
    rows, cols = spec.rows, spec.cols
    n = rows * cols
    right = ((v, v + 1) for v in range(n - 1) if (v + 1) % cols)
    down = zip(range(n - cols), range(cols, n))
    colors = tuple(spec.cells)
    return _assemble(chain(right, down), colors, max(colors) + 1)  # valid by construction


class _BandZones(Sequence[int]):
    """A grid's cell-to-zone map, read from the run tables that labeling built.

    Consecutive identical rows form a band, and each band's one row is split
    into runs of one color (see `_grid_zones`).  The map keeps, for every
    run, its first column (`begin`) and its zone (`zone_of_run`), and for
    every band its first run and its first row.  Looking up a cell takes two
    binary searches, O(log runs): the band by row, then the run by column.
    No per-cell table is built: `bands` gives one row of zones per band, so
    a band is painted once.  `len` and indexing in [0, n) behave as a
    tuple's, and an index outside it raises IndexError.
    """

    __slots__ = ("_rows", "_cols", "_begin", "_zone_of_run", "_band_runs", "_band_rows")

    def __init__(
        self,
        rows: int,
        cols: int,
        begin: tuple[int, ...],
        zone_of_run: tuple[int, ...],
        band_runs: list[int],
        band_rows: list[int],
    ) -> None:
        self._rows = rows
        self._cols = cols
        self._begin = begin  # each run's first column; a band's runs are in column order
        self._zone_of_run = zone_of_run
        self._band_runs = band_runs  # each band's first run, then the run count
        self._band_rows = band_rows  # each band's first row

    def __len__(self) -> int:
        return self._rows * self._cols

    def __getitem__(self, v: int) -> int:
        if not 0 <= v < self._rows * self._cols:
            raise IndexError("zone map index out of range")
        row, col = divmod(v, self._cols)
        band = bisect_right(self._band_rows, row) - 1
        first, end = self._band_runs[band], self._band_runs[band + 1]
        return self._zone_of_run[bisect_right(self._begin, col, first, end) - 1]

    def _band_row(self, band: int) -> tuple[int, ...]:
        """The zone of each cell in one row of a band."""
        first, end = self._band_runs[band], self._band_runs[band + 1]
        begin = self._begin[first:end]
        widths = map(sub, chain(begin[1:], (self._cols,)), begin)
        return tuple(list(chain.from_iterable(map(repeat, self._zone_of_run[first:end], widths))))

    def bands(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Each band's row of zones, one per cell, and the band's height, top to bottom."""
        heights = map(sub, chain(self._band_rows[1:], (self._rows,)), self._band_rows)
        return zip(map(self._band_row, range(len(self._band_rows))), heights)


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
    The zone map is the run tables themselves (`_BandZones`): a cell's zone
    is found by two binary searches, and no per-cell table is written.
    Cells are touched only by C-level work: comparing each row, in place,
    with its band's first row, and cutting a band's row into runs where the
    row xor itself shifted by one byte (no carries, so each byte is one cell
    xor its left neighbor) is nonzero.  The Python-level work grows with the
    bands and their runs, and each run table is freed at its last use.
    """
    rows, cols, cells = spec.rows, spec.cols, spec.cells
    columns = list(range(1, cols))  # the cuts share these ints rather than make one per run
    begin: list[int] = []  # column of each run's first cell; runs are numbered in cell order
    end: list[int] = []  # column after each run's last cell
    color: list[int] = []
    parent: list[int] = []  # parent[k] <= k, so a root is its tree's least run
    above: list[int] = []  # above[i] and below[i] are runs of different colors that
    below: list[int] = []  # touch across two bands
    band_runs: list[int] = []  # the first run of each band
    band_rows: list[int] = []  # the first row of each band

    r = prev_first = 0  # the band's first row
    while r < rows:
        row = cells[r * cols : (r + 1) * cols]
        band_rows.append(r)
        r += 1
        while cells.startswith(row, r * cols):  # the band's next row, in place; False past the end
            r += 1
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
        color.append(row[0])
        color.extend(compress(tail, changes))
        parent.extend(range(first, last + 1))
        band_runs.append(first)
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
    zone_colors = tuple(list(map(color.__getitem__, roots)))
    # a root's first cell: its band's first row, once per root in the band, plus its column
    firsts = list(map(bisect_left, repeat(roots), band_runs))  # each band's first root, then all
    tops = map(repeat, map(mul, band_rows, repeat(cols)), map(sub, firsts[1:], firsts))
    starts = tuple(list(map(add, chain.from_iterable(tops), map(begin.__getitem__, roots))))
    # zones of runs that touch across bands, then of runs that follow each other in a band; the
    # run tables go here, `above` and `below` as they are read, the pair set inside `_rows`
    across = zip(map(zone_of_run.__getitem__, above), map(zone_of_run.__getitem__, below))
    del end, color, parent, roots, firsts, above, below
    band_slices = map(zone_of_run.__getitem__, map(slice, band_runs, band_runs[1:]))
    zone_pairs = chain(across, chain.from_iterable(zip(zs, zs[1:]) for zs in band_slices))
    adjacency = _rows(len(starts), {(zp, zq) if zp < zq else (zq, zp) for zp, zq in zone_pairs})
    zone_of = _BandZones(rows, cols, begin, zone_of_run, band_runs, band_rows)
    return ReducedGraph(adjacency, zone_colors), ZoneMap(zone_of, starts)


def parse_grid(text: str) -> ColoredGraph:
    """Parse a grid file into its 4-neighbor grid graph."""
    return grid_graph(parse_grid_spec(text))


def emit_grid(spec: GridSpec) -> str:
    """Grid file text for a board: one digit per cell, one line per row."""
    digits = spec.cells.translate(_VALUE_DIGITS)
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
    """Parse an "n m c" header, n color lines, and m edge lines.

    A file of ASCII digits, spaces and "\n" only, with one header line, n
    color lines and m "u v" lines, is checked in whole-text passes
    (`_graph_in_bulk`), after any leading comment lines.  Any other text
    (other comments, blank lines, other line ends, a fault) goes to
    `_graph_by_lines`, which accepts the same files and locates the first
    fault.
    """
    edges, colors, color_count = _graph_in_bulk(text) or _graph_by_lines(text)
    g = _assemble(edges, tuple(colors), color_count)  # every edge and color checked
    _check_connected(g.adjacency)
    return g


def _graph_in_bulk(text: str) -> tuple[Iterable[tuple[int, int]], list[int], int] | None:
    """The checked edges, colors and color count of a plain graph file, or None.

    None means the text is not digits, spaces and "\n" laid out as one
    header line, n color lines and m lines "u v" with one space (the last
    one may lack its "\n"), or breaks a rule of the format.  Leading
    comment lines of printable ASCII, such as the "# seed N" that `gen`
    writes, are skipped.  The edge lines are split into tokens once and
    converted with `map(int, ...)`; their layout is checked on the
    separators left when the digits are deleted.
    """
    if not text.isascii():
        return None
    start = 0
    while text.startswith("#", start):
        end = text.find("\n", start) + 1
        if not end or not text[start : end - 1].isprintable():  # no other line end inside
            return None
        start = end
    data = text[start:].encode()
    if data.translate(None, _GRAPH_BYTES):
        return None
    header, _, body = data.partition(b"\n")
    fields = header.split()
    if len(fields) != 3:
        return None
    n, m, color_count = map(int, fields)
    if not 1 <= n <= len(body) or color_count < 1:  # a color line takes at least one byte
        return None
    lines = body.split(b"\n", n)  # the n color lines, then the edge text
    if len(lines) < n:  # fewer color lines than declared
        return None
    if len(lines) == n:  # no edge text, and no newline after the last color
        lines.append(b"")
    edge_text = lines.pop()
    try:
        colors = list(map(int, lines))
    except ValueError:  # a blank line, or a line of two fields
        return None
    if max(colors) >= color_count:
        return None
    tokens = edge_text.split()
    if len(tokens) != 2 * m:
        return None
    if edge_text and not edge_text.endswith(b"\n"):
        edge_text += b"\n"
    if edge_text.translate(None, _DIGIT_BYTES) != b" \n" * m:  # each line one "u v"
        return None
    us = list(map(int, tokens[0::2]))
    vs = list(map(int, tokens[1::2]))
    del tokens
    if m and max(vs) >= n:  # 0 <= u < v, so v < n is the range check
        return None
    if not all(map(lt, us, vs)):
        return None
    if len(set(map(add, map(mul, us, repeat(n)), vs))) != m:  # u * n + v names the edge
        return None
    return zip(us, vs), colors, color_count


def _graph_by_lines(text: str) -> tuple[dict[tuple[int, int], None], list[int], int]:
    """`parse_graph`'s checks one content line at a time: accepts comments,
    blank lines and any line ends, and reports the first fault with its
    position."""
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
    return seen, colors, color_count


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


def _grid_text(spec: GridSpec) -> Iterator[bytes | memoryview]:
    """emit_graph(grid_graph(spec)) in pieces: the header, the colors, then the edges.

    The edges of vertex v are v v+1 and v v+cols, so writing each cell's right
    edge, then its down edge, in cell order gives the sorted edge list.  The
    edge lines are written in bands of whole rows (`_grid_bands`), each by
    `_grid_edge_band`, and the pieces are produced lazily, so a digest that
    hashes piece by piece holds one band at a time at any board size.
    """
    rows, cols = spec.rows, spec.cols
    n = rows * cols
    color_count = 1 + max(c for c in range(10) if c in spec.cells)
    colors = bytearray(b"\n") * (2 * n)
    colors[0::2] = spec.cells.translate(_VALUE_DIGITS)
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


# one period of decimal place p over consecutive ids, "0" * 10**p + ... + "9" * 10**p, p < 4
_PLACE_PATTERNS = tuple([b"".join([bytes((d,)) * 10**p for d in _DIGIT_BYTES]) for p in range(4)])


def _digit_column(lo: int, count: int, place: int) -> bytearray:
    """Decimal digit `place` of the ids lo, lo+1, ..., lo+count-1, pad for a leading zero."""
    unit = 10**place
    if place >= len(_PLACE_PATTERNS):  # each digit holds for 10**place >= 10 000 ids: few runs
        runs = []
        end = lo + count
        while lo < end:
            q = lo // unit
            nxt = min((q + 1) * unit, end)
            runs.append((_PAD if not q else bytes((48 + q % 10,))) * (nxt - lo))
            lo = nxt
        return bytearray(b"".join(runs))
    pattern = _PLACE_PATTERNS[place]  # sliced from as many periods as the ids span
    period = 10 * unit
    skip = lo % period
    column = bytearray((pattern * ((skip + count) // period + 1))[skip : skip + count])
    if place and lo < unit:
        lead = min(unit - lo, count)
        column[:lead] = _PAD * lead
    return column


def instance_digest(g: Union[ColoredGraph, ReducedGraph, GridSpec]) -> str:
    """Hex digest identifying an instance by its canonical file bytes."""
    import hashlib  # here, not at start-up: it loads OpenSSL, and only digests need it

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
    random, so `extra_edges` is capped at the available cross pairs.  The
    extra edges are drawn as ranks among the cross pairs (u, v), u < v, in
    ascending order with the tree edges left out, and each rank is unranked
    into its pair, so no list of the pairs is built.
    """
    if n < 1:
        raise EmptyGraph("a graph needs at least one vertex")
    rng = random.Random(seed)
    side = [0] * n
    place = [0] * n  # v's index in its side's ascending list
    sides: tuple[list[int], list[int]] = ([0], [])
    children: list[list[int]] = [[] for _ in range(n)]  # each u's tree neighbors above u, ascending
    for v in range(1, n):
        side[v] = 1 - side[rng.randrange(v)] if v > 1 else 1
        opposite = sides[1 - side[v]]
        children[opposite[rng.randrange(len(opposite))]].append(v)
        place[v] = len(sides[side[v]])
        sides[side[v]].append(v)
    edges = [(u, v) for u in range(n) for v in children[u]]
    count = len(sides[0]) * len(sides[1]) - (n - 1)
    ranks = sorted(rng.sample(range(count), min(extra_edges, count)), reverse=True)
    base = 0  # the rank of u's first cross pair
    for u in range(n):
        if not ranks:
            break
        opposite = sides[1 - side[u]]
        first = u - place[u]  # opposite[first:] are the opposite vertices above u
        pairs = len(opposite) - first - len(children[u])
        while ranks and ranks[-1] < base + pairs:
            at = first + ranks.pop() - base
            for w in children[u]:
                if place[w] <= at:
                    at += 1
            edges.append((u, opposite[at]))
        base += pairs
    return _assemble(edges, tuple(side), 2)  # valid by construction


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
            # ranks among the non-tree pairs (u, v), u < v, in ascending order:
            # the indices a sample of that list would draw, unranked into pairs
            above: list[list[int]] = [[] for _ in range(n)]  # u's tree neighbors above u
            for u, v in sorted(edges):
                above[u].append(v)
            ranks = sorted(rng.sample(range(slots), extra_edges), reverse=True)
            base = 0  # the rank of u's first non-tree pair
            for u in range(n):
                if not ranks:
                    break
                pairs = n - 1 - u - len(above[u])
                while ranks and ranks[-1] < base + pairs:
                    at = u + 1 + ranks.pop() - base
                    for w in above[u]:
                        if w <= at:
                            at += 1
                    edges.add((u, at))
                base += pairs
        else:
            want = n - 1 + extra_edges
            while len(edges) < want:
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.add((u, v) if u < v else (v, u))
    colors = [rng.randrange(color_count) for _ in range(n)]
    return _assemble(sorted(edges), tuple(colors), color_count)  # valid by construction


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

"""File formats, round trips, and the seeded generators."""

import hashlib
import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeflood import (
    ColorOutOfRange,
    DuplicateEdge,
    EdgeCountMismatch,
    Empty,
    FloodMove,
    InvalidCharacter,
    InvalidVertex,
    ParseError,
    RaggedRows,
    SelfLoop,
    emit_graph,
    emit_grid,
    emit_moves,
    gen_random,
    gen_random_bipartite,
    grid_graph,
    instance_digest,
    parse_graph,
    parse_grid,
    parse_grid_spec,
    parse_moves,
    reduce,
)
from freeflood import instances
from freeflood.instances import GridSpec, _grid_zones


class TestGrid:
    def test_checkerboard(self):
        g = parse_grid("01\n10")
        assert g.vertex_count == 4
        assert g.colors == (0, 1, 1, 0)
        assert g.adjacency == ((1, 2), (0, 3), (0, 3), (1, 2))

    def test_monochromatic_single_zone(self):
        g = parse_grid("000\n000\n")
        rg, _ = reduce(g)
        assert rg.zone_count == 1

    def test_ragged(self):
        with pytest.raises(RaggedRows) as err:
            parse_grid("01\n1")
        assert err.value.line == 2

    def test_bad_character(self):
        with pytest.raises(InvalidCharacter) as err:
            parse_grid("01\n1x")
        assert (err.value.line, err.value.column) == (2, 2)

    def test_empty(self):
        with pytest.raises(Empty):
            parse_grid("")
        with pytest.raises(Empty):
            parse_grid("\n\n")

    def test_single_cell(self):
        g = parse_grid("7")
        assert g.vertex_count == 1
        assert g.colors == (7,)

    def test_trailing_newline_optional(self):
        assert parse_grid("01\n10") == parse_grid("01\n10\n")

    def test_emit_round_trip(self):
        spec = GridSpec(2, 3, (0, 1, 2, 2, 1, 0))
        assert parse_grid_spec(emit_grid(spec)) == spec

    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_random_grid_round_trip(self, rows, cols, data):
        cells = tuple(
            data.draw(st.integers(0, 9)) for _ in range(rows * cols)
        )
        spec = GridSpec(rows, cols, cells)
        assert parse_grid_spec(emit_grid(spec)) == spec
        assert parse_grid(emit_grid(spec)).colors == cells

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\uff10"])
    def test_non_ascii_digits_rejected(self, digit):
        # str.isdigit accepts these; a grid cell is one of 0-9 only
        assert digit.isdigit()
        with pytest.raises(InvalidCharacter) as err:
            parse_grid_spec(f"010\n1{digit}1\n")
        assert (err.value.line, err.value.column) == (2, 2)
        assert repr(digit) in str(err.value)

    def test_non_ascii_ragged_row_reports_width(self):
        with pytest.raises(RaggedRows) as err:
            parse_grid_spec("01\n1\u00b20\n")
        assert err.value.line == 2
        assert "width 3" in str(err.value)

    def test_emit_rejects_wide_colors(self):
        with pytest.raises(ColorOutOfRange):
            emit_grid(GridSpec(1, 1, (11,)))

    @pytest.mark.parametrize("cell", [-1, -10, 10, 300])
    def test_emit_rejects_cells_outside_0_to_9(self, cell):
        # a negative cell once wrote "-1", which no grid parser reads back
        with pytest.raises(ColorOutOfRange):
            emit_grid(GridSpec(2, 2, (0, 1, cell, 0)))

    def test_emit_exact_text(self):
        assert emit_grid(GridSpec(2, 3, (0, 1, 9, 5, 0, 3))) == "019\n503\n"

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 17), (17, 1), (7, 9), (64, 64)])
    @pytest.mark.parametrize("colors", [1, 2, 10])
    def test_emit_seeded_boards_row_by_row(self, rows, cols, colors):
        rng = random.Random(rows * 1000 + cols * 10 + colors)
        cells = tuple(rng.randrange(colors) for _ in range(rows * cols))
        expected = "".join(
            "".join(str(c) for c in cells[r * cols : (r + 1) * cols]) + "\n" for r in range(rows)
        )
        assert emit_grid(GridSpec(rows, cols, cells)) == expected


class TestGraphFormat:
    def test_edge_graph(self):
        g = parse_graph("2 1 2\n0\n1\n0 1\n")
        assert g.vertex_count == 2
        assert g.colors == (0, 1)
        assert g.color_count == 2

    def test_comments_and_blanks(self):
        text = "# instance\n2 1 2\n\n0  # first\n1\n0 1\n"
        g = parse_graph(text)
        assert g.colors == (0, 1)

    def test_round_trip_bytes(self):
        g = gen_random(9, 3, 2, seed=5)
        text = emit_graph(g)
        assert parse_graph(text) == g
        assert emit_graph(parse_graph(text)) == text

    def test_edge_count_mismatch(self):
        with pytest.raises(EdgeCountMismatch):
            parse_graph("3 3 2\n0\n1\n0\n0 1\n1 2\n")
        with pytest.raises(EdgeCountMismatch):
            parse_graph("2 0 2\n0\n1\n0 1\n")

    def test_header_errors(self):
        with pytest.raises(Empty):
            parse_graph("# nothing\n")
        with pytest.raises(ParseError):
            parse_graph("2 1\n0\n1\n0 1\n")
        with pytest.raises(ParseError):
            parse_graph("a b c\n")

    def test_positioned_color_error(self):
        with pytest.raises(ColorOutOfRange) as err:
            parse_graph("2 1 2\n0\n5\n0 1\n")
        assert "line 3" in str(err.value)

    def test_edge_line_errors(self):
        with pytest.raises(ParseError):
            parse_graph("2 1 2\n0\n1\n1 0\n")  # order violated
        with pytest.raises(SelfLoop):
            parse_graph("2 1 2\n0\n1\n1 1\n")
        with pytest.raises(InvalidVertex):
            parse_graph("2 1 2\n0\n1\n0 9\n")
        with pytest.raises(DuplicateEdge):
            parse_graph("2 2 2\n0\n1\n0 1\n0 1\n")

    @given(st.integers(1, 25), st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_generated_instances_round_trip(self, n, extra, seed):
        slots = n * (n - 1) // 2 - (n - 1)
        g = gen_random(n, min(extra, slots), 3, seed)
        assert parse_graph(emit_graph(g)) == g


class TestMoves:
    def test_round_trip(self):
        moves = [FloodMove(0, 1), FloodMove(0, 0)]
        assert parse_moves(emit_moves(moves)) == moves

    def test_comments_allowed(self):
        assert parse_moves("# plan\n3 1\n") == [FloodMove(3, 1)]

    def test_empty_file_is_no_moves(self):
        assert parse_moves("") == []

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_moves("3\n")
        with pytest.raises(ParseError):
            parse_moves("a b\n")


class TestGenerators:
    def test_deterministic(self):
        assert gen_random(12, 4, 2, seed=7) == gen_random(12, 4, 2, seed=7)
        assert gen_random_bipartite(12, 4, seed=7) == gen_random_bipartite(12, 4, seed=7)

    def test_tree_edge_count(self):
        g = gen_random(5, 0, 2, seed=3)
        assert g.edge_count == 4

    def test_singleton(self):
        g = gen_random(1, 0, 2, seed=0)
        assert g.vertex_count == 1

    def test_too_many_edges(self):
        from freeflood import TooManyEdges

        with pytest.raises(TooManyEdges):
            gen_random(4, 4, 2, seed=0)

    def test_bipartite_is_already_reduced(self):
        g = gen_random_bipartite(17, 5, seed=11)
        rg, zm = reduce(g)
        assert rg.zone_count == g.vertex_count
        assert zm.zone_of == tuple(range(g.vertex_count))

    def test_digest_tracks_content(self):
        a = gen_random(8, 2, 2, seed=1)
        b = gen_random(8, 2, 2, seed=2)
        assert instance_digest(a) != instance_digest(b)
        assert instance_digest(a) == instance_digest(parse_graph(emit_graph(a)))

    @given(st.integers(1, 20), st.integers(0, 4), st.integers(0, 2**32 - 1))
    def test_every_generated_instance_solves_optimally(self, n, extra, seed):
        from freeflood import Verdict, solve, verify_solution

        slots = n * (n - 1) // 2 - (n - 1)
        g = gen_random(n, min(extra, slots), 2, seed)
        assert verify_solution(g, solve(g)) is Verdict.OPTIMAL


def _assert_grid_paths_agree(spec):
    g = grid_graph(spec)
    assert _grid_zones(spec) == reduce(g)
    assert emit_graph(spec) == emit_graph(g)
    assert instance_digest(spec) == instance_digest(g)


# shapes where v, v+1 or v+cols cross a power of ten, up to 100 000
BOUNDARY_SHAPES = [(1, 1), (1, 10), (10, 1), (1, 11), (3, 4), (9, 12), (10, 10), (33, 31),
                   (100, 100), (99, 101), (316, 317), (3, 40), (40, 1)]


def _assert_grid_text_matches_reference(spec):
    # the band writer against the graph-file writer run on the vertex graph
    text = emit_graph(grid_graph(spec))
    assert emit_graph(spec) == text
    assert instance_digest(spec) == hashlib.sha256(text.encode()).hexdigest()


class TestGridText:
    """A board's canonical text, written in bands, against emit_graph(grid_graph(spec))."""

    @pytest.mark.parametrize("rows, cols", BOUNDARY_SHAPES)
    def test_boundary_shapes(self, rows, cols):
        rng = random.Random(rows * 1000 + cols)
        _assert_grid_text_matches_reference(
            GridSpec(rows, cols, tuple(rng.randrange(3) for _ in range(rows * cols)))
        )

    @pytest.mark.parametrize("cell", [10, 12, 300])
    def test_color_above_9(self, cell):
        rng = random.Random(cell)
        cells = [rng.randrange(2) for _ in range(9 * 12)]
        cells[50] = cell
        _assert_grid_text_matches_reference(GridSpec(9, 12, tuple(cells)))

    @pytest.mark.parametrize("band_cells", [1, 1 << 30])
    @pytest.mark.parametrize("rows, cols", [(1, 11), (10, 1), (9, 12), (33, 31), (99, 101)])
    def test_bands_of_one_row_and_of_the_whole_board(self, band_cells, rows, cols, monkeypatch):
        monkeypatch.setattr(instances, "_BAND_CELLS", band_cells)
        rng = random.Random(rows + cols)
        _assert_grid_text_matches_reference(
            GridSpec(rows, cols, tuple(rng.randrange(2) for _ in range(rows * cols)))
        )

    @settings(max_examples=25)
    @given(
        st.sampled_from([1, 2, 3, 9, 10, 11, 99, 100, 101, 333, 999, 1000, 1001]).flatmap(
            lambda cols: st.tuples(st.just(cols), st.integers(1, max(2, 12_000 // cols)))
        ),
        st.integers(0, 2**32 - 1),
    )
    @pytest.mark.parametrize("band_cells", [1, 7, instances._BAND_CELLS])
    def test_ids_across_powers_of_ten(self, band_cells, shape, seed):
        # up to 12 000 cells, so v, v+1 and v+cols cross 10, 100, 1000 and often 10 000
        rows, cols = shape
        rng = random.Random(seed)
        spec = GridSpec(rows, cols, tuple(rng.randrange(3) for _ in range(rows * cols)))
        with patch.object(instances, "_BAND_CELLS", band_cells):
            _assert_grid_text_matches_reference(spec)

    @pytest.mark.parametrize(
        "rows, cols, seed, block, digest",
        [
            (256, 256, 1, 32, "62ecc87a33b66134b7dfe979cd7446337dffa6a6a2de06b603cd74dad59113f0"),
            (64, 64, 2, 1, "48fc479edf6903a8d8b6550705deaeb8a1f74d6fd419f5374302ed2326fdca85"),
            (317, 316, 3, 1, "f2c6a3e39b9f74e4eb6bb3a2229895049ab638156e0a977264efc67f54c7720a"),
            (1, 20_001, 4, 1, "4ee7bb42fb0dea49df511855dd943fbf34a9f80ad2ad13e30bc7577c3bee8913"),
            (20_001, 1, 5, 1, "8370a002c735551810ccacde0fd0b6b29e45d649ed633ef35384696e1bab6ee2"),
        ],
    )
    def test_golden_digests(self, rows, cols, seed, block, digest):
        # pinned values, so the band writer and the graph-file writer cannot drift together
        spec = _painted(rows, cols, seed, block)
        assert instance_digest(spec) == digest
        assert hashlib.sha256(emit_graph(spec).encode()).hexdigest() == digest

    @pytest.mark.parametrize("band_cells", [7, instances._BAND_CELLS])
    @pytest.mark.parametrize("rows, cols", [(20_001, 1), (1, 20_001), (4, 20_001)])
    def test_strips_write_whole_bands(self, band_cells, rows, cols, monkeypatch):
        # rows that are not tiled are merged into bands, never written one writer call per row
        calls = []
        writer = instances._grid_edge_band

        def recording(lo, k, cols, last, tiled):
            pieces = list(writer(lo, k, cols, last, tiled))
            calls.append((k // cols, tiled, len(pieces)))
            return pieces

        monkeypatch.setattr(instances, "_BAND_CELLS", band_cells)
        monkeypatch.setattr(instances, "_grid_edge_band", recording)
        _assert_grid_text_matches_reference(_painted(rows, cols, rows + cols, 1))
        calls = calls[: len(calls) // 2]  # emit_graph and instance_digest each write every band
        step = max(1, band_cells // cols)
        assert sum(height for height, _, _ in calls) == rows
        if cols == 1:
            assert len(calls) == -(-rows // step)
        for height, tiled, pieces in calls:
            # a tiled band is one piece per row and one for its last down edge
            assert pieces == (height + 1 if tiled else 1)
        if rows == 4:  # row 0 crosses 10 000, row 3 crosses 100 000, so 1-2 are one tiled run
            assert [tiled for _, tiled, _ in calls].count(True) == -(-2 // step)


def _painted(rows, cols, seed, block):
    """A seeded two-color board painted in block x block squares."""
    rng = random.Random(seed)
    paint = [[rng.randrange(2) for _ in range(-(-cols // block))] for _ in range(-(-rows // block))]
    return GridSpec(
        rows, cols, tuple(paint[r // block][c // block] for r in range(rows) for c in range(cols))
    )


class TestGridZones:
    """Zones labeled from row runs against `reduce` of the vertex graph."""

    @given(
        st.sampled_from([1, 2, 3, 10]).flatmap(
            lambda colors: st.one_of(
                st.tuples(st.just(1), st.integers(1, 40)),
                st.tuples(st.integers(1, 40), st.just(1)),
                st.tuples(st.integers(1, 12), st.integers(1, 12)),
            ).flatmap(
                lambda shape: st.lists(
                    st.integers(0, colors - 1),
                    min_size=shape[0] * shape[1],
                    max_size=shape[0] * shape[1],
                ).map(lambda cells: GridSpec(shape[0], shape[1], tuple(cells)))
            )
        )
    )
    def test_agrees_with_reduce(self, spec):
        _assert_grid_paths_agree(spec)

    @pytest.mark.parametrize("side", [64, 256])
    @pytest.mark.parametrize("colors", [2, 3])
    def test_seeded_boards(self, side, colors):
        rng = random.Random(side * 10 + colors)
        spec = GridSpec(side, side, tuple(rng.randrange(colors) for _ in range(side * side)))
        _assert_grid_paths_agree(spec)

    def test_blocks_and_stripes(self):
        # long runs that meet across rows in staggered ways
        blocks = tuple((r // 5 + c // 7) % 2 for r in range(40) for c in range(30))
        stripes = tuple((r + c) // 3 % 3 for r in range(30) for c in range(40))
        _assert_grid_paths_agree(GridSpec(40, 30, blocks))
        _assert_grid_paths_agree(GridSpec(30, 40, stripes))

    def test_comb_teeth_join_at_the_bottom(self):
        # the teeth start as separate runs and become one zone only in the last row
        rows, cols = 6, 9
        cells = tuple(
            0 if c % 2 == 0 or r == rows - 1 else 1 for r in range(rows) for c in range(cols)
        )
        spec = GridSpec(rows, cols, cells)
        _assert_grid_paths_agree(spec)
        rg, zm = _grid_zones(spec)
        assert rg.colors == (0, 1, 1, 1, 1)
        assert zm.representative_of == (0, 1, 3, 5, 7)

    @given(
        st.sampled_from([1, 2, 3, 10]).flatmap(
            lambda colors: st.integers(1, 12).flatmap(
                lambda cols: st.lists(
                    st.lists(st.integers(0, colors - 1), min_size=cols, max_size=cols),
                    min_size=1,
                    max_size=4,
                )
            )
        ).flatmap(
            lambda distinct: st.lists(
                st.tuples(st.sampled_from(distinct), st.integers(1, 5)), min_size=1, max_size=6
            )
        )
    )
    def test_banded_boards_agree_with_reduce(self, bands):
        # 1-4 distinct rows, each band of them 1-5 rows tall; equal neighbors make one band
        _assert_grid_paths_agree(_banded(bands))

    @pytest.mark.parametrize("colors", [2, 3])
    def test_blocks_of_32_cells(self, colors):
        rng = random.Random(colors)
        block = [[rng.randrange(colors) for _ in range(8)] for _ in range(8)]
        cells = tuple(block[r // 32][c // 32] for r in range(256) for c in range(256))
        _assert_grid_paths_agree(GridSpec(256, 256, cells))

    @pytest.mark.parametrize(
        "bands",
        [
            [([0, 1, 1, 0, 2], 7)],  # every row the same
            [([0], 3), ([1], 1), ([0], 2), ([0], 1), ([1], 4)],  # one column
            [([0, 1, 0, 1], 5), ([1, 1, 0, 0], 1), ([0, 1, 0, 1], 6)],  # one row between tall ones
            [([1, 0, 0, 1], 2), ([0, 0, 1, 1], 1), ([1, 1, 1, 0], 4)],  # ends in a tall band
        ],
    )
    def test_seeded_bands(self, bands):
        _assert_grid_paths_agree(_banded(bands))


def _banded(bands):
    """A board of rows given as (row, height) bands, top to bottom."""
    cells = tuple(c for row, height in bands for _ in range(height) for c in row)
    cols = len(bands[0][0])
    return GridSpec(len(cells) // cols, cols, cells)

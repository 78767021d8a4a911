"""File formats, round trips, and the seeded generators."""

import gc
import hashlib
import inspect
import random
import tracemalloc
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeflood import (
    ColoredGraph,
    ColorOutOfRange,
    DisconnectedGraph,
    DuplicateEdge,
    EdgeCountMismatch,
    Empty,
    EmptyGraph,
    FloodMove,
    InvalidCharacter,
    InvalidVertex,
    ParseError,
    RaggedRows,
    SelfLoop,
    build,
    emit_graph,
    emit_grid,
    emit_moves,
    gen_random,
    gen_random_bipartite,
    gen_reduced_corpus,
    grid_graph,
    instance_digest,
    parse_graph,
    parse_grid,
    parse_grid_spec,
    parse_moves,
    reduce,
)
from freeflood import cli, instances
from freeflood.graphs import _assemble
from freeflood.instances import GridSpec, _BandZones, _grid_zones

from conftest import (
    outcome,
    reference_gen_random,
    reference_grid_zones,
    reference_parse_graph,
    reference_parse_grid_spec,
    reference_parse_instance,
)


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

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_grid_graph_equals_build_on_its_edges(self, rows, cols, colors, seed):
        # grid_graph skips build's checks; its graph must be the one build assembles
        rng = random.Random(seed)
        spec = GridSpec(rows, cols, tuple(rng.randrange(colors) for _ in range(rows * cols)))
        edges = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    edges.append((v, v + 1))
                if r + 1 < rows:
                    edges.append((v, v + cols))
        with patch.object(instances, "build", side_effect=AssertionError("build called")):
            g = grid_graph(spec)
        assert g == build(edges, spec.cells)

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

    def test_cells_are_bytes(self):
        parsed = parse_grid_spec("019\n503\n")
        built = GridSpec(2, 3, (0, 1, 9, 5, 0, 3))
        assert type(parsed.cells) is bytes and type(built.cells) is bytes
        assert parsed == built == GridSpec(2, 3, bytearray((0, 1, 9, 5, 0, 3)))
        assert parsed.cells == bytes((0, 1, 9, 5, 0, 3))

    @pytest.mark.parametrize("rows, cols, cells", [(0, 0, ()), (0, 2, ()), (2, 0, ()), (-1, -1, (0,))])
    def test_spec_rejects_a_side_below_1(self, rows, cols, cells):
        with pytest.raises(EmptyGraph):
            GridSpec(rows, cols, cells)

    @pytest.mark.parametrize("rows, cols, count", [(2, 2, 3), (2, 2, 5), (1, 3, 0), (3, 1, 6)])
    def test_spec_rejects_a_cell_count_other_than_rows_times_cols(self, rows, cols, count):
        with pytest.raises(InvalidVertex):
            GridSpec(rows, cols, (0,) * count)

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

    def test_disconnected_file_rejected(self):
        # parse_graph assembles without build, so it checks connectivity itself
        with pytest.raises(DisconnectedGraph, match="only 2 of 3 vertices reachable"):
            parse_graph("3 1 2\n0\n1\n0\n0 1\n")
        with pytest.raises(DisconnectedGraph, match="only 2 of 4 vertices reachable"):
            parse_graph("4 2 2\n0\n1\n0\n1\n0 1\n2 3\n")

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

    @pytest.mark.parametrize("seed", range(6))
    def test_parse_checks_once_and_equals_build(self, seed, monkeypatch):
        rng = random.Random(seed)
        if seed % 2:
            g = grid_graph(GridSpec(7, 9, tuple(rng.randrange(3) for _ in range(63))))
        else:
            g = gen_random(rng.randint(20, 60), rng.randint(0, 40), 3, seed)
        text = emit_graph(g)
        edges = [(u, w) for u, row in enumerate(g.adjacency) for w in row if u < w]
        rng.shuffle(edges)
        expected = build([(w, u) for u, w in edges], g.colors, g.color_count)
        # the file is checked as it is parsed, so parsing never builds
        monkeypatch.setattr(instances, "build", None)
        assert parse_graph(text) == g == expected

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

    def test_generators_skip_build_and_equal_it(self, monkeypatch):
        # the generators' edges are valid by construction, so they skip build's
        # checks; each graph must be the one build assembles from the same draws
        real, drawn = instances._assemble, []

        def assemble(edges, colors, color_count):
            edges = list(edges)
            g = real(edges, colors, color_count)
            drawn.append((edges, colors, color_count, g))
            return g

        monkeypatch.setattr(instances, "_assemble", assemble)
        monkeypatch.setattr(instances, "build", None)
        for offset, (min_zones, max_zones) in enumerate(((2, 50), (2, 30), (3, 20))):
            assert len(list(gen_reduced_corpus(40, offset, min_zones, max_zones))) == 40
        for n, extra, color_count in ((1, 0, 1), (30, 5, 4), (30, 200, 3), (12, 55, 10)):
            gen_random(n, extra, color_count, seed=n + extra)
        assert len(drawn) > 120
        for edges, colors, color_count, g in drawn:
            assert type(g) is ColoredGraph
            assert g == build(edges, colors, color_count)

    def test_pool_draw_equals_the_pair_list_draw(self):
        # past slots // 3 extra edges the draw is of ranks, unranked into
        # pairs; it must give the graph that sampling the pair list gave
        for n in range(1, 61):
            slots = n * (n - 1) // 2 - (n - 1)
            for seed in range(12):
                rng = random.Random(n * 100 + seed)
                for extra in {0, slots // 3, slots // 3 + 1, slots, slots + 1, rng.randint(0, slots)}:
                    args = n, extra, 1 + seed % 3, seed
                    assert outcome(gen_random, *args) == outcome(reference_gen_random, *args)

    def test_bipartite_equals_the_cross_pair_list_draw(self):
        # the reference lists every cross pair, Theta(n^2), and samples from
        # the list; the generator samples ranks and unranks them, with the
        # same draws from the same random state
        def listing_every_cross_pair(n, extra_edges, seed):
            rng = random.Random(seed)
            side = [0] * n
            edges = set()
            for v in range(1, n):
                side[v] = 1 - side[rng.randrange(v)] if v > 1 else 1
                opposite = [u for u in range(v) if side[u] != side[v]]
                edges.add((opposite[rng.randrange(len(opposite))], v))
            cross = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if side[u] != side[v] and (u, v) not in edges
            ]
            edges.update(rng.sample(cross, min(extra_edges, len(cross))))
            return build(sorted(edges), side, 2), len(cross)

        saturated = 0
        for n in (1, 2, 3, 4, 7, 12, 25, 60):
            for extra in sorted({0, 1, 2, n // 3, n, 4 * n, n * n}):
                for seed in range(8):
                    want, cross = listing_every_cross_pair(n, extra, seed)
                    assert gen_random_bipartite(n, extra, seed) == want, (n, extra, seed)
                    saturated += extra >= cross
        assert saturated > 50

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
    zones = _grid_zones(spec)
    ref_rg, ref = reduce(g)
    assert zones[0] == ref_rg
    _assert_labeling_equals_the_reference(spec, zones)
    # the run-backed zone map against reduce's tuple, read every way a caller reads it
    zm, n = zones[1], g.vertex_count
    assert zm.representative_of == ref.representative_of
    assert len(zm.zone_of) == len(ref.zone_of) == n
    assert [zm.zone_of[v] for v in range(n)] == list(ref.zone_of)
    for v in (n, -n - 1):
        with pytest.raises(IndexError):
            zm.zone_of[v]
    assert emit_graph(spec) == emit_graph(g)
    assert instance_digest(spec) == instance_digest(g)


def _assert_labeling_equals_the_reference(spec, zones):
    # the zone graph, the representatives and every run table of the zone
    # map, types included, exactly as `reference_grid_zones` builds them
    (rg, zm), (ref_rg, ref_zm) = zones, reference_grid_zones(spec)
    assert rg == ref_rg
    assert type(rg.adjacency) is type(rg.colors) is tuple
    assert zm.representative_of == ref_zm.representative_of
    assert type(zm.representative_of) is tuple
    for name in _BandZones.__slots__:  # a tuple never equals a list, so the types match too
        assert getattr(zm.zone_of, name) == getattr(ref_zm.zone_of, name), name


# shapes where v, v+1 or v+cols cross a power of ten, up to 100 000; on the
# last two a band of one row spans a whole period of place 4, 100 000 ids
BOUNDARY_SHAPES = [(1, 1), (1, 10), (10, 1), (1, 11), (3, 4), (9, 12), (10, 10), (33, 31),
                   (100, 100), (99, 101), (316, 317), (3, 40), (40, 1), (1, 60_000), (2, 70_000)]


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
        with pytest.raises(ColorOutOfRange):  # a grid file holds one digit per cell
            GridSpec(9, 12, tuple(cells))

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

    @pytest.mark.parametrize(
        "rows, cols", [(1, 1), (1, 2), (1, 257), (1, 4096), (2, 1), (300, 1), (4096, 1)]
    )
    @pytest.mark.parametrize("colors", [2, 3])
    def test_one_row_and_one_column(self, rows, cols, colors):
        rng = random.Random(rows * 7919 + cols * 31 + colors)
        _assert_grid_paths_agree(_seeded_board(rows, cols, rng.randrange(2**32), colors))
        # long runs: one band on a row, one band per run of equal cells on a column
        runs = [c for c in range(rows * cols // 40 + 1) for _ in range(40)][: rows * cols]
        _assert_grid_paths_agree(GridSpec(rows, cols, bytes(c % colors for c in runs)))

    def test_zone_map_is_lookup_only(self):
        # callers take `len`, `[v]` for v in [0, n) and `bands()`; nothing
        # else is defined, and an index outside [0, n) is refused, -1 too
        zm = _grid_zones(_seeded_board(5, 7, 5, colors=2))[1]
        with pytest.raises(IndexError):
            zm.zone_of[-1]
        methods = {name for name, attr in vars(_BandZones).items() if inspect.isfunction(attr)}
        assert methods == {"__init__", "__len__", "__getitem__", "_band_row", "bands"}

    def test_peak_memory_under_three_quarters_of_the_reference(self):
        # the run tables are freed at their last use and the zone-pair set
        # inside `_rows`; the reference held all of them until it returned
        spec = _seeded_board(512, 512, 512, colors=2)

        def peak(label):
            gc.collect()
            tracemalloc.start()
            try:
                zones = label(spec)
                return tracemalloc.get_traced_memory()[1], zones
            finally:
                tracemalloc.stop()

        (ours, zones), (theirs, ref) = peak(_grid_zones), peak(reference_grid_zones)
        assert zones[0] == ref[0]
        assert ours <= 0.75 * theirs, (ours, theirs)


def _banded(bands):
    """A board of rows given as (row, height) bands, top to bottom."""
    cells = tuple(c for row, height in bands for _ in range(height) for c in row)
    cols = len(bands[0][0])
    return GridSpec(len(cells) // cols, cols, cells)


# Every str.splitlines line end; bytes.splitlines and str.split disagree with
# it on several, so a text that holds one must leave the whole-text passes.
LINE_ENDS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]
# what else a hand-made file may hold: blanks, a comment, signs and
# underscores int() accepts, a letter and a non-ASCII digit
OTHER_CHARS = [" ", "  ", "\t", "#", "+", "-", "_", "x", "\u0663"]
ALPHABET = [*"0123456789", *LINE_ENDS, *OTHER_CHARS]


@st.composite
def _mutated(draw, base):
    """`base` with up to three edits: a character put in, one taken out, a
    "\\n" swapped for another line end, the last line end dropped, or blank
    and whitespace lines added at the end."""
    text = base
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["insert", "delete", "line end", "drop end", "trailer"]))
        at = draw(st.integers(0, len(text)))
        if kind == "insert":
            text = text[:at] + draw(st.sampled_from(ALPHABET)) + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1 :]
        elif kind == "line end":
            at = text.find("\n", at)
            if at >= 0:
                text = text[:at] + draw(st.sampled_from(LINE_ENDS)) + text[at + 1 :]
        elif kind == "drop end":
            text = text.rstrip("\n")
        else:
            text += "".join(draw(st.lists(st.sampled_from(["\n", " \n", "\t\n", "\r\n", "\f"]))))
    return text


@st.composite
def _grid_like_texts(draw):
    """Grid files as other tools write them: a board of 1-8 rows and columns
    (one-row and one-column boards often), lines ended by "\n", "\r\n" or
    "\r", the last end kept or dropped, blank and whitespace lines after it,
    and up to two faults: a newline off the stride, a blank line between
    rows, a non-digit in place of a cell, or a cell dropped."""
    rows = draw(st.one_of(st.just(1), st.integers(1, 8)))
    cols = draw(st.one_of(st.just(1), st.integers(1, 8)))
    digits = st.text(st.sampled_from("0123456789"), min_size=cols, max_size=cols)
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = end.join(draw(st.lists(digits, min_size=rows, max_size=rows)))
    text += draw(st.sampled_from(["", end]))
    text += "".join(draw(st.lists(st.sampled_from(["\n", "\r\n", " \n", "\t\n"]), max_size=3)))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        fault = draw(st.sampled_from(["newline", "blank line", "non-digit", "drop"]))
        if fault == "newline":
            text = text[:at] + "\n" + text[at:]
        elif fault == "blank line":
            at = text.find(end, at)
            if at >= 0:
                text = text[:at] + end + text[at:]
        elif fault == "non-digit":
            other = draw(st.sampled_from(["x", " ", "\t", "#", "+", "\0", "\u0663", "\xe9"]))
            text = text[:at] + other + text[at + 1 :]
        else:
            text = text[:at] + text[at + 1 :]
    return text


_FREE_TEXTS = st.lists(st.sampled_from(ALPHABET), max_size=40).map("".join)
_GRID_TEXTS = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1)).map(
    lambda shape: emit_grid(_seeded_board(*shape))
)
_GRAPH_TEXTS = st.tuples(st.integers(1, 14), st.integers(0, 6), st.integers(0, 2**32 - 1)).map(
    lambda drawn: emit_graph(_seeded_graph(*drawn))
)

# graph-file shaped texts of digits, spaces and "\n" only, the texts the
# whole-text pass reads itself: a header, then lines of 0-5 pieces
_PLAIN_LINES = st.lists(st.sampled_from(["0", "1", "2", "10", " "]), max_size=5).map("".join)
_PLAIN_TEXTS = st.tuples(
    st.integers(0, 5), st.integers(0, 4), st.integers(0, 3), st.lists(_PLAIN_LINES, max_size=8)
).flatmap(
    lambda d: st.sampled_from(["", "\n"]).map(
        lambda end: "\n".join([f"{d[0]} {d[1]} {d[2]}", *d[3]]) + end
    )
)

# leading comment lines, as `gen` writes its "# seed N", before texts of the
# graph format; a comment may hold any line end, which makes it two lines
_COMMENT_LINES = st.lists(st.sampled_from(ALPHABET), max_size=6).map(lambda cs: "#" + "".join(cs) + "\n")
_COMMENTED_TEXTS = st.tuples(
    st.lists(_COMMENT_LINES, max_size=3),
    st.one_of(_PLAIN_TEXTS, _GRAPH_TEXTS, _GRAPH_TEXTS.flatmap(_mutated)),
).map(lambda parts: "".join(parts[0]) + parts[1])


def _seeded_board(rows, cols, seed, colors=3):
    rng = random.Random(seed)
    return GridSpec(rows, cols, bytes([rng.randrange(colors) for _ in range(rows * cols)]))


def _seeded_graph(n, extra, seed, colors=3):
    slots = n * (n - 1) // 2 - (n - 1)
    return gen_random(n, min(extra, slots), colors, seed)


def _cli_source(path):
    """`cli._parse_instance(path)`, a graph file's record labeled as the CLI
    labels it, which checks connectivity on the zones, and then assembled
    with no check of its own, to compare with the reference parse."""
    source = cli._parse_instance(path)
    if isinstance(source, GridSpec):
        return source
    cli._zones(source)
    (us, ws), colors, color_count = source
    return _assemble(zip(us, ws), colors, color_count)


def _assert_parsers_agree(text):
    """Both parsers and the CLI's format sniff give what the line-by-line
    references give: the same object, or the same error, line and column."""
    assert outcome(parse_grid_spec, text) == outcome(reference_parse_grid_spec, text)
    assert outcome(parse_graph, text) == outcome(reference_parse_graph, text)
    with patch.object(cli, "_read_text", lambda path: text):
        assert outcome(_cli_source, "-") == outcome(reference_parse_instance, text)


class TestWholeTextParse:
    """The whole-text passes against the line-by-line readers they stand in front of."""

    @given(
        st.one_of(
            _FREE_TEXTS,
            _PLAIN_TEXTS,
            _GRID_TEXTS.flatmap(_mutated),
            _GRAPH_TEXTS.flatmap(_mutated),
            _COMMENTED_TEXTS,
        )
    )
    @settings(max_examples=600)
    def test_agrees_with_the_line_readers(self, text):
        _assert_parsers_agree(text)

    @given(_grid_like_texts())
    @settings(max_examples=400)
    def test_parsed_boards_pass_the_check_they_skip(self, text):
        # both readers build the spec without GridSpec's check, so whatever
        # they return must pass it unchanged, and equal the reference parse
        got = outcome(parse_grid_spec, text)
        assert got == outcome(reference_parse_grid_spec, text)
        if got[0] == "ok":
            spec = got[1]
            assert type(spec) is GridSpec and type(spec.cells) is bytes
            assert GridSpec(spec.rows, spec.cols, spec.cells) == spec

    @pytest.mark.parametrize(
        "text",
        [
            "", "\n", " \n", "0", "0\n", "01\n10", "01\n10\n\n", "01\r\n10\r\n", "01\n\n10\n",
            "01\f10\v", "01\x1c10", "01\x8510", "01\u202810", "01\n10\x85", "\n01\n10\n",
            "01\n1\n", "01\n100\n", "0 1\n10\n", "01\n1x\n", "01\n1\u0663\n", "\u06630\n",
            "1 0 1\n0", "1 0 1\n0\n", "1 0 1\n0\n\n", "2 1 2\n0\n1\n0 1", "2 1 2\n0\n1\n0 1\n",
            "2 1 2\n0\n1\n0  1\n", "2 1 2\n0\n1\n 0 1\n", "2 1 2\n0\n1\n0 1 \n", " 2 1 2\n0\n1\n0 1\n",
            "2 1 2\n 0 \n1\n0 1\n", "2 1 2\n0\n\n1\n0 1\n", "2 1 2\n0\n1\n\n0 1\n", "2 1 2\n0 1\n0 1\n",
            "2 1 2\n0\n1\n0 1\n\n", "2 1 2\n0\n1\n1 0\n", "2 1 2\n0\n1\n1 1\n", "2 1 2\n0\n1\n0 2\n",
            "2 1 2\n0\n2\n0 1\n", "2 1 2\n00\n01\n00 01\n", "3 1 2\n0\n1\n0\n0 1\n", "2 0 2\n0\n1\n",
            "2 0 2\n0\n1\n0 1\n", "2 2 2\n0\n1\n0 1\n0 1\n", "2 1 2\n0\n1\n0 1\n0 1\n", "2 1 0\n0\n0\n0 1\n",
            "0 0 1\n", "2 1 2\n0\n1\n0\n1\n", "2 1 2\n0\n1\n0 1\r\n", "2 1 2\n0\n1\n0\t1\n",
            "2 1 2\n0\n1\n+0 1\n", "2 1 2\n0\n1\n0 1_0\n", "2 1 2 # c\n0\n1\n0 1\n", "2 1 2\n0\n1",
            "3 2 2\n0\n1\n0\n0 1\n1 2", "3 2 2\n0\n1\n0\n0 1 1 2\n", "3 2 2\n0\n1\n0\n0\n1 1 2\n",
            "99999999999999999999 1 2\n0\n", "2 99999999999999999999 2\n0\n1\n0 1\n",
            "3 0 2\n00\n", "3 0 2\n000", "4 1 2\n0\n1\n0 2",  # fewer color lines than n
            # leading comment lines: skipped by the whole-text pass when each
            # is printable ASCII, else left to the line reader
            "# seed 1\n2 1 2\n0\n1\n0 1\n", "#\n2 1 2\n0\n1\n0 1", "# a\n#b\n1 0 1\n0\n",
            "# seed 1", "# seed 1\n", "#\n#\n", "# a\f2 1 2\n0\n1\n0 1\n", "# a\x1c2 1 2\n0\n1\n0 1\n",
            "# a\r2 1 2\n0\n1\n0 1\n", "# a\r\n2 1 2\n0\n1\n0 1\n", "# a\t\n2 1 2\n0\n1\n0 1\n",
            "# \u0663\n2 1 2\n0\n1\n0 1\n", "# a\n 2 1 2\n0\n1\n0 1\n", "# a\n\n2 1 2\n0\n1\n0 1\n",
            " # a\n2 1 2\n0\n1\n0 1\n", "2 1 2\n# a\n0\n1\n0 1\n", "# a\n2 1 2\n0\n1\n1 0\n",
            "# a\n2 1 2\n0\n2\n0 1\n", "# a\n3 0 2\n00\n", "# 2 1 2\n0\n1\n0 1\n",
        ],
    )
    def test_corner_texts(self, text):
        _assert_parsers_agree(text)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_boards(self, seed):
        rng = random.Random(seed)
        boards = [
            _seeded_board(rng.randint(2, 40), rng.randint(2, 40), seed, colors=rng.choice([2, 3, 10])),
            _banded([([rng.randrange(2) for _ in range(9)], rng.randint(1, 4)) for _ in range(5)]),
            _seeded_board(1, 1, seed),
            _seeded_board(1, rng.randint(2, 60), seed),
            _seeded_board(rng.randint(2, 60), 1, seed),
        ]
        for spec in boards:
            text = emit_grid(spec)
            at = rng.randrange(len(text))
            for variant in (
                text,
                text[:-1],
                text.replace("\n", "\r\n"),
                text + "\n \n",
                text[:at] + rng.choice(ALPHABET) + text[at + 1 :],
                text[:at] + text[at + 1 :],
            ):
                _assert_parsers_agree(variant)
            assert parse_grid_spec(text) == spec

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_graph_files(self, seed):
        rng = random.Random(seed)
        for n in (1, 2, rng.randint(3, 12), rng.randint(13, 120)):
            g = _seeded_graph(n, rng.randint(0, n), rng.randrange(2**32), colors=rng.randint(1, 3))
            text = emit_graph(g)
            at = rng.randrange(len(text))
            lines = text.splitlines(keepends=True)
            i, j = sorted(rng.sample(range(len(lines)), 2)) if len(lines) > 1 else (0, 0)
            swapped = lines[:i] + lines[j : j + 1] + lines[i + 1 : j] + lines[i : i + 1] + lines[j + 1 :]
            for variant in (
                text,
                text[:-1],
                text.replace("\n", "\r\n"),
                "# made by gen\n" + text,
                text + "\n\n",
                text[:at] + rng.choice(ALPHABET) + text[at + 1 :],
                text[:at] + text[at + 1 :],
                text[:at] + " " + text[at:],
                "".join(swapped),
                "".join(lines[:-1]),
                text + lines[-1],
            ):
                _assert_parsers_agree(variant)
            assert parse_graph(text) == g

    def test_valid_files_never_reach_the_line_readers(self, tmp_path):
        # a whole-text pass that turned a valid file away would still agree
        # with the references, only slower; so the readers must not be called
        def refuse(text):
            raise AssertionError("a valid file reached the line-by-line reader")

        specs = [_seeded_board(1, 1, 0), _seeded_board(1, 9, 1), _seeded_board(9, 1, 2)]
        specs += [_seeded_board(rows, cols, seed, 10) for rows, cols, seed in [(3, 4, 3), (64, 64, 4)]]
        specs.append(_banded([([0, 1, 1, 0], 3), ([1, 1, 0, 0], 2), ([0, 1, 1, 0], 1)]))
        # ids of 1 to 5 digits: the 101x100 board's graph file names vertex 10 099
        graphs = [_seeded_graph(n, n // 2, n) for n in (1, 2, 10, 11, 99, 101, 1000, 1001)]
        graph_texts = [emit_graph(g) for g in graphs] + [emit_graph(_seeded_board(101, 100, 5))]
        # `gen`'s own graph files, "# seed N" line included
        generated = []
        for n, extra, colors, seed in [(1, 0, 1, 0), (30, 40, 2, 1), (500, 700, 3, 2)]:
            path = tmp_path / f"gen-{n}.graph"
            argv = ["gen", "--n", str(n), "--extra-edges", str(extra), "--color-count", str(colors)]
            assert cli.main([*argv, "--seed", str(seed), "-o", str(path)]) == 0
            generated.append((gen_random(n, extra, colors, seed), path.read_text()))
        with patch.object(instances, "_grid_by_lines", refuse), patch.object(
            instances, "_graph_by_lines", refuse
        ):
            for g, text in generated:
                assert text.startswith("# seed ")
                assert parse_graph(text) == parse_graph(text[:-1]) == g
                with patch.object(cli, "_read_text", lambda path: text):
                    assert _cli_source("-") == g
            for spec in specs:
                text = emit_grid(spec)
                assert parse_grid_spec(text) == parse_grid_spec(text[:-1]) == spec
            for g, text in zip(graphs, graph_texts):
                assert parse_graph(text) == parse_graph(text[:-1]) == g
            big = graph_texts[-1]
            assert big.endswith("10098 10099\n")
            assert parse_graph(big) == parse_graph(big[:-1]) == grid_graph(_seeded_board(101, 100, 5))

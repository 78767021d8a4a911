"""Construction, reduction, flooding, and contraction on the live zone state."""

import builtins
import random
import sys
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freeflood import (
    ColorOutOfRange,
    DisconnectedGraph,
    DuplicateEdge,
    EmptyGraph,
    FloodMove,
    InvalidVertex,
    MalformedMove,
    NoOpMove,
    SelfLoop,
    build,
    emit_graph,
    gen_random,
    gen_reduced_corpus,
    grid_graph,
    parse_graph,
    parse_grid,
    reduce,
)

from freeflood import graphs
from freeflood.graphs import _ZoneState
from freeflood.instances import GridSpec
from freeflood.solver import _replay

from conftest import (
    CPYTHON_ONLY,
    acceptance_graphs,
    allocated_block_growth,
    colored_graphs,
    flood_vertices,
    footprint_graph,
    live_footprint_graph,
    naive_zone_sets,
    reduce_by_search,
    zone_footprints,
)

CHECKERBOARD = "01\n10\n"


def checkerboard():
    return parse_grid(CHECKERBOARD)


def replay_footprints(rg, zm, color_count, moves):
    """`_replay` with the live zone graph, by vertex footprints, after every move."""
    return [live_footprint_graph(state, zm.zone_of) for state in _replay(rg, zm, color_count, moves)]


def contracted(rg, x):
    """A fresh zone state of a {0, 1}-colored zone graph with zone x contracted.

    Flooding x with the other color absorbs its whole neighborhood.
    """
    state = _ZoneState(rg)
    state.flood(x, 1 - rg.colors[x])
    return state


class TestBuild:
    def test_smallest_graph(self):
        g = build([(0, 1)], [0, 0])
        assert g.vertex_count == 2
        assert g.edge_count == 1
        assert g.adjacency == ((1,), (0,))
        assert g.color_count == 1

    def test_color_count_override(self):
        g = build([(0, 1)], [0, 0], color_count=2)
        assert g.color_count == 2

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraph):
            build([(0, 1), (2, 3)], [0, 1, 0, 1])

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            build([(0, 0)], [0])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            build([(0, 1), (1, 0)], [0, 1])

    def test_empty(self):
        with pytest.raises(EmptyGraph):
            build([], [])

    def test_color_out_of_range(self):
        with pytest.raises(ColorOutOfRange):
            build([(0, 1)], [0, 2], color_count=2)
        with pytest.raises(ColorOutOfRange):
            build([(0, 1)], [0, -1])

    def test_vertex_out_of_range(self):
        with pytest.raises(InvalidVertex):
            build([(0, 5)], [0, 1])

    def test_singleton_vertex(self):
        g = build([], [3])
        assert g.vertex_count == 1
        assert g.color_count == 4


class TestReduce:
    def test_monochromatic_single_zone(self):
        g = build([(0, 1), (1, 2), (0, 2)], [1, 1, 1], color_count=2)
        rg, zm = reduce(g)
        assert rg.zone_count == 1
        assert rg.colors == (1,)
        assert zm.zone_of == (0, 0, 0)
        assert zm.representative_of == (0,)

    def test_checkerboard_is_four_cycle(self):
        # hand enumeration: four singleton zones wired as a 4-cycle
        rg, zm = reduce(checkerboard())
        assert rg.adjacency == ((1, 2), (0, 3), (0, 3), (1, 2))
        assert rg.colors == (0, 1, 1, 0)
        assert zm.zone_of == (0, 1, 2, 3)

    def test_path_with_runs(self):
        # colors 0,0,1,1,0 along a path: zones {0,1}, {2,3}, {4}
        g = build([(0, 1), (1, 2), (2, 3), (3, 4)], [0, 0, 1, 1, 0])
        rg, zm = reduce(g)
        assert rg.zone_count == 3
        assert rg.adjacency == ((1,), (0, 2), (1,))
        assert rg.colors == (0, 1, 0)
        assert zm.zone_of == (0, 0, 1, 1, 2)
        assert zm.representative_of == (0, 2, 4)

    @given(colored_graphs())
    def test_matches_fixpoint_zone_merging(self, g):
        edge_list = [(u, w) for u, row in enumerate(g.adjacency) for w in row if u < w]
        expected = naive_zone_sets(edge_list, g.colors)
        _, zm = reduce(g)
        assert zone_footprints(zm.zone_of) == expected

    @given(colored_graphs())
    def test_proper_and_minor_bounds(self, g):
        rg, zm = reduce(g)
        for z, row in enumerate(rg.adjacency):
            for w in row:
                assert rg.colors[z] != rg.colors[w]
        assert rg.zone_count <= g.vertex_count
        assert rg.edge_count <= g.edge_count
        assert zm.representative_of == tuple(
            min(members) for members in zone_footprints(zm.zone_of)
        )

    def test_three_colors_accepted(self):
        # reduction is color-count agnostic; only contraction and solving
        # are two-color specific
        rg, zm = reduce(build([(0, 1), (1, 2), (2, 3)], [0, 1, 2, 1]))
        assert rg.zone_count == 4
        assert rg.colors == (0, 1, 2, 1)
        assert zm.zone_of == (0, 1, 2, 3)

    @given(colored_graphs())
    def test_rereduction_is_identity(self, g):
        rg, _ = reduce(g)
        again, zm = reduce(build(
            [(u, w) for u, row in enumerate(rg.adjacency) for w in row if u < w],
            rg.colors,
            max(rg.colors) + 1,
        ))
        assert again.adjacency == rg.adjacency
        assert again.colors == rg.colors
        assert zm.zone_of == tuple(range(rg.zone_count))


class TestReduceAgreesWithSearch:
    """`reduce`'s union-find gives the depth-first search's zone graph and map, exactly."""

    @given(st.integers(1, 4).flatmap(lambda c: colored_graphs(max_vertices=16, color_count=c)))
    def test_hypothesis_graphs(self, g):
        assert reduce(g) == reduce_by_search(g)

    @pytest.mark.parametrize(
        "offset, bounds", enumerate([(50, 2, 50), (30, 2, 30), (20, 3, 20)]), ids=str
    )
    def test_check_corpora(self, offset, bounds):
        corpus = list(gen_reduced_corpus(200, 7 + offset, *bounds))
        assert len(corpus) == 200
        for g, _ in corpus:
            assert reduce(g) == reduce_by_search(g)

    def test_acceptance_corpora(self):
        for g in acceptance_graphs():
            assert reduce(g) == reduce_by_search(g)

    def test_seeded_grid_graph(self):
        rng = random.Random(256)
        g = grid_graph(GridSpec(256, 256, tuple(rng.randrange(2) for _ in range(256 * 256))))
        assert reduce(g) == reduce_by_search(g)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_large_random_graphs(self, seed):
        g = gen_random(20000, 40000, 3, seed)
        assert reduce(g) == reduce_by_search(g)


@CPYTHON_ONLY
def test_parse_and_reduce_park_no_tuples_on_free_lists():
    # 16 vertices and 8 zones, so no tuple of 20 items; with the graph's
    # tuples built from generators, 3 000 rounds park about 4 100 blocks
    text = emit_graph(gen_random(16, 3, 2, seed=5))
    assert allocated_block_growth(lambda: reduce(parse_graph(text))) < 500


@pytest.mark.skipif(sys.version_info < (3, 11), reason="3.10 keeps a call's arguments on the caller's stack")
@pytest.mark.parametrize("handed_over", [True, False])
def test_rows_frees_a_pair_set_it_is_handed(handed_over, monkeypatch):
    # `_grid_zones` passes `_rows` its only reference to the zone-pair set,
    # so the set is gone before the first row is sorted: it and the rows'
    # tuples never live at once.  A caller that keeps the set keeps it alive.
    refs = []

    def pair_set():
        pairs = {(u, u + 1) for u in range(99)}
        refs.append(weakref.ref(pairs))
        return pairs

    freed = []

    def recording_sorted(row):
        freed.append(refs[0]() is None)
        return builtins.sorted(row)

    monkeypatch.setattr(graphs, "sorted", recording_sorted, raising=False)
    if handed_over:
        rows = graphs._rows(100, pair_set())
    else:
        kept = pair_set()
        rows = graphs._rows(100, kept)
    assert rows == tuple([tuple([v for v in (u - 1, u + 1) if 0 <= v < 100]) for u in range(100)])
    assert freed == [handed_over] * 100


class TestApplyFlood:
    """Flood moves applied on the zone graph by `solver._replay`."""

    def test_checkerboard_merge(self):
        g = checkerboard()
        rg, zm = reduce(g)
        [state] = _replay(rg, zm, g.color_count, [FloodMove(0, 1)])
        assert [state.find(z) for z in zm.zone_of] == [0, 0, 0, 3]
        assert state.adjacency == [{3}, None, None, {0}]
        assert (state.count, state.colors[0], state.colors[3]) == (2, 1, 0)

    def test_monochromatic_flip(self):
        g = build([(0, 1), (1, 2)], [1, 1, 1], color_count=2)
        rg, zm = reduce(g)
        [state] = _replay(rg, zm, g.color_count, [FloodMove(1, 0)])
        assert state.adjacency == [set()]
        assert state.colors == [0]
        assert (state.count, state.find(0)) == (1, 0)

    def test_path_total_merge(self):
        g = build([(0, 1), (1, 2), (2, 3), (3, 4)], [0, 0, 1, 1, 0])
        rg, zm = reduce(g)
        [state] = _replay(rg, zm, g.color_count, [FloodMove(2, 0)])
        assert state.count == 1
        assert state.adjacency == [None, set(), None]
        assert state.colors[1] == 0
        assert [state.find(z) for z in range(3)] == [1, 1, 1]

    def test_noop_rejected(self):
        g = checkerboard()
        rg, zm = reduce(g)
        with pytest.raises(NoOpMove):
            list(_replay(rg, zm, g.color_count, [FloodMove(0, 0)]))

    def test_out_of_range_rejected(self):
        g = checkerboard()
        rg, zm = reduce(g)
        with pytest.raises(MalformedMove):
            list(_replay(rg, zm, g.color_count, [FloodMove(9, 1)]))
        with pytest.raises(MalformedMove):
            list(_replay(rg, zm, g.color_count, [FloodMove(0, 5)]))

    def test_moves_checked_when_reached(self):
        g = checkerboard()
        rg, zm = reduce(g)
        replay = _replay(rg, zm, g.color_count, [FloodMove(0, 1), FloodMove(0, 1), FloodMove(9, 1)])
        next(replay)
        with pytest.raises(NoOpMove):
            next(replay)

    def test_inputs_unchanged(self):
        g = checkerboard()
        rg, zm = reduce(g)
        list(_replay(rg, zm, g.color_count, [FloodMove(0, 1), FloodMove(3, 1)]))
        assert g.colors == (0, 1, 1, 0)
        assert rg.colors == (0, 1, 1, 0)
        assert rg.adjacency == ((1, 2), (0, 3), (0, 3), (1, 2))
        assert zm.zone_of == (0, 1, 2, 3)

    @given(
        st.integers(2, 3).flatmap(lambda c: colored_graphs(color_count=c)),
        st.randoms(use_true_random=False),
    )
    def test_incremental_map_matches_full_reduction(self, g, rng):
        # after every move, the replayed zone graph is the zone graph of the
        # coloring reached by flooding vertices by definition
        ref, moves, expected = g, [], []
        for _ in range(4):
            vertex = rng.randrange(g.vertex_count)
            color = rng.choice([c for c in range(g.color_count) if c != ref.colors[vertex]])
            moves.append(FloodMove(vertex, color))
            ref = flood_vertices(ref, reduce(ref)[1].zone_of, moves[-1])
            ref_rg, ref_zm = reduce(ref)
            expected.append(footprint_graph(ref_rg, ref_zm.zone_of))
        rg, zm = reduce(g)
        assert replay_footprints(rg, zm, g.color_count, moves) == expected

    @pytest.mark.parametrize("colors", [2, 3, 4])
    def test_long_replays_match_full_reduction(self, colors):
        # seeded grids played down to one zone; every other move floods a
        # zone into its neighbor with the longest row, so the small-into-large
        # merge runs both ways round
        rng = random.Random(colors)
        merges = {"into larger": 0, "into smaller": 0}
        for rows, cols in ((24, 24), (rng.randint(1, 24), rng.randint(1, 24)), (9, 17)):
            cells = tuple(rng.randrange(colors) for _ in range(rows * cols))
            g = grid_graph(GridSpec(rows, cols, cells))
            ref, moves, expected = g, [], []
            ref_rg, ref_zm = reduce(ref)
            while ref_rg.zone_count > 1:
                if len(moves) % 2:
                    vertex = rng.randrange(g.vertex_count)
                    x = ref_zm.zone_of[vertex]
                    color = rng.choice([c for c in range(colors) if c != ref_rg.colors[x]])
                else:
                    x = rng.randrange(ref_rg.zone_count)
                    y = max(ref_rg.adjacency[x], key=lambda w: len(ref_rg.adjacency[w]))
                    vertex, color = ref_zm.representative_of[x], ref_rg.colors[y]
                for y in ref_rg.adjacency[x]:
                    if ref_rg.colors[y] == color:
                        larger = len(ref_rg.adjacency[y]) > len(ref_rg.adjacency[x])
                        merges["into larger" if larger else "into smaller"] += 1
                moves.append(FloodMove(vertex, color))
                ref = flood_vertices(ref, ref_zm.zone_of, moves[-1])
                ref_rg, ref_zm = reduce(ref)
                expected.append(footprint_graph(ref_rg, ref_zm.zone_of))
            rg, zm = reduce(g)
            got = []
            for state in _replay(rg, zm, g.color_count, moves):
                got.append(live_footprint_graph(state, zm.zone_of))
                assert state.count == len(got[-1][0])
            assert got == expected
        assert min(merges.values()) > 0


class TestContract:
    """Contraction is a flood with the other color on a fresh zone state."""

    def test_star_collapses(self):
        g = build([(0, 1), (0, 2), (0, 3)], [0, 1, 1, 1])
        rg, _ = reduce(g)
        state = contracted(rg, 0)
        assert (state.count, state.colors[0]) == (1, 1)
        assert state.adjacency == [set(), None, None, None]
        assert [state.find(z) for z in range(4)] == [0, 0, 0, 0]

    def test_path_middle(self):
        # direct evaluation: contracting the middle of a 5-path leaves the 3-path 0-2-4
        g = build([(0, 1), (1, 2), (2, 3), (3, 4)], [0, 1, 0, 1, 0])
        rg, _ = reduce(g)
        state = contracted(rg, 2)
        assert state.adjacency == [{2}, None, {0, 4}, None, {2}]
        assert [state.colors[z] for z in (0, 2, 4)] == [0, 1, 0]
        assert [state.find(z) for z in range(5)] == [0, 2, 2, 2, 4]

    def test_four_cycle(self):
        # direct evaluation: the neighbors vanish, one second neighbor remains
        g = build([(0, 1), (1, 2), (2, 3), (0, 3)], [0, 1, 0, 1])
        rg, _ = reduce(g)
        state = contracted(rg, 1)
        assert state.count == 2
        assert state.adjacency == [None, {3}, None, {1}]
        assert sorted(state.colors[z] for z in (1, 3)) == [0, 1]

    @given(colored_graphs(), st.integers(0, 10_000))
    def test_zone_count_strictly_drops(self, g, pick):
        rg, _ = reduce(g)
        if rg.zone_count < 2:
            return
        x = pick % rg.zone_count
        state = contracted(rg, x)
        assert state.count <= rg.zone_count - 1
        assert state.count == rg.zone_count - len(rg.adjacency[x])
        assert [z for z, row in enumerate(state.adjacency) if row is None] == list(rg.adjacency[x])


class TestFloodContractEquivalence:
    @given(colored_graphs(), st.randoms(use_true_random=False))
    def test_flood_then_reduce_matches_contract(self, g, rng):
        rg, zm = reduce(g)
        if rg.zone_count < 2:
            return
        vertex = rng.randrange(g.vertex_count)
        palette = sorted(set(g.colors))
        color = palette[1] if g.colors[vertex] == palette[0] else palette[0]
        flooded = flood_vertices(g, zm.zone_of, FloodMove(vertex, color))
        via_flood, flood_zm = reduce(flooded)
        state = _ZoneState(rg)
        state.flood(zm.zone_of[vertex], color)
        assert footprint_graph(via_flood, flood_zm.zone_of) == live_footprint_graph(
            state, zm.zone_of
        )

    def test_labelled_check_rejects_a_wrong_contraction(self):
        # flooding the middle of a 5-path merges zones 1 to 3; the contraction
        # is right, and it stops matching once one edge or one color is wrong
        g = build([(0, 1), (1, 2), (2, 3), (3, 4)], [0, 1, 0, 1, 0])
        rg, zm = reduce(g)
        flooded = flood_vertices(g, zm.zone_of, FloodMove(2, 1))
        via_flood, flood_zm = reduce(flooded)
        expected = footprint_graph(via_flood, flood_zm.zone_of)
        assert live_footprint_graph(contracted(rg, 2), zm.zone_of) == expected

        dropped = contracted(rg, 2)
        dropped.adjacency[2].discard(4)
        dropped.adjacency[4].discard(2)
        assert live_footprint_graph(dropped, zm.zone_of) != expected

        flipped = contracted(rg, 2)
        flipped.colors[2] = 1 - flipped.colors[2]
        assert live_footprint_graph(flipped, zm.zone_of) != expected

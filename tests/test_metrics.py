"""Distances, eccentricity, radius, and center against naive references."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freeflood import (
    DisconnectedGraph,
    FloodMove,
    build,
    gen_random,
    gen_reduced_corpus,
    grid_graph,
    metrics,
    radius_and_center,
    ReducedGraph,
    Verdict,
    reduce,
    solve,
    verify_solution,
)
from freeflood.graphs import _ZoneState
from freeflood.instances import GridSpec, _grid_zones
from freeflood.metrics import _distances, _eccentricities, _radius_search

from conftest import (
    CPYTHON_ONLY,
    acceptance_graphs,
    allocated_block_growth,
    eccentricities_by_sweep,
    floyd_warshall,
    reduced_graphs,
    reference_radius_and_center,
)


def reduced_path(k):
    g = build([(i, i + 1) for i in range(k - 1)], [i % 2 for i in range(k)])
    return reduce(g)[0]


def reduced_cycle(k):
    edges = [(min(i, (i + 1) % k), max(i, (i + 1) % k)) for i in range(k)]
    g = build(edges, [i % 2 for i in range(k)])
    return reduce(g)[0]


def test_bfs_singleton():
    rg = reduce(build([], [0]))[0]
    assert _distances(rg.adjacency, 0) == [0]


def test_bfs_path_from_end():
    assert _distances(reduced_path(5).adjacency, 0) == [0, 1, 2, 3, 4]


def test_bfs_four_cycle():
    assert _distances(reduced_cycle(4).adjacency, 0) == [0, 1, 2, 1]


def test_eccentricity_path_end_and_middle():
    rg = reduced_path(5)
    assert max(_distances(rg.adjacency, 0)) == 4
    assert max(_distances(rg.adjacency, 2)) == 2


def test_eccentricity_grid_center():
    # 3x3 grid graph as zones; the middle cell reaches everything in 2
    edges = []
    for r in range(3):
        for c in range(3):
            v = r * 3 + c
            if c < 2:
                edges.append((v, v + 1))
            if r < 2:
                edges.append((v, v + 3))
    rg = reduce(build(edges, [(r + c) % 2 for r in range(3) for c in range(3)]))[0]
    assert max(_distances(rg.adjacency, 4)) == 2


def test_radius_star():
    g = build([(0, 1), (0, 2), (0, 3), (0, 4)], [0, 1, 1, 1, 1])
    met = radius_and_center(reduce(g)[0])
    assert met.radius == 1
    assert met.center == (0,)


def test_radius_path():
    met = radius_and_center(reduced_path(5))
    assert met.radius == 2
    assert met.center == (2,)


def test_radius_four_cycle():
    met = radius_and_center(reduced_cycle(4))
    assert met.eccentricity == (2, 2, 2, 2)
    assert met.radius == 2
    assert met.center == (0, 1, 2, 3)


def test_radius_singleton():
    met = radius_and_center(reduce(build([], [1]))[0])
    assert met.radius == 0
    assert met.center == (0,)


@given(reduced_graphs(max_vertices=14))
def test_distances_match_floyd_warshall(rg):
    reference = floyd_warshall(rg.adjacency)
    for s in range(rg.zone_count):
        assert _distances(rg.adjacency, s) == reference[s]


@given(reduced_graphs(max_vertices=14))
def test_metrics_match_naive_all_pairs(rg):
    reference = floyd_warshall(rg.adjacency)
    eccs = [max(row) for row in reference]
    met = radius_and_center(rg)
    assert list(met.eccentricity) == eccs
    assert met.radius == min(eccs)
    assert met.center == tuple(z for z, e in enumerate(eccs) if e == min(eccs))
    assert met.center


@given(reduced_graphs(max_vertices=14))
def test_distance_axioms_and_eccentricity_spread(rg):
    n = rg.zone_count
    rows = [_distances(rg.adjacency, s) for s in range(n)]
    met = radius_and_center(rg)
    for a in range(n):
        assert rows[a][a] == 0
        assert met.radius <= met.eccentricity[a] <= 2 * met.radius
        for b in range(n):
            assert rows[a][b] == rows[b][a]
            for c in range(n):
                assert rows[a][c] <= rows[a][b] + rows[b][c]


@CPYTHON_ONLY
@pytest.mark.parametrize("seed", [5, 7, 0])
def test_radius_and_center_park_no_tuples_on_free_lists(seed):
    # centers of 1, 2 and 3 zones; with the center built from a generator,
    # 3 000 sweeps park about 2 000 blocks
    rg = reduce(gen_random(16, 3, 2, seed=seed))[0]
    assert len(radius_and_center(rg).center) == {5: 1, 7: 2, 0: 3}[seed]
    assert allocated_block_growth(lambda: radius_and_center(rg)) < 500


@pytest.mark.parametrize(
    "rg, message",
    [
        # the sweep took the max over the zones each search reached: two
        # separate edges gave radius 1 with every zone central, two lone
        # zones radius 0
        (ReducedGraph(((1,), (0,), (3,), (2,)), (0, 1, 0, 1)), "only 2 of 4 zones reachable from zone 0"),
        (ReducedGraph(((), ()), (0, 1)), "only 1 of 2 zones reachable from zone 0"),
        # zone 0's ball grows for four rounds, after the edge's balls stopped
        (ReducedGraph(((1,), (0, 2), (1, 3), (2, 4), (3,), (6,), (5,)), (0, 1, 0, 1, 0, 1, 0)),
         "only 5 of 7 zones reachable from zone 0"),
    ],
)
def test_disconnected_graphs_raise(rg, message):
    with pytest.raises(DisconnectedGraph, match=f"^{message}$"):
        radius_and_center(rg)


def test_the_first_pair_stops_the_growth_at_the_radius():
    # a nine-zone path: radius 4 at zone 4, eccentricities up to 8; each
    # row read is one ball grown, so the first pair costs three full rounds
    # and zones 0-4 of the fourth
    reads = []

    class CountedRow(tuple):
        def __iter__(self):
            reads.append(1)
            return super().__iter__()

    growth = _eccentricities([CountedRow(row) for row in reduced_path(9).adjacency])
    assert next(growth) == (4, 4)
    assert len(reads) == 3 * 9 + 5
    assert list(growth) == [(5, 3), (5, 5), (6, 2), (6, 6), (7, 1), (7, 7), (8, 0), (8, 8)]


@given(reduced_graphs(max_vertices=14))
def test_eccentricities_match_the_sweep(rg):
    assert list(_eccentricities(rg.adjacency)) == list(eccentricities_by_sweep(rg.adjacency))
    assert radius_and_center(rg) == reference_radius_and_center(rg)


@given(reduced_graphs(max_vertices=14), st.lists(st.integers(0, 13), max_size=4))
def test_eccentricities_match_the_sweep_on_zone_states(rg, floods):
    # absorbed zones leave None rows, which ball growth skips
    state = _ZoneState(rg)
    for x in floods:
        if x < rg.zone_count and state.count > 1:
            x = state.find(x)
            state.flood(x, 1 - state.colors[x])
    assert list(_eccentricities(state.adjacency)) == list(eccentricities_by_sweep(state.adjacency))


def test_eccentricities_match_the_sweep_on_the_acceptance_corpora():
    for g in acceptance_graphs():
        rg = reduce(g)[0]
        assert radius_and_center(rg) == reference_radius_and_center(rg)


@pytest.mark.parametrize("side, block", [(1, 1), (9, 1), (32, 1), (64, 1), (64, 4), (128, 1), (128, 8)])
@pytest.mark.parametrize("seed", [1, 2])
def test_eccentricities_match_the_sweep_on_grid_boards(side, block, seed):
    # random boards, and boards painted in block x block squares
    rng = random.Random(seed)
    colors = [rng.randrange(2) for _ in range((side // block) ** 2)]
    cells = tuple([colors[r // block * (side // block) + c // block] for r in range(side) for c in range(side)])
    rg = _grid_zones(GridSpec(side, side, cells))[0]
    assert radius_and_center(rg) == reference_radius_and_center(rg)
    if side == 64:  # the states of three floods of the center zone, None rows included
        state = _ZoneState(rg)
        center = _radius_search(rg.adjacency)[1]
        for _ in range(3):
            state.flood(center, 1 - state.colors[center])
            assert list(_eccentricities(state.adjacency)) == list(eccentricities_by_sweep(state.adjacency))


def random_grid(side, seed):
    rng = random.Random(seed)
    return grid_graph(GridSpec(side, side, tuple(rng.randrange(2) for _ in range(side * side))))


def full_sweep_answer(rg):
    met = reference_radius_and_center(rg)
    return met.radius, min(met.center)


@pytest.fixture(scope="module")
def agreement_corpus():
    """(graph, reduced graph, zone map, full-sweep answer) for the acceptance
    corpora plus seeded 64x64 and 128x128 random grids."""
    graphs = acceptance_graphs() + [random_grid(64, 7), random_grid(64, 8), random_grid(128, 9)]
    corpus = []
    for g in graphs:
        rg, zm = reduce(g)
        corpus.append((g, rg, zm, full_sweep_answer(rg)))
    return corpus


@given(reduced_graphs(max_vertices=14))
def test_bounded_radius_center_matches_sweep(rg):
    assert _radius_search(rg.adjacency)[:2] == full_sweep_answer(rg)


def test_bounded_radius_center_matches_sweep_on_corpora(agreement_corpus):
    for _, rg, _, expected in agreement_corpus:
        assert _radius_search(rg.adjacency)[:2] == expected


def test_solve_output_matches_full_sweep_rule(agreement_corpus):
    # the rule before eccentricity bounding: flood the representative of the
    # least center zone, alternating the two palette colors
    for g, _, zm, (radius, center) in agreement_corpus:
        rep = zm.representative_of[center]
        palette = sorted(set(g.colors))
        moves, color = [], g.colors[rep]
        for _ in range(radius):
            color = palette[1] if color == palette[0] else palette[0]
            moves.append(FloodMove(rep, color))
        solution = solve(g)
        assert solution.center_zone_representative == rep
        assert solution.moves == tuple(moves)


def counted_sources(monkeypatch):
    """The sources of every search `metrics._distances` runs from now on."""
    sources = []
    distances = metrics._distances

    def counted(adjacency, source):
        sources.append(source)
        return distances(adjacency, source)

    monkeypatch.setattr(metrics, "_distances", counted)
    return sources


# Alternating candidate and peripheral searches ran 3-10 searches on the
# 64x64 and 3-13 on the 256x256 boards of seeds 1-11; the least-bound rule
# alone ran up to 110 and 135 on boards of these sizes.
MAX_SEARCHES = 16


def test_bounded_radius_center_searches_few_sources(monkeypatch):
    rg = reduce(random_grid(64, 7))[0]
    expected = full_sweep_answer(rg)
    sources = counted_sources(monkeypatch)
    assert _radius_search(rg.adjacency)[:2] == expected
    assert len(set(sources)) == len(sources) <= MAX_SEARCHES


@pytest.mark.parametrize("seed", [4, 11])
def test_bounded_radius_center_searches_few_sources_at_256(seed, monkeypatch):
    # the full sweep takes thousands of searches here, so the answer is
    # checked by its center's eccentricity; exactness is checked above
    rg = reduce(random_grid(256, seed))[0]
    sources = counted_sources(monkeypatch)
    radius, center, searches = _radius_search(rg.adjacency)
    assert len(set(sources)) == len(sources) == searches <= MAX_SEARCHES
    assert max(metrics._distances(rg.adjacency, center)) == radius


def test_verify_searches_less_than_the_radius_search(monkeypatch):
    # `verify` only proves the radius at least the optimal moves' count: its
    # target search drops a zone once its bound reaches that count, with no
    # tie-break by id
    boards = [random_grid(64, seed) for seed in range(1, 6)]
    solutions = [solve(g) for g in boards]
    sources = counted_sources(monkeypatch)
    for g in boards:
        _radius_search(reduce(g)[0].adjacency)
    searched = len(sources)
    del sources[:]
    for g, s in zip(boards, solutions):
        assert verify_solution(g, s) is Verdict.OPTIMAL
    assert len(sources) < searched


def test_bounded_radius_center_matches_sweep_on_seeded_corpus():
    graphs = 0
    for seed in range(5):
        for _, rg in gen_reduced_corpus(200, seed, 1, 60):
            assert _radius_search(rg.adjacency)[:2] == full_sweep_answer(rg)
            graphs += 1
    assert graphs == 1000


def assert_target_answers(adjacency, radius, start=0):
    """The target search, from `start` and seeded with its search, answers
    "radius >= t" for t = R - 1, R and R + 1: it returns t itself when the
    radius is at least t, else the eccentricity, below t, of the zone it names."""
    for t in (radius - 1, radius, radius + 1):
        for dist in (None, _distances(adjacency, start)):
            found, zone, searches = _radius_search(adjacency, start, dist, t)
            assert searches >= 1
            if radius >= t:
                assert (found, zone) == (t, -1)
            else:
                assert found == max(_distances(adjacency, zone)) < t


@given(reduced_graphs(max_vertices=14))
def test_target_search_decides_the_radius(rg):
    assert_target_answers(rg.adjacency, full_sweep_answer(rg)[0])


def test_target_search_decides_the_radius_on_corpora(agreement_corpus):
    for _, rg, _, (radius, _) in agreement_corpus:
        assert_target_answers(rg.adjacency, radius)


def test_target_search_decides_the_radius_on_seeded_corpus():
    for seed in range(3):
        for _, rg in gen_reduced_corpus(200, seed, 1, 60):
            assert_target_answers(rg.adjacency, full_sweep_answer(rg)[0])


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_target_search_stops_at_the_first_eccentricity_below_it(seed, monkeypatch):
    rg = reduce(random_grid(64, seed))[0]
    radius = _radius_search(rg.adjacency)[0]
    sources = counted_sources(monkeypatch)
    for t in (radius + 1, radius + 2):
        del sources[:]
        found, zone, searches = _radius_search(rg.adjacency, target=t)
        eccs = [max(_distances(rg.adjacency, s)) for s in sources]
        assert len(eccs) == searches and sources[-1] == zone
        assert min(eccs[:-1], default=t) >= t > eccs[-1] == found


@given(reduced_graphs(max_vertices=14), st.lists(st.integers(0, 13), max_size=4))
def test_target_search_decides_the_radius_of_zone_states(rg, floods):
    # absorbed zones leave None rows, which the search never reaches
    state = _ZoneState(rg)
    for x in floods:
        if x < rg.zone_count and state.count > 1:
            x = state.find(x)
            state.flood(x, 1 - state.colors[x])
    live = [z for z, row in enumerate(state.adjacency) if row is not None]
    radius = next(eccentricities_by_sweep(state.adjacency))[0]
    for start in live[:3]:
        assert_target_answers(state.adjacency, radius, start)


@pytest.mark.parametrize("seed", [1, 7])
def test_target_search_decides_the_radius_of_grid_zone_states(seed):
    rg = reduce(random_grid(64, seed))[0]
    center = _radius_search(rg.adjacency)[1]
    state = _ZoneState(rg)
    for _ in range(3):
        state.flood(center, 1 - state.colors[center])
        radius = next(eccentricities_by_sweep(state.adjacency))[0]
        assert_target_answers(state.adjacency, radius, center)

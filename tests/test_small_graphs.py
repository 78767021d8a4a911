"""The theorem by exhaustion: every connected zone graph of up to six zones."""

import random

import pytest

from freeflood import (
    ColoredGraph,
    FloodMove,
    Verdict,
    brute_force_min_moves,
    check_distance_bounds,
    check_far_witness,
    check_radius_bounds,
    min_moves,
    reduce,
    solve,
    solver,
    verify_solution,
)
from freeflood.metrics import _distances, _radius_search

from conftest import (
    assert_certificate_agrees,
    certificate_claims,
    connected_bipartite_graphs,
    outcome,
    reference_verify_zones,
)

A001832 = [1, 1, 3, 19, 195, 3031]  # labeled connected bipartite graphs on 1 to 6 vertices


def test_every_connected_bipartite_graph_once():
    counts = []
    for n in range(1, 7):
        graphs = list(connected_bipartite_graphs(n))
        assert len(set(graphs)) == len(graphs)
        counts.append(len(graphs))
    assert counts == A001832


@pytest.mark.parametrize("n", range(1, 7))
def test_theorem_on_every_zone_graph(n):
    # the oracle's optimum is the radius, the validated solve passes and is
    # verified optimal, and no lemma checker finds a counterexample
    for g in connected_bipartite_graphs(n):
        rg = reduce(g)[0]
        assert rg.adjacency == g.adjacency
        report = brute_force_min_moves(g)
        assert report.exhausted and report.optimum == min_moves(g)
        assert verify_solution(g, solve(g, validate=True)) is Verdict.OPTIMAL
        for check in (check_radius_bounds, check_distance_bounds, check_far_witness):
            assert check(rg).ok


@pytest.mark.parametrize("n", range(1, 6))
def test_certificate_agrees_with_the_reference_on_every_zone_graph(n):
    for g in connected_bipartite_graphs(n):
        rg, zm = reduce(g)
        radius = _radius_search(rg.adjacency)[0]
        for claim in certificate_claims(rg, zm):
            assert_certificate_agrees(rg, zm, radius, claim)


def _ball_move_lists(rg, zm, color_count, rng):
    """For every zone c, lists of 0 to ecc(c) + 2 moves that flood c's growing
    ball, the colors alternating: every move on a random vertex of zone c, as
    `solve`'s are, and move k on a random vertex of B(c, k - 1), which the
    replay decides.  Each list comes with one move recolored and with one
    move replaced by a random, possibly out-of-range, move."""
    n = len(zm.zone_of)
    for center in range(rg.zone_count):
        dist = _distances(rg.adjacency, center)
        for length in range(max(dist) + 3):
            for reach in (0, 1):  # 0: zone c alone, 1: the current ball
                moves, color = [], rg.colors[center]
                for k in range(length):
                    color = 1 - color
                    ball = [v for v in range(n) if dist[zm.zone_of[v]] <= k * reach]
                    moves.append(FloodMove(rng.choice(ball), color))
                yield moves
                if moves:
                    i = rng.randrange(length)
                    other = rng.choice([c for c in range(color_count) if c != moves[i].color])
                    yield moves[:i] + [FloodMove(moves[i].vertex, other)] + moves[i + 1:]
                    i = rng.randrange(length)
                    wild = FloodMove(rng.randrange(-1, n + 1), rng.randrange(-1, color_count + 1))
                    yield moves[:i] + [wild] + moves[i + 1:]


@pytest.mark.parametrize("color_count", [2, 3])
@pytest.mark.parametrize("n", range(1, 6))
def test_verify_agrees_with_the_reference_on_every_zone_graph(n, color_count):
    # the same verdict, or the same error, on every zone graph's ball floods
    # and their perturbed copies, under a 2-color and a 3-color header
    rng = random.Random(n * 10 + color_count)
    for g in connected_bipartite_graphs(n):
        g = ColoredGraph(g.adjacency, g.colors, color_count)
        rg, zm = reduce(g)
        for moves in _ball_move_lists(rg, zm, color_count, rng):
            assert outcome(solver._verify_zones, rg, zm, color_count, moves) == outcome(
                reference_verify_zones, rg, zm, color_count, moves
            )

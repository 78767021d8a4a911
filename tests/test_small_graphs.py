"""The theorem by exhaustion: every connected zone graph of up to six zones."""

import pytest

from freeflood import (
    Verdict,
    brute_force_min_moves,
    check_distance_bounds,
    check_far_witness,
    check_radius_bounds,
    min_moves,
    reduce,
    solve,
    verify_solution,
)
from freeflood.metrics import _radius_search

from conftest import assert_certificate_agrees, certificate_claims, connected_bipartite_graphs

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

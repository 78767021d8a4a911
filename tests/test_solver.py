"""Solver behavior: optimum values, certificates, replay verification."""

import random

import pytest
from hypothesis import given, settings

from freeflood import (
    FloodMove,
    InvariantViolation,
    Solution,
    MalformedMove,
    TooManyColors,
    Verdict,
    brute_force_min_moves,
    build,
    metrics,
    min_moves,
    parse_grid,
    radius_and_center,
    reduce,
    solve,
    solver,
    verify_solution,
)

from freeflood.graphs import _ZoneState

from conftest import colored_graphs, reduced_graphs


def checkerboard():
    return parse_grid("01\n10\n")


def alternating_path(k):
    return build([(i, i + 1) for i in range(k - 1)], [i % 2 for i in range(k)])


class TestMinMoves:
    def test_monochromatic(self):
        g = build([(0, 1), (1, 2)], [1, 1, 1], color_count=2)
        assert min_moves(g) == 0

    def test_checkerboard(self):
        # reduced graph is a 4-cycle of radius 2; oracle agrees
        g = checkerboard()
        assert min_moves(g) == 2
        assert brute_force_min_moves(g).optimum == 2

    def test_alternating_path(self):
        g = alternating_path(5)
        assert min_moves(g) == 2
        assert brute_force_min_moves(g).optimum == 2

    def test_three_colors_rejected(self):
        with pytest.raises(TooManyColors):
            min_moves(build([(0, 1), (1, 2)], [0, 1, 2]))

    def test_sparse_palette(self):
        # two colors in use out of a larger declared palette
        g = build([(i, i + 1) for i in range(4)], [0, 2, 0, 2, 0], color_count=3)
        assert min_moves(g) == 2
        s = solve(g, validate=True)
        assert {m.color for m in s.moves} == {0, 2}
        assert verify_solution(g, s) is Verdict.OPTIMAL
        assert brute_force_min_moves(g).optimum == 2


class TestSolve:
    def test_monochromatic_empty_moves(self):
        g = build([(0, 1)], [0, 0], color_count=2)
        s = solve(g)
        assert s.moves == ()
        assert s.claimed_optimum == 0
        assert verify_solution(g, s) is Verdict.OPTIMAL

    def test_star_single_move(self):
        g = build([(0, 1), (0, 2), (0, 3)], [0, 1, 1, 1])
        s = solve(g, validate=True)
        assert s.claimed_optimum == 1
        assert s.moves == (FloodMove(0, 1),)
        assert verify_solution(g, s) is Verdict.OPTIMAL

    def test_checkerboard_two_alternating_moves(self):
        g = checkerboard()
        s = solve(g, validate=True)
        assert s.claimed_optimum == 2
        assert [m.vertex for m in s.moves] == [s.center_zone_representative] * 2
        assert [m.color for m in s.moves] == [1, 0]
        assert verify_solution(g, s) is Verdict.OPTIMAL

    @given(colored_graphs())
    def test_moves_repeat_one_vertex_with_alternating_colors(self, g):
        s = solve(g)
        assert len(s.moves) == s.claimed_optimum == min_moves(g)
        for move in s.moves:
            assert move.vertex == s.center_zone_representative
        for first, second in zip(s.moves, s.moves[1:]):
            assert first.color != second.color

    @given(colored_graphs(max_vertices=10))
    @settings(max_examples=60)
    def test_validated_solve_is_optimal_everywhere(self, g):
        s = solve(g, validate=True)
        assert verify_solution(g, s) is Verdict.OPTIMAL


class TestSolveReduced:
    def test_singleton(self):
        assert solve(build([], [0]), validate=True).moves == ()

    def test_path_contracts_at_middle_twice(self):
        s = solve(alternating_path(5), validate=True)
        assert s.moves == (FloodMove(2, 1), FloodMove(2, 0))

    def test_four_cycle_two_contractions(self):
        s = solve(checkerboard(), validate=True)
        assert len(s.moves) == 2
        assert s.center_zone_representative == 0

    def test_validation_never_runs_the_full_sweep(self, monkeypatch):
        def sweep(rg):
            raise AssertionError("radius_and_center called")

        monkeypatch.setattr(metrics, "radius_and_center", sweep)
        monkeypatch.setattr(solver, "radius_and_center", sweep, raising=False)
        g = parse_grid("0110\n1001\n0101\n1100\n")
        assert len(solve(g, validate=True).moves) == radius_and_center(reduce(g)[0]).radius

    @given(reduced_graphs())
    def test_certificate_length_is_radius(self, rg):
        met = radius_and_center(rg)
        edges = [(z, w) for z, row in enumerate(rg.adjacency) for w in row if z < w]
        s = solve(build(edges, rg.colors), validate=True)
        assert len(s.moves) == met.radius

    def test_validation_replays_the_printed_moves(self, monkeypatch):
        # a radius search that names a zone off the center: plain solve
        # prints its moves unchecked, and the replay of those moves refutes them
        real = solver._radius_search

        def off_center(adjacency, start=0, dist=None):
            radius, _, searches = real(adjacency, start, dist)
            return radius, 0, searches

        monkeypatch.setattr(solver, "_radius_search", off_center)
        g = alternating_path(5)
        assert solve(g).moves == (FloodMove(0, 1), FloodMove(0, 0))
        with pytest.raises(InvariantViolation, match="radius 2 after 1 moves, expected 1"):
            solve(g, validate=True)

    def test_validation_keeps_the_flooded_zone_central(self, monkeypatch):
        # leaf 5 hangs off leaf 3 of a star: its first flood lowers the radius
        # by one too, but leaves the hub the only center; only the search on
        # the input is wrong, the replay's searches, which start from the
        # flooded zone, are real
        real = solver._radius_search
        monkeypatch.setattr(
            solver,
            "_radius_search",
            lambda adj, start=0, dist=None: (2, 5, 1) if start == 0 else real(adj, start, dist),
        )
        g = build([(0, 1), (0, 2), (0, 3), (0, 4), (3, 5)], [0, 1, 1, 1, 1, 0])
        s = solve(g)
        assert s.moves == (FloodMove(5, 1), FloodMove(5, 0))
        assert verify_solution(g, s) is Verdict.INFEASIBLE
        with pytest.raises(InvariantViolation, match="flooded zone left the center set"):
            solve(g, validate=True)

    @pytest.mark.parametrize("seed", range(4))
    def test_validation_searches_once_per_step_for_reach_and_radius(self, seed, monkeypatch):
        # each step's search from the flooded zone, which checks that every
        # zone is reached, is also the first search of that step's radius
        # search: the searches run are exactly those the radius searches count
        rng = random.Random(seed)
        g = parse_grid("\n".join("".join(rng.choice("01") for _ in range(12)) for _ in range(12)))
        calls, counted = [], []
        real_distances, real_search = metrics._distances, solver._radius_search

        def distances(adjacency, source):
            calls.append(source)
            return real_distances(adjacency, source)

        def search(adjacency, start=0, dist=None):
            found = real_search(adjacency, start, dist)
            counted.append(found[2])
            return found

        monkeypatch.setattr(metrics, "_distances", distances)
        monkeypatch.setattr(solver, "_distances", distances)
        monkeypatch.setattr(solver, "_radius_search", search)
        s = solve(g, validate=True)
        assert len(counted) == 1 + len(s.moves) > 1
        assert len(calls) == sum(counted)

    def test_validation_needs_one_zone_at_the_end(self, monkeypatch):
        monkeypatch.setattr(solver, "_radius_search", lambda adj: (0, 0, 1))
        assert solve(checkerboard()).moves == ()
        with pytest.raises(InvariantViolation, match="4 zones left after the moves"):
            solve(checkerboard(), validate=True)

    def test_validation_checks_the_zone_graph_after_every_move(self, monkeypatch):
        # the input zone graph whole, then after each move the rows the flood
        # touched: the flooded zone's and its neighbors'
        seen = []
        monkeypatch.setattr(solver, "_validate_reduced", lambda rg: seen.append(rg.zone_count))
        monkeypatch.setattr(solver, "_check_rows", lambda state, zones: seen.append(sorted(zones)))
        solve(checkerboard())
        assert seen == []
        solve(checkerboard(), validate=True)
        assert seen == [4, [0, 3], [0]]

    def test_a_rejected_move_is_an_internal_fault(self, monkeypatch):
        monkeypatch.setattr(solver, "_palette", lambda colors: [0, 5])
        assert [m.color for m in solve(checkerboard()).moves] == [5, 0]
        with pytest.raises(InvariantViolation, match=r"rejected .*color 5 outside \[0, 2\)"):
            solve(checkerboard(), validate=True)

    @given(reduced_graphs(max_vertices=10))
    @settings(max_examples=60)
    def test_any_contraction_bounded_radius_drop(self, rg):
        if rg.zone_count < 2:
            return
        base = radius_and_center(rg).radius
        for x in range(rg.zone_count):
            state = _ZoneState(rg)
            state.flood(x, 1 - rg.colors[x])
            live = [z for z, row in enumerate(state.adjacency) if row is not None]
            after = min(max(metrics._distances(state.adjacency, z)) for z in live)
            assert base - 1 <= after <= base


class TestVerify:
    def test_optimal_empty_on_monochromatic(self):
        g = build([(0, 1)], [1, 1], color_count=2)
        assert verify_solution(g, Solution((), 0, 0)) is Verdict.OPTIMAL

    def test_suboptimal_three_moves(self):
        # valid three-move finish on the checkerboard; optimum is 2
        g = checkerboard()
        moves = (FloodMove(0, 1), FloodMove(0, 0), FloodMove(0, 1))
        assert verify_solution(g, Solution(moves, 3, 0)) is Verdict.FEASIBLE_SUBOPTIMAL

    def test_single_move_infeasible(self):
        # one flood cannot reach the opposite corner
        g = checkerboard()
        for vertex in range(4):
            color = 1 - g.colors[vertex]
            verdict = verify_solution(g, Solution((FloodMove(vertex, color),), 1, vertex))
            assert verdict is Verdict.INFEASIBLE

    def test_noop_move_is_infeasible(self):
        g = checkerboard()
        moves = (FloodMove(0, 0),)
        assert verify_solution(g, Solution(moves, 1, 0)) is Verdict.INFEASIBLE

    def test_palette_checked_after_replay(self):
        # a three-color instance is infeasible while colors remain, and is
        # refused only once the replay has made it monochromatic
        g = build([(0, 1), (1, 2)], [0, 1, 2])
        assert verify_solution(g, Solution((FloodMove(1, 0),), 1, 1)) is Verdict.INFEASIBLE
        with pytest.raises(TooManyColors):
            verify_solution(g, Solution((FloodMove(1, 0), FloodMove(0, 2)), 2, 1))

    def test_malformed_move_raises(self):
        g = checkerboard()
        with pytest.raises(MalformedMove):
            verify_solution(g, Solution((FloodMove(11, 1),), 1, 11))
        with pytest.raises(MalformedMove):
            verify_solution(g, Solution((FloodMove(0, 9),), 1, 0))


@given(colored_graphs(max_vertices=10))
@settings(max_examples=80)
def test_solver_matches_exhaustive_search(g):
    report = brute_force_min_moves(g)
    assert report.exhausted
    assert report.optimum == min_moves(g)

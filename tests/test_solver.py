"""Solver behavior: optimum values, certificates, replay verification."""

import pytest
from hypothesis import given, settings

from freeflood import (
    FloodMove,
    Solution,
    MalformedMove,
    TooManyColors,
    Verdict,
    brute_force_min_moves,
    build,
    contract_with_trace,
    metrics,
    min_moves,
    parse_grid,
    radius_and_center,
    reduce,
    solve,
    solve_reduced,
    solver,
    verify_solution,
)

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
        rg = reduce(build([], [0]))[0]
        assert solve_reduced(rg) == []

    def test_path_contracts_at_middle_twice(self):
        rg = reduce(alternating_path(5))[0]
        assert solve_reduced(rg, validate=True) == [2, 1]

    def test_four_cycle_two_contractions(self):
        rg = reduce(checkerboard())[0]
        steps = solve_reduced(rg, validate=True)
        assert len(steps) == 2
        assert steps[0] == 0

    def test_validation_never_runs_the_full_sweep(self, monkeypatch):
        def sweep(rg):
            raise AssertionError("radius_and_center called")

        monkeypatch.setattr(metrics, "radius_and_center", sweep)
        monkeypatch.setattr(solver, "radius_and_center", sweep, raising=False)
        rg = reduce(parse_grid("0110\n1001\n0101\n1100\n"))[0]
        assert len(solve_reduced(rg, validate=True)) == radius_and_center(rg).radius

    @given(reduced_graphs())
    def test_certificate_length_is_radius(self, rg):
        met = radius_and_center(rg)
        steps = solve_reduced(rg, validate=True)
        assert len(steps) == met.radius

    @given(reduced_graphs(max_vertices=10))
    @settings(max_examples=60)
    def test_any_contraction_bounded_radius_drop(self, rg):
        if rg.zone_count < 2:
            return
        base = radius_and_center(rg).radius
        for x in range(rg.zone_count):
            after = radius_and_center(contract_with_trace(rg, x)[0]).radius
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

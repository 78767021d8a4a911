"""Solver behavior: optimum values, certificates, replay verification."""

import random

import pytest
from hypothesis import given, settings

from freeflood import (
    ColoredGraph,
    FloodMove,
    InvariantViolation,
    Solution,
    MalformedMove,
    TooManyColors,
    Verdict,
    brute_force_min_moves,
    build,
    gen_random,
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

from conftest import (
    alternating_moves,
    assert_certificate_agrees,
    certificate_claims,
    claim_on_the_input,
    colored_graphs,
    outcome,
    reduced_graphs,
    reference_check_certificate,
    reference_verify_zones,
    spider,
)


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
        # moves printed on zone 0 of the 5-zone path, whose center is zone 2:
        # plain solve prints them unchecked, and the replay of those moves,
        # whose first flood absorbs one zone where the center's absorbs two,
        # refutes them
        monkeypatch.setattr(solver, "FloodMove", lambda vertex, color: FloodMove(0, color))
        g = alternating_path(5)
        assert solve(g).moves == (FloodMove(0, 1), FloodMove(0, 0))
        with pytest.raises(InvariantViolation, match="^4 zones after 1 moves, expected 3$"):
            solve(g, validate=True)

    def test_validation_keeps_the_flooded_zone_central(self, monkeypatch):
        # leaf 5 hangs off leaf 3 of a star: its first flood lowers the radius
        # by one too, but leaves the hub the only center; the search on the
        # input claims it central with the radius 2, and the search from it,
        # of eccentricity 3, refutes the claim before the replay
        claim_on_the_input(monkeypatch, 2, 5)
        g = build([(0, 1), (0, 2), (0, 3), (0, 4), (3, 5)], [0, 1, 1, 1, 1, 0])
        s = solve(g)
        assert s.moves == (FloodMove(5, 1), FloodMove(5, 0))
        assert verify_solution(g, s) is Verdict.INFEASIBLE
        with pytest.raises(InvariantViolation, match="^zone 5 has eccentricity 3, expected 2$"):
            solve(g, validate=True)

    @pytest.mark.parametrize("seed", range(4))
    def test_validation_searches_only_the_input(self, seed, monkeypatch):
        # the certificate's searches are the target search's on the input,
        # the first of them the search from the center that predicts the
        # replay: none runs after a move, so a longer move list runs no more
        rng = random.Random(seed)
        g = parse_grid("\n".join("".join(rng.choice("01") for _ in range(12)) for _ in range(12)))
        rg, zm = reduce(g)
        radius, center, _ = metrics._radius_search(rg.adjacency)
        start = metrics._distances(rg.adjacency, center)
        target = metrics._radius_search(rg.adjacency, center, start, radius)[2]
        calls = []
        real_distances = metrics._distances

        def distances(adjacency, source):
            calls.append(source)
            return real_distances(adjacency, source)

        monkeypatch.setattr(metrics, "_distances", distances)
        monkeypatch.setattr(solver, "_distances", distances)
        moves = solve(g).moves
        assert len(moves) == radius > 2
        del calls[:]
        assert solver._check_certificate(rg, zm, radius, center, moves) == target
        assert len(calls) == target and calls[0] == center
        for cut in (1, 0):  # fewer moves leave more than one zone, after the same searches
            del calls[:]
            with pytest.raises(InvariantViolation, match="zones left after the moves"):
                solver._check_certificate(rg, zm, radius, center, moves[:cut])
            assert len(calls) == target and calls[0] == center

    @pytest.mark.parametrize(
        "claim, message",
        [
            # zone 1 of the 5-zone path has eccentricity 3, but the input's
            # radius is 2; a claim one too low passes the input's radius
            # check and is refuted by the center's eccentricity
            ((3, 1, 1), "radius 2 after 0 moves, expected 3"),
            ((1, 2, 1), "zone 2 has eccentricity 2, expected 1"),
        ],
    )
    def test_validation_refutes_a_radius_one_off(self, claim, message, monkeypatch):
        # the search on the input claims a radius one too high, from a zone
        # of that eccentricity, or one too low; the certificate's searches
        # are real, and both claims are refuted before the replay
        claim_on_the_input(monkeypatch, *claim[:2])
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            solve(alternating_path(5), validate=True)

    def test_validation_checks_the_input_radius(self, monkeypatch):
        # radius 4 claimed from zone 1 of the spider, one too high: its moves
        # are feasible but one too many, and every check after a move holds,
        # so only the check on the input refutes them
        claim_on_the_input(monkeypatch, 4, 1)
        g = spider()
        s = solve(g)
        assert s.moves == (FloodMove(1, 0), FloodMove(1, 1), FloodMove(1, 0), FloodMove(1, 1))
        assert verify_solution(g, s) is Verdict.FEASIBLE_SUBOPTIMAL
        rg, zm = reduce(g)
        assert reference_check_certificate(rg, zm, 4, 1, s.moves) is None
        with pytest.raises(InvariantViolation, match="^radius 3 after 0 moves, expected 4$"):
            solve(g, validate=True)

    def test_validation_needs_one_zone_at_the_end(self):
        # the checkerboard's 4-cycle from zone 0: one of its two moves leaves
        # the center and the zone at distance 2, as predicted, and no more
        # moves follow
        rg, zm = reduce(checkerboard())
        moves = solve(checkerboard()).moves
        searches = metrics._radius_search(rg.adjacency, target=2)[2]
        assert solver._check_certificate(rg, zm, 2, 0, moves) == searches
        with pytest.raises(InvariantViolation, match="^2 zones left after the moves, expected 1$"):
            solver._check_certificate(rg, zm, 2, 0, moves[:1])

    def test_validation_refutes_a_move_past_the_last_zone(self):
        # a third move on the checkerboard's one zone is legal, a recoloring,
        # but one move more than the radius
        rg, zm = reduce(checkerboard())
        moves = solve(checkerboard()).moves
        with pytest.raises(InvariantViolation, match="^3 moves, expected 2$"):
            solver._check_certificate(rg, zm, 2, 0, [*moves, FloodMove(0, 1)])

    def test_validation_refutes_a_negative_radius(self):
        # a one-zone graph needs no move; a radius of -1, with no move, is
        # not the zone's eccentricity
        rg, zm = reduce(build([], [0]))
        assert solver._check_certificate(rg, zm, 0, 0, []) == 1
        with pytest.raises(InvariantViolation, match="^zone 0 has eccentricity 0, expected -1$"):
            solver._check_certificate(rg, zm, -1, 0, [])

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

    def test_color_in_use_outside_the_count_raises(self):
        # a hand-built ColoredGraph's colors are not checked against its
        # count, and a move with such a color is refused as the replay refuses it
        g = ColoredGraph(((1,), (0,)), (0, 5), 2)
        with pytest.raises(MalformedMove, match=r"color 5 outside \[0, 2\)"):
            verify_solution(g, Solution((FloodMove(0, 5),), 1, 0))

    @pytest.mark.parametrize(
        "adjacency, colors",
        [(((), ()), (0, 1)), (((1,), (0,), ()), (0, 1, 0)), (((1,), (0,), (3,), (2,)), (0, 1, 1, 0))],
        ids=["two-points", "edge-and-point", "two-edges"],
    )
    def test_disconnected_graph_agrees_with_the_replay(self, adjacency, colors):
        # a hand-built ColoredGraph may be disconnected: flooding one zone
        # never reaches the other part, so every list is infeasible
        g = ColoredGraph(adjacency, colors, 2)
        rg, zm = reduce(g)
        assert verify_solution(g, Solution((FloodMove(0, 1),), 1, 0)) is Verdict.INFEASIBLE
        for vertex in range(len(colors)):
            for length in range(4):
                moves = [FloodMove(vertex, (colors[vertex] + 1 + k) % 2) for k in range(length)]
                assert outcome(solver._verify_zones, rg, zm, 2, moves) == outcome(
                    reference_verify_zones, rg, zm, 2, moves
                )


@given(colored_graphs(max_vertices=10))
@settings(max_examples=80)
def test_solver_matches_exhaustive_search(g):
    report = brute_force_min_moves(g)
    assert report.exhausted
    assert report.optimum == min_moves(g)


def _seeded_instances(seed):
    """Seeded 2-color grids and graphs, one 3-color graph, and the 2-color
    graph again under a 3-color header, for the agreement tests."""
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 12), rng.randint(1, 12)
    yield parse_grid("\n".join("".join(rng.choice("01") for _ in range(cols)) for _ in range(rows)))
    graphs = []
    for n, colors in ((rng.randint(2, 40), 2), (rng.randint(2, 12), 3)):
        extra = min(rng.randint(0, n), (n - 1) * (n - 2) // 2)  # at most the non-tree pairs
        graphs.append(gen_random(n, extra, colors, rng.randrange(2**32)))
    yield from graphs
    yield ColoredGraph(graphs[0].adjacency, graphs[0].colors, 3)


def _flood_until_one_zone(g, rng, vertices):
    """Floods of vertices drawn from `vertices`, each with a color of one of
    its zone's neighbors, until one zone is left: a feasible move list."""
    rg, zm = reduce(g)
    state, moves = _ZoneState(rg), []
    while state.count > 1:
        v = rng.choice(vertices)
        x = state.find(zm.zone_of[v])
        color = state.colors[rng.choice(sorted(state.adjacency[x]))]
        state.flood(x, color)
        moves.append(FloodMove(v, color))
    return moves


def _move_lists(g, rng):
    """Optimal, one too long, multi-zone, infeasible, no-op and out-of-range
    move lists on g; on a g with three colors in use the floods reach one
    color.  With at most two in use, `solve`'s moves also with move k on
    another vertex of the flooded zone, on a vertex of a zone k or more steps
    from it, with a color not in use (2), or made a no-op and followed by an
    out-of-range move, and with moves after one zone is left."""
    n, colors = len(g.colors), g.color_count
    lists = [_flood_until_one_zone(g, rng, range(n)), _flood_until_one_zone(g, rng, [rng.randrange(n)])]
    if len(set(g.colors)) <= 2:
        best = list(solve(g).moves)
        last = best[-1].color if best else g.colors[0]
        lists += [best, best + [FloodMove(best[0].vertex if best else 0, 1 - last)], best[:-1], best[1:]]
        if best:
            rg, zm = reduce(g)
            center = zm.zone_of[best[0].vertex]
            dist = metrics._distances(rg.adjacency, center)
            ball = [rg.colors[center]] + [m.color for m in best]  # the flooded zone's color before each move
            k = rng.randrange(len(best))
            head, move, tail = best[:k], best[k], best[k + 1:]
            inside = [v for v in range(n) if dist[zm.zone_of[v]] <= k]
            outside = [v for v in range(n) if dist[zm.zone_of[v]] > k]
            lists += [
                head + [FloodMove(rng.choice(inside), move.color)] + tail,
                head + [FloodMove(move.vertex, 2)] + tail,
                head + [FloodMove(move.vertex, ball[k]), FloodMove(n, 0)],
                best + [FloodMove(rng.randrange(n), ball[-2]), FloodMove(rng.randrange(n), last)],
            ]
            if k and outside:
                lists.append(head + [FloodMove(rng.choice(outside), move.color)] + tail)
    lists += [
        [FloodMove(rng.randrange(n), rng.randrange(colors)) for _ in range(rng.randint(1, 6))],
        [FloodMove(0, g.colors[0])],
        [FloodMove(n, 0)],
        [FloodMove(0, colors)],
    ]
    return lists


@pytest.mark.parametrize("seed", range(40))
def test_verify_agrees_with_the_reference(seed):
    rng = random.Random(seed)
    for g in _seeded_instances(seed):
        rg, zm = reduce(g)
        for moves in _move_lists(g, rng):
            assert outcome(solver._verify_zones, rg, zm, g.color_count, moves) == outcome(
                reference_verify_zones, rg, zm, g.color_count, moves
            )


@pytest.mark.parametrize("seed", range(40))
def test_certificate_agrees_with_the_reference(seed):
    # every zone claimed as the center, with its eccentricity and one off,
    # and the true certificate with its moves (all on the center, as `solve`
    # prints them) cut, extended or recolored
    rng = random.Random(seed)
    for g in list(_seeded_instances(seed))[:2]:
        rg, zm = reduce(g)
        radius, center, _ = metrics._radius_search(rg.adjacency)
        moves = alternating_moves(rg, zm, radius, center)
        rep = zm.representative_of[center]
        claims = certificate_claims(rg, zm) + [
            (radius, center, moves[:-1]),
            (radius, center, moves + moves[-1:]),
            (radius, center, [FloodMove(rep, rng.randrange(3)) for _ in moves]),  # no-op or out of range
            (radius, center, [FloodMove(rep, 1 - m.color) for m in moves]),
        ]
        for claim in claims:
            assert_certificate_agrees(rg, zm, radius, claim)

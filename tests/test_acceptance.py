"""Acceptance suite: the package's exit criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Every criterion is exact (zero tolerance) except the timing smoke test,
which has its stated wall-clock budget and growth allowance.
"""

import random
import time

import pytest

from freeflood import (
    ColoredGraph,
    FloodMove,
    Verdict,
    brute_force_min_moves,
    build,
    check_distance_bounds,
    check_far_witness,
    check_radius_bounds,
    gen_random,
    gen_reduced_corpus,
    grid_graph,
    min_moves,
    parse_grid,
    radius_and_center,
    reduce,
    solve,
    verify_solution,
)
from freeflood.graphs import _ZoneState
from freeflood.instances import GridSpec

from conftest import ACCEPTANCE_SEED as SEED
from conftest import (
    flood_vertices,
    footprint_graph,
    grid_colorings,
    live_footprint_graph,
    small_random_graphs,
)


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail}; seed {SEED})")


@pytest.fixture(scope="module")
def small_random_corpus():
    """>= 500 seeded connected 2-colored graphs with n <= 14: trees and mixes."""
    return small_random_graphs(SEED)


@pytest.fixture(scope="module")
def grid_corpus():
    """All 2-colorings of every grid shape up to 3 rows by 4 columns."""
    return grid_colorings()


@pytest.fixture(scope="module")
def contraction_corpus():
    """>= 200 seeded reduced graphs with up to 50 zones, plus their originals."""
    corpus = list(gen_reduced_corpus(200, SEED + 1, 2, 50))
    assert len(corpus) == 200
    return corpus


def _check_oracle(g):
    """The vertex-level search is exact, and the zone-level one gives its reports."""
    rg = reduce(g)[0]
    assert brute_force_min_moves(g, 5) == brute_force_min_moves(rg, 5)
    report = brute_force_min_moves(g, state_budget=None)
    assert report == brute_force_min_moves(rg, state_budget=None)
    assert report.exhausted
    assert report.optimum == radius_and_center(rg).radius


def test_criterion_1_oracle_equivalence(small_random_corpus, grid_corpus):
    start = time.perf_counter()
    checked = 0
    for g in small_random_corpus:
        _check_oracle(g)
        checked += 1
    for base, colorings in grid_corpus:
        for cells in colorings:
            _check_oracle(ColoredGraph(base.adjacency, cells, 2))
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("1 oracle-equivalence", f"{checked} instances, {elapsed:.1f}s")


def test_criterion_2_contraction_radius_bounds(contraction_corpus):
    zones = 0
    for _, rg in contraction_corpus:
        report = check_radius_bounds(rg)
        assert report.ok, report.counterexample
        zones += report.instances_checked
    _report("2 radius-bounds", f"{len(contraction_corpus)} graphs, {zones} contractions")


def test_criterion_3_contraction_distance_bounds():
    corpus = list(gen_reduced_corpus(100, SEED + 2, 2, 30))
    assert len(corpus) == 100
    triples = 0
    for _, rg in corpus:
        report = check_distance_bounds(rg)
        assert report.ok, report.counterexample
        triples += report.instances_checked
    _report("3 distance-bounds", f"{len(corpus)} graphs, {triples} triples")


def test_criterion_4_far_witness():
    corpus = list(gen_reduced_corpus(100, SEED + 3, 3, 20))
    assert len(corpus) == 100
    paths = 0
    for _, rg in corpus:
        report = check_far_witness(rg)
        assert report.ok, report.counterexample
        assert report.instances_checked > 0
        paths += report.instances_checked
    _report("4 far-witness", f"{len(corpus)} graphs, {paths} (center, far, path) cases")


def test_criterion_5_flood_contract_equivalence():
    rng = random.Random(SEED + 4)
    pairs = 0
    while pairs < 1000:
        n = rng.randint(2, 30)
        slots = n * (n - 1) // 2 - (n - 1)
        g = gen_random(n, min(rng.randint(0, 3), slots), 2, seed=rng.randrange(2**32))
        rg, zm = reduce(g)
        if rg.zone_count < 2:
            continue
        for _ in range(4):
            vertex = rng.randrange(g.vertex_count)
            color = 1 - g.colors[vertex]
            flooded = flood_vertices(g, zm.zone_of, FloodMove(vertex, color))
            via_flood, flood_zm = reduce(flooded)
            contracted = _ZoneState(rg)
            contracted.flood(zm.zone_of[vertex], color)
            assert footprint_graph(via_flood, flood_zm.zone_of) == live_footprint_graph(
                contracted, zm.zone_of
            )
            pairs += 1
    _report("5 flood/contract equivalence", f"{pairs} (graph, move) pairs")


def test_criterion_6_solutions_verify_optimal(
    small_random_corpus, grid_corpus, contraction_corpus
):
    instances = list(small_random_corpus)
    for base, colorings in grid_corpus:
        instances.extend(ColoredGraph(base.adjacency, cells, 2) for cells in colorings)
    instances.extend(g for g, _ in contraction_corpus)
    for g in instances:
        solution = solve(g)
        assert verify_solution(g, solution) is Verdict.OPTIMAL
        assert len(solution.moves) == solution.claimed_optimum == min_moves(g)
    _report("6 solve-then-verify", f"{len(instances)} instances all optimal")


def test_criterion_7_grid_timing():
    timings = {}
    radii = {}
    # best of 3 at every size, so one slow run cannot trip the growth checks
    for grid_size in (16, 32, 64):
        rng = random.Random(SEED + 5 + grid_size)
        cells = tuple(rng.randrange(2) for _ in range(grid_size * grid_size))
        g = grid_graph(GridSpec(grid_size, grid_size, cells))
        assert g.vertex_count == grid_size * grid_size
        best = None
        for _ in range(3):
            start = time.perf_counter()
            solution = solve(g)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        timings[grid_size] = best
        radii[grid_size] = solution.claimed_optimum
    assert timings[64] < 10.0
    # quartic growth sanity check with a 3x allowance
    assert timings[64] <= 3.0 * timings[16] * (64 / 16) ** 4
    assert timings[64] <= 3.0 * timings[32] * (64 / 32) ** 4
    detail = ", ".join(
        f"N={s}: {timings[s] * 1000:.0f}ms radius {radii[s]}" for s in (16, 32, 64)
    )
    _report("7 timing", detail)


def test_criterion_8_fixed_answers():
    fixed = []

    mono = build([(0, 1), (1, 2), (0, 2)], [1, 1, 1], color_count=2)
    fixed.append((mono, 0))
    fixed.append((parse_grid("000\n000\n"), 0))

    star = build([(0, 1), (0, 2), (0, 3), (0, 4)], [0, 1, 1, 1, 1])
    fixed.append((star, 1))

    fixed.append((parse_grid("01\n10\n"), 2))

    p5 = build([(0, 1), (1, 2), (2, 3), (3, 4)], [0, 1, 0, 1, 0])
    fixed.append((p5, 2))

    for g, expected in fixed:
        assert min_moves(g) == expected
        assert brute_force_min_moves(g).optimum == expected
    _report("8 fixed answers", f"{len(fixed)} pinned instances")

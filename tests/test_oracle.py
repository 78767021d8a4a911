"""Exhaustive search and the three contraction property checkers."""

import itertools

import pytest
from hypothesis import given, settings

from freeflood import (
    ColoredGraph,
    Counterexample,
    DisconnectedGraph,
    FloodMove,
    ImproperColoring,
    InstanceTooLarge,
    LemmaReport,
    ReducedGraph,
    TooManyColors,
    brute_force_min_moves,
    build,
    check_distance_bounds,
    check_far_witness,
    check_radius_bounds,
    gen_reduced_corpus,
    metrics,
    oracle,
    parse_grid,
    reduce,
)
from freeflood.graphs import _ZoneState
from freeflood.oracle import _contractions, _shortest_paths
from freeflood.metrics import Metrics, _distances, _eccentricities

from conftest import (
    _has_path_through,
    bytes_state_search,
    colored_graphs,
    eccentricities_by_sweep,
    floyd_warshall,
    flood_vertices,
    outcome,
    reference_check_far_witness,
    small_random_graphs,
)


def checkerboard():
    return parse_grid("01\n10\n")


def reduced(edges, colors):
    return reduce(build(edges, colors))[0]


PATH5 = [(0, 1), (1, 2), (2, 3), (3, 4)]
CYCLE4 = [(0, 1), (1, 2), (2, 3), (0, 3)]


def claim_radius_one_too_high(monkeypatch):
    """Make the oracle's radius R+1, with every zone of eccentricity at most R+1 central."""
    real = oracle.radius_and_center

    def one_too_high(rg):
        met = real(rg)
        radius = met.radius + 1
        center = tuple(z for z, e in enumerate(met.eccentricity) if e <= radius)
        return Metrics(met.eccentricity, radius, center)

    monkeypatch.setattr(oracle, "radius_and_center", one_too_high)


def claim_radius_one_too_low(monkeypatch):
    """Make the oracle's radius R-1, with the true center."""
    real = oracle.radius_and_center

    def one_too_low(rg):
        met = real(rg)
        return met._replace(radius=met.radius - 1)

    monkeypatch.setattr(oracle, "radius_and_center", one_too_low)


def claim_every_zone_central(monkeypatch):
    """Make the oracle's center every zone, at the true radius."""
    real = oracle.radius_and_center
    monkeypatch.setattr(
        oracle, "radius_and_center", lambda rg: real(rg)._replace(center=tuple(range(rg.zone_count)))
    )


def shift_eccentricities(monkeypatch, module):
    """Move about one eccentricity in four of `module`'s ball growth down or up by one.

    Whether and how far a zone's eccentricity moves depends only on the live
    zones and the zone, so the engine and its sweep reference see the same
    faults; the pairs come out sorted again.
    """
    real = module._eccentricities

    def shifted(adjacency):
        live = tuple([z for z, row in enumerate(adjacency) if row is not None])
        pairs = []
        for ecc, z in real(adjacency):
            h = hash((live, z)) % 8
            pairs.append((ecc + (h == 0) - (h == 1), z))
        return iter(sorted(pairs))

    monkeypatch.setattr(module, "_eccentricities", shifted)


class TestBruteForce:
    def test_monochromatic(self):
        g = build([(0, 1), (1, 2)], [0, 0, 0], color_count=2)
        report = brute_force_min_moves(g)
        assert report.optimum == 0
        assert report.states_explored == 1
        assert report.exhausted

    def test_checkerboard_by_hand(self):
        # every single flood leaves the opposite corner behind, so 1 move
        # never finishes; two moves do
        g = checkerboard()
        _, zm = reduce(g)
        for vertex in range(4):
            color = 1 - g.colors[vertex]
            flooded = flood_vertices(g, zm.zone_of, FloodMove(vertex, color))
            assert len(set(flooded.colors)) == 2
        report = brute_force_min_moves(g)
        assert report.optimum == 2
        assert report.exhausted

    def test_alternating_path(self):
        g = build(PATH5, [0, 1, 0, 1, 0])
        assert brute_force_min_moves(g).optimum == 2

    def test_budget_fallback_upper_bound(self):
        g = checkerboard()
        report = brute_force_min_moves(g, state_budget=2)
        assert not report.exhausted
        assert report.optimum == 2  # flooding vertex 0's zone twice leaves one zone
        assert report.states_explored == 2

    @given(colored_graphs(max_vertices=9, max_extra=4))
    @settings(max_examples=80)
    def test_budget_fallback_lies_between_the_optimum_and_the_zone_count(self, g):
        rg = reduce(g)[0]
        exact = brute_force_min_moves(g, state_budget=None)
        for budget in (1, 2, 5):
            report = brute_force_min_moves(g, state_budget=budget)
            if report.exhausted:
                assert report == exact
            else:
                assert exact.optimum <= report.optimum <= rg.zone_count - 1
                assert report.optimum == max(_distances(rg.adjacency, 0))  # zone 0 holds vertex 0

    def test_three_colors_rejected(self):
        with pytest.raises(TooManyColors):
            brute_force_min_moves(build([(0, 1), (1, 2)], [0, 1, 2]))

    def test_colors_above_255_give_the_report_of_colors_0_and_1(self):
        # a state is a bit set over the vertices, whatever the two colors are
        edges = [(0, 1), (1, 2), (2, 3)]
        for budget in (None, 1):
            report = brute_force_min_moves(build(edges, [0, 256, 0, 0]), budget)
            assert report == brute_force_min_moves(build(edges, [0, 1, 0, 0]), budget)
            assert report.exhausted is (budget is None)

    @given(colored_graphs(max_vertices=9))
    @settings(max_examples=50)
    def test_color_swap_invariance(self, g):
        report = brute_force_min_moves(g)
        swapped = build(
            [(u, w) for u, row in enumerate(g.adjacency) for w in row if u < w],
            [1 - c for c in g.colors],
            2,
        )
        assert brute_force_min_moves(swapped).optimum == report.optimum

    @pytest.mark.parametrize("budget, states", [(None, 3626), (5, 1698)])
    def test_states_explored_pinned_on_the_acceptance_graphs(self, budget, states):
        # the breadth-first order fixes how many states a search stores before
        # it stops, whether at a monochromatic state or at the budget
        reports = [brute_force_min_moves(g, state_budget=budget) for g in small_random_graphs()]
        assert sum(r.states_explored for r in reports) == states


class TestRadiusBounds:
    def test_star_hub(self):
        rg = reduced([(0, 1), (0, 2), (0, 3)], [0, 1, 1, 1])
        report = check_radius_bounds(rg)
        assert report.ok
        assert report.instances_checked == rg.zone_count

    def test_path_and_cycle(self):
        assert check_radius_bounds(reduced(PATH5, [0, 1, 0, 1, 0])).ok
        assert check_radius_bounds(reduced(CYCLE4, [0, 1, 0, 1])).ok

    def test_singleton_vacuous(self):
        report = check_radius_bounds(reduced([], [0]))
        assert report.ok
        assert report.instances_checked == 0

    def test_disconnected_zone_graph_rejected(self):
        # the domain check turns two components away before any contraction
        two_edges = ReducedGraph(((1,), (0,), (3,), (2,)), (0, 1, 0, 1))
        with pytest.raises(DisconnectedGraph, match="^only 2 of 4 vertices reachable from vertex 0$"):
            check_radius_bounds(two_edges)

    def test_radius_claimed_one_too_high_is_refuted(self, monkeypatch):
        # R = 3 claimed on a five-zone path of radius 2: contracting zone 1
        # leaves a three-zone path of radius 1, below R-1
        claim_radius_one_too_high(monkeypatch)
        report = check_radius_bounds(reduced(PATH5, [0, 1, 0, 1, 0]))
        assert report.instances_checked == 2
        assert report.counterexample.detail == "contracted radius outside [R-1, R]"
        assert report.counterexample.witness == {"zone": 1, "radius": 3, "contracted_radius": 1}

    def test_end_zone_claimed_central_is_refuted(self, monkeypatch):
        # every zone of a five-zone path claimed central at its radius 2:
        # contracting end zone 0 leaves a four-zone path, still of radius 2
        claim_every_zone_central(monkeypatch)
        report = check_radius_bounds(reduced(PATH5, [0, 1, 0, 1, 0]))
        assert report.instances_checked == 1
        assert report.counterexample.detail == "contracting a center zone must drop the radius by 1"
        assert report.counterexample.witness == {"zone": 0, "radius": 2, "contracted_radius": 2}


def bit_set_agreement_graphs():
    """Vertex and zone graphs of the seeded corpora the bit-set paths are checked on."""
    graphs = small_random_graphs()
    for seed in (21, 22, 23):
        for g, rg in gen_reduced_corpus(60, seed, 20, 2, 20):
            graphs += [g, rg]
    return graphs


AGREEMENT_BUDGETS = [None, 1, 2, 5, 50]


def contracted_radii_agree(rg):
    """Assert that ball growth gives the sweep's eccentricities on rg and on every
    contraction of it, None rows included; return how many contractions there were."""
    assert list(_eccentricities(rg.adjacency)) == list(eccentricities_by_sweep(rg.adjacency))
    if rg.zone_count < 2:
        return 0
    count = 0
    for _, state in _contractions(rg):
        assert list(_eccentricities(state.adjacency)) == list(eccentricities_by_sweep(state.adjacency))
        count += 1
    return count


# a radius claimed wrong, and eccentricities shifted in the contracted zone
# states or everywhere; every one refutes some graph of the corpus
RADIUS_FAULTS = {
    "true radius": lambda monkeypatch: None,
    "radius one too high": claim_radius_one_too_high,
    "radius one too low": claim_radius_one_too_low,
    "every zone central": claim_every_zone_central,
    "contracted eccentricities shifted": lambda monkeypatch: shift_eccentricities(monkeypatch, oracle),
    "eccentricities shifted everywhere": lambda monkeypatch: [
        shift_eccentricities(monkeypatch, module) for module in (metrics, oracle)
    ],
}


class TestBitSetAgreement:
    """The bit-set search and ball growth agree exactly with the byte-state and sweep references."""

    @pytest.mark.parametrize("budget", AGREEMENT_BUDGETS)
    def test_reports_match_the_bytes_search_on_the_corpora(self, budget):
        reports = []
        for g in bit_set_agreement_graphs():
            report = brute_force_min_moves(g, state_budget=budget)
            assert report == bytes_state_search(g, budget)
            reports.append(report)
        assert any(r.exhausted for r in reports)
        assert budget is None or not all(r.exhausted for r in reports)

    @given(colored_graphs(max_vertices=12, max_extra=5))
    @settings(max_examples=100)
    def test_reports_match_the_bytes_search_on_vertex_graphs(self, g):
        for budget in AGREEMENT_BUDGETS:
            assert brute_force_min_moves(g, state_budget=budget) == bytes_state_search(g, budget)

    def test_contracted_radii_match_the_sweep_on_the_corpora(self):
        graphs = bit_set_agreement_graphs()
        contractions = sum(
            contracted_radii_agree(reduce(g)[0]) for g in graphs if isinstance(g, ColoredGraph)
        )
        assert contractions > 3_000

    @given(colored_graphs(max_vertices=12, max_extra=5))
    @settings(max_examples=100)
    def test_contracted_radii_match_the_sweep_on_vertex_graphs(self, g):
        contracted_radii_agree(reduce(g)[0])

    @pytest.mark.parametrize("fault", RADIUS_FAULTS)
    def test_radius_bounds_reports_match_the_sweep(self, fault):
        # ball growth, then the sweep, in `radius_and_center` and in the
        # contracted radii, with the fault wrapped around each
        corpus = [rg for _, rg in gen_reduced_corpus(100, 24, 30, 2, 30)]
        reports = []
        for engine in (metrics._eccentricities, eccentricities_by_sweep):
            with pytest.MonkeyPatch.context() as monkeypatch:
                monkeypatch.setattr(metrics, "_eccentricities", engine)
                monkeypatch.setattr(oracle, "_eccentricities", engine)
                RADIUS_FAULTS[fault](monkeypatch)
                reports.append([(outcome(check_radius_bounds, rg), outcome(check_far_witness, rg))
                                for rg in corpus])
        assert reports[0] == reports[1]
        radius_bounds = [report for report, _ in reports[0]]
        if fault in ("true radius", "radius one too high"):
            # contracting a center gives R-1, below a claimed R+1 less one:
            # a radius one too high refutes every graph
            assert all(kind == "ok" and report.ok is (fault == "true radius")
                       for kind, report in radius_bounds)
        else:
            assert any(kind == "ok" and not report.ok for kind, report in radius_bounds)


class TestDistanceBounds:
    def test_path_tight_drop(self):
        # contracting the middle zone shortens the end-to-end path from 4 to 2;
        # the live rows keep the original zone ids
        rg = reduced(PATH5, [0, 1, 0, 1, 0])
        contracted = _ZoneState(rg)
        contracted.flood(2, 1)
        d_before = _distances(rg.adjacency, 0)[4]
        d_after = _distances(contracted.adjacency, 0)[4]
        assert (d_before, d_after) == (4, 2)
        assert check_distance_bounds(rg).ok

    def test_four_cycle(self):
        assert check_distance_bounds(reduced(CYCLE4, [0, 1, 0, 1])).ok

    def test_tiny_graphs_vacuous(self):
        assert check_distance_bounds(reduced([], [0])).instances_checked == 0
        assert check_distance_bounds(reduced([(0, 1)], [0, 1])).ok

    def test_size_guard(self):
        g = build([(i, i + 1) for i in range(31)], [i % 2 for i in range(32)])
        with pytest.raises(InstanceTooLarge):
            check_distance_bounds(reduce(g)[0])


def distance_bounds_searching_every_pair(rg):
    """The reference for `check_distance_bounds`, with a path search in place of parity.

    Every pair that reaches the last test runs `_has_path_through`, whatever
    d(a,x) + d(x,b) is; contracted rows come from `oracle._distances`, so a
    fault patched in there reaches this copy and the checker alike.
    """
    n = rg.zone_count
    if n < 2:
        return LemmaReport("distance-bounds", 0)
    dist = [oracle._distances(rg.adjacency, s) for s in range(n)]
    checked = 0
    oracle._two_color_domain(rg)
    for x, state in _contractions(rg):
        adjacency = state.adjacency
        survivors = [v for v in range(n) if adjacency[v] is not None]
        for i, a in enumerate(survivors):
            row_a = oracle._distances(adjacency, a)
            for b in survivors[i + 1 :]:
                d = dist[a][b]
                dx = row_a[b]
                checked += 1
                if dx > d:
                    detail = "contraction increased a distance"
                elif dist[a][x] + dist[x][b] == d:
                    detail = "distance below d-2 with x on a shortest path" if dx < d - 2 else None
                elif dx < d - 1:
                    detail = "distance below d-1 with x off all shortest paths"
                elif (dx == d - 1) != _has_path_through(rg.adjacency, dist, a, b, x, d + 1):
                    detail = "equality must coincide with a length d+1 path through x"
                else:
                    detail = None
                if detail is not None:
                    witness = {"a": a, "b": b, "x": x, "d": d, "d_contracted": dx}
                    return LemmaReport("distance-bounds", checked, Counterexample(rg, witness, detail))
    return LemmaReport("distance-bounds", checked)


def inject_row_faults(monkeypatch, seed, one_in):
    """Shift about one contracted distance in `one_in` by -2, -1 or +1.

    Whether and how far an entry moves depends only on the seed, the
    contracted graph's absorbed zones, the source and the target, so two
    checkers that read the same rows in different orders, or read a row the
    other skips, see the same faults.  Rows of a graph with no absorbed zone
    (the input zone graph, whose distances the checkers read through the
    same `oracle._distances`) are left alone, so the faults stay in the
    contracted rows.
    """
    real = oracle._distances

    def faulty(adjacency, source):
        row = real(adjacency, source)
        absorbed = tuple(v for v, r in enumerate(adjacency) if r is None)
        if not absorbed:
            return row
        for b in range(len(row)):
            h = hash((seed, absorbed, source, b))
            if h % one_in == 0:
                row[b] += (-2, -1, 1)[h // one_in % 3]
        return row

    monkeypatch.setattr(oracle, "_distances", faulty)


AGREEMENT_CORPORA = [(600, 11, 20, 3, 20), (300, 12, 30, 2, 30)]


class TestDistanceBoundsGate:
    """Reading the length-(d+1) condition off parity changes no report."""

    @pytest.mark.parametrize("corpus", AGREEMENT_CORPORA, ids=str)
    def test_reports_match_the_ungated_loop(self, corpus):
        checked = 0
        for _, rg in gen_reduced_corpus(*corpus):
            report = check_distance_bounds(rg)
            assert report.ok
            assert report == distance_bounds_searching_every_pair(rg)
            checked += report.instances_checked
        assert checked > 100_000

    @pytest.mark.parametrize("corpus", AGREEMENT_CORPORA, ids=str)
    def test_reports_match_the_ungated_loop_under_faults(self, corpus, monkeypatch):
        inject_row_faults(monkeypatch, corpus[1], 997)
        details = set()
        for _, rg in gen_reduced_corpus(*corpus):
            report = check_distance_bounds(rg)
            reference = distance_bounds_searching_every_pair(rg)
            assert (report.lemma, report.instances_checked, report.ok) == (
                reference.lemma, reference.instances_checked, reference.ok
            )
            if not report.ok:
                got, want = report.counterexample, reference.counterexample
                assert (got.detail, got.witness) == (want.detail, want.witness)
                details.add(got.detail)
        assert details == {
            "contraction increased a distance",
            "distance below d-2 with x on a shortest path",
            "distance below d-1 with x off all shortest paths",
            "equality must coincide with a length d+1 path through x",
        }

    # raw adjacency, not zone graphs: odd cycles make walks of either parity
    GATE_GRAPHS = {
        "triangle": [(0, 1), (1, 2), (0, 2)],
        "five-cycle": [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
        "triangle with pendant paths": [
            (0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (1, 5), (2, 6), (6, 7)
        ],
        "two triangles on a path": [
            (0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6)
        ],
        "wheel": [(0, v) for v in range(1, 6)] + [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)],
        "six-cycle with chord": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)],
    }

    @pytest.mark.parametrize("edges", GATE_GRAPHS.values(), ids=GATE_GRAPHS)
    def test_no_path_through_x_shorter_than_the_distance_sum(self, edges):
        n = max(max(e) for e in edges) + 1
        adjacency = [[] for _ in range(n)]
        for u, v in edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        dist = floyd_warshall(adjacency)
        found = 0
        for a, b, x in itertools.product(range(n), repeat=3):
            for length in range(n + 1):
                hit = _has_path_through(adjacency, dist, a, b, x, length)
                if dist[a][x] + dist[x][b] > length:
                    assert not hit, (a, b, x, length)
                found += hit
        assert found > 0


DOMAIN_CHECKERS = pytest.mark.parametrize(
    "check", [check_radius_bounds, check_distance_bounds, check_far_witness], ids=lambda f: f.__name__
)


# the graphs `freeflood check --seed S` gives its distance-bounds and
# far-witness suites, for S = 0, 1, 2
CHECK_CORPORA = [(40, seed + 1, 30, 2, 30) for seed in range(3)] + [
    (40, seed + 2, 20, 3, 20) for seed in range(3)
]
# each checker with its reference and its corpora: `TestDistanceBoundsGate`
# already runs the distance-bounds pair on AGREEMENT_CORPORA, clean and under
# row faults, and a claimed radius never reaches that checker
REFERENCES = {
    check_distance_bounds: (distance_bounds_searching_every_pair, CHECK_CORPORA),
    check_far_witness: (reference_check_far_witness, AGREEMENT_CORPORA + CHECK_CORPORA),
}
FAULTS = {
    "clean": lambda monkeypatch: None,
    "row faults": lambda monkeypatch: inject_row_faults(monkeypatch, 11, 997),
    "radius one too high": claim_radius_one_too_high,
}


class TestReferenceAgreement:
    """Both path checkers give the reports of the path-searching references
    they replace: the same report, or the same error class and message."""

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("check", REFERENCES, ids=lambda f: f.__name__)
    def test_reports_match_the_reference(self, check, fault, monkeypatch):
        reference, corpora = REFERENCES[check]
        FAULTS[fault](monkeypatch)
        refuted = 0
        for corpus in corpora:
            for _, rg in gen_reduced_corpus(*corpus):
                got = outcome(check, rg)
                assert got == outcome(reference, rg)
                refuted += got[0] == "ok" and not got[1].ok
        # row faults reach only the contracted rows, a claimed radius only far-witness
        hits = {(check_distance_bounds, "row faults"), (check_far_witness, "radius one too high")}
        assert (refuted > 0) is ((check, fault) in hits)


class TestContractionPalette:
    """All three checkers take the paper's domain, the connected zone graph of a
    proper two-coloring, and the contraction checkers flood each zone with the
    other color of the palette in use.  The graphs turned away have at least
    three zones, since far-witness skips two."""

    @DOMAIN_CHECKERS
    def test_three_colors_rejected(self, check):
        with pytest.raises(TooManyColors, match="3 colors in use; freeflood handles two"):
            check(reduced([(0, 1), (1, 2)], [0, 1, 2]))

    @DOMAIN_CHECKERS
    def test_one_color_on_two_zones_rejected(self, check):
        with pytest.raises(ImproperColoring, match="with two or more zones uses two colors"):
            check(ReducedGraph(((1,), (0, 2), (1,)), (0, 0, 0)))

    @DOMAIN_CHECKERS
    def test_improper_two_colors_rejected(self, check):
        with pytest.raises(ImproperColoring, match="^adjacent zones 1 and 2 share color 1$"):
            check(ReducedGraph(((1,), (0, 2), (1,)), (0, 1, 1)))

    @DOMAIN_CHECKERS
    def test_disconnected_rejected(self, check):
        # a path of three zones and an edge: unchecked, far-witness would
        # read the distances of -1 across the gap as no witness
        path_and_edge = ReducedGraph(((1,), (0, 2), (1,), (4,), (3,)), (0, 1, 0, 1, 0))
        with pytest.raises(DisconnectedGraph, match="^only 3 of 5 vertices reachable from vertex 0$"):
            check(path_and_edge)

    @DOMAIN_CHECKERS
    def test_any_two_colors_give_the_same_report(self, check):
        # colors {3, 5}: flooding with `1 - color` would absorb no neighbor
        for _, rg in gen_reduced_corpus(30, 5, 20, 4, 20):
            report = check(rg)
            assert report.ok and report.instances_checked > 0
            assert check(ReducedGraph(rg.adjacency, tuple(5 if c else 3 for c in rg.colors))) == report


class TestFarWitness:
    def test_shortest_paths_in_order_under_the_cap(self, monkeypatch):
        # two diamonds in a row: four shortest 0-6 paths, listed by their
        # predecessors in ascending order, last step first
        rg = reduced(
            [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)], [0, 1, 1, 0, 1, 1, 0]
        )
        dist = _distances(rg.adjacency, 0)
        monkeypatch.setattr(oracle, "FAR_WITNESS_PATH_CAP", 4)
        assert _shortest_paths(rg.adjacency, dist, 6, {}) == (
            (0, 1, 3, 4, 6), (0, 2, 3, 4, 6), (0, 1, 3, 5, 6), (0, 2, 3, 5, 6)
        )
        monkeypatch.setattr(oracle, "FAR_WITNESS_PATH_CAP", 3)
        with pytest.raises(InstanceTooLarge, match="shortest-path enumeration budget exceeded"):
            _shortest_paths(rg.adjacency, dist, 6, {})

    def test_four_cycle_other_side(self):
        assert check_far_witness(reduced(CYCLE4, [0, 1, 0, 1])).ok

    def test_three_path_opposite_end(self):
        report = check_far_witness(reduced([(0, 1), (1, 2)], [0, 1, 0]))
        assert report.ok
        assert report.instances_checked > 0

    def test_two_zones_skipped(self):
        report = check_far_witness(reduced([(0, 1)], [0, 1]))
        assert report.ok
        assert report.instances_checked == 0

    def test_size_guard(self):
        g = build([(i, i + 1) for i in range(21)], [i % 2 for i in range(22)])
        with pytest.raises(InstanceTooLarge):
            check_far_witness(reduce(g)[0])

    # with the radius claimed one too high, the checker must refute the
    # claim (or find no zone that far); these reports are pinned exactly
    @pytest.mark.parametrize(
        "index, checked, witness",
        [
            (0, 1, {"center": 0, "far": 8, "path": (0, 1, 4, 6, 8)}),
            (2, 1, {"center": 0, "far": 3, "path": (0, 4, 2, 3)}),
            (9, 8, {"center": 1, "far": 9, "path": (1, 4, 5, 6, 7, 9)}),
            (34, 0, None),
            (39, 2, {"center": 0, "far": 3, "path": (0, 2, 6, 3)}),
        ],
    )
    def test_radius_one_too_high_is_refuted(self, index, checked, witness, monkeypatch):
        rg = list(gen_reduced_corpus(40, 11, 20, 3, 20))[index][1]
        assert check_far_witness(rg).ok
        claim_radius_one_too_high(monkeypatch)
        report = check_far_witness(rg)
        assert report.instances_checked == checked
        if witness is None:
            assert report.ok
        else:
            assert report.counterexample.detail == "no witness with disjoint shortest paths"
            assert report.counterexample.witness == witness

    def test_the_refinement_triangle_is_rejected(self, monkeypatch):
        # the refinement asks for a c-z0 path one edge longer than a shortest
        # one; a two-color zone graph is bipartite and has none, a triangle
        # does, and only three colors give a zone graph one: the reference
        # refutes the claim on it, the checker turns it away
        rg = reduced([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], [1, 0, 2, 2])
        assert rg.zone_count == 4
        with pytest.raises(TooManyColors, match="3 colors in use; freeflood handles two"):
            check_far_witness(rg)
        claim_radius_one_too_high(monkeypatch)
        report = reference_check_far_witness(rg)
        assert report.instances_checked == 1
        assert report.counterexample.detail == (
            "every witness at R-1 has an intersecting length-R path"
        )
        assert report.counterexample.witness == {
            "center": 2, "far": 3, "path": (2, 0, 3), "witnesses": (1,)
        }


class TestPathEnumeration:
    def test_exact_length_paths_on_cycle(self):
        rg = reduced(CYCLE4, [0, 1, 0, 1])
        dist = [_distances(rg.adjacency, s) for s in range(4)]
        # 0 -> 2: the two arcs, both of length 2, one through 1 and one through 3
        assert _has_path_through(rg.adjacency, dist, 0, 2, 1, 2)
        assert _has_path_through(rg.adjacency, dist, 0, 2, 3, 2)
        # no simple length-2 path between adjacent cycle vertices, through any zone
        assert not any(_has_path_through(rg.adjacency, dist, 0, 1, x, 2) for x in range(4))

    def test_through_vertex_detection(self):
        rg = reduced(PATH5, [0, 1, 0, 1, 0])
        dist = [_distances(rg.adjacency, s) for s in range(5)]
        assert _has_path_through(rg.adjacency, dist, 0, 4, 2, 4)
        assert not _has_path_through(rg.adjacency, dist, 0, 4, 2, 5)
        rg2 = reduced(CYCLE4, [0, 1, 0, 1])
        dist2 = [_distances(rg2.adjacency, s) for s in range(4)]
        # adjacent pair 0-3: the length-3 detour runs through both 1 and 2
        assert _has_path_through(rg2.adjacency, dist2, 0, 3, 1, 3)
        assert not _has_path_through(rg2.adjacency, dist2, 0, 3, 1, 2)

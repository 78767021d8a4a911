"""Command-line surface: output shapes, pipelines, and exit codes."""

import argparse
import contextlib
import functools
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeflood import (
    InvariantViolation,
    emit_graph,
    emit_grid,
    gen_random,
    graphs,
    grid_graph,
    instance_digest,
    instances,
    metrics,
    oracle,
    parse_graph,
    parse_grid_spec,
    parse_moves,
    reduce,
    solver,
)
from freeflood.instances import GridSpec, _grid_zones
from freeflood.metrics import _radius_search
from freeflood import cli
from freeflood.cli import (
    EXIT_COUNTEREXAMPLE,
    EXIT_DOMAIN,
    EXIT_FILE,
    EXIT_INFEASIBLE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SUBOPTIMAL,
    EXIT_USAGE,
    main,
)

from conftest import (
    claim_on_the_input,
    colored_graphs,
    reference_radius_and_center,
    reference_reduce,
    spider,
)

CHECKERBOARD = "01\n10\n"


@pytest.fixture
def board(tmp_path):
    path = tmp_path / "board.grid"
    path.write_text(CHECKERBOARD)
    return str(path)


def test_solve_plain(board, capsys):
    assert main(["solve", board]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "optimum 2"
    assert len(lines) == 3
    assert all(line.startswith("move ") for line in lines[1:])


def test_solve_machine_matches_plain(board, capsys):
    assert main(["solve", board]) == EXIT_OK
    plain = capsys.readouterr().out.splitlines()
    plain_moves = [[int(p) for p in line.split()[1:]] for line in plain[1:]]
    assert main(["solve", board, "--format", "machine"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["optimum"] == 2
    assert doc["moves"] == plain_moves
    assert doc["n"] == 4 and doc["m"] == 4
    assert "digest" in doc and "timings" in doc


def test_solve_machine_stage_timings(board, tmp_path, capsys):
    # only --moves-out adds `write_ms`: the time writing the move file took
    stages = {"load_ms", "parse_ms", "zones_ms", "solve_ms", "digest_ms"}
    for extra, keys in (([], stages), (["--moves-out", str(tmp_path / "out.moves")], stages | {"write_ms"})):
        assert main(["solve", board, "--format", "machine", *extra]) == EXIT_OK
        timings = json.loads(capsys.readouterr().out)["timings"]
        assert set(timings) == keys
        assert all(isinstance(ms, float) and ms >= 0.0 for ms in timings.values())
        # loading is parsing then labeling or reducing, each timed from the
        # clock reading where the one before it stopped
        assert timings["parse_ms"] + timings["zones_ms"] == pytest.approx(timings["load_ms"])


def test_solve_machine_work_counters(tmp_path, capsys):
    # zones, zone edges and radius searches are fixed by the instance: the
    # same on every run and the same for a grid and its graph-file twin
    assert main(["gen", "--grid", "40x40", "--seed", "3", "-o", str(tmp_path / "a.grid")]) == EXIT_OK
    spec = parse_grid_spec((tmp_path / "a.grid").read_text())
    (tmp_path / "a.graph").write_text(emit_graph(grid_graph(spec)))
    rg, _ = _grid_zones(spec)
    expected = {"zones": rg.zone_count, "zone_edges": rg.edge_count,
                "searches": _radius_search(rg.adjacency)[2]}
    assert expected["zones"] > 200 and 0 < expected["searches"] <= 16
    for path in ("a.grid", "a.grid", "a.graph"):
        assert main(["solve", str(tmp_path / path), "--format", "machine"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert {key: doc[key] for key in expected} == expected


def test_solve_machine_counts_certificate_searches(tmp_path, capsys, monkeypatch):
    # only --validate adds the key: the searches the certificate ran, each
    # one breadth-first search, all of them the target search's on the input
    # (4 here, with 4 moves: the count does not grow with the moves)
    path = str(tmp_path / "a.grid")
    assert main(["gen", "--grid", "24x24", "--seed", "5", "-o", path]) == EXIT_OK
    assert main(["solve", path, "--format", "machine"]) == EXIT_OK
    assert "certificate_searches" not in json.loads(capsys.readouterr().out)
    calls = []
    real = metrics._distances

    def distances(adjacency, source):
        calls.append(source)
        return real(adjacency, source)

    monkeypatch.setattr(metrics, "_distances", distances)
    monkeypatch.setattr(solver, "_distances", distances)
    assert main(["solve", path, "--format", "machine", "--validate"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert list(doc)[-2:] == ["timings", "certificate_searches"]
    assert doc["certificate_searches"] == len(calls) - doc["searches"] == 4
    rg, _ = _grid_zones(parse_grid_spec(Path(path).read_text()))
    center = _radius_search(rg.adjacency)[1]
    assert _radius_search(rg.adjacency, center, real(rg.adjacency, center), doc["optimum"])[2] == 4


def test_solve_verify_pipeline(board, tmp_path, capsys):
    moves = tmp_path / "out.moves"
    assert main(["solve", board, "--validate", "--moves-out", str(moves)]) == EXIT_OK
    capsys.readouterr()
    assert len(parse_moves(moves.read_text())) == 2
    assert main(["verify", board, str(moves)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "verdict optimal"


# what `solve` writes for CHECKERBOARD: flood zone 0 twice
CHECKERBOARD_MOVES = "0 1\n0 0\n"


@pytest.mark.parametrize("old", ["", "9 9\n", "9 9\n9 9\n", "9 9\n" * 1000],
                         ids=["empty", "shorter", "same-length", "longer"])
def test_moves_out_overwrites_in_place(board, tmp_path, capsys, old):
    # the file keeps its inode and mode and ends holding exactly the moves,
    # whatever it held before
    moves = tmp_path / "out.moves"
    moves.write_text(old)
    moves.chmod(0o640)
    before = os.stat(moves)
    assert main(["solve", board, "--moves-out", str(moves)]) == EXIT_OK
    capsys.readouterr()
    after = os.stat(moves)
    assert moves.read_bytes() == CHECKERBOARD_MOVES.encode()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)


def test_moves_out_creates_a_missing_file(board, tmp_path, capsys):
    moves = tmp_path / "new.moves"
    assert main(["solve", board, "--moves-out", str(moves)]) == EXIT_OK
    capsys.readouterr()
    assert moves.read_bytes() == CHECKERBOARD_MOVES.encode()
    # created as open(path, "w") creates a file: 0o666 less the umask
    umask = os.umask(0)
    os.umask(umask)
    assert os.stat(moves).st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_moves_out_to_a_device_gets_no_cut(board, capsys):
    # ftruncate on /dev/null fails with EINVAL: a device takes the write only
    assert _run(["solve", board, "--moves-out", "/dev/null"], capsys) == (
        EXIT_OK, "optimum 2\nmove 0 1\nmove 0 0\n", "")


def test_output_to_a_directory_is_a_file_error(board, tmp_path, capsys):
    # the same diagnostic as open(path, "w") gives
    with pytest.raises(OSError) as opened:
        open(tmp_path, "w", encoding="utf-8")
    expected = (EXIT_FILE, "", f"error: {opened.value}\n")
    assert _run(["solve", board, "--moves-out", str(tmp_path)], capsys) == expected
    assert _run(["gen", "-o", str(tmp_path)], capsys) == expected


def test_gen_output_over_a_longer_file(tmp_path, capsys):
    argv = ["gen", "--grid", "6x7", "--color-count", "3", "--seed", "4"]
    assert main(argv) == EXIT_OK
    printed = capsys.readouterr().out
    path = tmp_path / "a.grid"
    path.write_text("9" * 10 * len(printed))
    inode = os.stat(path).st_ino
    assert main([*argv, "-o", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert path.read_bytes() == printed.encode()
    assert os.stat(path).st_ino == inode


def test_verify_suboptimal_and_infeasible(board, tmp_path, capsys):
    longer = tmp_path / "long.moves"
    longer.write_text("0 1\n0 0\n0 1\n")
    assert main(["verify", board, str(longer)]) == EXIT_SUBOPTIMAL
    assert "feasible_suboptimal" in capsys.readouterr().out
    short = tmp_path / "short.moves"
    short.write_text("0 1\n")
    assert main(["verify", board, str(short)]) == EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().out


@pytest.mark.parametrize("shape", [["--grid", "14x17"], ["--n", "80", "--extra-edges", "40"]],
                         ids=["grid", "graph"])
def test_verify_decides_solved_moves_from_one_search(shape, tmp_path, capsys, monkeypatch):
    # `solve`'s moves flood one zone, so `verify` runs one search from that
    # zone and the target search seeded with it, and floods nothing; a move
    # off that zone sends the list to the replay, which no search precedes
    instance, solved = tmp_path / "instance", tmp_path / "solved.moves"
    assert main(["gen", *shape, "--seed", "5", "-o", str(instance)]) == EXIT_OK
    assert main(["solve", str(instance), "--moves-out", str(solved)]) == EXIT_OK
    capsys.readouterr()
    rg, zm, _, _ = cli._load_instance(str(instance))
    moves = parse_moves(solved.read_text())
    center = zm.zone_of[moves[0].vertex]
    dist = metrics._distances(rg.adjacency, center)
    assert len(moves) == max(dist) >= 2
    calls, floods = [], []
    real_distances, real_search, real_flood = solver._distances, solver._radius_search, graphs._ZoneState.flood

    def distances(adjacency, source):
        calls.append(("search", source))
        return real_distances(adjacency, source)

    def target_search(adjacency, start=0, dist=None, target=None):
        calls.append(("target search", start, target))
        return real_search(adjacency, start, dist, target)

    def refuse(state, x, color):
        raise AssertionError("verify flooded a zone")

    monkeypatch.setattr(solver, "_distances", distances)
    monkeypatch.setattr(solver, "_radius_search", target_search)
    monkeypatch.setattr(graphs._ZoneState, "flood", refuse)
    assert _run(["verify", str(instance), str(solved)], capsys) == (EXIT_OK, "verdict optimal\n", "")
    assert calls == [("search", center), ("target search", center, len(moves))]

    def flood(state, x, color):
        floods.append(x)
        real_flood(state, x, color)

    monkeypatch.setattr(graphs._ZoneState, "flood", flood)
    far = next(v for v in range(len(zm.zone_of)) if dist[zm.zone_of[v]] == len(moves))
    off = tmp_path / "off.moves"
    off.write_text("".join(f"{m.vertex if k != 1 else far} {m.color}\n" for k, m in enumerate(moves)))
    calls.clear()
    _run(["verify", str(instance), str(off)], capsys)
    assert floods[:1] == [center]
    assert [call for call in calls if call[0] == "search"] == []


def test_radius_monochromatic(tmp_path, capsys):
    path = tmp_path / "mono.grid"
    path.write_text("000\n000\n")
    assert main(["radius", str(path)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "radius 0" in lines
    assert "center 0" in lines


@pytest.mark.parametrize("fmt", ["plain", "machine"])
def test_radius_refuses_balls_over_the_memory_bound(fmt, board, capsys, monkeypatch):
    # the checkerboard has 4 zones: two generations of balls take 4 * 4 // 4 = 4 bytes
    assert main(["radius", board, "--format", fmt]) == EXIT_OK
    expected = capsys.readouterr()
    monkeypatch.setattr(cli, "RADIUS_BALL_BYTES", 4)
    assert main(["radius", board, "--format", fmt]) == EXIT_OK
    assert capsys.readouterr() == expected
    monkeypatch.setattr(cli, "RADIUS_BALL_BYTES", 3)

    def grown(adjacency):
        raise AssertionError("balls grown past the bound")

    monkeypatch.setattr(metrics, "_eccentricities", grown)
    assert main(["radius", board, "--format", fmt]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the eccentricity balls of 4 zones take about 4 bytes, over the limit of 3; "
        "solve reports the radius\n"
    )


@pytest.fixture(scope="module")
def radius_files(tmp_path_factory):
    """`gen` boards at 64x64 and 128x128 (seeds 1-3) and three `gen` graph files."""
    root = tmp_path_factory.mktemp("radius")
    argvs = [["--grid", f"{side}x{side}", "--seed", str(seed)] for side in (64, 128) for seed in (1, 2, 3)]
    argvs += [["--n", str(n), "--extra-edges", str(extra), "--seed", str(seed)]
              for n, extra, seed in ((40, 0, 1), (300, 120, 2), (2000, 900, 3))]
    paths = []
    with contextlib.redirect_stderr(io.StringIO()):  # gen echoes its seed there
        for i, argv in enumerate(argvs):
            paths.append(str(root / f"{i}.txt"))
            assert main(["gen", *argv, "-o", paths[-1]]) == EXIT_OK
    return paths


# the sweep of each zone graph, run once for both formats
sweep_once = functools.lru_cache(maxsize=None)(reference_radius_and_center)


@pytest.mark.parametrize("fmt", ["plain", "machine"])
def test_radius_output_matches_the_sweep(fmt, radius_files, capsys, monkeypatch):
    outputs = []
    for path in radius_files:
        assert main(["radius", path, "--format", fmt]) == EXIT_OK
        outputs.append(capsys.readouterr())
    monkeypatch.setattr(cli, "radius_and_center", sweep_once)
    for path, output in zip(radius_files, outputs):
        assert main(["radius", path, "--format", fmt]) == EXIT_OK
        assert capsys.readouterr() == output


def test_reduce_emits_parseable_graph(board, capsys):
    assert main(["reduce", board]) == EXIT_OK
    rg = parse_graph(capsys.readouterr().out)
    assert rg.vertex_count == 4
    assert rg.edge_count == 4


def test_simulate(board, tmp_path, capsys):
    moves = tmp_path / "sim.moves"
    moves.write_text("0 1\n0 0\n")
    assert main(["simulate", board, str(moves)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "step 1 flood 0 -> 1 zones 2" in out
    assert "monochromatic true" in out


def test_simulate_exact_output(board, tmp_path, capsys):
    moves = tmp_path / "sim.moves"
    moves.write_text("0 1\n0 0\n")
    assert main(["simulate", board, str(moves)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "step 1 flood 0 -> 1 zones 2\n"
        "11\n"
        "10\n"
        "step 2 flood 0 -> 0 zones 1\n"
        "00\n"
        "00\n"
        "monochromatic true\n"
    )


def test_simulate_exact_output_three_colors(tmp_path, capsys):
    board = tmp_path / "three.grid"
    board.write_text("012\n120\n201\n")
    moves = tmp_path / "three.moves"
    moves.write_text("4 0\n0 1\n0 1\n1 0\n")
    assert main(["simulate", str(board), str(moves)]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == (
        "step 1 flood 4 -> 0 zones 7\n"
        "012\n"
        "100\n"
        "201\n"
        "step 2 flood 0 -> 1 zones 5\n"
        "112\n"
        "100\n"
        "201\n"
    )
    assert captured.err == "step 3: rejected: zone of vertex 0 already has color 1\n"


def test_simulate_exact_output_banded(tmp_path, capsys):
    # bands of 2, 3 and 2 identical rows; each frame is painted a band at a time
    board = tmp_path / "banded.grid"
    board.write_text("000111\n000111\n011100\n011100\n011100\n110011\n110011\n")
    moves = tmp_path / "banded.moves"
    moves.write_text("0 1\n35 0\n0 0\n")
    assert main(["simulate", str(board), str(moves)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "step 1 flood 0 -> 1 zones 4\n"
        "111111\n111111\n111100\n111100\n111100\n110011\n110011\n"
        "step 2 flood 35 -> 0 zones 2\n"
        "111111\n111111\n111100\n111100\n111100\n110000\n110000\n"
        "step 3 flood 0 -> 0 zones 1\n"
        "000000\n000000\n000000\n000000\n000000\n000000\n000000\n"
        "monochromatic true\n"
    )


def test_simulate_graph_format(tmp_path, capsys):
    instance = tmp_path / "path.graph"
    instance.write_text("3 2 2\n0\n1\n0\n0 1\n1 2\n")
    moves = tmp_path / "path.moves"
    moves.write_text("1 0\n")
    assert main(["simulate", str(instance), str(moves)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "step 1 flood 1 -> 0 zones 1" in out
    assert "monochromatic true" in out


def test_simulate_rejects_noop(board, tmp_path, capsys):
    moves = tmp_path / "bad.moves"
    moves.write_text("0 0\n")
    assert main(["simulate", board, str(moves)]) == EXIT_DOMAIN
    assert "rejected" in capsys.readouterr().err


def _simulate_move_files(spec, rng):
    """Move files for `spec`: a run of valid moves, then it with a no-op, an
    out-of-range vertex and an out-of-range color put in at random places."""
    rg, zm = _grid_zones(spec)
    state, palette = graphs._ZoneState(rg), max(rg.colors) + 1
    valid = []
    while state.count > 1 and len(valid) < 12:
        vertex = rng.randrange(len(zm.zone_of))
        x = state.find(zm.zone_of[vertex])
        color = rng.choice([c for c in range(palette) if c != state.colors[x]])
        state.flood(x, color)
        valid.append(f"{vertex} {color}\n")
    files = [valid]
    for bad in (None, f"{len(zm.zone_of)} 0\n", "-1 0\n", f"0 {palette}\n"):
        at = rng.randint(1, len(valid)) if valid else 0
        noop = valid[at - 1] if at else f"0 {spec.cells[0]}\n"  # repeating a move is a no-op
        files.append(valid[:at] + [bad or noop] + valid[at:])
    return ["".join(lines) for lines in files]


@pytest.mark.parametrize("seed", range(12))
def test_simulate_frames_equal_the_per_zone_find(seed, tmp_path, capsys, monkeypatch):
    # each frame's zone colors, taken by C-level passes over the forest, equal
    # one `find` per zone: random, 3-color, banded and one-row boards
    rng = random.Random(seed)
    rows, cols, colors = rng.randint(1, 12), rng.randint(1, 12), 2 + seed % 2
    if seed % 3 == 2:
        cells = []
        while len(cells) < rows * cols:
            cells += [rng.randrange(colors) for _ in range(cols)] * rng.randint(1, 4)
        cells = cells[: rows * cols]
    else:
        cells = [rng.randrange(colors) for _ in range(rows * cols)]
    spec = GridSpec(rows, cols, cells)
    board = tmp_path / "board.grid"
    board.write_text(emit_grid(spec))
    moves = tmp_path / "sim.moves"
    for text in _simulate_move_files(spec, rng):
        moves.write_text(text)
        argv = ["simulate", str(board), str(moves)]
        got = _run(argv, capsys)
        with monkeypatch.context() as patched:
            patched.setattr(graphs._ZoneState, "zone_colors",
                            lambda state: [state.colors[state.find(z)] for z in range(len(state.owner))])
            assert _run(argv, capsys) == got


def test_oracle(board, capsys):
    assert main(["oracle", board]) == EXIT_OK
    out = capsys.readouterr().out
    assert "optimum 2" in out
    assert "exhausted true" in out
    assert main(["oracle", board, "--format", "machine"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["digest"] == instance_digest(grid_graph(parse_grid_spec(CHECKERBOARD)))


def test_oracle_builds_no_vertex_graph(board, capsys, monkeypatch):
    # the search runs on the zone graph, labeled straight from the grid's rows
    def refuse(*args, **kwargs):
        raise AssertionError("oracle built the vertex graph")

    monkeypatch.setattr(instances, "build", refuse)
    assert _run(["oracle", board], capsys) == (EXIT_OK, "optimum 2\nstates 6\nexhausted true\n", "")


def test_solve_and_verify_expand_no_zone_map(tmp_path, capsys, monkeypatch):
    # a grid's zone map is read a vertex at a time, never expanded cell by cell
    rng = random.Random(16)
    paint = [[rng.randrange(2) for _ in range(6)] for _ in range(5)]
    spec = GridSpec(40, 48, tuple(paint[r // 8][c // 8] for r in range(40) for c in range(48)))
    grid = tmp_path / "blocks.grid"
    grid.write_text(emit_grid(spec))
    moves = tmp_path / "blocks.moves"
    solve = ["solve", str(grid), "--format", "machine", "--moves-out", str(moves)]
    verify = ["verify", str(grid), str(moves)]

    def outputs():
        code, out, err = _run(solve, capsys)
        doc = json.loads(out)
        assert doc.pop("timings")
        return (code, json.dumps(doc), err), _run(verify, capsys)

    expected = outputs()

    def refuse(self):
        raise AssertionError("the zone map was expanded cell by cell")

    monkeypatch.setattr(instances._BandZones, "__iter__", refuse)
    assert outputs() == expected
    assert [code for code, _, _ in expected] == [EXIT_OK, EXIT_OK]


def test_oracle_budget(board, capsys):
    assert main(["oracle", board, "--budget", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "optimum 2\n" in out  # flooding vertex 0's zone twice leaves one zone
    assert "exhausted false" in out
    assert "upper bound" in out


def test_oracle_takes_colors_above_255(tmp_path, capsys):
    path = tmp_path / "wide.graph"
    path.write_text("2 1 300\n0\n299\n0 1\n")
    expected = (EXIT_OK, "optimum 1\nstates 2\nexhausted true\n", "")
    assert _run(["oracle", str(path)], capsys) == expected


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_oracle_budget_below_one_is_a_usage_error(board, budget, capsys):
    assert main(["oracle", board, "--budget", budget]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--budget" in captured.err


@pytest.mark.parametrize("count", ["0", "-1"])
def test_check_count_below_one_is_a_usage_error(count, capsys):
    assert main(["check", "--count", count]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--count" in captured.err


def test_check_runs_clean(capsys):
    assert main(["check", "--count", "6", "--seed", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("# seed 3")
    assert out.count("no counterexample") == 3


def test_check_suites_sit_at_the_checkers_zone_guards(monkeypatch, capsys):
    # no drawn graph has more vertices, so more zones, than its checker takes
    bounds = []
    real = cli.gen_reduced_corpus

    def recording(count, seed, min_zones, max_zones):
        bounds.append(max_zones)
        return real(count, seed, min_zones, max_zones)

    monkeypatch.setattr(cli, "gen_reduced_corpus", recording)
    assert main(["check", "--count", "1"]) == EXIT_OK
    capsys.readouterr()
    assert bounds == [50, oracle.DISTANCE_BOUNDS_MAX_ZONES, oracle.FAR_WITNESS_MAX_ZONES]


def test_gen_deterministic_and_parseable(capsys):
    assert main(["gen", "--n", "8", "--extra-edges", "2", "--seed", "9"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["gen", "--n", "8", "--extra-edges", "2", "--seed", "9"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    assert "# seed 9" in first
    g = parse_graph(first)
    assert g.vertex_count == 8
    assert g.edge_count == 9


def test_gen_grid(capsys):
    assert main(["gen", "--grid", "3x4", "--seed", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    rows = out.strip().splitlines()
    assert len(rows) == 3
    assert all(len(r) == 4 for r in rows)


@pytest.mark.parametrize("count", ["0", "-1", "11"])
def test_gen_grid_color_count_out_of_range(count, capsys):
    assert main(["gen", "--grid", "4x4", "--color-count", count]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "colors" in captured.err


@pytest.mark.parametrize("argv", [["--n", "0"], ["--n", "-3"], ["--color-count", "0"]])
def test_gen_graph_size_and_colors_below_one_are_usage_errors(argv, capsys):
    # as with --grid, refused as usage before the generator runs
    assert main(["gen", *argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: gen needs --n and --color-count of at least 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--grid", "1024x1025"],
        ["--n", "1048577"],
        ["--extra-edges", "-1"],
        ["--extra-edges", "2097153"],
        ["--grid", "4x4", "--extra-edges", "-1"],
    ],
)
def test_gen_refuses_sizes_past_the_limit(argv, capsys):
    # each value is one past a bound, refused before anything is allocated
    assert cli.GEN_MAX_VERTICES == 1024 * 1024
    assert main(["gen", *argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: gen writes at most 1048576 vertices (--n, or the grid's cells) "
        "and takes --extra-edges from 0 to 2097152\n"
    )


def test_gen_refuses_more_extra_edges_than_non_tree_slots(tmp_path, capsys):
    # within gen's usage bounds, but two vertices leave no slot off the
    # spanning tree: a domain error, raised before anything is drawn or written
    path = tmp_path / "out.graph"
    for argv in (["--n", "2", "--extra-edges", "1"], ["--n", "2", "--extra-edges", "1", "-o", str(path)]):
        assert main(["gen", *argv]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 1 extra edges requested, only 0 non-tree slots\n"
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--sizes", "8", "--repeat", "0"],
        ["--sizes", "8", "--repeat", "-3"],
        ["--sizes", "8,x"],
        ["--sizes", "0"],
        ["--sizes", ""],
    ],
)
def test_bench_usage_errors(argv, capsys):
    assert main(["bench", *argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--repeat" in captured.err


def test_readme_synopsis_lists_every_subcommand_and_long_option():
    # one line per subcommand in README's Command line block, naming exactly
    # that subcommand's long options (--help aside)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0].splitlines()
    listed = {line.split()[1]: set(re.findall(r"--[a-z][a-z-]*", line)) for line in lines}
    assert len(listed) == len(lines)
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {s for a in sub._actions for s in a.option_strings if s.startswith("--") and s != "--help"}
        for name, sub in commands.choices.items()
    }
    assert listed == options


def test_readme_names_exactly_the_guard_constants():
    # the all-caps names in backticks in README are the module-level guard
    # constants of `cli` and `oracle`, exit codes aside: a deleted guard
    # cannot live on in the docs, nor a new one go undocumented
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"`([A-Z][A-Z0-9_]*)`", readme))
    guards = {
        name for module in (cli, oracle) for name in vars(module)
        if name.isupper() and not name.startswith("EXIT_")
    }
    assert named == guards


def test_bench_refuses_a_side_over_the_limit(capsys):
    assert cli.BENCH_MAX_SIDE == 1024
    assert main(["bench", "--sizes", "8,1025"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before the first board, not after it
    assert captured.err == "error: --sizes takes sides from 1 to 1024 and --repeat at least 1\n"


def test_bench_reports_square_sizes(capsys):
    assert main(["bench", "--sizes", "4,6", "--seed", "2"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# seed 2"
    assert "N,n,m,radius,milliseconds" in lines
    data = [line.split(",") for line in lines if line and not line.startswith(("#", "N,"))]
    assert [(int(r[0]), int(r[1])) for r in data] == [(4, 16), (6, 36)]
    for row in data:
        grid_size, n, m = int(row[0]), int(row[1]), int(row[2])
        assert n == grid_size * grid_size
        assert m == 2 * grid_size * (grid_size - 1)


def stdin_bytes(data, errors="strict"):
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors)


def test_stdin_instance(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_bytes(CHECKERBOARD.encode()))
    assert main(["solve", "-"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "optimum 2"


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_stdin_for_both_files_is_a_usage_error(command, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_bytes(CHECKERBOARD.encode()))
    assert main([command, "-", "-"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "both be - (stdin)" in captured.err


def test_non_utf8_file_is_a_parse_error(board, tmp_path, capsys):
    instance = tmp_path / "utf16.grid"
    instance.write_bytes("01\n10\n".encode("utf-16"))
    assert main(["solve", str(instance)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert str(instance) in err and "byte 0 " in err
    moves = tmp_path / "bad.moves"
    moves.write_bytes(b"0 1\n\xff\n")
    assert main(["verify", board, str(moves)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert str(moves) in err and "byte 4 " in err


def test_non_utf8_stdin_is_a_parse_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_bytes(b"01\n1\xfe\n"))
    assert main(["solve", "-"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "stdin" in captured.err and "byte 4 " in captured.err


def test_non_utf8_stdin_under_surrogateescape(capsys, monkeypatch):
    # the C locale opens stdin with errors="surrogateescape", which never
    # raises on a bad byte; the bytes are decoded strictly all the same
    monkeypatch.setattr("sys.stdin", stdin_bytes(b"\xff\xfe01\n", errors="surrogateescape"))
    assert main(["solve", "-"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "stdin: byte 0 is not valid UTF-8" in captured.err


@pytest.mark.parametrize("argv", [["solve", "-"], ["verify", "-", "MOVES"]])
def test_closed_stdin_is_a_file_error(argv, tmp_path, capsys, monkeypatch):
    moves = tmp_path / "m.moves"
    moves.write_text("0 1\n")
    monkeypatch.setattr("sys.stdin", None)
    assert main([str(moves) if a == "MOVES" else a for a in argv]) == EXIT_FILE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stdin is closed\n"


CHECKERBOARD_GRAPH = emit_graph(grid_graph(GridSpec(2, 2, (0, 1, 1, 0))))


@pytest.mark.parametrize("text", [CHECKERBOARD, CHECKERBOARD_GRAPH])
def test_validate_checks_every_zone_graph(text, tmp_path, capsys, monkeypatch):
    instance = tmp_path / "instance"
    instance.write_text(text)
    seen = []

    def failing(rg):
        seen.append(rg.zone_count)
        raise InvariantViolation("zone graph check")

    monkeypatch.setattr(solver, "_validate_reduced", failing)
    assert main(["solve", str(instance)]) == EXIT_OK
    assert seen == []
    assert main(["solve", str(instance), "--validate"]) == EXIT_INTERNAL
    assert seen == [4]
    captured = capsys.readouterr()
    assert captured.err == "error: internal check failed: zone graph check\n"


def test_text_stdin(capsys, monkeypatch):
    # a stdin with no byte buffer, such as io.StringIO, is read as text
    monkeypatch.setattr("sys.stdin", io.StringIO(CHECKERBOARD))
    assert main(["solve", "-"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "optimum 2"


SPLIT = "4 2 2\n0\n1\n0\n1\n0 1\n2 3\n"
SPLIT_FILES = {
    "plain": SPLIT,
    "comment and CRLF": ("# c\n" + SPLIT).replace("\n", "\r\n"),  # the line reader's file
    "three colors": "4 2 3\n0\n1\n2\n0\n0 1\n2 3\n",
}


@pytest.mark.parametrize("form", SPLIT_FILES)
@pytest.mark.parametrize("command", ["solve", "radius", "reduce", "simulate", "verify", "oracle"])
def test_disconnected_graph_file_is_a_domain_error(command, form, tmp_path, capsys):
    # connectivity is checked on the zones, and the message counts vertices
    text = SPLIT_FILES[form]
    assert (instances._graph_in_bulk(text) is None) == (form == "comment and CRLF")
    instance = tmp_path / "split.graph"
    instance.write_bytes(text.encode())
    moves = tmp_path / "split.moves"
    moves.write_text("0 1\n")
    argv = [command, str(instance)] + ([str(moves)] if command in ("simulate", "verify") else [])
    expected = (EXIT_DOMAIN, "", "error: only 2 of 4 vertices reachable from vertex 0\n")
    assert _run(argv, capsys) == expected


def test_graph_files_build_no_vertex_graph(tmp_path, capsys, monkeypatch):
    # a graph file is labeled from its edges, and connectivity is checked
    # on the zone rows: no vertex rows are assembled and no vertex is searched
    g = gen_random(40, 15, 2, seed=3)
    instance = tmp_path / "g.graph"
    instance.write_text(emit_graph(g))
    moves = tmp_path / "g.moves"
    searched = []

    def refuse(*args, **kwargs):
        raise AssertionError("a vertex graph was built")

    def check_connected(adjacency, zone_of=()):
        searched.append(len(adjacency))
        return graphs._check_connected(adjacency, zone_of)

    monkeypatch.setattr(instances, "_assemble", refuse)
    monkeypatch.setattr(instances, "build", refuse)
    monkeypatch.setattr(cli, "_check_connected", check_connected)
    code, out, err = _run(["solve", str(instance), "--format", "machine", "--moves-out", str(moves)], capsys)
    assert (code, err) == (EXIT_OK, "")
    zones = json.loads(out)["zones"]
    assert zones < g.vertex_count
    assert _run(["verify", str(instance), str(moves)], capsys) == (EXIT_OK, "verdict optimal\n", "")
    assert searched == [zones, zones]


def _assert_labeled_as_reference(text):
    """The CLI's parse and labeling of a graph file give exactly what the
    reference `reduce` gives on the parsed graph, and the same digest."""
    g = parse_graph(text)
    with patch.object(cli, "_read_text", lambda path: text):
        source = cli._parse_instance("-")
    rg, zm, color_count = cli._zones(source)
    ref_rg, ref_zm = reference_reduce(g)
    assert rg == ref_rg
    assert tuple(zm.zone_of) == ref_zm.zone_of
    assert zm.representative_of == ref_zm.representative_of
    assert color_count == g.color_count
    assert reduce(g) == (ref_rg, ref_zm)
    assert instance_digest(source) == instance_digest(g)
    assert cli._size(source) == (g.vertex_count, g.edge_count)


class TestGraphFilesLabelAsReduce:
    """A graph file labeled from its edges against the reference `reduce`."""

    @pytest.mark.parametrize("colors", [1, 2, 3, 4])
    def test_generated_graphs(self, colors):
        # at n = 30 the non-tree slots number 406: 20 extra edges are drawn
        # pair by pair, 200 (past slots // 3) by rank
        for n, extra, seed in [(30, 20, 1), (30, 200, 2), (1, 0, 3), (2, 0, 4), (300, 250, 5)]:
            text = emit_graph(gen_random(n, extra, colors, seed))
            for variant in (text, "# seed 1\n" + text, text.replace("\n", "\r\n")):
                _assert_labeled_as_reference(variant)

    @given(st.integers(1, 4).flatmap(lambda c: colored_graphs(max_vertices=16, color_count=c)))
    @settings(max_examples=200)
    def test_hypothesis_graphs(self, g):
        _assert_labeled_as_reference(emit_graph(g))

    @pytest.mark.parametrize("seed", range(6))
    def test_grid_twins(self, seed):
        rng = random.Random(seed)
        rows, cols, colors = rng.randint(1, 40), rng.randint(1, 40), rng.randint(1, 3)
        spec = GridSpec(rows, cols, bytes([rng.randrange(colors) for _ in range(rows * cols)]))
        _assert_labeled_as_reference(emit_graph(spec))


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("seed", range(6))
def test_grid_and_graph_twin_agree(seed, tmp_path, capsys):
    rng = random.Random(seed)
    rows, cols, colors = rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 3)
    spec = GridSpec(rows, cols, tuple(rng.randrange(colors) for _ in range(rows * cols)))
    _assert_twins_agree(spec, rng, tmp_path, capsys)


@pytest.mark.parametrize("seed", range(4))
def test_banded_grid_and_graph_twin_agree(seed, tmp_path, capsys):
    # bands 1-5 rows tall drawn from 2-4 distinct rows, so some rows repeat the one above
    rng = random.Random(seed)
    cols, colors = rng.randint(1, 9), rng.randint(2, 3)
    distinct = [[rng.randrange(colors) for _ in range(cols)] for _ in range(rng.randint(2, 4))]
    cells = []
    for _ in range(rng.randint(2, 4)):
        cells += rng.choice(distinct) * rng.randint(1, 5)
    _assert_twins_agree(GridSpec(len(cells) // cols, cols, tuple(cells)), rng, tmp_path, capsys)


def _assert_twins_agree(spec, rng, tmp_path, capsys):
    # a grid is labeled straight from its rows; its graph-file twin is read
    # into edges and labeled from them, and every output must match
    grid = tmp_path / "board.grid"
    grid.write_text(emit_grid(spec))
    graph = tmp_path / "board.graph"
    graph.write_text(emit_graph(grid_graph(spec)))
    n = spec.rows * spec.cols
    extra = tmp_path / "extra.moves"  # out-of-range vertices and colors, no-op moves
    extra.write_text("".join(f"{rng.randrange(-1, n + 1)} {c}\n" for c in (1, 0, 2)))
    out = {}
    for name, path in (("grid", str(grid)), ("graph", str(graph))):
        moves = tmp_path / f"{name}.moves"
        solve = ["solve", path, "--format", "machine", "--moves-out", str(moves)]
        code, stdout, err = _run(solve, capsys)
        if code == EXIT_OK:
            stdout = {k: v for k, v in json.loads(stdout).items() if k != "timings"}
        results = [(code, stdout, err)]
        if not moves.exists():
            moves.write_text("0 1\n")
        for move_file in (moves, extra):
            results.append(_run(["verify", path, str(move_file)], capsys))
            code, stdout, err = _run(["simulate", path, str(move_file)], capsys)
            if name == "grid":
                stdout = _simulate_steps(stdout, spec)
            results.append((code, stdout, err))
        for command in ("radius", "reduce"):
            results.append(_run([command, path], capsys))
        results.append(_run(["radius", path, "--format", "machine"], capsys))
        for fmt in ("plain", "machine"):
            results.append(_run(["oracle", path, "--format", fmt], capsys))
            results.append(_run(["oracle", path, "--format", fmt, "--budget", "2"], capsys))
        out[name] = results
    assert out["grid"] == out["graph"]


def _simulate_steps(stdout, spec):
    """`simulate` output on a grid without its boards, each checked against its step's zones."""
    lines = stdout.splitlines(keepends=True)
    kept = []
    while lines:
        line = lines.pop(0)
        kept.append(line)
        if line.startswith("step "):
            board = "".join(lines[: spec.rows])
            del lines[: spec.rows]
            rg, _ = _grid_zones(parse_grid_spec(board))
            assert rg.zone_count == int(line.split()[-1])
    return "".join(kept)


def test_failed_internal_check_exits_9(board, capsys, monkeypatch):
    # the first search, on the input, is right; the certificate's target
    # search reads the radius one too low, and so does the full search run
    # to name the failure
    real = solver._radius_search
    calls = []

    def one_too_low_after_the_first(adjacency, start=0, dist=None, target=None):
        calls.append(target)
        radius, center, count = real(adjacency, start, dist, target)
        return radius - (len(calls) > 1), center, count

    monkeypatch.setattr(solver, "_radius_search", one_too_low_after_the_first)
    assert main(["solve", board, "--validate"]) == EXIT_INTERNAL
    assert calls == [None, 2, None]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal check failed: radius 1 after 0 moves, expected 2\n"


def _flood_then(fault):
    """`_ZoneState.flood` followed by `fault(state, x, color)`."""
    real = graphs._ZoneState.flood

    def flood(self, x, color):
        real(self, x, color)
        fault(self, x, color)

    return flood


def _recolor_a_neighbor(state, x, color):
    # a neighbor of the flooded zone takes its color but stays a zone
    if state.count > 1:
        state.colors[min(state.adjacency[x])] = color


def _cut_off_flooded_zone(state, x, color):
    # the flooded zone loses every edge
    for w in state.adjacency[x]:
        state.adjacency[w].discard(x)
    state.adjacency[x] = set()


def _keep_an_absorbed_zone(state, x, color):
    # a neighbor of the flooded zone still lists the least absorbed zone
    if state.count > 1:
        state.adjacency[min(state.adjacency[x])].add(state.adjacency.index(None))


def _drop_the_flooded_zone(state, x, color):
    # a neighbor of the flooded zone no longer lists it
    if state.count > 1:
        state.adjacency[min(state.adjacency[x])].discard(x)


@pytest.mark.parametrize(
    "fault, message",
    [
        (_recolor_a_neighbor, "adjacent zones 5 and 0 share color 1"),
        (_cut_off_flooded_zone, "row of zone 5 after 1 moves is not layer 2"),
        (_keep_an_absorbed_zone, "zone 0 lists absorbed zone 1"),
        (_drop_the_flooded_zone, "zone 0 does not list its neighbor 5"),
    ],
)
def test_bad_replayed_zone_graph_is_an_internal_error(fault, message, tmp_path, capsys, monkeypatch):
    # the zone graph check fails on the rows a replayed flood touched, and
    # that is a bug in the package (exit 9), not a domain error in the input
    # (exit 5) or a traceback
    path = tmp_path / "board.grid"
    path.write_text("0101\n1010\n0101\n")
    monkeypatch.setattr(graphs._ZoneState, "flood", _flood_then(fault))
    assert main(["solve", str(path), "--validate"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: internal check failed: {message}\n"


_FLOOD = graphs._ZoneState.flood


def _spare_a_neighbor(state, x, color):
    # the flood leaves its least neighbor of the new color a zone of its own
    spared = min(y for y in state.adjacency[x] if state.colors[y] == color)
    state.colors[spared] = 1 - color
    _FLOOD(state, x, color)
    state.colors[spared] = color


def _absorb_a_zone_two_away(state, x, color):
    # the flood also absorbs the least zone two steps from the flooded zone
    _FLOOD(state, x, color)
    state.colors[min(state.adjacency[x])] = color
    _FLOOD(state, x, color)


@pytest.mark.parametrize(
    "flood, message",
    [
        (_spare_a_neighbor, "9 zones after 1 moves, expected 8"),
        (_absorb_a_zone_two_away, "7 zones after 1 moves, expected 8"),
    ],
)
def test_faulty_flood_is_an_internal_error(flood, message, tmp_path, capsys, monkeypatch):
    # a flood that absorbs one zone too few or one too many leaves a live
    # count the search from the center did not predict
    path = tmp_path / "board.grid"
    path.write_text("0101\n1010\n0101\n")
    monkeypatch.setattr(graphs._ZoneState, "flood", flood)
    assert main(["solve", str(path), "--validate"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: internal check failed: {message}\n"


def test_validate_refutes_moves_off_the_center(tmp_path, capsys, monkeypatch):
    # zone 0 of the 5-zone path is not central: its moves are two, like the
    # radius, but leave two zones; only --validate checks them, and the
    # search from zone 0 refutes them before the replay
    real = solver._radius_search

    def off_center(adjacency, start=0, dist=None, target=None):
        radius, _, searches = real(adjacency, start, dist, target)
        return radius, 0, searches

    monkeypatch.setattr(solver, "_radius_search", off_center)
    path = tmp_path / "path.grid"
    path.write_text("01010\n")
    assert main(["solve", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "optimum 2\nmove 0 1\nmove 0 0\n"
    assert main(["solve", str(path), "--validate"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal check failed: zone 0 has eccentricity 4, expected 2\n"


def test_validate_refutes_a_radius_claimed_too_high_on_the_input(tmp_path, capsys, monkeypatch):
    # radius 4 claimed from zone 1 of the spider, whose radius is 3: every
    # check after a move holds, and the check on the input refutes the claim
    claim_on_the_input(monkeypatch, 4, 1)
    path = tmp_path / "spider.graph"
    path.write_text(emit_graph(spider()))
    moves = tmp_path / "spider.moves"
    assert main(["solve", str(path), "--moves-out", str(moves)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("optimum 4\n")
    assert main(["verify", str(path), str(moves)]) == EXIT_SUBOPTIMAL
    capsys.readouterr()
    assert main(["solve", str(path), "--validate"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal check failed: radius 3 after 0 moves, expected 4\n"


def test_exit_codes(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.grid")]) == EXIT_FILE
    bad = tmp_path / "bad.grid"
    bad.write_text("01\n1x\n")
    assert main(["solve", str(bad)]) == EXIT_PARSE
    tri = tmp_path / "three.graph"
    tri.write_text("3 2 3\n0\n1\n2\n0 1\n1 2\n")
    assert main(["solve", str(tri)]) == EXIT_DOMAIN
    assert main(["nonsense"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize(
    "text, code, out, err",
    [
        # a graph file: its first content line, after comments and blank lines, is `n m c`
        ("# a path\n\n  # of three\n3 2 2\n0\n1\n0\n0 1\n1 2\n", EXIT_OK, "optimum 1\nmove 1 0\n", ""),
        # a one-column grid: every row is one field
        ("0\n1\n0\n", EXIT_OK, "optimum 1\nmove 1 0\n", ""),
        # a graph file without its header starts with one field, so it is read
        # as a grid and fails as one
        ("3\n0\n1\n0\n0 1\n1 2\n", EXIT_PARSE, "", "error: line 5: row has width 3, expected 1\n"),
    ],
)
def test_first_content_line_picks_the_parser(text, code, out, err, tmp_path, capsys):
    instance = tmp_path / "instance"
    instance.write_text(text)
    assert _run(["solve", str(instance)], capsys) == (code, out, err)


def test_shared_parser_leaks_no_state(board, capsys, monkeypatch):
    # each call in one process prints what it prints as the first call of a
    # process, that is with a parser built for it alone
    def failing(rg):
        raise InvariantViolation("zone graph check")

    monkeypatch.setattr(solver, "_validate_reduced", failing)  # shows whether --validate ran
    monkeypatch.setattr("sys.stdin", stdin_bytes(CHECKERBOARD.encode()))
    solve = ["solve", board]
    sequence = [
        ["solve", board, "--validate"], solve,
        ["oracle", board, "--budget", "2"], ["oracle", board],
        ["nonsense"], solve,
        ["solve", "--help"], solve,
        ["verify", "-", "-"], solve,
    ]

    def first_call(argv):
        monkeypatch.setattr(cli, "_parser", None, raising=False)
        return _run(argv, capsys)

    expected = [first_call(argv) for argv in sequence]
    monkeypatch.setattr(cli, "_parser", None, raising=False)
    assert [_run(argv, capsys) for argv in sequence] == expected
    codes = [code for code, _, _ in expected]
    assert codes == [EXIT_INTERNAL, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK,
                     EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK]
    assert "exhausted false" in expected[2][1] and "exhausted true" in expected[3][1]


def test_main_builds_the_parser_once(board, capsys, monkeypatch):
    builds = []
    build_parser = cli.build_parser

    def counting():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None, raising=False)
    for _ in range(5):
        assert main(["solve", board]) == EXIT_OK
    capsys.readouterr()
    assert len(builds) == 1


SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60)


def test_fresh_interpreter_prints_what_main_prints(board, capsys):
    argv = ["solve", board, "--format", "machine"]
    done = _fresh_python(["-m", "freeflood.cli", *argv])
    code, out, err = _run(argv, capsys)
    fresh, here = json.loads(done.stdout), json.loads(out)
    assert fresh.pop("timings").keys() == here.pop("timings").keys()
    assert (done.returncode, fresh, done.stderr) == (code, here, err)


def test_import_builds_no_parser_and_main_builds_one(board):
    script = (
        "import sys\n"
        "from freeflood import cli\n"
        "assert cli._parser is None\n"
        "build_parser, builds = cli.build_parser, []\n"
        "cli.build_parser = lambda: builds.append(1) or build_parser()\n"
        "codes = [cli.main(['solve', sys.argv[1]]) for _ in range(3)]\n"
        "print(codes, len(builds), file=sys.stderr)\n"
    )
    done = _fresh_python(["-c", script, board])
    assert (done.returncode, done.stderr) == (0, "[0, 0, 0] 1\n")


def test_start_up_defers_what_only_some_commands_need(board):
    # `site` may already have loaded some of these, so only new imports count
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[2])\n"
        "deferred = {'dataclasses', 'inspect', 'hashlib', '_hashlib', 'json'}\n"
        "before = set(sys.modules)\n"
        "from freeflood import cli\n"
        "cli.build_parser()\n"
        "print(sorted(deferred & set(sys.modules) - before))\n"
        "code = cli.main(['solve', sys.argv[1], '--format', 'machine'])\n"
        "print(code, sorted({'hashlib', 'json'} - set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-I", "-c", script, board, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    at_start_up, doc, after = done.stdout.splitlines()
    assert (done.returncode, done.stderr, at_start_up, after) == (0, "", "[]", "0 []")
    assert json.loads(doc)["digest"] == instance_digest(parse_grid_spec(CHECKERBOARD))


def test_input_format_is_not_an_option(board, capsys):
    assert main(["solve", board, "--input-format", "grid"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --input-format grid" in captured.err


# every exit code the module docstring documents except 9, which marks a bug
DOCUMENTED_EXITS = {EXIT_OK, EXIT_USAGE, EXIT_FILE, EXIT_PARSE, EXIT_DOMAIN,
                    EXIT_SUBOPTIMAL, EXIT_INFEASIBLE, EXIT_COUNTEREXAMPLE}


def _instance_bytes(max_size):
    # raw bytes, and text over the characters of grid, graph and move files
    # so that some draws get past the parsers
    text = st.text("0123456789 \n#-", max_size=max_size).map(str.encode)
    return st.one_of(st.binary(max_size=max_size), text)


# grid files that parse, so that some draws reach the solver and the replay
_GRIDS = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 3)).flatmap(
    lambda shape: st.lists(
        st.text("012"[: shape[2]], min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0],
    ).map(lambda rows: "\n".join(rows).encode())
)


# move files that parse, so that some draws reach the replay
_MOVE_LISTS = st.lists(st.tuples(st.integers(-1, 40), st.integers(-1, 3)), max_size=8).map(
    lambda moves: "".join(f"{v} {c}\n" for v, c in moves).encode()
)


@settings(deadline=None, max_examples=100)
@given(
    instance=st.one_of(_instance_bytes(200), _GRIDS),
    moves=st.one_of(_instance_bytes(40), _MOVE_LISTS),
)
def test_main_never_raises_on_arbitrary_files(instance, moves):
    with tempfile.TemporaryDirectory() as tmp:
        path, move_path = Path(tmp) / "instance", Path(tmp) / "moves"
        path.write_bytes(instance)
        move_path.write_bytes(moves)
        commands = (["solve", path, "--format", "machine"], ["radius", path], ["reduce", path],
                    ["verify", path, move_path], ["simulate", path, move_path])
        # a multi-field first content line goes to parse_graph, any other to
        # parse_grid_spec, so the draws fuzz both parsers
        for command in commands:
            argv = list(map(str, command))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in DOCUMENTED_EXITS, (argv, code, err.getvalue())

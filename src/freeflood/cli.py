"""Command-line interface: solve, inspect, simulate, verify, and benchmark.

Exit codes: 0 success, 2 usage, 3 file error, 4 parse error, 5 domain error,
6 verified feasible but suboptimal, 7 verified infeasible, 8 property check
found a counterexample, 9 an internal check failed (a bug in freeflood).
"""

from __future__ import annotations

import argparse
import os
import random
import stat
import sys
import time

from .errors import FloodError, InstanceTooLarge, InvariantViolation, MalformedMove, NoOpMove, ParseError
from .graphs import ColoredGraph, ReducedGraph, ZoneMap, reduce
from .instances import (
    GridSpec,
    _GridFields,
    _grid_zones,
    emit_graph,
    emit_grid,
    emit_moves,
    gen_random,
    gen_reduced_corpus,
    instance_digest,
    parse_graph,
    parse_grid_spec,
    parse_moves,
)
from .metrics import radius_and_center
from .oracle import (
    DISTANCE_BOUNDS_MAX_ZONES,
    FAR_WITNESS_MAX_ZONES,
    STATE_BUDGET,
    brute_force_min_moves,
    check_distance_bounds,
    check_far_witness,
    check_radius_bounds,
)
from .solver import Verdict, _replay, _solve_zones, _verify_zones

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_PARSE = 4
EXIT_DOMAIN = 5
EXIT_SUBOPTIMAL = 6
EXIT_INFEASIBLE = 7
EXIT_COUNTEREXAMPLE = 8
EXIT_INTERNAL = 9

# `radius` grows a ball of zones around every zone (`metrics._eccentricities`);
# two rounds of balls take about zones**2 / 4 bytes: about 3.0e8 for a random
# 512x512 board (34 886 zones), 4.8e9 for a 1024x1024 one (138 698 zones).
RADIUS_BALL_BYTES = 500_000_000

# `bench` labels and solves one random side x side board per size; 1024 is the
# top of the scale ladder.
BENCH_MAX_SIDE = 1024

# `gen` allocates in proportion to the instance it is asked for, so it writes
# at most as many vertices as the largest `bench` board and at most twice as
# many extra edges.
GEN_MAX_VERTICES = BENCH_MAX_SIDE**2


def _read_text(path: str) -> str:
    if path == "-":
        if sys.stdin is None:
            raise OSError("stdin is closed")
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else path
        raise ParseError(f"{name}: byte {exc.start} is not valid UTF-8") from None


def _write_output(path: str, text: str) -> None:
    """Write `text` as UTF-8 to `path` in place: the file keeps its inode and mode.

    The file is opened without truncation and, when it is a regular file
    longer than the text, cut to the text's length after the write, so it
    ends holding exactly `text`.  Truncating to zero first (`open(path, "w")`)
    can wait for the last write's writeback, and on ext4 frees the file's
    blocks only to allocate them again.  A device or a pipe gets the write
    and no cut (`ftruncate` fails on `/dev/null`).  A write cut short leaves
    the new bytes followed by the old file's tail; nothing here calls fsync,
    so this is as durable as a freshly created file.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:  # a write to a pipe may take part of the bytes
            rest = rest[os.write(fd, rest):]
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode) and info.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _parse_instance(path: str) -> GridSpec | ColoredGraph:
    """Read and parse an instance file: a GridSpec, or a built graph.

    The first content line tells the formats apart: a graph file's is its
    `n m c` header, a grid row is one field.  It is looked for in one
    "\n"-ended piece of the text at a time: `splitlines` of the pieces
    gives the lines of the whole text, since "\n" always ends a line and
    the one two-character line end, "\r\n", ends in it.
    """
    text = _read_text(path)
    fields = []
    start = 0
    while not fields and start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        for raw in text[start:end].splitlines():
            fields = raw.split("#", 1)[0].split()
            if fields:
                break
        start = end
    if len(fields) > 1:
        return parse_graph(text)
    return parse_grid_spec(text)


def _zones(source: GridSpec | ColoredGraph) -> tuple[ReducedGraph, ZoneMap, int]:
    """Zone graph, zone map and color count: a grid is labeled into zones
    straight from its rows, a graph is reduced."""
    if isinstance(source, GridSpec):
        rg, zm = _grid_zones(source)
        return rg, zm, max(rg.colors) + 1  # each cell has its zone's color
    rg, zm = reduce(source)
    return rg, zm, source.color_count


def _load_instance(path: str):
    """Load an instance file; returns (zone graph, zone map, color count, source)."""
    source = _parse_instance(path)
    return (*_zones(source), source)


def _size(source: GridSpec | ColoredGraph) -> tuple[int, int]:
    """Vertex and edge counts of an instance; a grid's come from its dimensions."""
    if isinstance(source, GridSpec):
        rows, cols = source.rows, source.cols
        return rows * cols, 2 * rows * cols - rows - cols
    return source.vertex_count, source.edge_count


def _add_format_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format",
        choices=("plain", "machine"),
        default="plain",
        help="plain lines or one JSON document",
    )


def _print_json(doc: dict) -> None:
    import json  # here, not at start-up: only the machine format needs it

    print(json.dumps(doc))


def _cmd_solve(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    source = _parse_instance(args.instance)
    parsed = time.perf_counter()
    rg, zm, _ = _zones(source)
    loaded = time.perf_counter()
    solution, searches, certificate_searches = _solve_zones(rg, zm, validate=args.validate)
    solved = time.perf_counter()
    if args.moves_out:
        _write_output(args.moves_out, emit_moves(solution.moves))
        written = time.perf_counter()
    if args.format == "machine":
        n, m = _size(source)
        digest_start = time.perf_counter()
        digest = instance_digest(source)
        digest_ms = (time.perf_counter() - digest_start) * 1000.0
        doc = {
            "command": "solve",
            "digest": digest,
            "n": n,
            "m": m,
            "optimum": solution.claimed_optimum,
            "center_vertex": solution.center_zone_representative,
            "moves": [[m.vertex, m.color] for m in solution.moves],
            "zones": rg.zone_count,
            "zone_edges": rg.edge_count,
            "searches": searches,
            "timings": {
                "load_ms": (loaded - start) * 1000.0,
                "parse_ms": (parsed - start) * 1000.0,
                "zones_ms": (loaded - parsed) * 1000.0,
                "solve_ms": (solved - loaded) * 1000.0,
                "digest_ms": digest_ms,
            },
        }
        if args.moves_out:
            doc["timings"]["write_ms"] = (written - solved) * 1000.0
        if args.validate:
            doc["certificate_searches"] = certificate_searches
        _print_json(doc)
    else:
        print(f"optimum {solution.claimed_optimum}")
        for move in solution.moves:
            print(f"move {move.vertex} {move.color}")
    return EXIT_OK


def _cmd_radius(args: argparse.Namespace) -> int:
    rg, _, _, source = _load_instance(args.instance)
    need = rg.zone_count**2 // 4
    if need > RADIUS_BALL_BYTES:
        raise InstanceTooLarge(
            f"the eccentricity balls of {rg.zone_count} zones take about {need} bytes, over the "
            f"limit of {RADIUS_BALL_BYTES}; solve reports the radius"
        )
    met = radius_and_center(rg)
    if args.format == "machine":
        doc = {
            "command": "radius",
            "digest": instance_digest(source),
            "zones": rg.zone_count,
            "radius": met.radius,
            "center": list(met.center),
            "eccentricity": list(met.eccentricity),
        }
        _print_json(doc)
    else:
        print(f"zones {rg.zone_count}")
        print(f"radius {met.radius}")
        print("center " + " ".join(str(z) for z in met.center))
        for z, e in enumerate(met.eccentricity):
            print(f"eccentricity {z} {e}")
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    rg, _, _, _ = _load_instance(args.instance)
    sys.stdout.write(emit_graph(rg))
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    rg, zm, color_count, source = _load_instance(args.instance)
    moves = parse_moves(_read_text(args.moves))
    replay = _replay(rg, zm, color_count, moves)
    zones = rg.zone_count
    if isinstance(source, GridSpec):  # a grid's zone map is run-backed: paint each band's row once
        bands = list(zm.zone_of.bands())
    for step, move in enumerate(moves, start=1):
        try:
            state = next(replay)
        except (NoOpMove, MalformedMove) as exc:
            print(f"step {step}: rejected: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
        zones = state.count
        print(f"step {step} flood {move.vertex} -> {move.color} zones {zones}")
        if isinstance(source, GridSpec):
            color_of = state.zone_colors()  # each in the palette, so the frame skips GridSpec's check
            cells = b"".join(bytes(map(color_of.__getitem__, row)) * height for row, height in bands)
            sys.stdout.write(emit_grid(_GridFields.__new__(GridSpec, source.rows, source.cols, cells)))
    print(f"monochromatic {'true' if zones == 1 else 'false'}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    rg, zm, color_count, _ = _load_instance(args.instance)
    moves = parse_moves(_read_text(args.moves))
    verdict = _verify_zones(rg, zm, color_count, moves)
    print(f"verdict {verdict.value}")
    if verdict is Verdict.OPTIMAL:
        return EXIT_OK
    if verdict is Verdict.FEASIBLE_SUBOPTIMAL:
        return EXIT_SUBOPTIMAL
    return EXIT_INFEASIBLE


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.budget < 1:
        print("error: --budget takes at least 1 state", file=sys.stderr)
        return EXIT_USAGE
    rg, _, _, source = _load_instance(args.instance)
    report = brute_force_min_moves(rg, state_budget=args.budget)
    if args.format == "machine":
        doc = {
            "command": "oracle",
            "digest": instance_digest(source),
            "optimum": report.optimum,
            "states_explored": report.states_explored,
            "exhausted": report.exhausted,
        }
        _print_json(doc)
    else:
        print(f"optimum {report.optimum}")
        print(f"states {report.states_explored}")
        print(f"exhausted {'true' if report.exhausted else 'false'}")
        if not report.exhausted:
            print("note optimum is an upper bound: the state budget was hit")
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    if args.count < 1:
        print("error: --count takes at least 1 graph", file=sys.stderr)
        return EXIT_USAGE
    print(f"# seed {args.seed}")
    # (name, checker, min zones, max zones); max zones caps the vertices too, inside each guard
    suites = [
        ("radius-bounds", check_radius_bounds, 2, 50),
        ("distance-bounds", check_distance_bounds, 2, DISTANCE_BOUNDS_MAX_ZONES),
        ("far-witness", check_far_witness, 3, FAR_WITNESS_MAX_ZONES),
    ]
    failed = False
    for offset, (name, checker, min_zones, max_zones) in enumerate(suites):
        graphs = 0
        checks = 0
        bad = None
        for _, rg in gen_reduced_corpus(args.count, args.seed + offset, max_zones, min_zones, max_zones):
            report = checker(rg)
            graphs += 1
            checks += report.instances_checked
            if not report.ok:
                bad = report
                break
        if bad is None:
            print(f"{name}: {graphs} graphs, {checks} checks, no counterexample")
        else:
            failed = True
            print(f"{name}: counterexample after {graphs} graphs: {bad.counterexample.detail}")
            print(f"{name}: witness {bad.counterexample.witness}")
    return EXIT_COUNTEREXAMPLE if failed else EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.grid:
        try:
            rows, cols = (int(p) for p in args.grid.lower().split("x"))
        except ValueError:
            print("error: --grid expects ROWSxCOLS, e.g. 8x8", file=sys.stderr)
            return EXIT_USAGE
        if rows < 1 or cols < 1 or not 1 <= args.color_count <= 10:
            print("error: grid needs positive dimensions and 1 to 10 colors", file=sys.stderr)
            return EXIT_USAGE
    elif args.n < 1 or args.color_count < 1:
        print("error: gen needs --n and --color-count of at least 1", file=sys.stderr)
        return EXIT_USAGE
    vertices = rows * cols if args.grid else args.n
    if vertices > GEN_MAX_VERTICES or not 0 <= args.extra_edges <= 2 * GEN_MAX_VERTICES:
        print(f"error: gen writes at most {GEN_MAX_VERTICES} vertices (--n, or the grid's cells) "
              f"and takes --extra-edges from 0 to {2 * GEN_MAX_VERTICES}", file=sys.stderr)
        return EXIT_USAGE
    if args.grid:
        rng = random.Random(args.seed)
        cells = bytes(rng.randrange(args.color_count) for _ in range(rows * cols))
        text = emit_grid(GridSpec(rows, cols, cells))
        print(f"# seed {args.seed}", file=sys.stderr)
    else:
        g = gen_random(args.n, args.extra_edges, args.color_count, args.seed)
        text = f"# seed {args.seed}\n" + emit_graph(g)
    if args.output:
        _write_output(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = [int(p) for p in args.sizes.split(",") if p]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 1 or max(sizes) > BENCH_MAX_SIDE or args.repeat < 1:
        print(f"error: --sizes takes sides from 1 to {BENCH_MAX_SIDE} and --repeat at least 1",
              file=sys.stderr)
        return EXIT_USAGE
    print(f"# seed {args.seed}")
    print("# m is the undirected edge count; adjacency lists hold 2m entries")
    print("N,n,m,radius,milliseconds")
    for grid_size in sizes:
        rng = random.Random(args.seed * 1_000_003 + grid_size)
        spec = GridSpec(grid_size, grid_size, bytes(rng.randrange(2) for _ in range(grid_size**2)))
        best = None
        radius = None
        for _ in range(args.repeat):
            start = time.perf_counter()
            solution = _solve_zones(*_grid_zones(spec))[0]
            elapsed = time.perf_counter() - start
            radius = solution.claimed_optimum
            best = elapsed if best is None else min(best, elapsed)
        n, m = _size(spec)
        print(f"{grid_size},{n},{m},{radius},{best * 1000.0:.2f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freeflood",
        description="Exact two-color flood solver over connected graphs and grids.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("solve", help="optimal move count and move list")
    sub.add_argument("instance", help="instance file, or - for stdin")
    _add_format_arg(sub)
    sub.add_argument("--validate", action="store_true", help="check moves against the center's layers")
    sub.add_argument("--moves-out", metavar="PATH", help="also write the moves as a move file")
    sub.set_defaults(func=_cmd_solve)

    sub = commands.add_parser("radius", help="zone metrics: radius, center, eccentricities")
    sub.add_argument("instance", help="instance file, or - for stdin")
    _add_format_arg(sub)
    sub.set_defaults(func=_cmd_radius)

    sub = commands.add_parser("reduce", help="print the zone graph as a graph file")
    sub.add_argument("instance", help="instance file, or - for stdin")
    sub.set_defaults(func=_cmd_reduce)

    sub = commands.add_parser("simulate", help="replay a move file step by step")
    sub.add_argument("instance", help="instance file, or - for stdin")
    sub.add_argument("moves", help="move file, or - for stdin")
    sub.set_defaults(func=_cmd_simulate)

    sub = commands.add_parser("verify", help="classify a move file as optimal/suboptimal/infeasible")
    sub.add_argument("instance", help="instance file, or - for stdin")
    sub.add_argument("moves", help="move file, or - for stdin")
    sub.set_defaults(func=_cmd_verify)

    sub = commands.add_parser("oracle", help="exhaustive optimum for small instances")
    sub.add_argument("instance", help="instance file, or - for stdin")
    _add_format_arg(sub)
    sub.add_argument(
        "--budget",
        type=int,
        default=STATE_BUDGET,
        help="cap on the states the search stores, each one bit per zone plus about 60 bytes "
        "(the default needs about 0.16 GB on a random 64x64 board)",
    )
    sub.set_defaults(func=_cmd_oracle)

    sub = commands.add_parser("check", help="run the property suites over a seeded corpus")
    sub.add_argument("--count", type=int, default=40, help="graphs per suite")
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=_cmd_check)

    sub = commands.add_parser("gen", help="write a seeded random instance")
    sub.add_argument("--n", type=int, default=10, help="vertex count")
    sub.add_argument("--extra-edges", type=int, default=0, help="edges beyond the spanning tree")
    sub.add_argument("--color-count", type=int, default=2)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--grid", metavar="RxC", help="emit a random grid file instead")
    sub.add_argument("-o", "--output", metavar="PATH", help="write to a file instead of stdout")
    sub.set_defaults(func=_cmd_gen)

    sub = commands.add_parser("bench", help="time solve over random grid colorings")
    sub.add_argument("--sizes", default="16,32,64", help="comma-separated grid sides")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--repeat", type=int, default=1, help="runs per size; best time is kept")
    sub.set_defaults(func=_cmd_bench)

    return parser


# The parser `main` reuses: built on its first call, not at import, so a fresh
# interpreter builds it once.  Reuse is safe: `parse_args` returns a fresh
# Namespace, no argument has a mutable default, and `parser.error` writes to
# whatever `sys.stderr` is when it runs.  The `--budget` default is the
# `STATE_BUDGET` of the moment the parser was built.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        if getattr(args, "moves", None) == "-" == args.instance:
            _parser.error("the instance and the move file cannot both be - (stdin)")
    except SystemExit as exc:  # argparse already printed a diagnostic
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except InvariantViolation as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except FloodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

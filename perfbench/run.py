"""Benchmark of the freeflood command, from instance text to checked answer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's corpus is generated from the
seed and written to files; every instance then goes through the user's path
in this one process, one instance at a time (a closed loop with a single
client): `freeflood.cli.main([...])` on the file, stdout captured.  Whole
rounds over the corpus repeat until `--seconds` have passed.  After the
timed region, every output is checked against the benchmark's own reference
(`refcheck.py`); an instance with a wrong output counts as failed.

With `--trace 0` the last stdout line reports the end-to-end metrics.  With
`--trace 1`, untraced and traced rounds alternate, and the last line reports
the per-layer metrics of the traced rounds (`spans.py`); the spans go to
`perfbench/_work/spans-<workload>.txt`.  Lines before the last start with
'#' and give context: round counts, CPU against wall time, corpus figures,
the per-layer split of traced time and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import refcheck
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_SAMPLES = 15
# Each sample is a fresh interpreter: what one `freeflood` invocation pays
# before it reads its instance.
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import freeflood.cli\n"
    "freeflood.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def import_package():
    """Import freeflood from this checkout's src/, never from anywhere else."""
    if not (SRC / "freeflood" / "cli.py").is_file():
        sys.exit(f"perfbench: {SRC / 'freeflood'} not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("freeflood")
    if Path(pkg.__file__).resolve().parent != SRC / "freeflood":
        sys.exit(f"perfbench: imported freeflood from {pkg.__file__}, not from {SRC}")
    return {name: importlib.import_module(f"freeflood.{name}")
            for name in ("cli", "instances", "graphs", "oracle")}


def setup_sample() -> float:
    argv = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


class Paths:
    """Where one run keeps its instance and move files."""

    def __init__(self, workdir: Path, corpus_: list) -> None:
        self.boards = []
        self.moves = []
        for i, inst in enumerate(corpus_):
            board = workdir / f"{i:03d}.txt"
            board.write_text(inst.text, encoding="utf-8")
            self.boards.append(str(board))
            self.moves.append(str(workdir / f"{i:03d}.moves"))


class Runner:
    """One instance's path through the package, timed per CLI call."""

    def __init__(self, modules: dict) -> None:
        self.m = modules

    def call(self, argv: list[str]) -> tuple[int, str, float]:
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = self.m["cli"].main(argv)
        return rc, out.getvalue(), time.perf_counter() - start

    def instance(self, kind: str, board: str, moves: str):
        """(outputs, solve seconds, verify seconds); an escaping exception is an output too."""
        solve_s = verify_s = 0.0
        got = {}
        try:
            if kind == "graph":
                got["oracle_rc"], got["oracle_out"], _ = self.call(
                    ["oracle", board, "--format", "machine"])
            got["solve_rc"], got["solve_out"], solve_s = self.call(
                ["solve", board, "--format", "machine", "--moves-out", moves])
            with open(moves, encoding="utf-8") as handle:
                got["moves"] = handle.read()
            got["verify_rc"], got["verify_out"], verify_s = self.call(["verify", board, moves])
            if kind == "graph":
                with open(board, encoding="utf-8") as handle:
                    text = handle.read()
                rg, _ = self.m["graphs"].reduce(self.m["instances"].parse_graph(text))
                oracle = self.m["oracle"]
                got["lemmas"] = tuple(
                    (r.lemma, r.instances_checked, r.ok)
                    for r in (oracle.check_radius_bounds(rg), oracle.check_distance_bounds(rg),
                              oracle.check_far_witness(rg)))
        except Exception as exc:  # a traceback is a wrong answer, not the end of the run
            got["error"] = f"{type(exc).__name__} escaped: {exc}"
        return refcheck.Outputs(**got), solve_s, verify_s


def output_key(out):
    """`out` without the solve timings, which differ on every execution."""
    try:
        doc = json.loads(out.solve_out)
    except ValueError:
        return out
    if isinstance(doc, dict) and doc.pop("timings", None) is not None:
        return out._replace(solve_out=json.dumps(doc))
    return out


class Record:
    """Every execution of one run, folded as it comes in.

    For each instance, traced and untraced apart: the number of executions
    and the fastest instance, solve and verify times.  Each distinct output
    (the solve timings left out) is kept once, with a count.  What the record
    holds does not grow with the number of rounds, so the peak RSS stays the
    program's.
    """

    def __init__(self, size: int) -> None:
        inf = float("inf")
        self.executions = {traced: [0] * size for traced in (False, True)}
        # best[traced][i] = [instance_ms, solve_ms, verify_ms]
        self.best = {traced: [[inf, inf, inf] for _ in range(size)] for traced in (False, True)}
        self.outputs: dict[tuple[int, bool, refcheck.Outputs], list] = {}

    def add(self, index, traced, outputs, instance_s, solve_s, verify_s) -> None:
        self.executions[traced][index] += 1
        best = self.best[traced][index]
        for k, seconds in enumerate((instance_s, solve_s, verify_s)):
            best[k] = min(best[k], seconds * 1000.0)
        seen = self.outputs.setdefault((index, traced, output_key(outputs)), [0, outputs])
        seen[0] += 1

    def attempted(self) -> int:
        return sum(map(sum, self.executions.values()))

    def fastest(self, k: int, traced=False) -> list[float]:
        """Each instance's fastest execution, in corpus order: 0 instance, 1 solve, 2 verify."""
        return [times[k] for times in self.best[traced]]


def run_round(runner, corpus_, paths, record, traced_instance=None) -> None:
    instance = traced_instance or runner.instance
    for i, inst in enumerate(corpus_):
        start = time.perf_counter()
        outputs, solve_s, verify_s = instance(inst.kind, paths.boards[i], paths.moves[i])
        record.add(i, traced_instance is not None, outputs, time.perf_counter() - start,
                   solve_s, verify_s)


def check_all(corpus_, record) -> tuple[int, list[str], list]:
    """Failed executions, their faults, and the reference of every instance."""
    refs = [refcheck.reference(inst) for inst in corpus_]
    failed = 0
    faults = []
    for (i, _, _), (times, out) in record.outputs.items():
        fault = refcheck.problem(corpus_[i], refs[i], out)
        if fault:
            failed += times
            faults.append(f"{corpus_[i].name}: {fault}")
    return failed, faults, refs


def end_to_end(record, setup, peak_rss_mb) -> dict:
    instance_ms = record.fastest(0)
    return {
        "instances_per_s": {"value": 1000.0 * len(instance_ms) / sum(instance_ms), "unit": "1/s"},
        "instance_ms.p50": {"value": statistics.median(instance_ms), "unit": "ms"},
        "solve_ms.p50": {"value": statistics.median(record.fastest(1)), "unit": "ms"},
        "verify_ms.p50": {"value": statistics.median(record.fastest(2)), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(summary, record) -> dict:
    count = sum(record.executions[True])
    states = lemma_checks = 0
    for (_, traced, _), (times, out) in record.outputs.items():
        if not traced:
            continue
        if out.oracle_out:
            with contextlib.suppress(ValueError, AttributeError):
                states += times * json.loads(out.oracle_out).get("states_explored", 0)
        lemma_checks += times * sum(checked for _, checked, _ in out.lemmas)
    metrics = {name: {"value": ms / count, "unit": "ms"} for name, ms in summary["time_ms"].items()}
    metrics.update({name: {"value": n / count, "unit": "count"}
                    for name, n in summary["calls"].items()})
    metrics["oracle.states_explored"] = {"value": states / count, "unit": "count"}
    metrics["oracle.lemma_checks"] = {"value": lemma_checks / count, "unit": "count"}
    return metrics


def trace_report(summary, record) -> bool:
    """Print the traced time by module and the tracing overhead.

    True if every traced call is charged to a per-layer metric, so that the
    metrics and the harness's own time add up to the traced instance time.
    """
    roots = summary["roots"]
    metric_sum = sum(summary["time_ms"].values())
    split = " + ".join(f"{layer} {ms / roots:.3f}" for layer, ms in
                       sorted(summary["by_layer"].items(), key=lambda kv: -kv[1]))
    print(f"# trace: traced instance {summary['root_ms'] / roots:.3f} ms = {split} ms;"
          f" per-layer time metrics {metric_sum / roots:.3f} ms"
          f" + harness (bench) {summary['harness_ms'] / roots:.3f} ms")
    if summary["unmapped"]:
        print(f"# trace: charged to no metric: {' '.join(summary['unmapped'])}")
    plain = statistics.fmean(record.fastest(0))
    traced = statistics.fmean(record.fastest(0, traced=True))
    print(f"# trace overhead (each instance's fastest execution): traced {traced:.3f} ms"
          f" - untraced {plain:.3f} ms = {traced - plain:+.3f} ms per instance"
          f" ({100.0 * (traced - plain) / plain:+.1f}%)")
    total = metric_sum + summary["harness_ms"]
    return (roots == sum(record.executions[True]) and not summary["unmapped"]
            and abs(total - summary["root_ms"]) <= 1e-6 * summary["root_ms"]
            and summary["min_self_ms"] > -1e-6)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    modules = import_package()
    corpus_ = corpus.make_corpus(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paths = Paths(workdir, corpus_)
        runner = Runner(modules)
        record = Record(len(corpus_))
        tracer = spans.Tracer() if args.trace else None
        traced_instance = tracer.wrap(spans.ROOT, runner.instance) if tracer else None
        # One untimed instance and one untimed interpreter first: the first
        # timed round then does not also pay for growing the heap, nor the
        # first setup sample for writing the bytecode cache.
        runner.instance(corpus_[0].kind, paths.boards[0], paths.moves[0])
        setup_sample()
        setup: list[float] = []
        gc.collect()
        cpu0 = time.process_time()
        measured_s = 0.0
        rounds = 0
        while measured_s < args.seconds:
            start = time.perf_counter()
            run_round(runner, corpus_, paths, record)
            if tracer is not None:
                tracer.install()
                try:
                    run_round(runner, corpus_, paths, record, traced_instance)
                finally:
                    tracer.uninstall()
            measured_s += time.perf_counter() - start
            rounds += 1
            # Setup samples are spread evenly over the run, between rounds and
            # outside the measured time.
            while not args.trace and len(setup) < SETUP_SAMPLES * min(1.0, measured_s / args.seconds):
                setup.append(setup_sample())
        cpu_s = time.process_time() - cpu0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed, faults, refs = check_all(corpus_, record)
    attempted = record.attempted()
    print(f"# {args.workload} seed {args.seed}: {len(corpus_)} instances x {rounds}"
          f" {'untraced and traced round pairs' if tracer else 'rounds'} = {attempted}"
          f" in {measured_s:.2f} s;"
          f" CPU {cpu_s:.2f} s ({100.0 * cpu_s / measured_s:.1f}% of wall)")
    zones = [r.zones for r in refs]
    print(f"# corpus: n {corpus_[0].n}..{corpus_[-1].n}, zones {min(zones)}..{max(zones)}"
          f" (median {statistics.median(zones):g}), zone edges median"
          f" {statistics.median(r.zone_edges for r in refs):g},"
          f" radius {min(r.radius for r in refs)}..{max(r.radius for r in refs)}")
    for fault in faults[:5]:
        print(f"# FAILED {fault}")
    correct = True
    if tracer is None:
        runs = record.executions[False]
        print(f"# every execution: {attempted / measured_s:.3f} instances/s of wall time;"
              f" each time metric is the fastest of {min(runs)}..{max(runs)}"
              f" executions per instance")
        print(f"# setup samples (s): {' '.join(f'{s:.4f}' for s in setup)}")
        metrics = end_to_end(record, setup, peak_rss_mb)
    else:
        summary = tracer.summary()
        correct = trace_report(summary, record)
        metrics = per_layer(summary, record)
        spans_path = WORK / f"spans-{args.workload}.txt"
        tracer.write(spans_path)
        print(f"# {len(tracer.fid)} spans written to {spans_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's reference checks against hand-computed answers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json

import pytest

import refcheck
from corpus import graph_instance, grid_instance


def board(*rows: str):
    return grid_instance("t", len(rows), len(rows[0]), [int(ch) for row in rows for ch in row])


def outputs(inst, optimum, moves, verdict="verdict optimal", **extra):
    """Outputs shaped like the package's, with the digest of the canonical text."""
    digest = hashlib.sha256(refcheck.canonical_text(inst).encode()).hexdigest()
    solve = {"command": "solve", "digest": digest, "n": inst.n, "m": inst.m,
             "optimum": optimum, "center_vertex": moves[0][0] if moves else 0,
             "moves": [list(mv) for mv in moves], "timings": {"solve_ms": 1.0}}
    fields = dict(solve_rc=0, solve_out=json.dumps(solve) + "\n",
                  moves="".join(f"{v} {c}\n" for v, c in moves),
                  verify_rc=0 if verdict == "verdict optimal" else 6, verify_out=verdict + "\n")
    if inst.kind == "graph":
        oracle = {"command": "oracle", "digest": digest, "optimum": optimum,
                  "states_explored": 5, "exhausted": True}
        fields.update(oracle_rc=0, oracle_out=json.dumps(oracle) + "\n",
                      lemmas=(("radius-bounds", 4, True), ("distance-bounds", 6, True),
                              ("far-witness", 1, True)))
    fields.update(extra)
    return refcheck.Outputs(**fields)


def problem(inst, out):
    return refcheck.problem(inst, refcheck.reference(inst), out)


def test_readme_example_has_optimum_two():
    assert refcheck.reference(board("01", "10")).radius == 2


def test_one_colour_board_has_optimum_zero():
    inst = board("000", "000")
    assert refcheck.reference(inst).radius == 0
    assert problem(inst, outputs(inst, 0, [])) is None


@pytest.mark.parametrize("k", range(1, 10))
def test_path_of_alternating_zones_has_half_its_length(k):
    row = board("".join("01"[i % 2] for i in range(k)))
    assert refcheck.reference(row).radius == k // 2
    # The same path as a general graph whose zones hold two vertices each.
    colors = [i // 2 % 2 for i in range(2 * k)]
    path = graph_instance("p", colors, [(i, i + 1) for i in range(2 * k - 1)])
    assert refcheck.reference(path).radius == k // 2


def test_canonical_text_of_a_board_is_the_graph_file_format():
    assert refcheck.canonical_text(board("01", "10")) == "4 4 2\n0\n1\n1\n0\n0 1\n0 2\n1 3\n2 3\n"
    assert refcheck.canonical_text(board("000")) == "3 2 1\n0\n0\n0\n0 1\n1 2\n"


def test_board_edge_count_is_2rc_minus_r_minus_c():
    inst = board("0101", "1010", "0110")
    assert inst.m == 2 * 3 * 4 - 3 - 4 == len(refcheck.canonical_text(inst).splitlines()) - 1 - 12


def test_right_answer_passes():
    inst = board("01", "10")
    assert problem(inst, outputs(inst, 2, [(0, 1), (0, 0)])) is None


def test_move_list_one_move_short_fails():
    inst = board("01", "10")
    out = outputs(inst, 2, [(0, 1)])
    assert problem(inst, out) == "1 moves for optimum 2"


def test_wrong_optimum_fails():
    inst = board("01", "10")
    assert "reference radius 2" in problem(inst, outputs(inst, 1, [(0, 1)]))
    assert "reference radius 2" in problem(inst, outputs(inst, 3, [(0, 1), (0, 0), (0, 1)]))


def test_moves_that_leave_two_colours_fail():
    inst = board("0110")  # zones 0 | 11 | 0: radius 1, from the middle zone only
    assert problem(inst, outputs(inst, 1, [(1, 0)])) is None
    assert problem(inst, outputs(inst, 1, [(0, 1)])) == "board is not one colour after the moves"
    assert problem(inst, outputs(inst, 1, [(1, 1)])) == (
        "move 1 does not change the colour of vertex 1")


def test_moves_on_two_vertices_fail():
    inst = board("01", "10")
    assert problem(inst, outputs(inst, 2, [(0, 1), (3, 1)])) == "moves target more than one vertex"


def test_wrong_digest_size_or_verdict_fails():
    inst = board("01", "10")
    good = outputs(inst, 2, [(0, 1), (0, 0)])
    doc = json.loads(good.solve_out)
    assert "digest" in problem(inst, good._replace(
        solve_out=json.dumps({**doc, "digest": "0" * 64})))
    assert "n=4 m=3" in problem(inst, good._replace(solve_out=json.dumps({**doc, "m": 3})))
    assert "verify exited 6" in problem(
        inst, outputs(inst, 2, [(0, 1), (0, 0)], verdict="verdict feasible_suboptimal"))
    assert "move file differs" in problem(inst, good._replace(moves="0 1\n"))
    assert "not 'vertex color'" in problem(inst, good._replace(moves="0 1 2\n"))
    assert "not one JSON object" in problem(inst, good._replace(solve_out="[1, 2]"))
    assert "not one JSON object" in problem(inst, good._replace(solve_out="optimum 2"))
    assert "escaped" in problem(inst, refcheck.Outputs(error="ValueError escaped: x"))


def test_graph_instance_needs_an_exhausted_oracle_and_clean_lemmas():
    # A 4-cycle with alternating colours is the README board as a graph: radius 2.
    inst = graph_instance("c4", [0, 1, 0, 1], [(0, 1), (1, 2), (2, 3), (0, 3)])
    good = outputs(inst, 2, [(0, 1), (0, 0)])
    assert problem(inst, good) is None
    doc = json.loads(good.oracle_out)
    assert problem(inst, good._replace(oracle_out=json.dumps({**doc, "exhausted": False}))) == (
        "oracle did not exhaust its search")
    assert "oracle optimum 1" in problem(inst, good._replace(
        oracle_out=json.dumps({**doc, "optimum": 1})))
    bad = good.lemmas[:2] + (("far-witness", 1, False),)
    assert "far-witness" in problem(inst, good._replace(lemmas=bad))

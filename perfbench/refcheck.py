"""Independent reference checks for the outputs the benchmark collects.

Nothing here imports the package.  Zone labelling, breadth-first search,
flooding and the canonical graph text are the benchmark's own code, so a
fault in the package cannot hide in its own reference.  Each check returns
None when an instance's outputs are right, and otherwise one line saying
what is wrong; the benchmark counts such an instance as failed.
"""

from __future__ import annotations

import hashlib
import json
from typing import NamedTuple

VERDICT_OPTIMAL = "verdict optimal"


class Outputs(NamedTuple):
    """What one instance's path produced: exit codes and captured stdout."""

    solve_rc: int | None = None
    solve_out: str = ""
    moves: str = ""                 # the file written by `solve --moves-out`
    verify_rc: int | None = None
    verify_out: str = ""
    oracle_rc: int | None = None    # graph-certify only
    oracle_out: str = ""
    lemmas: tuple = ()              # graph-certify only: (lemma, instances_checked, ok)
    error: str = ""                 # an exception that escaped the path


class Reference(NamedTuple):
    adjacency: list
    radius: int
    digest: str
    zones: int
    zone_edges: int


def grid_adjacency(rows: int, cols: int) -> list[list[int]]:
    """4-neighbour adjacency lists of a rows x cols board, row-major ids."""
    adj = []
    for v in range(rows * cols):
        r, c = divmod(v, cols)
        row = []
        if r:
            row.append(v - cols)
        if c:
            row.append(v - 1)
        if c + 1 < cols:
            row.append(v + 1)
        if r + 1 < rows:
            row.append(v + cols)
        adj.append(row)
    return adj


def adjacency_lists(n: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def zone_graph(adj, colors) -> tuple[list[int], list[set[int]]]:
    """Zone of each vertex, and the zone graph as adjacency sets."""
    n = len(adj)
    zone = [-1] * n
    count = 0
    for s in range(n):
        if zone[s] >= 0:
            continue
        zone[s] = count
        stack = [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if zone[w] < 0 and colors[w] == colors[u]:
                    zone[w] = count
                    stack.append(w)
        count += 1
    zadj = [set() for _ in range(count)]
    for u in range(n):
        for w in adj[u]:
            if zone[u] != zone[w]:
                zadj[zone[u]].add(zone[w])
    return zone, zadj


def zone_radius(zadj) -> int:
    """Least eccentricity over the zones: one breadth-first search per zone."""
    best = len(zadj)
    for s in range(len(zadj)):
        seen = {s}
        frontier = [s]
        ecc = 0
        while frontier:
            nxt = []
            for u in frontier:
                for w in zadj[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            if nxt:
                ecc += 1
            frontier = nxt
        best = min(best, ecc)
    return best


def flood(adj, colors: bytearray, vertex: int, color: int) -> None:
    """Recolour the zone holding `vertex` in place."""
    old = colors[vertex]
    colors[vertex] = color
    stack = [vertex]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if colors[w] == old:
                colors[w] = color
                stack.append(w)


def canonical_text(inst) -> str:
    """The graph file text the package must digest: header, colours, sorted edges."""
    if inst.kind == "graph":
        return inst.text
    rows, cols = inst.rows, inst.cols
    lines = [f"{inst.n} {inst.m} {max(inst.colors) + 1}"]
    lines.extend(str(c) for c in inst.colors)
    for v in range(rows * cols):
        if (v + 1) % cols:
            lines.append(f"{v} {v + 1}")
        if v + cols < rows * cols:
            lines.append(f"{v} {v + cols}")
    return "\n".join(lines) + "\n"


def reference(inst) -> Reference:
    if inst.kind == "grid":
        adj = grid_adjacency(inst.rows, inst.cols)
    else:
        adj = adjacency_lists(inst.n, inst.edges)
    zadj = zone_graph(adj, inst.colors)[1]
    digest = hashlib.sha256(canonical_text(inst).encode()).hexdigest()
    return Reference(adj, zone_radius(zadj), digest, len(zadj), sum(map(len, zadj)) // 2)


def parse_moves(text: str) -> list[tuple[int, int]]:
    moves = []
    for line in text.splitlines():
        if line.strip():
            vertex, color = line.split()
            moves.append((int(vertex), int(color)))
    return moves


def replay_problem(adj, colors, moves, optimum: int) -> str | None:
    """Replay the moves: exactly `optimum` of them, one vertex, one colour at the end."""
    if len(moves) != optimum:
        return f"{len(moves)} moves for optimum {optimum}"
    if any(v != moves[0][0] for v, _ in moves):
        return "moves target more than one vertex"
    board = bytearray(colors)
    for step, (v, c) in enumerate(moves, start=1):
        if not (0 <= v < len(board) and c in (0, 1)):
            return f"move {step} ({v} {c}) is out of range"
        if board[v] == c:
            return f"move {step} does not change the colour of vertex {v}"
        flood(adj, board, v, c)
    if board.count(board[0]) != len(board):
        return "board is not one colour after the moves"
    return None


def _machine_doc(rc, out, command, inst, ref) -> tuple[dict | None, str | None]:
    if rc != 0:
        return None, f"{command} exited {rc}"
    try:
        doc = json.loads(out)
    except ValueError:
        doc = None
    if not isinstance(doc, dict):
        return None, f"{command} output is not one JSON object"
    if doc.get("command") != command:
        return None, f"{command} output names command {doc.get('command')!r}"
    if doc.get("digest") != ref.digest:
        return None, f"{command} digest differs from sha256 of the canonical text"
    if doc.get("optimum") != ref.radius:
        return None, f"{command} optimum {doc.get('optimum')}, reference radius {ref.radius}"
    return doc, None


def problem(inst, ref: Reference, out: Outputs) -> str | None:
    """None when every output of one instance is right, else the first fault."""
    if out.error:
        return out.error
    doc, fault = _machine_doc(out.solve_rc, out.solve_out, "solve", inst, ref)
    if fault:
        return fault
    if (doc.get("n"), doc.get("m")) != (inst.n, inst.m):
        return f"solve reports n={doc.get('n')} m={doc.get('m')}, board has n={inst.n} m={inst.m}"
    try:
        moves = parse_moves(out.moves)
    except ValueError:
        return "move file is not 'vertex color' lines"
    if [list(mv) for mv in moves] != doc.get("moves"):
        return "move file differs from the moves in the solve output"
    if moves and doc.get("center_vertex") != moves[0][0]:
        return "moves do not target the reported center vertex"
    fault = replay_problem(ref.adjacency, inst.colors, moves, doc["optimum"])
    if fault:
        return fault
    if out.verify_rc != 0 or out.verify_out.strip() != VERDICT_OPTIMAL:
        return f"verify exited {out.verify_rc} with {out.verify_out.strip()!r}"
    if inst.kind == "graph":
        doc, fault = _machine_doc(out.oracle_rc, out.oracle_out, "oracle", inst, ref)
        if fault:
            return fault
        if doc.get("exhausted") is not True:
            return "oracle did not exhaust its search"
        if len(out.lemmas) != 3:
            return f"{len(out.lemmas)} lemma reports, expected 3"
        for lemma, checked, ok in out.lemmas:
            if not ok or checked < 1:
                return f"lemma {lemma}: ok={ok} after {checked} checks"
    return None

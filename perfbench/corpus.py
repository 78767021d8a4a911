"""Seeded instance corpora for the three benchmark workloads.

The generators are the benchmark's own.  They do not call the package's
random-instance helpers or its `gen` command, so rewriting those leaves the
workloads unchanged.  The same (workload, seed) pair always yields the same
corpus, byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from refcheck import adjacency_lists, grid_adjacency, zone_graph, zone_radius

# grid-random: uniform two-colour boards of one side.  A 64x64 board has
# 590 zones on average (standard deviation about 23), and the radius sweep
# costs about the square of that; boards outside a band around the average
# are redrawn, so that every seed's corpus costs the same to solve.
RANDOM_SIDE = 64
RANDOM_BOARDS = 12
RANDOM_ZONES = (580, 600)

# grid-blobs: large boards painted in square blocks.  Every board is drawn
# with the same block-graph radius, so `verify` floods the same number of
# times on each board and the per-cell layers stay the measured cost.
BLOB_SIDE = 256
BLOB_BLOCK = 32
BLOB_RADIUS = 3
BLOB_BOARDS = 4

# graph-certify: small general graphs.  At most 20 vertices keeps every
# lemma checker inside its guard (20 zones for the far-witness checker) and
# lets the oracle exhaust its search well under its default state budget.
CERTIFY_SIZES = (10, 12, 14, 16, 18, 20)
CERTIFY_PER_SIZE = 16
CERTIFY_MIN_ZONES = 3

WORKLOADS = ("grid-random", "grid-blobs", "graph-certify")


@dataclass(frozen=True)
class Instance:
    """One corpus entry: its file text plus what the reference checks need.

    Grids keep only their shape and cells; the reference builds adjacency
    lists after the timed region, so the benchmark holds no large object
    graph while the program runs.
    """

    name: str
    kind: str                                   # "grid" or "graph"
    text: str                                   # the instance file handed to the CLI
    colors: bytes                               # one colour per vertex, row-major for grids
    rows: int = 0
    cols: int = 0
    edges: tuple[tuple[int, int], ...] = ()     # graphs only: sorted, u < v

    @property
    def n(self) -> int:
        return len(self.colors)

    @property
    def m(self) -> int:
        if self.kind == "grid":
            return 2 * self.rows * self.cols - self.rows - self.cols
        return len(self.edges)


def grid_instance(name: str, rows: int, cols: int, cells) -> Instance:
    cells = bytes(cells)
    text = "".join(
        "".join("01"[c] for c in cells[r * cols : (r + 1) * cols]) + "\n" for r in range(rows)
    )
    return Instance(name, "grid", text, cells, rows, cols)


def graph_instance(name: str, colors, edges) -> Instance:
    """A graph file in canonical form: header, colours, edges sorted with u < v."""
    edges = tuple(sorted((u, v) if u < v else (v, u) for u, v in edges))
    lines = [f"{len(colors)} {len(edges)} 2"]
    lines.extend(str(c) for c in colors)
    lines.extend(f"{u} {v}" for u, v in edges)
    return Instance(name, "graph", "\n".join(lines) + "\n", bytes(colors), edges=edges)


def grid_random(seed: int) -> list[Instance]:
    rng = random.Random(f"grid-random:{seed}")
    adj = grid_adjacency(RANDOM_SIDE, RANDOM_SIDE)
    low, high = RANDOM_ZONES
    out = []
    while len(out) < RANDOM_BOARDS:
        cells = [rng.getrandbits(1) for _ in range(len(adj))]
        if low <= len(zone_graph(adj, cells)[1]) <= high:
            out.append(grid_instance(f"random{len(out):02d}", RANDOM_SIDE, RANDOM_SIDE, cells))
    return out


def grid_blobs(seed: int) -> list[Instance]:
    rng = random.Random(f"grid-blobs:{seed}")
    blocks = BLOB_SIDE // BLOB_BLOCK
    out = []
    while len(out) < BLOB_BOARDS:
        paint = [rng.getrandbits(1) for _ in range(blocks * blocks)]
        if zone_radius(zone_graph(grid_adjacency(blocks, blocks), paint)[1]) != BLOB_RADIUS:
            continue
        cells = [
            paint[(r // BLOB_BLOCK) * blocks + c // BLOB_BLOCK]
            for r in range(BLOB_SIDE)
            for c in range(BLOB_SIDE)
        ]
        out.append(grid_instance(f"blobs{len(out):02d}", BLOB_SIDE, BLOB_SIDE, cells))
    return out


def graph_certify(seed: int) -> list[Instance]:
    """Random spanning tree plus a few chords, coloured to give many zones.

    A child takes the other colour than its tree parent four times in five,
    so most graphs have nearly as many zones as vertices.  Vertex ids are
    shuffled so zone ids do not follow the tree order.
    """
    rng = random.Random(f"graph-certify:{seed}")
    out = []
    for n in CERTIFY_SIZES:
        made = 0
        while made < CERTIFY_PER_SIZE:
            tree_colors = [rng.getrandbits(1)]
            edges = set()
            for v in range(1, n):
                u = rng.randrange(v)
                edges.add((u, v))
                flip = rng.random() < 0.8
                tree_colors.append(1 - tree_colors[u] if flip else tree_colors[u])
            want = n - 1 + rng.randint(0, n // 4)
            while len(edges) < want:
                u, v = sorted(rng.sample(range(n), 2))
                edges.add((u, v))
            perm = list(range(n))
            rng.shuffle(perm)
            colors = [0] * n
            for v in range(n):
                colors[perm[v]] = tree_colors[v]
            edges = [(perm[u], perm[v]) for u, v in edges]
            if len(zone_graph(adjacency_lists(n, edges), colors)[1]) < CERTIFY_MIN_ZONES:
                continue
            out.append(graph_instance(f"graph{n:02d}-{made:02d}", colors, edges))
            made += 1
    return out


def make_corpus(workload: str, seed: int) -> list[Instance]:
    return {"grid-random": grid_random, "grid-blobs": grid_blobs,
            "graph-certify": graph_certify}[workload](seed)

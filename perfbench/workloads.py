"""The benchmark's workloads: each is a slice of the validation battery.

A workload turns (workload seed, repetition) into a fixed list of cells.  A
cell is one `harness.run_cell` call (one algorithm on one instance and seed,
oracle-checked and priced at every k), or, in `placement`, one instance
generated, partitioned and checked against criterion 3's bounds.  Cell seeds
come from the benchmark's own hash, never from `kmachine.rng`, so a change
to the program's randomness cannot change the inputs.

Calls go through module attributes (`harness.run_cell`, `graphs.generate`,
...) at call time, so the traced mode's wrappers see them.
"""

import hashlib
import math
import struct
from dataclasses import dataclass

from kmachine import graphs, harness, machines
from kmachine.programs import AlgoConfig, default_tokens_per_node

SEED_RANGE = 2**31
# A failed PageRank cell counts as a Monte Carlo walk miss only if each of
# its estimate checks missed by at most this factor of its own limit.
WALK_MISS_MARGIN = 1.5


def cell_seed(seed: int, workload: str, rep: int, j: int) -> int:
    h = hashlib.blake2b(digest_size=8)
    h.update(workload.encode())
    h.update(struct.pack(">qqq", seed, rep, j))
    return int.from_bytes(h.digest(), "big") % SEED_RANGE


@dataclass
class Outcome:
    """A finished cell.  `walk_miss` marks a PageRank cell whose only failure
    is a marginal miss of the Monte Carlo estimate checks, which happens at a
    known small rate."""

    ok: bool
    walk_miss: bool
    digest_text: str
    sim: dict  # simulated counts: T_C, M, B, km_rounds


@dataclass(frozen=True)
class Cell:
    label: str
    run: object  # () -> Outcome


def walk_miss(res, cfg):
    """True if a PageRank result fails only by a marginal estimate miss: the
    pricing bounds hold, and the sum check (and the l1 check, where the
    harness applies it) missed by at most WALK_MISS_MARGIN of its limit.
    Mirrors the limits of the harness's PageRank validator."""
    if res.algorithm != "pagerank":
        return False
    if not all(rep.bound_ok for rep in res.reports.values()):
        return False
    n = res.instance.graph.n
    per_node = cfg.algo.tokens_per_node or default_tokens_per_node(n)
    if abs(res.details["sum"] - 1.0) > WALK_MISS_MARGIN * 3.0 / math.sqrt(per_node * n):
        return False
    l1 = res.details["l1"]
    l1_checked = l1 is not None and per_node >= 100 * math.log2(max(2, n))
    return not l1_checked or l1 <= WALK_MISS_MARGIN * 0.1


def _harness_cell(algorithm, graph, seed, ks, **algo):
    cfg = harness.ExperimentConfig(
        algorithm=algorithm, graph=graph, k=list(ks), seeds=[seed],
        algo=AlgoConfig(**algo),
    )

    def run():
        res = harness.run_cell(cfg, seed)
        rows = harness.rows_from_result(res)
        ok = res.valid and all(r["success"] for r in rows)
        return Outcome(
            ok=ok,
            walk_miss=not ok and walk_miss(res, cfg),
            digest_text=harness.format_csv(rows),
            sim={
                "T_C": res.metrics.rounds,
                "M": res.metrics.messages,
                "B": res.metrics.broadcasts,
                "km_rounds": sum(r["km_rounds"] for r in rows),
            },
        )

    return Cell(f"{algorithm}:{graph.get('n', graph.get('b'))}:{seed}", run)


PRICED_KS = (2, 4, 8, 16, 32)
BIG_GNP = {"model": "gnp", "n": 4096, "p": 0.02}


def walk_p2p(seed, rep):
    # criterion 6's shape: PageRank priced point-to-point at five machine counts
    return [_harness_cell("pagerank", BIG_GNP, cell_seed(seed, "walk_p2p", rep, 0),
                          PRICED_KS, gamma=0.15)]


def merge_bcast(seed, rep):
    # criterion 5's shape: fragment-merging MST priced with broadcast dedup
    return [_harness_cell("mst", BIG_GNP, cell_seed(seed, "merge_bcast", rep, 0),
                          PRICED_KS)]


PLACEMENT_N, PLACEMENT_P, PLACEMENT_KS = 2048, 0.1, (4, 8, 16)
PLACEMENT_CELLS = 5


def _placement_cell(s):
    def run():
        n = PLACEMENT_N
        g = graphs.generate("gnp", n, s, p=PLACEMENT_P)
        delta = g.max_degree()
        ok = True
        lines = [f"n={n} m={g.m} delta={delta}"]
        for k in PLACEMENT_KS:
            part = machines.random_vertex_partition(g, k, s + k)
            mv, me = machines.check_mapping_bounds(g, part)
            # criterion 3's vertex and link bounds
            ok &= mv <= 4.0 * n / k
            ok &= me <= 8.0 * math.log2(n) * (g.m / k**2 + delta / k)
            lines.append(f"k={k} max_vertices={mv} max_link_edges={me}")
        return Outcome(ok=ok, walk_miss=False, digest_text="\n".join(lines) + "\n",
                       sim={})

    return Cell(f"placement:{s}", run)


def placement(seed, rep):
    # criterion 3's shape: bulk Graph construction and placement, no engine
    return [_placement_cell(cell_seed(seed, "placement", rep, j))
            for j in range(PLACEMENT_CELLS)]


def _gnp(n, p):
    return {"model": "gnp", "n": n, "p": p}


def _weighted(n, p, wmax):
    return {"model": "random_weighted", "n": n, "p": p, "wmax": wmax}


# (algorithm, graph spec, algorithm parameters): the battery's small shapes
# from criteria 2 (oracle agreement), 9 (walk accuracy) and 11 (determinism)
SMALL_SHAPES = [
    ("bfs", _gnp(32, 0.1), {}),
    ("bfs", _gnp(128, 0.1), {}),
    ("bfs", _gnp(48, 0.15), {}),
    ("bf_sssp", _weighted(32, 0.3, 100), {}),
    ("bf_sssp", _weighted(128, 0.3, 100), {}),
    ("bf_sssp", _weighted(48, 0.3, 60), {}),
    ("mst", _weighted(16, 0.3, 1000), {}),
    ("mst", _weighted(64, 0.3, 1000), {}),
    ("mst", _weighted(256, 0.3, 1000), {}),
    ("mst", _weighted(48, 0.3, 60), {}),
    ("conn", {"gadget": "conn", "b": 32, "feasible": True}, {}),
    ("conn", {"gadget": "conn", "b": 32, "feasible": False}, {}),
    ("conn", {"gadget": "conn", "b": 24}, {}),
    ("stverify", {"gadget": "stverify", "b": 16, "feasible": True}, {}),
    ("stverify", {"gadget": "stverify", "b": 16, "feasible": False}, {}),
    ("stverify", {"gadget": "stverify", "b": 12}, {}),
    ("pagerank", _gnp(64, 0.2), {"gamma": 0.15, "tokens_per_node": 600}),
    ("pagerank", _gnp(32, 0.2), {}),
    ("mis", _gnp(256, 0.1), {}),
    ("mis", _gnp(48, 0.15), {}),
    ("spanner", _gnp(64, 0.3), {"delta": 2}),
    ("spanner", _gnp(128, 0.3), {"delta": 7}),
    ("spanner", _gnp(48, 0.25), {}),
    ("densest", _gnp(8, 0.5), {}),
    ("densest", _gnp(12, 0.3), {}),
    ("densest", _gnp(10, 0.5), {}),
    ("triangle", _gnp(64, 0.2), {}),
    ("triangle", _gnp(32, 0.2), {}),
    ("hmis", {"hyper": True, "n": 64, "hyperedges": 128, "arity": 3}, {}),
    ("hmis", {"hyper": True, "n": 48, "hyperedges": 96, "arity": 3}, {}),
    ("logsp", _gnp(32, 0.3), {}),
]
SMALL_KS = (2, 4)


def small_cells(seed, rep):
    # every algorithm on the battery's small shapes: scalar Graph constructor,
    # oracles, machine-level programs and per-cell harness overhead
    return [_harness_cell(alg, spec, cell_seed(seed, "small_cells", rep, j),
                          SMALL_KS, **algo)
            for j, (alg, spec, algo) in enumerate(SMALL_SHAPES)]


# Nominal wall seconds of one repetition of each body, measured on a 2-CPU
# x86 box with Python 3.11.  A run does round(seconds / nominal) repetitions,
# so the inputs it checks depend only on the workload, the seed and the
# requested seconds, never on how fast the host or the code under test is.
NOMINAL_REP_S = {
    "walk_p2p": 8.0,
    "merge_bcast": 2.0,
    "placement": 2.75,
    "small_cells": 1.4,
}


def repetitions(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_REP_S[workload]))


WORKLOADS = {
    "walk_p2p": walk_p2p,
    "merge_bcast": merge_bcast,
    "placement": placement,
    "small_cells": small_cells,
}

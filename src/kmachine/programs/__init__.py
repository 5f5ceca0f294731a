"""The algorithm suite, each entry addressable by a stable string name."""

from dataclasses import dataclass

from ..clique import CliqueMetrics, run_clique
from ..machines import BCAST, P2P, price, random_vertex_partitions
from .config import AlgoConfig, ConfigError
from .densest import densest_subgraph_program
from .fragments import conn_program, merge_key, mst_program, st_verify_program
from .hypergraph_mis import hmis_kmachine, hmis_round_bound
from .mis import default_phase_budget, luby_mis_program
from .paths import bellman_ford_program, bfs_program
from .spanner import logapprox_shortest_paths, spanner_program, spanner_union
from .triangle import triangle_program
from .walks import (
    default_tokens_per_node,
    pagerank_program,
    walk_round_budget,
    walk_shape,
)


@dataclass(frozen=True)
class Algorithm:
    """One entry of ALGORITHMS: how a cell of the algorithm runs and what
    its config may hold.

    A clique algorithm has a `program(instance, cfg) -> Program` (the
    instance is the harness's: its graph, plus stverify's candidate edges),
    the `mode` it is priced in ("bcast" marks the programs that never send a
    unicast) and `budget(n, cfg)`, the engine's round limit (None: the
    engine's own).  A machine-level algorithm has a `runner(graph, parts, W,
    seed, cfg)` that runs on its own schedule, prices exactly the partitions
    it is handed, and takes no mode.  `min_k` is the fewest machines it runs
    on; `hyper` marks an algorithm whose instance is a random hypergraph;
    `reads` names the AlgoConfig fields that its cells read.
    """

    program: object = None
    mode: str = None
    budget: object = lambda n, cfg: None
    runner: object = None
    min_k: int = 1
    hyper: bool = False
    reads: tuple = ()

    def run(self, inst, ks, W, mode, seed, cfg):
        """(outputs, CliqueMetrics, {k: SimReport}) of one cell: a clique
        execution priced in `mode` (None: the natural one), or the runner's,
        on one placement per k, drawn first so a bad k runs nothing."""
        parts = random_vertex_partitions(inst.graph, ks, seed)
        if self.runner is not None:
            return self.runner(inst.graph, parts, W, seed, cfg)
        outputs, trace, metrics = run_clique(inst.graph, self.program(inst, cfg), seed,
                                             max_rounds=self.budget(inst.graph.n, cfg))
        mode = mode or self.mode
        return outputs, metrics, {p.k: price(trace, p, W, mode=mode) for p in parts}


def _run_hmis(h, parts, W, seed, cfg):
    """The flags at every k, zero clique metrics (no clique runs), the ledgers."""
    flags, reports = {}, {}
    for part in parts:
        flags[part.k], reports[part.k] = hmis_kmachine(h, part, W)
    return flags, CliqueMetrics(0, 0, 0, 0, 0), reports


ALGORITHMS = {
    "bfs": Algorithm(lambda inst, cfg: bfs_program(cfg), BCAST, reads=("source",)),
    "mst": Algorithm(lambda inst, cfg: mst_program(), BCAST),
    "conn": Algorithm(lambda inst, cfg: conn_program(), BCAST),
    "stverify": Algorithm(lambda inst, cfg: st_verify_program(inst.candidate or ()),
                          BCAST),
    "bf_sssp": Algorithm(lambda inst, cfg: bellman_ford_program(cfg), BCAST,
                         reads=("source",)),
    "pagerank": Algorithm(lambda inst, cfg: pagerank_program(cfg), P2P,
                          budget=lambda n, cfg: walk_shape(n, cfg).budget + 2,
                          reads=("gamma", "tokens_per_node")),
    "mis": Algorithm(lambda inst, cfg: luby_mis_program(cfg), BCAST,
                     budget=lambda n, cfg:
                     3 * (cfg.mis_max_phases or default_phase_budget(n)) + 6,
                     reads=("mis_max_phases",)),
    "spanner": Algorithm(lambda inst, cfg: spanner_program(cfg), BCAST, reads=("delta",)),
    "densest": Algorithm(lambda inst, cfg: densest_subgraph_program(cfg), BCAST,
                         reads=("eps",)),
    "triangle": Algorithm(lambda inst, cfg: triangle_program(), P2P),
    "hmis": Algorithm(runner=_run_hmis, min_k=2, hyper=True),
    # looked up per call, so a tracer that rebinds the name sees the call
    "logsp": Algorithm(runner=lambda *args: logapprox_shortest_paths(*args)),
}

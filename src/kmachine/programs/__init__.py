"""The algorithm suite, each entry addressable by a stable string name."""

from dataclasses import dataclass

from ..clique import CliqueMetrics, run_clique
from ..machines import BCAST, P2P, price, random_vertex_partitions, round_loads_each
from .config import AlgoConfig, ConfigError
from .densest import densest_subgraph_program
from .fragments import conn_program, mst_program, st_verify_program
from .hypergraph_mis import hmis_kmachine, hmis_round_bound
from .mis import luby_mis_program
from .paths import bellman_ford_program, bfs_program
from .spanner import logapprox_shortest_paths, spanner_program, spanner_union
from .triangle import triangle_program
from .walks import default_tokens_per_node, pagerank_program


@dataclass(frozen=True)
class Algorithm:
    """One entry of ALGORITHMS: how a cell of the algorithm runs and what
    its config may hold.

    A clique algorithm has a `program(instance, cfg) -> Program` (the
    instance is the harness's: its graph, plus stverify's candidate edges)
    and the `mode` that every cell of it is priced in ("bcast" marks the
    programs that never send a unicast); the Program sets its round budget.
    A machine-level algorithm has a `runner(graph, parts, W, seed)` that
    runs on its own schedule and prices exactly the partitions it is
    handed.  `min_k` is the fewest machines it runs on; `hyper` marks an
    algorithm whose instance is a random hypergraph; `reads` names the
    AlgoConfig fields that its cells read.
    """

    program: object = None
    mode: str = None
    runner: object = None
    min_k: int = 1
    hyper: bool = False
    reads: tuple = ()

    def run(self, inst, ks, W, seed, cfg):
        """(outputs, CliqueMetrics, {k: SimReport}) of one cell: a clique
        execution priced in the algorithm's mode, or the runner's, on one
        placement per k, drawn first so a bad k runs nothing."""
        parts = random_vertex_partitions(inst.graph, ks, seed)
        if self.runner is not None:
            return self.runner(inst.graph, parts, W, seed)
        outputs, trace, metrics = run_clique(inst.graph, self.program(inst, cfg), seed)
        loads = round_loads_each(trace, parts, self.mode)
        return outputs, metrics, {part.k: price(trace, part, W, mode=self.mode, loads=each)
                                  for part, each in zip(parts, loads)}


def _run_hmis(h, parts, W, seed):
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
                          reads=("gamma", "tokens_per_node")),
    "mis": Algorithm(lambda inst, cfg: luby_mis_program(), BCAST),
    "spanner": Algorithm(lambda inst, cfg: spanner_program(cfg), BCAST, reads=("delta",)),
    "densest": Algorithm(lambda inst, cfg: densest_subgraph_program(cfg), BCAST,
                         reads=("eps",)),
    "triangle": Algorithm(lambda inst, cfg: triangle_program(), P2P),
    "hmis": Algorithm(runner=_run_hmis, min_k=2, hyper=True),
    # looked up per call, so a tracer that rebinds the name sees the call
    "logsp": Algorithm(runner=lambda *args: logapprox_shortest_paths(*args)),
}

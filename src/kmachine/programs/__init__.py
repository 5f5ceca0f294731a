"""The algorithm suite, each entry addressable by a stable string name."""

from .config import AlgoConfig, ConfigError
from .densest import densest_subgraph_program
from .fragments import conn_program, merge_key, mst_program, st_verify_program
from .hypergraph_mis import hmis_kmachine, hmis_round_bound
from .mis import default_phase_budget, luby_mis_program
from .paths import bellman_ford_program, bfs_program
from .spanner import (
    ApproxPathsResult,
    logapprox_shortest_paths,
    spanner_program,
    spanner_union,
)
from .triangle import triangle_program
from .walks import (
    default_tokens_per_node,
    pagerank_program,
    walk_round_budget,
    walk_shape,
)

# name -> (builder(graph, cfg) -> Program, natural pricing mode)
# stverify builds its candidate set from context at the harness level.
CLIQUE_ALGORITHMS = {
    "bfs": (lambda g, cfg: bfs_program(cfg), "bcast"),
    "mst": (lambda g, cfg: mst_program(), "bcast"),
    "conn": (lambda g, cfg: conn_program(), "bcast"),
    "bf_sssp": (lambda g, cfg: bellman_ford_program(cfg), "bcast"),
    "pagerank": (lambda g, cfg: pagerank_program(cfg), "p2p"),
    "mis": (lambda g, cfg: luby_mis_program(cfg), "bcast"),
    "spanner": (lambda g, cfg: spanner_program(cfg), "bcast"),
    "densest": (lambda g, cfg: densest_subgraph_program(cfg), "bcast"),
    "triangle": (lambda g, cfg: triangle_program(), "p2p"),
}

ALGORITHM_NAMES = sorted(CLIQUE_ALGORITHMS) + ["stverify", "hmis", "logsp"]

__all__ = [
    "AlgoConfig",
    "ConfigError",
    "CLIQUE_ALGORITHMS",
    "ALGORITHM_NAMES",
    "ApproxPathsResult",
    "bfs_program",
    "bellman_ford_program",
    "conn_program",
    "densest_subgraph_program",
    "default_phase_budget",
    "default_tokens_per_node",
    "hmis_kmachine",
    "hmis_round_bound",
    "logapprox_shortest_paths",
    "luby_mis_program",
    "merge_key",
    "mst_program",
    "pagerank_program",
    "spanner_program",
    "spanner_union",
    "st_verify_program",
    "triangle_program",
    "walk_round_budget",
    "walk_shape",
]

"""Simulator for per-vertex graph algorithms on a complete network, with a
pricing engine that converts recorded executions into rounds on a small
bandwidth-limited machine cluster over which the vertices are scattered
uniformly at random."""

from .clique import (
    HALT,
    SILENT,
    Broadcast,
    CliqueMetrics,
    CliqueTrace,
    NodeProgram,
    Program,
    ProgramViolation,
    RoundLimitExceeded,
    Unicast,
    run_clique,
)
from .graphs import (
    GadgetSpec,
    Graph,
    GraphError,
    Hypergraph,
    dump_edge_list,
    gadget_feasible,
    generate,
    generate_gadget,
    inf_weight,
    label_bits,
    load_edge_list,
    random_gadget_spec,
    random_uniform_hypergraph,
)
from .machines import (
    BCAST,
    P2P,
    Partition,
    SimReport,
    broadcast_bound,
    check_mapping_bounds,
    convert_broadcast,
    convert_p2p,
    default_bandwidth,
    point_to_point_bound,
    price,
    random_vertex_partition,
    run_on_kmachines,
)
from .oracles import graph_stats
from .programs import (
    AlgoConfig,
    bellman_ford_program,
    bfs_program,
    conn_program,
    densest_subgraph_program,
    hmis_kmachine,
    logapprox_shortest_paths,
    luby_mis_program,
    mst_program,
    pagerank_program,
    spanner_program,
    spanner_union,
    st_verify_program,
    triangle_program,
)

__version__ = "0.1.0"

"""Two approximation pipelines: walk-based ranking and spanner shortcuts.

Token walks estimate the restart-walk stationary distribution; more tokens,
tighter estimates.  The spanner keeps a sparse subgraph whose distances are
provably within a 2*delta-1 factor, and collecting it on one machine gives
whole-graph distance estimates.
"""

import math

import numpy as np

from kmachine import (
    AlgoConfig,
    generate,
    logapprox_shortest_paths,
    pagerank_program,
    random_vertex_partition,
    run_clique,
    spanner_program,
    spanner_union,
)
from kmachine.oracles import all_pairs_distances, exact_pagerank

g = generate("gnp", 64, seed=2, p=0.2)
truth = exact_pagerank(g, gamma=0.15)
print("walk-based ranking on gnp(0.2), n=64:")
for tokens in (8, 64, 600):
    cfg = AlgoConfig(gamma=0.15, tokens_per_node=tokens)
    est, _, _ = run_clique(g, pagerank_program(cfg), seed=2)
    l1 = float(np.abs(np.asarray(est) - truth).sum())
    print(f"  {tokens:4d} tokens/vertex: L1 error {l1:.4f}")

print("\nsparse spanner on the same graph:")
for delta in (2, 3, 6):
    out, _, _ = run_clique(g, spanner_program(AlgoConfig(delta=delta)), seed=5)
    edges = spanner_union(out)
    sg_dist, _ = all_pairs_distances(
        type(g)(g.n, [(a, b, 1) for a, b in edges])
    )
    dist, _ = all_pairs_distances(g)
    finite = dist > 0
    stretch = float((sg_dist[finite] / dist[finite]).max())
    print(
        f"  delta={delta}: {len(edges):4d} of {g.m} edges kept, "
        f"worst stretch {stretch:.2f} (cap {2 * delta - 1})"
    )

est, _, reports = logapprox_shortest_paths(g, [random_vertex_partition(g, 8, seed=2)],
                                           seed=2)
d, _ = all_pairs_distances(g)
est = np.asarray(est)
ratio = float((est[d > 0] / d[d > 0]).max())
print(
    f"\ncollected-spanner distances: worst ratio {ratio:.2f} "
    f"(cap {2 * math.ceil(math.log2(g.n)) - 1}), "
    f"{reports[8].km_rounds} machine rounds including shipping"
)

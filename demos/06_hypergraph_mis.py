"""Maximal independent set on a hypergraph, solved machine by machine.

No per-vertex simulation here: machines take turns fixing the status of
their own vertices and stream (id, status) pairs through the network, one
pair per link with a relay step, so roughly k-1 statuses move per two
rounds.
"""

from kmachine import hmis_kmachine, random_uniform_hypergraph, random_vertex_partition
from kmachine.oracles import validate_mis
from kmachine.programs import hmis_round_bound

h = random_uniform_hypergraph(512, 1024, 3, seed=4)
print(f"hypergraph: n={h.n}, {len(h.hyperedges)} hyperedges of size 3\n")

for k in (2, 4, 8, 16):
    flags, report = hmis_kmachine(h, random_vertex_partition(h, k, seed=4))
    members = [v for v, f in enumerate(flags) if f]
    print(
        f"k={k:2d}: set size {len(members):3d}, valid "
        f"{validate_mis(h, members)}, rounds {report.km_rounds:5d} "
        f"(bound {hmis_round_bound(h.n, k):9.0f})"
    )

"""Bit-vector instance families with a knife-edge answer.

Two stars joined by rungs: the spanning-tree version is a tree exactly when
the vectors agree, the connectivity version is connected exactly when they
share no index.  The two-hub family grows the cost of spanning-tree
computation linearly with the instance size at a fixed machine count.
"""

from kmachine import (
    GadgetSpec,
    gadget_feasible,
    generate_gadget,
    random_gadget_spec,
)
from kmachine.harness import ExperimentConfig, fit_scaling, run_experiment
from kmachine.oracles import is_connected, is_spanning_tree

spec = GadgetSpec("STVERIFY", 4, (1, 0, 1, 0), (1, 0, 1, 0))
print("equal vectors  -> spanning tree?", is_spanning_tree(generate_gadget(spec)))
spec2 = GadgetSpec("STVERIFY", 4, (1, 0, 1, 0), (1, 1, 1, 0))
print("unequal vectors -> spanning tree?", is_spanning_tree(generate_gadget(spec2)))

conn = random_gadget_spec("CONN", 16, seed=1, feasible=True)
print("\ndisjoint vectors  -> connected?", is_connected(generate_gadget(conn)))
conn2 = random_gadget_spec("CONN", 16, seed=1, feasible=False)
print("sharing an index  -> connected?", is_connected(generate_gadget(conn2)))
assert gadget_feasible(conn) and not gadget_feasible(conn2)

print("\ntwo-hub family, k=8: cost of building a spanning tree")
cfg = ExperimentConfig(
    algorithm="mst", graph={"gadget": "st_lower", "b": [256, 512, 1024, 2048]},
    k=[8], seeds=[1, 2, 3],
)
fit = fit_scaling(run_experiment(cfg), "n")
for nval, med in fit.points:
    print(f"  n={nval:5d}: median {med:.0f} rounds")
print(f"growth slope {fit.slope:.3f} (linear in n is slope 1)")

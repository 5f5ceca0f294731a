"""Maximal independent set on a hypergraph, computed machine by machine.

This one runs directly on the machine network rather than through the
clique engine.  Machines take turns in id order; on its turn a machine
greedily fixes the status of each of its vertices (a vertex joins unless
that would put some hyperedge fully inside the set) and then disseminates
(vertex id, status) pairs in batches of k-1: one pair per link, and every
receiver forwards its pair on all of its links the following step.  A
preliminary exchange of per-machine vertex counts fixes the schedule that
every machine follows silently.

The schedule is priced by the same rule as a converted clique execution:
each step is one directed link load handed to `machines.sim_report`, which
charges ceil(worst link load / W) rounds per step.
"""

import numpy as np

from ..graphs import Hypergraph, label_bits
from ..machines import Partition, _check_home, bound_scale, link_bandwidth, sim_report


def hmis_round_bound(n: int, k: int) -> float:
    return bound_scale(n) * (n / k + k)


def _schedule_loads(k, owned_counts, count_bits, pair_bits):
    """The directed link load of every step of the schedule, in blocks of
    steps (see machines.sim_report).

    First the all-to-all exchange of vertex counts; then, per batch of an
    owner's pairs, the owner's step (one pair on each of `width` links) and
    the forwarding step (every receiver sends its pair on all its links).
    All full-width batches of an owner share the same two step loads, so
    they come as one block.
    """
    counts = np.full((k, k), count_bits, dtype=np.int64)
    np.fill_diagonal(counts, 0)
    yield counts
    for owner, n_i in enumerate(owned_counts):
        others = [q for q in range(k) if q != owner]
        full, rest = divmod(n_i, k - 1)
        for width, batches in ((k - 1, full), (rest, int(rest > 0))):
            receivers = others[:width]
            send = np.zeros((k, k), dtype=np.int64)
            send[owner, receivers] = pair_bits
            forward = np.zeros((k, k), dtype=np.int64)
            forward[receivers] = pair_bits
            forward[receivers, receivers] = 0
            if batches:
                yield np.tile((send, forward), (batches, 1, 1))


def hmis_kmachine(h: Hypergraph, part: Partition, W: int = None):
    """Returns (per-vertex membership flags, SimReport) of the schedule run
    and priced on the placement `part`."""
    if part.k < 2:
        raise ValueError("need at least 2 machines")
    n = h.n
    _check_home(n, part)
    W = link_bandwidth(n, W)
    # machine by machine, each its vertices in id order: a vertex joins
    # unless some hyperedge's other members have all joined already
    flags = [False] * n
    for v in np.argsort(part.home, kind="stable").tolist():
        flags[v] = not any(all(flags[x] for x in h.hyperedges[hi] if x != v)
                           for hi in h.incident[v])
    loads = _schedule_loads(part.k, part.machine_counts().tolist(), max(1, n.bit_length()),
                            label_bits(n) + 1)
    return flags, sim_report(n, part, W, "direct", loads, hmis_round_bound(n, part.k))

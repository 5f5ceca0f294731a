"""Maximal independent set on a hypergraph, computed machine by machine.

This one runs directly on the machine network rather than through the
clique engine.  Machines take turns in id order; on its turn a machine
greedily fixes the status of each of its vertices (a vertex joins unless
that would put some hyperedge fully inside the set) and then disseminates
(vertex id, status) pairs in batches of k-1: one pair per link, and every
receiver forwards its pair on all of its links the following step.  A
preliminary exchange of per-machine vertex counts fixes the schedule that
every machine follows silently.
"""

import math

import numpy as np

from ..graphs import Hypergraph, label_bits
from ..machines import link_bandwidth, random_vertex_partition, sim_report


def hmis_round_bound(n: int, k: int) -> float:
    lg2 = max(1.0, math.log2(n)) ** 2
    return 16.0 * lg2 * (n / k + k)


def hmis_kmachine(h: Hypergraph, k: int, W: int = None, seed: int = 0):
    """Returns (per-vertex membership flags, SimReport, Partition)."""
    if k < 2:
        raise ValueError("need at least 2 machines")
    n = h.n
    W = link_bandwidth(n, W)
    part = random_vertex_partition(h, k, seed)
    home = part.home
    owned = [[] for _ in range(k)]
    for v in range(n):
        owned[home[v]].append(v)

    status = [None] * n
    for machine in range(k):
        for v in owned[machine]:
            blocked = False
            for hi in h.incident[v]:
                members = h.hyperedges[hi]
                if all(status[x] == 1 for x in members if x != v):
                    blocked = True
                    break
            status[v] = 0 if blocked else 1

    # round accounting
    count_bits = max(1, n.bit_length())
    pair_bits = label_bits(n) + 1
    link_dir = np.zeros((k, k), dtype=np.int64)
    rounds = 0
    machine_rounds = 0

    def charge_all_links(bits_per_sender):
        nonlocal rounds, machine_rounds
        for p in range(k):
            for q in range(k):
                if p != q:
                    link_dir[p, q] += bits_per_sender
        rounds += -(-bits_per_sender // W)
        machine_rounds += -(-(bits_per_sender * (k - 1) * 2) // (k * W))

    # every machine tells every other its vertex count, in parallel
    charge_all_links(count_bits)

    for machine in range(k):
        n_i = len(owned[machine])
        if n_i == 0:
            continue
        batches = -(-n_i // (k - 1))
        others = [q for q in range(k) if q != machine]
        sent = 0
        for _ in range(batches):
            width = min(k - 1, n_i - sent)
            sent += width
            # step 1: one pair per link out of the owner
            for j in range(width):
                link_dir[machine, others[j]] += pair_bits
            step_bits = -(-pair_bits // W)
            rounds += step_bits
            machine_rounds += -(-(pair_bits * width) // (k * W))
            # step 2: receivers forward their pair everywhere
            for j in range(width):
                r = others[j]
                for q in range(k):
                    if q != r:
                        link_dir[r, q] += pair_bits
            rounds += step_bits
            machine_rounds += -(-(pair_bits * (k - 1) + pair_bits) // (k * W))

    report = sim_report(n, part, W, "direct", rounds, machine_rounds, link_dir,
                        hmis_round_bound(n, k))
    flags = [s == 1 for s in status]
    return flags, report, part

"""Random vertex placement and pricing of clique executions on k machines.

Vertices are assigned independently and uniformly to k pairwise-connected
machines; a vertex's incident edges live with it.  A recorded clique
execution is then charged round by round: every inter-machine message pays
its payload plus an id header on the link between the two home machines,
and a clique round costs the ceiling of the worst directed link load over
the per-link bandwidth W.  Messages between co-located vertices are free.
"""

import math
from dataclasses import dataclass

import numpy as np

from .clique import CliqueMetrics, CliqueTrace, run_clique
from .graphs import Graph, label_bits
from .rng import derive

P2P = "p2p"
BCAST = "bcast"


class ConversionError(ValueError):
    pass


@dataclass(frozen=True)
class Partition:
    """Vertex -> machine assignment."""

    k: int
    home: np.ndarray
    seed: int = 0

    def machine_counts(self) -> np.ndarray:
        return np.bincount(self.home, minlength=self.k)


def random_vertex_partition(g: Graph, k: int, seed: int) -> Partition:
    """Assign each vertex an independent uniform home machine."""
    if k < 1 or k > g.n:
        raise ConversionError(f"need 1 <= k <= n, got k={k}, n={g.n}")
    home = np.fromiter(
        (derive(seed, "rvp", v) % k for v in range(g.n)), dtype=np.int64, count=g.n
    )
    return Partition(k=k, home=home, seed=seed)


def check_mapping_bounds(g: Graph, part: Partition):
    """(max vertices on any machine, max input edges on any inter-machine link)."""
    counts = part.machine_counts()
    max_vertices = int(counts.max()) if len(counts) else 0
    u, v, _ = g.edge_arrays()
    if g.m == 0 or part.k < 2:
        return max_vertices, 0
    hu = part.home[u]
    hv = part.home[v]
    cross = hu != hv
    lo = np.minimum(hu[cross], hv[cross])
    hi = np.maximum(hu[cross], hv[cross])
    if len(lo) == 0:
        return max_vertices, 0
    link_counts = np.bincount(lo * part.k + hi, minlength=part.k * part.k)
    return max_vertices, int(link_counts.max())


@dataclass
class SimReport:
    """Cost ledger of one converted execution.

    km_rounds is the primary cost: sum over clique rounds of
    ceil(max directed link bits / W).  machine_rounds is the alternate
    per-machine budget metric, ceil(max machine bits / (k W)) per round.
    per_link_bits is symmetric with a zero diagonal; per_machine_bits counts
    bits sent plus received.
    """

    n: int
    k: int
    W: int
    mode: str
    km_rounds: int
    machine_rounds: int
    per_link_bits: np.ndarray
    per_machine_bits: np.ndarray
    total_bits: int
    bound_rounds: float
    bound_ok: bool
    success: bool = True

    @property
    def max_link_bits(self) -> int:
        return int(self.per_link_bits.max()) if self.per_link_bits.size else 0

    @property
    def max_machine_bits(self) -> int:
        return int(self.per_machine_bits.max()) if self.per_machine_bits.size else 0


def default_bandwidth(n: int) -> int:
    return label_bits(n)


def point_to_point_bound(n: int, k: int, W: int, metrics: CliqueMetrics) -> float:
    """Explicit-constant round bound for point-to-point pricing."""
    L = label_bits(n)
    lg2 = max(1.0, math.log2(n)) ** 2
    per_round = math.ceil(metrics.comm_degree * 3 * L / (k * W))
    return 16.0 * lg2 * (
        metrics.messages * 3 * L / (k * k * W)
        + metrics.rounds * per_round
        + metrics.rounds
    )


def broadcast_bound(n: int, k: int, W: int, metrics: CliqueMetrics) -> float:
    """Explicit-constant round bound for deduplicated broadcast pricing."""
    L = label_bits(n)
    lg2 = max(1.0, math.log2(n)) ** 2
    return 16.0 * lg2 * (metrics.broadcasts * 2 * L / (k * W) + metrics.rounds)


def link_bandwidth(n: int, W: int = None) -> int:
    """The per-link bandwidth to price with: W, or the default when W is None."""
    if W is None:
        return default_bandwidth(n)
    if W < 1:
        raise ConversionError("W must be >= 1")
    return W


def sim_report(n, part, W, mode, km_rounds, machine_rounds, link_dir, bound):
    """The ledger of an execution from its directed per-link bit counts."""
    sym = link_dir + link_dir.T
    np.fill_diagonal(sym, 0)
    return SimReport(
        n=n,
        k=part.k,
        W=W,
        mode=mode,
        km_rounds=int(km_rounds),
        machine_rounds=int(machine_rounds),
        per_link_bits=sym,
        per_machine_bits=link_dir.sum(axis=1) + link_dir.sum(axis=0),
        total_bits=int(link_dir.sum()),
        bound_rounds=bound,
        bound_ok=km_rounds <= bound,
    )


def convert_p2p(trace: CliqueTrace, part: Partition, W: int) -> SimReport:
    """Price a trace with point-to-point charging.

    Each inter-machine message costs payload + 2*ceil(log2 n) bits (source
    and destination ids) on its link; broadcasts are first expanded to n-1
    unicasts.  A clique round costs ceil(max directed link load / W).
    """
    n = trace.n
    W = link_bandwidth(n, W)
    k = part.k
    hdr = 2 * label_bits(n)
    home = part.home
    counts = part.machine_counts().astype(np.int64)
    link_dir = np.zeros((k, k), dtype=np.int64)
    km_rounds = 0
    machine_rounds = 0
    for bs, bb, us, ud, ub in trace.round_arrays():
        load = np.zeros(k * k, dtype=np.int64)
        if len(us):
            hs = home[us]
            hd = home[ud]
            cross = hs != hd
            if cross.any():
                np.add.at(load, hs[cross] * k + hd[cross], ub[cross] + hdr)
        if len(bs):
            # a broadcast from machine p puts one copy per recipient vertex
            # on the p->q link, recipients on p are free
            per_m = np.zeros(k, dtype=np.int64)
            np.add.at(per_m, home[bs], bb + hdr)
            mat = np.outer(per_m, counts)
            np.fill_diagonal(mat, 0)
            load += mat.reshape(-1)
        lm = load.reshape(k, k)
        worst = int(lm.max())
        km_rounds += -(-worst // W)
        sent = lm.sum(axis=1)
        recv = lm.sum(axis=0)
        machine_rounds += -(-int((sent + recv).max()) // (k * W))
        link_dir += lm
    bound = point_to_point_bound(n, k, W, CliqueMetrics.from_trace(trace))
    return sim_report(n, part, W, P2P, km_rounds, machine_rounds, link_dir, bound)


def convert_broadcast(trace: CliqueTrace, part: Partition, W: int) -> SimReport:
    """Price a broadcast-only trace with per-machine deduplication.

    Each broadcasting vertex puts one copy of payload + ceil(log2 n) source
    header bits on every one of its home machine's k-1 links; the receiving
    machine fans the payload out to its vertices locally.  On one machine
    there are no links, and nothing is charged.
    """
    n = trace.n
    W = link_bandwidth(n, W)
    k = part.k
    hdr = label_bits(n)
    home = part.home
    link_dir = np.zeros((k, k), dtype=np.int64)
    km_rounds = 0
    machine_rounds = 0
    for bs, bb, us, ud, ub in trace.round_arrays():
        if len(us):
            raise ConversionError("broadcast pricing given a unicast message")
        if not len(bs) or k == 1:
            continue
        per_m = np.zeros(k, dtype=np.int64)
        np.add.at(per_m, home[bs], bb + hdr)
        km_rounds += -(-int(per_m.max()) // W)
        mat = np.repeat(per_m[:, None], k, axis=1)
        np.fill_diagonal(mat, 0)
        link_dir += mat
        sent = per_m * (k - 1)
        recv = per_m.sum() - per_m
        machine_rounds += -(-int((sent + recv).max()) // (k * W))
    bound = broadcast_bound(n, k, W, CliqueMetrics.from_trace(trace))
    return sim_report(n, part, W, BCAST, km_rounds, machine_rounds, link_dir, bound)


def check_mode(mode: str) -> str:
    if mode not in (P2P, BCAST):
        raise ConversionError(f"unknown mode {mode!r}")
    return mode


def price(trace: CliqueTrace, part: Partition, W: int = None, *, mode: str) -> SimReport:
    """Price a trace on the partition's machines: point-to-point for `p2p`,
    deduplicated broadcast for `bcast`.  W defaults to ceil(log2 n) bits."""
    if check_mode(mode) == P2P:
        return convert_p2p(trace, part, W)
    return convert_broadcast(trace, part, W)


def run_on_kmachines(
    g: Graph,
    program,
    k: int,
    W: int = None,
    mode: str = BCAST,
    seed: int = 0,
    max_rounds: int = None,
):
    """Partition, execute on the clique, then price the trace.

    Per-vertex outputs are exactly those of the pure clique execution; the
    machine network only changes the communication cost accounting.  A bad
    k, W or mode is rejected before the execution.
    Returns (outputs, report, metrics).
    """
    check_mode(mode)
    W = link_bandwidth(g.n, W)
    part = random_vertex_partition(g, k, seed)
    outputs, trace, metrics = run_clique(g, program, seed, max_rounds=max_rounds)
    return outputs, price(trace, part, W, mode=mode), metrics

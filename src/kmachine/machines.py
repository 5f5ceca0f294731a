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

from .clique import CliqueMetrics, CliqueTrace
from .graphs import Graph, label_bits
from .rng import derive_each

P2P = "p2p"
BCAST = "bcast"


class ConversionError(ValueError):
    pass


@dataclass(frozen=True)
class Partition:
    """Vertex -> machine assignment."""

    k: int
    home: np.ndarray

    def machine_counts(self) -> np.ndarray:
        return np.bincount(self.home, minlength=self.k)


def random_vertex_partitions(g: Graph, ks, seed: int) -> list:
    """One partition per machine count in `ks`, each assigning every vertex
    an independent uniform home machine.  Vertex v's key is output v of one
    stream (rng.derive_each), derived once for every k and reduced mod k."""
    for k in ks:
        if not isinstance(k, int) or isinstance(k, bool):
            raise ConversionError(f"a machine count must be an int, got {k!r}")
        if k < 1 or k > g.n:
            raise ConversionError(f"need 1 <= k <= n, got k={k}, n={g.n}")
    keys = derive_each(seed, "rvp", np.arange(g.n))
    return [Partition(k=k, home=(keys % np.uint64(k)).astype(np.int64)) for k in ks]


def random_vertex_partition(g: Graph, k: int, seed: int) -> Partition:
    """Assign each vertex an independent uniform home machine."""
    return random_vertex_partitions(g, [k], seed)[0]


def check_mapping_bounds(g: Graph, part: Partition):
    """(max vertices on any machine, max input edges on any inter-machine link)."""
    _check_home(g.n, part)
    k = part.k
    u, v, _ = g.edge_arrays()
    pair = (part.home * k)[u]  # scaled before the gather: n products, not m
    pair += part.home[v]
    links = np.bincount(pair, minlength=k * k).reshape(k, k)
    links = links + links.T
    np.fill_diagonal(links, 0)
    return int(part.machine_counts().max()), int(links.max())


@dataclass
class SimReport:
    """Cost ledger of one priced execution, built by `sim_report`.

    km_rounds is the cost: sum over rounds of ceil(max directed link
    bits / W).  per_link_bits is symmetric with a zero diagonal;
    per_machine_bits counts bits sent plus received.
    """

    n: int
    k: int
    W: int
    mode: str
    km_rounds: int
    per_link_bits: np.ndarray
    per_machine_bits: np.ndarray
    total_bits: int
    bound_rounds: float
    bound_ok: bool

    @property
    def max_link_bits(self) -> int:
        return int(self.per_link_bits.max()) if self.per_link_bits.size else 0

    @property
    def max_machine_bits(self) -> int:
        return int(self.per_machine_bits.max()) if self.per_machine_bits.size else 0


def bound_scale(n: int) -> float:
    """The explicit constant of every round bound: 16 log^2 n, at least 16."""
    return 16.0 * max(1.0, math.log2(n)) ** 2


def point_to_point_bound(n: int, k: int, W: int, metrics: CliqueMetrics) -> float:
    """Explicit-constant round bound for point-to-point pricing."""
    L = label_bits(n)
    per_round = math.ceil(metrics.comm_degree * 3 * L / (k * W))
    return bound_scale(n) * (
        metrics.messages * 3 * L / (k * k * W)
        + metrics.rounds * per_round
        + metrics.rounds
    )


def broadcast_bound(n: int, k: int, W: int, metrics: CliqueMetrics) -> float:
    """Explicit-constant round bound for deduplicated broadcast pricing."""
    L = label_bits(n)
    return bound_scale(n) * (metrics.broadcasts * 2 * L / (k * W) + metrics.rounds)


def link_bandwidth(n: int, W: int = None) -> int:
    """The per-link bandwidth to price with: W, or ceil(log2 n) bits when
    W is None."""
    if W is None:
        return label_bits(n)
    if W < 1:
        raise ConversionError("W must be >= 1")
    return W


def sim_report(n, part, W, mode, loads, bound):
    """The ledger of an execution from its per-round directed link loads.

    `loads` yields blocks of consecutive rounds' loads: each an (R, k, k)
    int64 array, or one round's (k, k), whose [r, p, q] entry is the bits
    machine p sends machine q in round r, with a zero diagonal.  A round
    costs ceil(max entry / W) km_rounds.
    """
    k = part.k
    link_dir = np.zeros(k * k, dtype=np.int64)
    km_rounds = 0
    for block in loads:
        block = block.reshape(-1, k * k)  # a round per row: one-axis reductions
        km_rounds += _ceil_div_sum(np.maximum.reduce(block, axis=1), W)
        link_dir += np.add.reduce(block, axis=0)
    total_bits = int(np.add.reduce(link_dir))
    link_dir = link_dir.reshape(k, k)
    per_link = link_dir + link_dir.T
    return SimReport(
        n=n,
        k=k,
        W=W,
        mode=mode,
        km_rounds=km_rounds,
        per_link_bits=per_link,
        per_machine_bits=np.add.reduce(per_link, axis=1),  # bits sent plus received
        total_bits=total_bits,
        bound_rounds=bound,
        bound_ok=km_rounds <= bound,
    )


_INT64_MAX = int(np.iinfo(np.int64).max)


def _ceil_div_sum(x, d):
    """The sum of ceil(x / d) over an int64 array x >= 0, for a positive
    int d of any size (every x is at most int64's max, so a larger d
    divides like it)."""
    return int(np.add.reduce(-(-x // min(d, _INT64_MAX))))


# A pricing block holds one round of at least _BLOCK_MESSAGES messages, or
# consecutive smaller rounds up to that many messages in all and at most
# _BLOCK_CELLS load entries, so a block's scratch stays small at any k.
_BLOCK_MESSAGES = 1 << 12
_BLOCK_CELLS = 1 << 16
# round_loads_each keeps a nest's machine sums, R (K^2 + K) entries over the
# R rounds that send, while they are at most this many per stored message
_KEPT_PER_MESSAGE = 1


def _check_home(n: int, part: Partition):
    """Refuse a partition whose home is not an array of n ints in [0, k)."""
    home = part.home
    if not isinstance(home, np.ndarray) or home.shape != (n,) or home.dtype.kind != "i":
        raise ConversionError(f"a partition's home must be an int array of {n} "
                              "machine ids, one per vertex")
    if n and (home.min() < 0 or home.max() >= part.k):
        raise ConversionError(f"a home lies outside machines 0..{part.k - 1}")


def _machine_sums(trace: CliqueTrace, part: Partition, mode: str):
    """The one pass over a trace's messages: per block of consecutive
    rounds that send a message (a silent round is skipped), (S, U) with
    S[r, p] the broadcast bits plus header sent from machine p and
    U[r, p, q] the unicast bits plus header machine p sends machine q, its
    diagonal kept; U is None for a trace that sends no unicast.  hdr is
    two ids in `p2p` mode and one in `bcast` mode.  Each block's columns
    are widened to int64 as it is built, before any gather (numpy gathers
    through int32 indices ~3x slower), and summed in int64, so the sums
    are exact."""
    k, home = part.k, part.home
    hdr = (2 if mode == P2P else 1) * label_bits(trace.n)
    unicasts = trace.unicasts > 0
    row = home * k if unicasts else None
    most = max(1, _BLOCK_CELLS // (k * k))  # rounds in a block of small rounds

    def sums(rounds):
        R = len(rounds)
        if R == 1:
            bs, bb, us, ud, ub = [c.astype(np.int64, copy=False) for c in rounds[0]]
            rb = ru = 0
        else:
            bs, bb, us, ud, ub = zip(*rounds)
            at = np.arange(R)
            rb = np.repeat(at * k, [len(c) for c in bs])
            bs, bb = np.concatenate(bs, dtype=np.int64), np.concatenate(bb, dtype=np.int64)
            if unicasts:
                ru = np.repeat(at * (k * k), [len(c) for c in us])
                us, ud, ub = [np.concatenate(c, dtype=np.int64) for c in (us, ud, ub)]
        sent = np.zeros((R, k), dtype=np.int64)
        if len(bs):
            np.add.at(sent.reshape(-1), rb + home[bs], bb + hdr)
        if not unicasts:
            return sent, None
        uni = np.zeros((R, k, k), dtype=np.int64)
        if len(us):
            np.add.at(uni.reshape(-1), ru + row[us] + home[ud], ub + hdr)
        return sent, uni

    block, size = [], 0
    for cols in trace.round_arrays():
        msgs = len(cols[0]) + len(cols[2])
        if not msgs:
            continue
        if msgs >= _BLOCK_MESSAGES and block:  # a large round is a block alone
            yield sums(block)
            block, size = [], 0
        block.append(cols)
        size += msgs
        if size >= _BLOCK_MESSAGES or len(block) == most:
            yield sums(block)
            block, size = [], 0
    if block:
        yield sums(block)


def _fold(blocks, part: Partition, mode: str):
    """Link loads on `part` from machine sums taken on K machines, where
    k = part.k divides K and home_k == home_K % k: machine p of k is K's
    machines p' = p (mod k), so its sums are theirs added up, one axis at a
    time (a two-axis sum is slower).  Each broadcast sum is then fanned out
    to every machine q, times fan[q]: the vertices on q in `p2p` mode, 1 if
    q hosts a vertex in `bcast` mode.  The diagonal, traffic between
    co-located vertices, is zeroed."""
    k = part.k
    counts = part.machine_counts()
    fan = counts if mode == P2P else np.minimum(counts, 1)
    for sent, uni in blocks:
        R, K = sent.shape
        if K != k:
            sent = np.add.reduce(sent.reshape(R, K // k, k), axis=1)
        out = sent[:, :, None] * fan
        if uni is not None:
            if K != k:
                uni = np.add.reduce(uni.reshape(R, K // k, k, K // k, k), axis=1)
                uni = np.add.reduce(uni, axis=2)
            out += uni
        out.reshape(R, -1)[:, ::k + 1] = 0
        yield out


def _nests(part: Partition, big: Partition) -> bool:
    """Whether every machine of `part` is a union of machines of `big`."""
    return big.k % part.k == 0 and not (big.home % part.k != part.home).any()


def round_loads_each(trace: CliqueTrace, parts, mode: str) -> list:
    """For each partition of `parts`, in order, the directed link loads of
    the clique rounds that send a message, in blocks of consecutive such
    rounds (see sim_report); a silent round loads no link, so it adds
    nothing to the ledger and is skipped.

    Each inter-machine unicast adds its payload + hdr bits on its link; each
    broadcast from machine p adds its payload + hdr bits, times fan[q], on
    every link p->q.  In `p2p` mode hdr is two ids and fan[q] the vertices
    on machine q; in `bcast` mode hdr is one id and fan[q] is 1 if machine
    q hosts a vertex, else 0.  Traffic between co-located vertices is free.

    Every home is checked first.  The messages are read once per nest of
    partitions: a partition nests in one on K machines when its k divides K
    and home_k == home_K % k, as random_vertex_partitions gives, and it goes
    under the most machines it nests in; its loads are K's machine sums,
    folded at k.  A nest of two or more partitions whose sums, R (K^2 + K)
    entries over the R rounds that send, are at most the trace's stored
    messages takes its pass here, up front, and keeps the sums as one block
    that every member folds.  Any other partition takes a pass of its own as
    it is priced.
    """
    check_mode(mode)
    for part in parts:
        _check_home(trace.n, part)
    most_first = sorted(range(len(parts)), key=lambda j: -parts[j].k)
    lead = [next(j for j in most_first if parts[j] is part or _nests(part, parts[j]))
            for part in parts]
    kept = {}
    nests = [j for j in set(lead) if lead.count(j) > 1]
    if nests:
        rounds = trace.sending_rounds
        budget = _KEPT_PER_MESSAGE * (trace.broadcasts + trace.unicasts)
        for j in nests:
            K = parts[j].k
            if 0 < rounds * (K * K + K) <= budget:
                sent, uni = zip(*_machine_sums(trace, parts[j], mode))
                kept[j] = [(np.concatenate(sent), uni[0] if uni[0] is None
                            else np.concatenate(uni))]
    return [_fold(kept[j] if j in kept else _machine_sums(trace, part, mode), part, mode)
            for part, j in zip(parts, lead)]


def convert_p2p(trace: CliqueTrace, part: Partition, W: int, *, loads=None) -> SimReport:
    """Price a trace with point-to-point charging.

    Each inter-machine message costs payload + 2*ceil(log2 n) bits (source
    and destination ids) on its link; broadcasts are first expanded to n-1
    unicasts.  A clique round costs ceil(max directed link load / W).
    """
    n = trace.n
    W = link_bandwidth(n, W)
    bound = point_to_point_bound(n, part.k, W, CliqueMetrics.from_trace(trace))
    if loads is None:
        (loads,) = round_loads_each(trace, [part], P2P)
    return sim_report(n, part, W, P2P, loads, bound)


def convert_broadcast(trace: CliqueTrace, part: Partition, W: int, *,
                      loads=None) -> SimReport:
    """Price a broadcast-only trace with per-machine deduplication.

    Each broadcasting vertex puts one copy of payload + ceil(log2 n) source
    header bits on every link from its home machine to a machine that hosts
    a vertex; the receiving machine fans the payload out to its vertices
    locally.
    """
    n = trace.n
    W = link_bandwidth(n, W)
    metrics = CliqueMetrics.from_trace(trace)
    if metrics.unicasts:
        raise ConversionError("broadcast pricing given a unicast message")
    bound = broadcast_bound(n, part.k, W, metrics)
    if loads is None:
        (loads,) = round_loads_each(trace, [part], BCAST)
    return sim_report(n, part, W, BCAST, loads, bound)


def check_mode(mode: str) -> str:
    if mode not in (P2P, BCAST):
        raise ConversionError(f"unknown mode {mode!r}")
    return mode


def price(trace: CliqueTrace, part: Partition, W: int = None, *, mode: str,
          loads=None) -> SimReport:
    """Price a trace on the partition's machines: point-to-point for `p2p`,
    deduplicated broadcast for `bcast`.  W defaults to ceil(log2 n) bits.
    `loads` are the trace's loads on `part` if round_loads_each has them."""
    if check_mode(mode) == P2P:
        return convert_p2p(trace, part, W, loads=loads)
    return convert_broadcast(trace, part, W, loads=loads)


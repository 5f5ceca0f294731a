"""Sparse spanner with stretch 2*delta-1 by repeated cluster sampling.

delta-1 iterations of two broadcast rounds each: surviving cluster centers
that re-sample themselves (probability n^(-1/delta), by the center's
rng.uniform(seed, "coin", center, round), output `center` of the round's
coin stream) announce it, then each vertex announces its new membership.
A vertex next to a sampled cluster joins it through one retained edge; a
vertex next to none retains one edge into every adjacent cluster and drops
out.  Retained edges double as the cluster trees, which is what caps the
stretch.  A final local pass joins each surviving vertex to every adjacent
residual cluster.

Membership broadcasts carry the witness edge (a vertex that stays in its
sampled cluster names itself as the witness), so each vertex replays the
joins, drops and edge removals it needs from its own inbox: it tracks the
clusters of itself and its neighbors only, and keeps the retained edges
it is an endpoint of.

The engine runs the round kernel `_spanner_rounds`, which keeps one global
cluster array (-1 once a vertex drops) and one live mask over the CSR
slots.  Both are faithful to the per-vertex state: a vertex reads the
clusters of itself and of its live neighbors only, and it has heard every
one of their membership broadcasts, so its view of them is the global one;
its live set is its live slots.  The per-vertex `_SpannerNode` stays as its
reference.
"""

import math
from collections import deque
from itertools import chain

import numpy as np

from ..clique import (HALT, NONE, SILENT, Broadcast, NodeProgram, Program, run_clique,
                      uniform_bits)
from ..graphs import Graph, label_bits
from ..machines import (BCAST, bound_scale, broadcast_bound, link_bandwidth,
                        round_loads_each, sim_report)
from ..rng import uniform, uniform_each
from .config import AlgoConfig, ConfigError
from .slots import edge_outputs, first_per_key, slot_sources


class _SpannerNode(NodeProgram):
    def __init__(self, delta):
        self.delta = delta

    def start(self, ctx):
        self.ctx = ctx
        self.L = label_bits(ctx.n)
        self.live = {u for u, _, _ in ctx.incident}
        # the cluster of this vertex and of each live neighbor (None once
        # dropped); a neighbor's entry goes stale, unread, once it leaves live
        self.cluster = {v: v for v in (ctx.node, *self.live)}
        self.edges = set()  # retained edges with this vertex as an endpoint
        self.p = ctx.n ** (-1.0 / self.delta)
        self.last_rounds = 2 * (self.delta - 1) + 1

    def _apply_round(self, inbox):
        """Replay one iteration's membership broadcasts.  Only those of this
        vertex and of its neighbors live at the round's start change what it
        reads: live edges are symmetric, so a witness edge to this vertex
        comes from one of them.  Every test reads the clusters of the
        round's start, so the broadcasts may be read in any order: this
        vertex drops a live neighbor if either of them drops, or if either
        moves into the other's old cluster."""
        prev, live = self.cluster, self.live  # clusters move once all are read
        me = self.ctx.node
        watched = {me, *live}
        moves = {}
        for src, payload in inbox.broadcasts:
            if src not in watched:
                continue
            if payload[0] == "d":
                live.discard(src)
                if src == me:
                    live.clear()
                moves[src] = None
                continue
            _, c_new, via = payload
            moves[src] = c_new
            if via == src:  # a stay: a vertex is never its own neighbor
                continue
            if src == me:
                live.difference_update([u for u in live if prev[u] == c_new])
            elif src in live and prev[me] == c_new:
                live.discard(src)
            if via == me or src == me:
                self.edges.add((min(src, via), max(src, via)))
        prev.update(moves)

    def step(self, rnd, inbox):
        if rnd == self.last_rounds:
            if rnd > 1:
                self._apply_round(inbox)
            self._final_pass()
            return HALT
        me = self.ctx.node
        if rnd % 2 == 1:  # coin round
            if rnd > 1:
                self._apply_round(inbox)
            cl = self.cluster[me]
            if cl == me and uniform(self.ctx.seed, "coin", cl, rnd) < self.p:
                return Broadcast(("c",), 1)
            return SILENT
        # membership round
        cl = self.cluster[me]
        if cl is None:
            return SILENT
        sampled = {src for src, _ in inbox.broadcasts}  # the coin round's centers
        if cl in sampled:  # stay, sent as via = me so that both fields fit L bits
            return Broadcast(("m", cl, me), 2 * self.L)
        cands = [u for u in self.live if self.cluster[u] in sampled]
        if cands:
            via = min(cands)
            return Broadcast(("m", self.cluster[via], via), 2 * self.L)
        self._keep_one_edge_per_cluster(cl)
        return Broadcast(("d",), 1)

    def _final_pass(self):
        cl = self.cluster[self.ctx.node]
        if cl is not None:
            self._keep_one_edge_per_cluster(cl)

    def _keep_one_edge_per_cluster(self, cl):
        """Retain the least-id live edge into every adjacent cluster but cl."""
        me = self.ctx.node
        per_cluster = {}
        for u in self.live:
            c = self.cluster[u]
            if c is None or c == cl:  # own-cluster edges ride the cluster tree
                continue
            if c not in per_cluster or u < per_cluster[c]:
                per_cluster[c] = u
        for u in per_cluster.values():
            self.edges.add((min(me, u), max(me, u)))

    def output(self):
        return tuple(sorted(self.edges))


def _spanner_rounds(g, delta, seed):
    """Round kernel of _SpannerNode: the same coins give the same broadcasts,
    in the same rounds and source order, and the same outputs."""
    n, L = g.n, label_bits(g.n)
    indptr, nbr = g.adjacency()
    src = slot_sources(indptr)
    slot_key = src * n + nbr  # ascending
    p = n ** (-1.0 / delta)
    vertices = np.arange(n)
    cluster = vertices.copy()  # -1 once dropped
    live = np.ones(len(nbr), dtype=bool)
    kept = []  # (owner, other end) arrays of the retained edges
    for rnd in range(2, 2 * delta - 1, 2):
        # coin round: the surviving centers re-sample themselves
        centers = np.flatnonzero(cluster == vertices)
        heads = centers[uniform_each(seed, "coin", centers, rnd - 1) < p]
        yield heads, uniform_bits(1, len(heads)), NONE, NONE, NONE
        # membership round: stay, move through the least live neighbor in a
        # sampled cluster, or drop
        sampled = np.zeros(n + 1, dtype=bool)  # cluster -1 reads the False at n
        sampled[heads] = True
        stay = sampled[cluster]
        cand = np.flatnonzero(live & sampled[cluster[nbr]] & ~stay[src])
        first = cand[first_per_key(src[cand])]
        movers, via = src[first], nbr[first]
        alive = cluster >= 0
        drop = alive & ~stay
        drop[movers] = False
        kept.append(_one_edge_per_cluster(drop, cluster, src, nbr, live, n))
        yield (np.flatnonzero(alive), np.where(drop, 1, 2 * L)[alive],
               NONE, NONE, NONE)
        # every vertex replays the round: each mover retains its witness
        # edge, and the witness does too if it still saw the mover as live
        back = live[np.searchsorted(slot_key, via * n + movers)]
        kept += [(movers, via), (via[back], movers[back])]
        prev = cluster
        cluster = prev.copy()
        cluster[movers] = prev[via]
        cluster[drop] = -1
        into = np.full(n, -2)  # a mover's new cluster; -2 matches no cluster
        into[movers] = cluster[movers]
        live &= ~(drop[src] | drop[nbr]
                  | (into[src] == prev[nbr]) | (into[nbr] == prev[src]))
    kept.append(_one_edge_per_cluster(cluster >= 0, cluster, src, nbr, live, n))
    yield NONE, NONE, NONE, NONE, NONE  # the final pass: all halt
    return edge_outputs(n, kept)


def _one_edge_per_cluster(who, cluster, src, nbr, live, n):
    """_keep_one_edge_per_cluster for every vertex of the mask `who`: its
    least live neighbor in every adjacent cluster but its own, as (owner,
    other end) arrays."""
    c = cluster[nbr]
    s = np.flatnonzero(live & who[src] & (c >= 0) & (c != cluster[src]))
    first = s[first_per_key(src[s] * n + c[s])]
    return src[first], nbr[first]


def spanner_program(cfg: AlgoConfig) -> Program:
    cfg.validate()
    return Program("spanner", lambda: _SpannerNode(cfg.delta),
                   kernel=lambda g, seed: _spanner_rounds(g, cfg.delta, seed),
                   budget=lambda n: 2 * cfg.delta - 1)


def spanner_union(outputs):
    edges = set()
    for out in outputs:
        edges.update(out)
    return sorted(edges)


# ---------------------------------------------------------------------------
# log-factor approximate shortest paths on top of the spanner
# ---------------------------------------------------------------------------


def _bfs_matrix(n, edges):
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    mat = [[math.inf] * n for _ in range(n)]
    for s in range(n):
        row = mat[s]
        row[s] = 0
        q = deque([s])
        while q:
            v = q.popleft()
            for u in adj[v]:
                if row[u] == math.inf:
                    row[u] = row[v] + 1
                    q.append(u)
    return mat


def logapprox_shortest_paths(g: Graph, parts, W: int = None, seed: int = 0):
    """Whole-graph distance estimates within factor 2*ceil(log2 n)-1, as
    (n x n estimates, the spanner's CliqueMetrics, {k: SimReport}).

    Builds the spanner with delta = ceil(log2 n) once.  On every partition
    in `parts` its rounds are priced in broadcast mode and followed by one
    ship step that collects the spanner at machine 0: an edge with an
    endpoint on machine 0 is already there, and every other edge goes
    straight there, 3L bits from the home of its smaller endpoint.  The
    exact solve on the collected spanner is local and free.  One
    `sim_report` prices both phases, so km_rounds, the bit columns and
    bound_ok cover the whole run; the bound is the spanner's broadcast bound
    plus a ship term, 16 log^2 n ceil(|E| 3L / W).
    """
    if (g.edge_arrays()[2] != 1).any():
        raise ConfigError("approximate shortest paths expects a unit-weight graph")
    n = g.n
    L = label_bits(n)
    W = link_bandwidth(n, W)
    outputs, trace, metrics = run_clique(g, spanner_program(AlgoConfig(delta=L)), seed)
    edges = spanner_union(outputs)
    low, high = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    ship_bound = bound_scale(n) * math.ceil(len(edges) * 3 * L / W)
    reports = {}
    for part, loads in zip(parts, round_loads_each(trace, parts, BCAST)):
        home = part.home
        far = (home[low] != 0) & (home[high] != 0)  # not yet on machine 0
        ship = np.zeros((part.k, part.k), dtype=np.int64)
        ship[:, 0] = 3 * L * np.bincount(home[low[far]], minlength=part.k)
        bound = broadcast_bound(n, part.k, W, metrics) + ship_bound
        reports[part.k] = sim_report(n, part, W, BCAST, chain(loads, [ship]), bound)
    return _bfs_matrix(n, edges), metrics, reports

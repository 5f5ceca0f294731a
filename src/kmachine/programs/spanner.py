"""Sparse spanner with stretch 2*delta-1 by repeated cluster sampling.

delta-1 iterations of two broadcast rounds each: surviving cluster centers
that re-sample themselves (probability n^(-1/delta), by the center's
rng.uniform(seed, "coin", center, round)) announce it, then each
vertex announces its new membership.  A vertex next to a sampled cluster
joins it through one retained edge; a vertex next to none retains one edge
into every adjacent cluster and drops out.  Retained edges double as the
cluster trees, which is what caps the stretch.  A final local pass joins
each surviving vertex to every adjacent residual cluster.

Membership broadcasts carry the witness edge, so the shared mirror can
replay joins, drops and edge removals identically at every vertex; only
edges retained by a dropping vertex or in the final pass stay private to
the vertex that retained them.
"""

import math
from collections import deque
from dataclasses import dataclass, replace

from ..clique import HALT, SILENT, Broadcast, NodeProgram, Program, run_clique
from ..graphs import Graph, label_bits
from ..machines import BCAST, price, random_vertex_partition
from ..rng import uniform
from .config import AlgoConfig


class _SpannerShared:
    def __init__(self, n, delta):
        self.n = n
        self.delta = delta
        self.cluster = list(range(n))
        self.prev_cluster = list(range(n))
        self.sampled = set()
        self.join_edges = []
        self._coins_round = 0
        self._applied = 0

    def set_sampled(self, rnd, coin_msgs):
        if rnd <= self._coins_round:
            return
        self._coins_round = rnd
        self.sampled = {src for src, _ in coin_msgs}

    def apply_memberships(self, rnd, msgs):
        """Replay one iteration's membership broadcasts; idempotent."""
        if rnd <= self._applied:
            return
        self._applied = rnd
        self.prev_cluster = list(self.cluster)
        for src, payload in sorted(msgs):
            if payload[0] == "m":
                _, c_new, via = payload
                if via >= 0:
                    self.join_edges.append((min(src, via), max(src, via)))
                self.cluster[src] = c_new
            elif payload[0] == "d":
                self.cluster[src] = None


class _SpannerNode(NodeProgram):
    def __init__(self, shared):
        self.shared = shared

    def start(self, ctx):
        self.ctx = ctx
        self.L = label_bits(ctx.n)
        self.live = {u for u, _, _ in ctx.incident}
        self.private_edges = []
        self.p = ctx.n ** (-1.0 / self.shared.delta)
        self.last_rounds = 2 * (self.shared.delta - 1) + 1

    def _apply_round(self, inbox):
        self.shared.apply_memberships(self._rnd, inbox.broadcasts)
        prev = self.shared.prev_cluster
        me = self.ctx.node
        for src, payload in inbox.broadcasts:
            if payload[0] == "d":
                self.live.discard(src)
                if src == me:
                    self.live.clear()
            elif payload[0] == "m" and payload[2] >= 0:
                c_new = payload[1]
                if src == me:
                    self.live = {u for u in self.live if prev[u] != c_new}
                elif src in self.live and prev[me] == c_new:
                    self.live.discard(src)

    def step(self, rnd, inbox):
        self._rnd = rnd
        if rnd == self.last_rounds:
            if rnd > 1:
                self._apply_round(inbox)
            self._final_pass()
            return HALT
        if rnd % 2 == 1:  # coin round
            if rnd > 1:
                self._apply_round(inbox)
            cl = self.shared.cluster[self.ctx.node]
            if cl == self.ctx.node and uniform(self.ctx.seed, "coin", cl, rnd) < self.p:
                return Broadcast(("c",), 1)
            return SILENT
        # membership round
        self.shared.set_sampled(rnd, inbox.broadcasts)
        me = self.ctx.node
        cl = self.shared.cluster[me]
        if cl is None:
            return SILENT
        if cl in self.shared.sampled:
            return Broadcast(("m", cl, -1), 2 * self.L)
        cands = [u for u in self.live if self.shared.cluster[u] in self.shared.sampled]
        if cands:
            via = min(cands)
            return Broadcast(("m", self.shared.cluster[via], via), 2 * self.L)
        self._keep_one_edge_per_cluster(cl)
        return Broadcast(("d",), 1)

    def _final_pass(self):
        cl = self.shared.cluster[self.ctx.node]
        if cl is not None:
            self._keep_one_edge_per_cluster(cl)

    def _keep_one_edge_per_cluster(self, cl):
        """Retain the least-id live edge into every adjacent cluster but cl."""
        me = self.ctx.node
        per_cluster = {}
        for u in self.live:
            c = self.shared.cluster[u]
            if c is None or c == cl:  # own-cluster edges ride the cluster tree
                continue
            if c not in per_cluster or u < per_cluster[c]:
                per_cluster[c] = u
        for c, u in sorted(per_cluster.items()):
            self.private_edges.append((min(me, u), max(me, u)))

    def output(self):
        me = self.ctx.node
        mine = set(self.private_edges)
        for a, b in self.shared.join_edges:
            if a == me or b == me:
                mine.add((a, b))
        return tuple(sorted(mine))


def spanner_program(cfg: AlgoConfig) -> Program:
    cfg.validate()

    def build(n):
        shared = _SpannerShared(n, cfg.delta)
        return [_SpannerNode(shared) for _ in range(n)]

    return Program("spanner", build)


def spanner_union(outputs):
    edges = set()
    for out in outputs:
        edges.update(out)
    return sorted(edges)


# ---------------------------------------------------------------------------
# log-factor approximate shortest paths on top of the spanner
# ---------------------------------------------------------------------------


@dataclass
class ApproxPathsResult:
    estimates: list  # n x n distance estimates
    spanner_edges: list
    reports: dict  # k -> SimReport; km_rounds includes shipping
    ship_rounds: dict  # k -> rounds charged for shipping the spanner


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


def logapprox_shortest_paths(g: Graph, ks, W: int = None, seed: int = 0,
                             cfg: AlgoConfig = None):
    """Whole-graph distance estimates within factor 2*ceil(log2 n)-1.

    Builds the spanner with delta = ceil(log2 n) once, then at every machine
    count in `ks` prices it in broadcast mode and charges shipping every
    spanner edge to one machine; the exact solve on the collected spanner is
    local and free.  Each report's `bound_ok` judges the spanner phase alone.
    """
    if any(w != 1 for _, _, w in g.edges):
        raise ValueError("approximate shortest paths expects a unit-weight graph")
    n = g.n
    L = label_bits(n)
    parts = [random_vertex_partition(g, k, seed) for k in ks]
    delta = max(1, math.ceil(math.log2(max(2, n))))
    cfg = replace(cfg or AlgoConfig(), delta=delta)
    outputs, trace, _ = run_clique(g, spanner_program(cfg), seed)
    edges = spanner_union(outputs)
    reports, ship_rounds = {}, {}
    for part in parts:
        rep = price(trace, part, W, mode=BCAST)
        ship = math.ceil(len(edges) * 3 * L / (part.k * rep.W))
        rep.km_rounds += ship
        reports[part.k], ship_rounds[part.k] = rep, ship
    return ApproxPathsResult(_bfs_matrix(n, edges), edges, reports, ship_rounds)

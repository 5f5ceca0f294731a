"""Densest-subgraph approximation by threshold peeling.

Iterations take two broadcast rounds: still-active vertices announce their
degree inside the active set, then every vertex below (1+eps) times the
active average degree announces that it leaves.  All vertices track which
iteration had the densest active set; once the active set has no edges the
process stops and every vertex reports the best density and whether it
belonged to that best iterate.
"""

from ..clique import HALT, SILENT, Broadcast, NodeProgram, Program
from ..graphs import label_bits
from .config import AlgoConfig


class _PeelShared:
    """Densities and survivor counts, identical at every vertex."""

    def __init__(self, n):
        self.n = n
        self.best = None  # (edges, size, iteration)
        self.done = False
        self.cur_m2 = None  # twice the active edge count
        self.cur_n = None
        self._applied = 0

    def apply_degrees(self, rnd, msgs, iteration):
        if rnd <= self._applied:
            return
        self._applied = rnd
        if not msgs:
            self.done = True
            return
        m2 = sum(payload[1] for _, payload in msgs)
        size = len(msgs)
        self.cur_m2, self.cur_n = m2, size
        cand = (m2, size, iteration)
        # maximize m/size exactly; earlier iteration wins ties
        if self.best is None or cand[0] * self.best[1] > self.best[0] * cand[1]:
            self.best = cand
        if m2 == 0:
            self.done = True

    def best_density(self):
        if self.best is None or self.best[0] == 0:
            return 0.0
        return self.best[0] / (2.0 * self.best[1])

    def best_iteration(self):
        return self.best[2] if self.best is not None else 1


class _PeelNode(NodeProgram):
    def __init__(self, shared, eps):
        self.shared = shared
        self.eps = eps

    def start(self, ctx):
        self.ctx = ctx
        self.L = label_bits(ctx.n)
        self.active_nbrs = {u for u, _, _ in ctx.incident}
        self.active = True
        self.left_at = None  # iteration whose cut removed this vertex

    def step(self, rnd, inbox):
        iteration = (rnd + 1) // 2
        if rnd % 2 == 1:  # degree round
            if rnd > 1:
                for src, payload in inbox.broadcasts:
                    if payload[0] == "out":
                        self.active_nbrs.discard(src)
            if self.active:
                return Broadcast(("deg", len(self.active_nbrs)), self.L)
            return SILENT
        # cut round: everyone sees all active degrees
        self.shared.apply_degrees(rnd, inbox.broadcasts, iteration)
        if self.shared.done:
            return HALT
        if self.active:
            avg = self.shared.cur_m2 / self.shared.cur_n
            if len(self.active_nbrs) < (1.0 + self.eps) * avg:
                self.active = False
                self.left_at = iteration
                return Broadcast(("out",), 1)
        return SILENT

    def output(self):
        best_iter = self.shared.best_iteration()
        member = self.left_at is None or self.left_at >= best_iter
        return (self.shared.best_density(), member)


def densest_subgraph_program(cfg: AlgoConfig) -> Program:
    cfg.validate()

    def build(n):
        shared = _PeelShared(n)
        return [_PeelNode(shared, cfg.eps) for _ in range(n)]

    return Program("densest", build)

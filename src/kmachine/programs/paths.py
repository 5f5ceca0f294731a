"""Distance computations that only ever broadcast.

Both programs exploit the complete communication graph: every announcement
reaches every vertex, so a vertex halts either once its own answer is fixed
or once a globally visible silent round shows that no announcements remain.
"""

import math

from ..clique import HALT, SILENT, Broadcast, NodeProgram, Program
from ..graphs import label_bits
from .config import AlgoConfig


class _BfsNode(NodeProgram):
    """Announce (id, hop distance, parent) once, the round after first being
    reached; unreached vertices stop after a silent round."""

    def __init__(self, source):
        self.source = source

    def start(self, ctx):
        self.ctx = ctx
        self.nbr_set = {u for u, _, _ in ctx.incident}
        self.bits = 3 * label_bits(ctx.n)
        self.dist = math.inf
        self.parent = None

    def step(self, rnd, inbox):
        if rnd == 1:
            if self.ctx.node == self.source:
                self.dist = 0
                return Broadcast((self.ctx.node, 0, self.ctx.node), self.bits, halt=True)
            return SILENT
        best = None
        for src, (vid, d, _parent) in inbox.broadcasts:
            if vid in self.nbr_set and (best is None or (d, vid) < best):
                best = (d, vid)
        if best is not None:
            self.dist = best[0] + 1
            self.parent = best[1]
            return Broadcast(
                (self.ctx.node, self.dist, self.parent), self.bits, halt=True
            )
        if not inbox.broadcasts:
            return HALT  # nobody announced last round: search is over
        return SILENT

    def output(self):
        return (self.dist, self.parent)


def bfs_program(cfg: AlgoConfig) -> Program:
    cfg.validate()
    return Program("bfs", lambda: _BfsNode(cfg.source))


class _BellmanFordNode(NodeProgram):
    """Broadcast (id, tentative distance) whenever the distance improves."""

    def __init__(self, source):
        self.source = source

    def start(self, ctx):
        self.ctx = ctx
        self.weight_to = {u: w for u, w, _ in ctx.incident}
        self.L = label_bits(ctx.n)
        self.dist = math.inf
        self.parent = None
        self.sent_last = False

    def step(self, rnd, inbox):
        improved = False
        if rnd == 1 and self.ctx.node == self.source:
            self.dist = 0
            improved = True
        for src, (vid, d) in inbox.broadcasts:
            w = self.weight_to.get(vid)
            if w is None:
                continue
            cand = d + w
            if cand < self.dist or (cand == self.dist and self._better_parent(vid)):
                if cand < self.dist:
                    improved = True
                    self.dist = cand
                    self.parent = vid
                elif vid < self.parent:
                    self.parent = vid
        if improved:
            self.sent_last = True
            bits = self.L + max(1, int(self.dist).bit_length())
            return Broadcast((self.ctx.node, self.dist), bits)
        prev_sent, self.sent_last = self.sent_last, False
        if rnd >= 2 and not inbox.broadcasts and not prev_sent:
            return HALT
        return SILENT

    def _better_parent(self, vid):
        return self.parent is not None and vid < self.parent

    def output(self):
        return (self.dist, self.parent)


def bellman_ford_program(cfg: AlgoConfig) -> Program:
    cfg.validate()
    return Program("bf_sssp", lambda: _BellmanFordNode(cfg.source))

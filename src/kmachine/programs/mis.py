"""Randomized maximal independent set via degree-weighted marking.

Phases take three broadcast rounds: marked vertices announce their current
active degree; marked vertices without a higher-priority marked neighbor
(priority: larger degree, then larger id) join the set and announce it;
their neighbors announce that they drop out.  A vertex leaves the
execution the moment its own membership is settled.  A vertex of active
degree d marks itself if rng.uniform(seed, "coin", v, round) < 1/(2d).
"""

from ..clique import HALT, SILENT, Broadcast, NodeProgram, Program
from ..graphs import label_bits
from ..rng import uniform
from .config import AlgoConfig


def default_phase_budget(n: int) -> int:
    return 10 * max(1, (n - 1).bit_length()) + 16


class _LubyNode(NodeProgram):
    def __init__(self, max_phases):
        self.max_phases = max_phases

    def start(self, ctx):
        self.ctx = ctx
        self.L = label_bits(ctx.n)
        self.active_nbrs = {u for u, _, _ in ctx.incident}
        self.budget = self.max_phases or default_phase_budget(ctx.n)
        self.in_set = False
        self.failed = False
        self.marked = False

    def step(self, rnd, inbox):
        sub = (rnd - 1) % 3
        if sub == 0:  # mark
            for src, payload in inbox.broadcasts:
                if payload[0] == "out":
                    self.active_nbrs.discard(src)
            phase = (rnd - 1) // 3 + 1
            if phase > self.budget:
                self.failed = True
                return HALT
            d = len(self.active_nbrs)
            if d == 0:
                self.marked = True
            else:
                self.marked = uniform(self.ctx.seed, "coin", self.ctx.node, rnd) < 0.5 / d
            if self.marked:
                return Broadcast(("mark", d), self.L)
            return SILENT
        if sub == 1:  # resolve
            if not self.marked:
                return SILENT
            me = (len(self.active_nbrs), self.ctx.node)
            for src, payload in inbox.broadcasts:
                if payload[0] == "mark" and src in self.active_nbrs:
                    if (payload[1], src) > me:
                        self.marked = False
                        return SILENT
            self.in_set = True
            return Broadcast(("win",), 1, halt=True)
        # deactivate
        for src, payload in inbox.broadcasts:
            if payload[0] == "win" and src in self.active_nbrs:
                return Broadcast(("out",), 1, halt=True)
        return SILENT

    def output(self):
        return (self.in_set, self.failed)


def luby_mis_program(cfg: AlgoConfig) -> Program:
    cfg.validate()
    return Program("mis", lambda n: [_LubyNode(cfg.mis_max_phases) for _ in range(n)])

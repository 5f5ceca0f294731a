"""Randomized maximal independent set via degree-weighted marking.

Phases take three broadcast rounds: marked vertices announce their current
active degree; marked vertices without a higher-priority marked neighbor
(priority: larger degree, then larger id) join the set and announce it;
their neighbors announce that they drop out.  A vertex leaves the execution
the moment its own membership is settled.  A vertex of active degree d marks
itself if rng.uniform(seed, "coin", v, round) < 1/(2d): output v of the
round's coin stream, which the kernel draws for all vertices at once.

The engine runs the round kernel `_luby_rounds`, which advances every vertex
of a round at once over the CSR slots whose two ends are both still live.
At a mark round a live vertex's active degree is its live degree: it has
heard every live neighbor that left say "out", and it has no neighbor that
joined the set, or it would have left too.  The per-vertex `_LubyNode`
stays as its reference.
"""

import numpy as np

from ..clique import HALT, NONE, SILENT, Broadcast, NodeProgram, Program
from ..graphs import label_bits
from ..rng import uniform, uniform_each
from .slots import broadcasts, slot_sources


def default_phase_budget(n: int) -> int:
    return 10 * max(1, (n - 1).bit_length()) + 16


class _LubyNode(NodeProgram):
    def start(self, ctx):
        self.ctx = ctx
        self.L = label_bits(ctx.n)
        self.active_nbrs = {u for u, _, _ in ctx.incident}
        self.budget = default_phase_budget(ctx.n)
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


def _luby_rounds(g, seed):
    """Round kernel of _LubyNode: the same coins give the same broadcasts, in
    the same rounds and source order, and the same outputs."""
    n, L = g.n, label_bits(g.n)
    indptr, nbr = g.adjacency()
    src = slot_sources(indptr)
    alive = np.ones(n, dtype=bool)
    in_set = np.zeros(n, dtype=bool)
    rnd = 0
    for _phase in range(default_phase_budget(n)):
        # mark: slots between live vertices are the active-neighbor pairs
        keep = alive[src] & alive[nbr]
        src, nbr = src[keep], nbr[keep]
        d = np.bincount(src, minlength=n)
        rnd += 1
        marked = alive & (d == 0)
        tossing = np.flatnonzero(alive & (d > 0))
        coins = uniform_each(seed, "coin", tossing, rnd)
        marked[tossing] = coins < 0.5 / d[tossing]
        yield broadcasts(marked, L)
        # resolve: a marked vertex loses to a marked neighbor of larger (d, id)
        rnd += 1
        prio = d * n + np.arange(n)
        beaten = marked[src] & marked[nbr] & (prio[nbr] > prio[src])
        win = marked.copy()
        win[src[beaten]] = False
        yield broadcasts(win, 1)
        in_set |= win
        alive &= ~win
        if not alive.any():
            break
        # deactivate: live neighbors of a winner leave
        rnd += 1
        out = np.zeros(n, dtype=bool)
        out[src[win[nbr]]] = True
        yield broadcasts(out, 1)
        alive &= ~out
        if not alive.any():
            break
    else:
        yield NONE, NONE, NONE, NONE, NONE  # over budget: the rest fail
    return list(zip(in_set.tolist(), alive.tolist()))


def luby_mis_program() -> Program:
    return Program("mis", _LubyNode, kernel=_luby_rounds)

"""Triangle detection from 2-neighborhood exchange.

Every vertex streams its neighbor list to each neighbor, one id per round
per edge, tagging the last one.  Once a vertex has the full lists of all
its neighbors it tests for a triangle through itself and broadcasts one
boolean; everyone halts after hearing all n verdict bits and outputs their
disjunction.
"""

from ..clique import HALT, SILENT, Broadcast, NodeProgram, Program, Unicast
from ..graphs import label_bits


class _TriangleNode(NodeProgram):
    def start(self, ctx):
        self.ctx = ctx
        self.L = label_bits(ctx.n)
        self.nbrs = [u for u, _, _ in ctx.incident]
        self.nbr_set = set(self.nbrs)
        self.pending = len(self.nbrs)  # neighbors whose list is incomplete
        self.lists = {u: [] for u in self.nbrs}
        self.sent_verdict = False
        self.heard = 0
        self.any_triangle = False

    def step(self, rnd, inbox):
        for src, (vid, last) in inbox.unicasts:
            self.lists[src].append(vid)
            if last:
                self.pending -= 1
        for _src, payload in inbox.broadcasts:
            self.heard += 1
            self.any_triangle |= payload[1]
        deg = len(self.nbrs)
        if rnd <= deg:
            vid = self.nbrs[rnd - 1]
            last = rnd == deg
            return Unicast([(u, (vid, last), self.L + 1) for u in self.nbrs])
        if not self.sent_verdict and self.pending == 0:
            self.sent_verdict = True
            mine = self._local_triangle()
            self.any_triangle |= mine
            return Broadcast(("tri", mine), 1)
        if self.sent_verdict and self.heard >= self.ctx.n:
            return HALT
        return SILENT

    def _local_triangle(self):
        for u in self.nbrs:
            for v in self.lists[u]:
                if v in self.nbr_set and v != u:
                    return True
        return False

    def output(self):
        return self.any_triangle


def triangle_program() -> Program:
    return Program("triangle", _TriangleNode)

"""Round-synchronous execution of per-vertex programs on a complete network.

Every vertex runs a small state machine.  In each round a vertex may
broadcast one payload to all other vertices, unicast payloads to chosen
vertices, stay silent, go idle (silent, and not stepped again until it has
mail or a chosen round arrives), or halt.  All outboxes of round r are
delivered as inboxes of round r+1; execution is deterministic for a fixed
seed because per-vertex randomness is derived from (seed, vertex, round).

The engine records every message (source, destinations, declared bit size)
so a finished execution can later be priced on a machine network.
"""

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, label_bits
from .rng import make_np_rng, make_random

PAYLOAD_CAP_C = 4  # payload cap is PAYLOAD_CAP_C * ceil(log2 n) bits


class SimulationError(RuntimeError):
    pass


class ProgramViolation(SimulationError):
    """A program emitted something the model forbids."""


class RoundLimitExceeded(SimulationError):
    """Round budget ran out before every vertex halted."""

    def __init__(self, msg, trace=None, outputs=None):
        super().__init__(msg)
        self.trace = trace
        self.outputs = outputs


# ---------------------------------------------------------------------------
# actions a vertex may return from step()
# ---------------------------------------------------------------------------


class Broadcast:
    """Send one payload of `bits` bits to all other vertices."""

    __slots__ = ("payload", "bits", "halt")

    def __init__(self, payload, bits, halt=False):
        self.payload = payload
        self.bits = bits
        self.halt = halt


class Unicast:
    """Send (dst, payload, bits) messages; at most one per destination."""

    __slots__ = ("sends", "halt")

    def __init__(self, sends, halt=False):
        self.sends = sends
        self.halt = halt


class Idle:
    """Stay silent, and skip step() until the vertex has mail (a unicast
    addressed to it, or any broadcast) or round `until` arrives."""

    __slots__ = ("until",)

    def __init__(self, until):
        self.until = until


class _Silent:
    __slots__ = ()


class _Halt:
    __slots__ = ()


SILENT = _Silent()
HALT = _Halt()


class Inbox:
    """Messages visible to a vertex at the start of a round.

    broadcasts holds (src, payload) for every broadcast of the previous
    round, including the vertex's own (hearing yourself is free and keeps
    symmetric programs simple).  unicasts holds (src, payload) addressed to
    this vertex, ordered by src.
    """

    __slots__ = ("broadcasts", "unicasts")

    def __init__(self, broadcasts, unicasts):
        self.broadcasts = broadcasts
        self.unicasts = unicasts


EMPTY_INBOX = Inbox((), ())


@dataclass(frozen=True)
class NodeCtx:
    """Per-vertex view handed to start(): identity, size, incident edges,
    and a (round -> Random) derived-randomness factory."""

    node: int
    n: int
    incident: tuple  # sorted (neighbor, weight, edge_index)
    rand: object
    np_rand: object


class NodeProgram:
    """Base class for per-vertex state machines."""

    def start(self, ctx: NodeCtx):
        self.ctx = ctx

    def step(self, rnd: int, inbox: Inbox):
        raise NotImplementedError

    def output(self):
        raise NotImplementedError


class Program:
    """A named recipe that builds one fresh NodeProgram per vertex.

    mode is the natural pricing mode of the traffic the program generates:
    'bcast' for broadcast-only programs, 'p2p' otherwise.
    """

    def __init__(self, name, builder, mode):
        self.name = name
        self._builder = builder
        self.mode = mode

    def build(self, n: int):
        return self._builder(n)


# ---------------------------------------------------------------------------
# trace and metrics
# ---------------------------------------------------------------------------


class RoundRecord:
    __slots__ = ("bcasts", "unis")

    def __init__(self, bcasts, unis):
        self.bcasts = bcasts  # [(src, bits)]
        self.unis = unis  # [(src, dst, bits)]


class CliqueTrace:
    """Full message record of an execution, one entry per executed round."""

    def __init__(self, n: int):
        self.n = n
        self.rounds = []
        self._arrays = None

    def append(self, rec: RoundRecord):
        self.rounds.append(rec)
        self._arrays = None

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def unicast_count(self) -> int:
        return sum(len(r.unis) for r in self.rounds)

    def broadcast_count(self) -> int:
        return sum(len(r.bcasts) for r in self.rounds)

    def round_arrays(self):
        """Per round: (bcast_src, bcast_bits, uni_src, uni_dst, uni_bits)."""
        if self._arrays is None:
            out = []
            for rec in self.rounds:
                if rec.bcasts:
                    b = np.asarray(rec.bcasts, dtype=np.int64)
                    bs, bb = b[:, 0], b[:, 1]
                else:
                    bs = bb = np.zeros(0, dtype=np.int64)
                if rec.unis:
                    u = np.asarray(rec.unis, dtype=np.int64)
                    us, ud, ub = u[:, 0], u[:, 1], u[:, 2]
                else:
                    us = ud = ub = np.zeros(0, dtype=np.int64)
                out.append((bs, bb, us, ud, ub))
            self._arrays = out
        return self._arrays

    def export_lines(self):
        """Debug dump, one 'round src dst_count bits bcast_flag' per message."""
        lines = []
        for rnd, rec in enumerate(self.rounds, start=1):
            for src, bits in rec.bcasts:
                lines.append(f"{rnd} {src} {self.n - 1} {bits} 1")
            for src, dst, bits in rec.unis:
                lines.append(f"{rnd} {src} 1 {bits} 0")
        return lines


@dataclass(frozen=True)
class CliqueMetrics:
    """Communication totals of one execution.

    rounds: executed rounds (T_C).  messages: point-to-point count with each
    broadcast counted as n-1 deliveries (M).  broadcasts: broadcast emissions
    (B).  comm_degree: max, over rounds and vertices, of messages sent plus
    messages addressed to the vertex in that round.
    """

    rounds: int
    messages: int
    broadcasts: int
    comm_degree: int
    unicasts: int
    payload_bits: int

    @staticmethod
    def from_trace(trace: CliqueTrace) -> "CliqueMetrics":
        n = trace.n
        uni = 0
        bc = 0
        bits = 0
        dprime = 0
        for bs, bb, us, ud, ub in trace.round_arrays():
            bc += len(bs)
            uni += len(us)
            bits += int(bb.sum()) + int(ub.sum())
            if not (len(bs) or len(us)):
                continue
            sent = np.zeros(n, dtype=np.int64)
            recv = np.zeros(n, dtype=np.int64)
            if len(bs):
                np.add.at(sent, bs, n - 1)
                recv += len(bs)
                np.subtract.at(recv, bs, 1)  # a broadcast skips its source
            if len(us):
                np.add.at(sent, us, 1)
                np.add.at(recv, ud, 1)
            dprime = max(dprime, int((sent + recv).max()))
        return CliqueMetrics(
            rounds=trace.num_rounds,
            messages=uni + bc * (n - 1),
            broadcasts=bc,
            comm_degree=dprime,
            unicasts=uni,
            payload_bits=bits,
        )


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def default_round_budget(n: int) -> int:
    return 8 * n + 64


def run_clique(
    g: Graph,
    program: Program,
    seed: int,
    max_rounds: int = None,
    payload_cap_c: int = PAYLOAD_CAP_C,
):
    """Execute `program` on graph g over the complete n-vertex network.

    Returns (outputs, trace, metrics) where outputs[v] is vertex v's result
    blob.  Raises RoundLimitExceeded (carrying the partial trace) if some
    vertex never halts within the budget.
    """
    n = g.n
    if max_rounds is None:
        max_rounds = default_round_budget(n)
    if max_rounds < 1:
        raise SimulationError("max_rounds must be >= 1")
    cap = payload_cap_c * label_bits(n)

    nodes = program.build(n)
    if len(nodes) != n:
        raise ProgramViolation("program built wrong number of vertices")
    for v, prog in enumerate(nodes):
        ctx = NodeCtx(
            node=v,
            n=n,
            incident=tuple(g.neighbors(v)),
            rand=lambda rnd, _v=v: make_random(seed, "node", _v, rnd),
            np_rand=lambda rnd, _v=v: make_np_rng(seed, "node", _v, rnd),
        )
        prog.start(ctx)

    awake = list(range(n))  # live vertices stepped every round, ascending
    asleep = {}  # idle vertex -> round of its alarm
    trace = CliqueTrace(n)
    cur_bcasts = ()
    cur_unis = {}

    rnd = 0
    while awake or asleep:
        rnd += 1
        if rnd > max_rounds:
            raise RoundLimitExceeded(
                f"{len(awake) + len(asleep)} vertices still active after "
                f"{max_rounds} rounds",
                trace=trace,
                outputs=None,
            )
        order = awake
        if asleep:
            woken = [
                v for v, until in asleep.items()
                if cur_bcasts or until == rnd or v in cur_unis
            ]
            if woken:
                for v in woken:
                    del asleep[v]
                order = sorted(awake + woken)
        gone = []  # vertices of `order` that halted or went idle
        nxt_bcasts = []
        nxt_unis = {}
        rec_b = []
        rec_u = []
        for v in order:
            inbox = Inbox(cur_bcasts, cur_unis.get(v, ()))
            act = nodes[v].step(rnd, inbox)
            if act is None or act is SILENT:
                continue
            if act is HALT:
                gone.append(v)
                continue
            if isinstance(act, Idle):
                until = act.until
                if not isinstance(until, int) or until <= rnd:
                    raise ProgramViolation(
                        f"vertex {v}: idle until round {until!r} in round {rnd}"
                    )
                asleep[v] = until
                gone.append(v)
                continue
            if isinstance(act, Broadcast):
                if not isinstance(act.bits, int) or act.bits < 1:
                    raise ProgramViolation(f"vertex {v}: bad payload size {act.bits}")
                if act.bits > cap:
                    raise ProgramViolation(
                        f"vertex {v}: payload of {act.bits} bits exceeds cap {cap}"
                    )
                nxt_bcasts.append((v, act.payload))
                rec_b.append((v, act.bits))
                if act.halt:
                    gone.append(v)
            elif isinstance(act, Unicast):
                seen_dst = set()
                for dst, payload, bits in act.sends:
                    if not (0 <= dst < n) or dst == v:
                        raise ProgramViolation(f"vertex {v}: bad destination {dst}")
                    if dst in seen_dst:
                        raise ProgramViolation(
                            f"vertex {v}: two messages to {dst} in one round"
                        )
                    seen_dst.add(dst)
                    if not isinstance(bits, int) or bits < 1 or bits > cap:
                        raise ProgramViolation(
                            f"vertex {v}: payload size {bits} outside [1, {cap}]"
                        )
                    nxt_unis.setdefault(dst, []).append((v, payload))
                    rec_u.append((v, dst, bits))
                if act.halt:
                    gone.append(v)
            else:
                raise ProgramViolation(f"vertex {v}: unknown action {act!r}")
        if gone:
            gone = set(gone)
            awake = [v for v in order if v not in gone]
        else:
            awake = order
        trace.append(RoundRecord(rec_b, rec_u))
        cur_bcasts = tuple(nxt_bcasts)
        cur_unis = {k: tuple(vv) for k, vv in nxt_unis.items()}

    outputs = [nodes[v].output() for v in range(n)]
    metrics = CliqueMetrics.from_trace(trace)
    return outputs, trace, metrics

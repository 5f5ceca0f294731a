"""Round-synchronous execution of per-vertex programs on a complete network.

Every vertex runs a small state machine.  In each round a vertex may
broadcast one payload to all other vertices, unicast payloads to chosen
vertices, stay silent, or halt.  All outboxes of round r are delivered as
inboxes of round r+1; execution is deterministic for a fixed seed because
the engine draws nothing: every program draws its randomness from the run
seed through kmachine.rng, keyed by vertex and round.

One driver, run_clique, runs every program as a generator of rounds: the
program's round kernel if it has one, else the per-vertex scheduler
_vertex_rounds.  Each round is five int arrays (bcast_src, bcast_bits,
uni_src, uni_dst, uni_bits); the driver checks them against the model's
rules (_checked_round) and records them, so a finished execution can later
be priced on a machine network.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, label_bits
# make_np_rng and make_random are unused here: perfbench's traced mode wraps them
from .rng import make_np_rng, make_random  # noqa: F401

PAYLOAD_CAP_C = 4  # payload cap is PAYLOAD_CAP_C * ceil(log2 n) bits


class SimulationError(RuntimeError):
    pass


class ProgramViolation(SimulationError):
    """A program emitted something the model forbids."""


class RoundLimitExceeded(SimulationError):
    """Round budget ran out before every vertex halted."""

    def __init__(self, msg, trace=None):
        super().__init__(msg)
        self.trace = trace


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


@dataclass(frozen=True)
class NodeCtx:
    """Per-vertex view handed to start() by the per-vertex scheduler:
    identity, size, incident edges and the run seed, from which the program
    draws its own randomness through kmachine.rng (for example
    rng.uniform(seed, "coin", node, rnd))."""

    node: int
    n: int
    incident: tuple  # sorted (neighbor, weight, edge_index)
    seed: int


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

    kernel, if set, replaces the per-vertex programs in run_clique with one
    generator that advances every vertex of a round at once.  It is called
    as kernel(g, seed) and draws any randomness it needs itself, with the
    kmachine.rng keys the programs draw from ctx.seed.  It yields
    one round at a time as the five int arrays CliqueTrace stores,
    (bcast_src, bcast_bits, uni_src, uni_dst, uni_bits): the broadcasts
    with their sources strictly ascending, then the unicasts.  It returns
    the per-vertex outputs.  The trace keeps the yielded arrays, so the
    kernel must not write to them later.  A kernel must be byte-identical
    to the programs `builder` makes: the same messages in the same order,
    the same outputs.  Those programs stay as its reference.
    """

    def __init__(self, name, builder, kernel=None):
        self.name = name
        self._builder = builder
        self.kernel = kernel

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


_NONE = np.zeros(0, dtype=np.int64)
_NONE.flags.writeable = False


def _columns(pairs, width):
    if not pairs:
        return (_NONE,) * width
    a = np.asarray(pairs, dtype=np.int64)
    return tuple(a[:, i] for i in range(width))


class CliqueTrace:
    """Full message record of an execution, one entry per executed round,
    stored as int64 arrays (bcast_src, bcast_bits, uni_src, uni_dst,
    uni_bits)."""

    def __init__(self, n: int):
        self.n = n
        self._rounds = []
        self._metrics = None

    def append_arrays(self, bs, bb, us, ud, ub):
        self._rounds.append((bs, bb, us, ud, ub))
        self._metrics = None

    def append(self, rec: RoundRecord):
        self.append_arrays(*_columns(rec.bcasts, 2), *_columns(rec.unis, 3))

    @property
    def rounds(self):
        """The rounds as a tuple of RoundRecords of (src, bits) and
        (src, dst, bits) lists, rebuilt from the arrays on every access;
        extend the trace with append()."""
        return tuple(
            RoundRecord(list(zip(bs.tolist(), bb.tolist())),
                        list(zip(us.tolist(), ud.tolist(), ub.tolist())))
            for bs, bb, us, ud, ub in self._rounds
        )

    @property
    def num_rounds(self) -> int:
        return len(self._rounds)

    def unicast_count(self) -> int:
        return sum(len(r[2]) for r in self._rounds)

    def broadcast_count(self) -> int:
        return sum(len(r[0]) for r in self._rounds)

    def round_arrays(self):
        """Per round: (bcast_src, bcast_bits, uni_src, uni_dst, uni_bits)."""
        return self._rounds

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
        """The trace's metrics, computed once and cached on the trace."""
        if trace._metrics is None:
            trace._metrics = CliqueMetrics._compute(trace)
        return trace._metrics

    @staticmethod
    def _compute(trace: CliqueTrace) -> "CliqueMetrics":
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
    blob.  Raises RoundLimitExceeded (carrying the partial trace) if the
    program still runs after the budget.  The rounds come from
    program.kernel(g, seed) if the program has a kernel, else from one
    program.build(n) state machine per vertex (_vertex_rounds); either way
    every round passes the same checks before it is recorded.
    """
    n = g.n
    if max_rounds is None:
        max_rounds = default_round_budget(n)
    if max_rounds < 1:
        raise SimulationError("max_rounds must be >= 1")
    cap = payload_cap_c * label_bits(n)
    if program.kernel is not None:
        rounds = program.kernel(g, seed)
    else:
        rounds = _vertex_rounds(g, program.build(n), seed)
    trace = CliqueTrace(n)
    while True:
        try:
            cols = next(rounds)
        except StopIteration as done:
            outputs = done.value
            break
        if trace.num_rounds == max_rounds:
            raise RoundLimitExceeded(
                f"{program.name} still running after {max_rounds} rounds",
                trace=trace,
            )
        trace.append_arrays(*_checked_round(cols, n, cap))
    if outputs is None or len(outputs) != n:
        raise ProgramViolation("kernel returned wrong number of outputs")
    return outputs, trace, CliqueMetrics.from_trace(trace)


def _vertex_rounds(g, nodes, seed):
    """The round generator of one NodeProgram per vertex.  It starts every
    program, steps the live vertices in ascending order, yields each round
    as (bcast_src, bcast_bits, uni_src, uni_dst, uni_bits) lists, delivers
    the round's messages as the next round's inboxes, and returns the
    outputs once every vertex has halted.  run_clique checks each round
    before it resumes the generator, so nothing unchecked is delivered."""
    n = g.n
    if len(nodes) != n:
        raise ProgramViolation("program built wrong number of vertices")
    for v, prog in enumerate(nodes):
        prog.start(NodeCtx(node=v, n=n, incident=g.neighbors(v), seed=seed))

    live = list(range(n))  # vertices not yet halted, ascending
    inbox_b = ()
    inbox_u = {}
    rnd = 0
    while live:
        rnd += 1
        gone = []  # vertices that halted this round
        bs, bb, bp = [], [], []  # broadcast sources, bits, payloads
        us, ud, ub, up = [], [], [], []  # unicast sources, dests, bits, payloads
        for v in live:
            act = nodes[v].step(rnd, Inbox(inbox_b, inbox_u.get(v, ())))
            if act is None or act is SILENT:
                continue
            if act is HALT:
                gone.append(v)
                continue
            if isinstance(act, Broadcast):
                bs.append(v)
                bb.append(act.bits)
                bp.append(act.payload)
            elif isinstance(act, Unicast):
                for dst, payload, bits in act.sends:
                    us.append(v)
                    ud.append(dst)
                    ub.append(bits)
                    up.append(payload)
            else:
                raise ProgramViolation(f"vertex {v}: unknown action {act!r}")
            if act.halt:
                gone.append(v)
        if gone:
            gone = set(gone)
            live = [v for v in live if v not in gone]
        yield bs, bb, us, ud, ub
        inbox_b = tuple(zip(bs, bp))
        inbox_u = {}
        for src, dst, payload in zip(us, ud, up):
            inbox_u.setdefault(dst, []).append((src, payload))
        inbox_u = {dst: tuple(msgs) for dst, msgs in inbox_u.items()}
    return [prog.output() for prog in nodes]


def _checked_round(cols, n, cap):
    """A round's (bcast_src, bcast_bits, uni_src, uni_dst, uni_bits) as int64
    arrays, after the model's checks on every message, vectorized; the
    first offending broadcast, else unicast, raises."""
    cols = [np.asarray(a) for a in cols]
    if (len(cols) != 5 or any(a.ndim != 1 for a in cols)
            or len(cols[1]) != len(cols[0])
            or not len(cols[2]) == len(cols[3]) == len(cols[4])):
        raise ProgramViolation(
            "kernel round is not (bcast_src, bcast_bits) and "
            "(uni_src, uni_dst, uni_bits) arrays of equal lengths"
        )
    if any(len(a) and a.dtype.kind not in "iu" for a in cols):
        raise ProgramViolation("round holds non-integer values")
    bs, bb, us, ud, ub = (
        a.astype(np.int64, copy=False) if len(a) else _NONE for a in cols
    )
    if len(bs):
        down = np.zeros(len(bs), dtype=bool)  # a source not above the one before
        down[1:] = bs[1:] <= bs[:-1]
        _raise_first([
            ((bs < 0) | (bs >= n), lambda i: f"kernel: bad source {bs[i]}"),
            (down,
             lambda i: f"kernel: broadcast source {bs[i]} not above {bs[i - 1]}"),
            (bb < 1, lambda i: f"vertex {bs[i]}: bad payload size {bb[i]}"),
            (bb > cap,
             lambda i: f"vertex {bs[i]}: payload of {bb[i]} bits exceeds cap {cap}"),
        ])
    if len(us):
        key = us * n + ud
        dup = np.zeros(len(key), dtype=bool)
        if (key[1:] <= key[:-1]).any():  # not strictly ascending: look for repeats
            dup[:] = True
            dup[np.unique(key, return_index=True)[1]] = False
        _raise_first([
            ((us < 0) | (us >= n), lambda i: f"kernel: bad source {us[i]}"),
            ((ud < 0) | (ud >= n) | (ud == us),
             lambda i: f"vertex {us[i]}: bad destination {ud[i]}"),
            (dup, lambda i: f"vertex {us[i]}: two messages to {ud[i]} in one round"),
            ((ub < 1) | (ub > cap),
             lambda i: f"vertex {us[i]}: payload size {ub[i]} outside [1, {cap}]"),
        ])
    return bs, bb, us, ud, ub


def _raise_first(checks):
    """checks: (bad mask, message of an index) pairs over one message list.
    Raises, at the first bad message, the first check it fails."""
    bad = functools.reduce(np.logical_or, [mask for mask, _ in checks])
    if bad.any():
        i = int(bad.argmax())
        raise ProgramViolation(next(text(i) for mask, text in checks if mask[i]))

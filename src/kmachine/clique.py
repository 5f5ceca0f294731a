"""Round-synchronous execution of per-vertex programs on a complete network.

Every vertex runs a small state machine.  In each round a vertex may
broadcast one payload to all other vertices, unicast payloads to chosen
vertices, stay silent, or halt.  All outboxes of round r are delivered as
inboxes of round r+1; execution is deterministic for a fixed seed because
per-vertex randomness is derived from (seed, vertex, round), and a walk
token's from (seed, round, vertex, token index).

The engine records every message (source, destinations, declared bit size)
so a finished execution can later be priced on a machine network.
"""

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, label_bits
# make_np_rng is unused here but stays bound: perfbench's traced mode wraps it
from .rng import make_np_rng, make_random, token_uniforms  # noqa: F401

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
    and derived randomness: rand(rnd) is a Random for the round, and
    uniforms(rnd, count) is (u1, u2), the two uniforms of each of the
    vertex's walk tokens 0..count-1 in the round (rng.token_uniforms)."""

    node: int
    n: int
    incident: tuple  # sorted (neighbor, weight, edge_index)
    rand: object
    uniforms: object


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

    kernel, if set, replaces the per-vertex programs in run_clique with one
    generator that advances every vertex of a round at once.  It is called
    as kernel(g, uniforms), where uniforms(rnd, v, i) gives the uniforms of
    the tokens with vertex v[j] and index i[j], keyed exactly like
    NodeCtx.uniforms.  It yields one (src, dst, bits) triple of int arrays
    per round, holding that round's unicasts, and returns the per-vertex
    outputs.  The trace keeps the yielded arrays, so the kernel must not
    write to them later.  A kernel must be byte-identical to the programs
    `builder` makes: the same messages in the same order, the same outputs.
    Those programs stay as its reference.
    """

    def __init__(self, name, builder, mode, kernel=None):
        self.name = name
        self._builder = builder
        self.mode = mode
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
    blob.  Raises RoundLimitExceeded (carrying the partial trace) if some
    vertex never halts within the budget.  Runs program.kernel if the
    program has one, else one program.build(n) state machine per vertex.
    """
    n = g.n
    if max_rounds is None:
        max_rounds = default_round_budget(n)
    if max_rounds < 1:
        raise SimulationError("max_rounds must be >= 1")
    cap = payload_cap_c * label_bits(n)
    if program.kernel is not None:
        return _run_kernel(g, program, seed, max_rounds, cap)

    nodes = program.build(n)
    if len(nodes) != n:
        raise ProgramViolation("program built wrong number of vertices")
    for v, prog in enumerate(nodes):
        ctx = NodeCtx(
            node=v,
            n=n,
            incident=g.neighbors(v),
            rand=lambda rnd, _v=v: make_random(seed, "node", _v, rnd),
            uniforms=lambda rnd, count, _v=v: token_uniforms(
                seed, rnd, np.full(count, _v), np.arange(count)
            ),
        )
        prog.start(ctx)

    live = list(range(n))  # vertices not yet halted, ascending
    trace = CliqueTrace(n)
    cur_bcasts = ()
    cur_unis = {}

    rnd = 0
    while live:
        rnd += 1
        if rnd > max_rounds:
            raise RoundLimitExceeded(
                f"{len(live)} vertices still active after {max_rounds} rounds",
                trace=trace,
                outputs=None,
            )
        gone = []  # vertices that halted this round
        nxt_bcasts = []
        nxt_unis = {}
        rec_b = []
        rec_u = []
        for v in live:
            inbox = Inbox(cur_bcasts, cur_unis.get(v, ()))
            act = nodes[v].step(rnd, inbox)
            if act is None or act is SILENT:
                continue
            if act is HALT:
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
            live = [v for v in live if v not in gone]
        trace.append(RoundRecord(rec_b, rec_u))
        cur_bcasts = tuple(nxt_bcasts)
        cur_unis = {k: tuple(vv) for k, vv in nxt_unis.items()}

    outputs = [nodes[v].output() for v in range(n)]
    return outputs, trace, CliqueMetrics.from_trace(trace)


def _run_kernel(g, program, seed, max_rounds, cap):
    """run_clique for a program with a round kernel."""
    n = g.n
    trace = CliqueTrace(n)
    rounds = program.kernel(
        g, lambda rnd, v, i: token_uniforms(seed, rnd, v, i)
    )
    while True:
        try:
            sends = next(rounds)
        except StopIteration as done:
            outputs = done.value
            break
        if trace.num_rounds == max_rounds:
            raise RoundLimitExceeded(
                f"{program.name} kernel still running after {max_rounds} rounds",
                trace=trace,
                outputs=None,
            )
        trace.append_arrays(_NONE, _NONE, *_checked_unicasts(*sends, n, cap))
    if outputs is None or len(outputs) != n:
        raise ProgramViolation("kernel returned wrong number of outputs")
    return outputs, trace, CliqueMetrics.from_trace(trace)


def _checked_unicasts(src, dst, bits, n, cap):
    """A kernel round's (src, dst, bits) as int64 arrays, after the checks a
    Unicast action gets, vectorized; the first offending message raises."""
    cols = [np.asarray(a) for a in (src, dst, bits)]
    if any(a.ndim != 1 or len(a) != len(cols[0]) for a in cols):
        raise ProgramViolation("kernel round is not three equal-length arrays")
    if not len(cols[0]):
        return _NONE, _NONE, _NONE
    if any(a.dtype.kind not in "iu" for a in cols):
        raise ProgramViolation("kernel round holds non-integer values")
    src, dst, bits = (a.astype(np.int64, copy=False) for a in cols)
    bad_src = (src < 0) | (src >= n)
    bad_dst = (dst < 0) | (dst >= n) | (dst == src)
    key = src * n + dst
    dup = np.zeros(len(key), dtype=bool)
    if (np.diff(key) <= 0).any():  # not strictly ascending: look for repeats
        dup[:] = True
        dup[np.unique(key, return_index=True)[1]] = False
    bad_bits = (bits < 1) | (bits > cap)
    bad = bad_src | bad_dst | dup | bad_bits
    if bad.any():
        i = int(bad.argmax())
        v = int(src[i])
        if bad_src[i]:
            raise ProgramViolation(f"kernel: bad source {v}")
        if bad_dst[i]:
            raise ProgramViolation(f"vertex {v}: bad destination {int(dst[i])}")
        if dup[i]:
            raise ProgramViolation(
                f"vertex {v}: two messages to {int(dst[i])} in one round"
            )
        raise ProgramViolation(
            f"vertex {v}: payload size {int(bits[i])} outside [1, {cap}]"
        )
    return src, dst, bits

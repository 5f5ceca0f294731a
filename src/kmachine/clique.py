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
uni_src, uni_dst, uni_bits), and it takes one path: the driver checks it
once against the model's rules (_checked_round), then CliqueTrace tallies
it (the totals CliqueMetrics reports and the count of rounds that send)
and stores it, so a finished execution can later be priced on a machine
network.  The tally counts on what the check guarantees: broadcast sources
strictly ascend, so a round of broadcasts alone peaks at a degree it
reads off the round's length.  A kernel yields a constant bits column as
uniform_bits: one value that the check tests once and the trace keeps
without a scan or a copy.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .graphs import WEIGHT_POLY_C, Graph, id_dtype, label_bits
# make_np_rng and make_random are unused here: perfbench's traced mode wraps them
from .rng import make_np_rng, make_random  # noqa: F401


def payload_cap(n: int) -> int:
    """The most bits one message may carry on n vertices, L = label_bits(n):
    O(log n), with room for a vertex id beside a path length, which weights
    below 2^(4L) (graphs.inf_weight) keep below (n - 1) 2^(4L) < 2^(5L)."""
    return (WEIGHT_POLY_C + 2) * label_bits(n)


def default_round_budget(n: int) -> int:
    return 8 * n + 64


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
    draws its own randomness through kmachine.rng (a vertex's coin
    rng.uniform(seed, "coin", node, rnd) is output `node` of a stream)."""

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
    """A named per-vertex program: node() makes one vertex's fresh
    NodeProgram, whose state is its own.

    kernel, if set, replaces the per-vertex programs in run_clique with one
    generator that advances every vertex of a round at once.  It is called
    as kernel(g, seed) and draws any randomness it needs itself, with the
    kmachine.rng keys the programs draw from ctx.seed.  It yields
    one round at a time as five int arrays, (bcast_src, bcast_bits,
    uni_src, uni_dst, uni_bits): the broadcasts with their sources
    strictly ascending, then the unicasts.  It returns the per-vertex
    outputs.  CliqueTrace stores copies of the id columns but may keep a
    yielded bits column as it is, so the kernel must not write to one
    later.  A kernel must be byte-identical to the programs `node` makes:
    the same messages in the same order, the same outputs.  Those
    programs stay as its reference.

    budget(n) is the round by which every vertex of an n-vertex run has
    halted, and run_clique's round limit.
    """

    def __init__(self, name, node, kernel=None, budget=default_round_budget):
        self.name = name
        self.node = node
        self.kernel = kernel
        self.budget = budget


# ---------------------------------------------------------------------------
# trace and metrics
# ---------------------------------------------------------------------------


NONE = np.zeros(0, dtype=np.int64)  # an empty round column; read-only, so shared
NONE.flags.writeable = False


def uniform_bits(bits, count):
    """The bits column of `count` messages of `bits` bits each: the one
    int64 value seen through a read-only zero-stride view, which the round
    check tests once and the trace stores as it is (NONE if count is 0).
    A kernel yields every constant bits column through it."""
    if not count:
        return NONE
    one = np.ndarray(count, np.int64, np.array([bits], dtype=np.int64), 0, (0,))
    one.flags.writeable = False
    return one


class CliqueTrace:
    """Full message record of an execution, one entry per executed round,
    (bcast_src, bcast_bits, uni_src, uni_dst, uni_bits), with the totals
    CliqueMetrics reports and the count of rounds that send, tallied as each
    round is stored.

    A round is stored narrow: its three vertex-id columns in
    graphs.id_dtype(n) (int32 below 2^31 vertices), and a bits column
    whose entries are all equal as that one value in a read-only
    zero-stride view.  An empty column is NONE, and a round that sends
    nothing is one shared tuple of five NONE.  Readers that compute with
    the columns widen them to int64 first, as the pricing pass
    (machines._machine_sums) does."""

    _silent = (NONE,) * 5

    def __init__(self, n: int):
        self.n = n
        self._ids = id_dtype(n)
        self._rounds = []
        self.broadcasts = 0
        self.unicasts = 0
        self.comm_degree = 0
        self.sending_rounds = 0

    def append_arrays(self, bs, bb, us, ud, ub):
        """Tally one round and store it.  The round holds int arrays with
        what _checked_round guarantees of a round that passes: broadcast
        sources strictly ascend and unicast (source, destination) pairs are
        distinct, as run_clique's rounds do and hand-built ones must."""
        if not (len(bs) or len(us)):
            self._rounds.append(self._silent)
            return
        self._tally(bs, us, ud)
        ids = self._ids
        self._rounds.append((_stored_ids(bs, ids), _stored_bits(bb),
                             _stored_ids(us, ids), _stored_ids(ud, ids),
                             _stored_bits(ub)))

    def _tally(self, bs, us, ud):
        """Count a round that sends.  A vertex's degree is len(bs) (every
        broadcast reaches it or leaves it), n - 2 more if it broadcasts (its
        one broadcast, as sources are distinct), and the unicasts it sends
        and receives; so a round of broadcasts alone peaks at
        len(bs) + n - 2, with no count per vertex."""
        nb = len(bs)
        self.sending_rounds += 1
        self.broadcasts += nb
        if len(us):
            self.unicasts += len(us)
            deg = np.bincount(np.concatenate((us, ud)), minlength=self.n)
            if nb:
                deg[bs] += self.n - 2
            peak = nb + int(deg.max())
        else:
            peak = nb + self.n - 2
        self.comm_degree = max(self.comm_degree, peak)

    @property
    def num_rounds(self) -> int:
        return len(self._rounds)

    def round_arrays(self):
        """Per round: (bcast_src, bcast_bits, uni_src, uni_dst, uni_bits)."""
        return self._rounds

    def export_lines(self):
        """Debug dump, one 'round src dst_count bits bcast_flag' per message."""
        lines = []
        for rnd, (bs, bb, us, _, ub) in enumerate(self._rounds, start=1):
            lines += [f"{rnd} {src} {self.n - 1} {bits} 1"
                      for src, bits in zip(bs.tolist(), bb.tolist())]
            lines += [f"{rnd} {src} 1 {bits} 0"
                      for src, bits in zip(us.tolist(), ub.tolist())]
        return lines


def _stored_ids(a, ids):
    """An id column as the trace keeps it: a copy in the trace's id dtype."""
    return a.astype(ids) if len(a) else NONE


def _stored_bits(a):
    """A bits column as the trace keeps it: one value, seen through a
    read-only zero-stride view, when every entry is equal.  A column of
    uniform_bits is that view already and is kept as it is."""
    if a.strides == (0,) or len(a) < 2:
        return a if len(a) else NONE
    if (a == a[0]).all():
        return uniform_bits(a[0], len(a))
    return a


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

    @staticmethod
    def from_trace(trace: CliqueTrace) -> "CliqueMetrics":
        """The totals the trace tallied as it stored each round so far."""
        return CliqueMetrics(
            rounds=trace.num_rounds,
            messages=trace.unicasts + trace.broadcasts * (trace.n - 1),
            broadcasts=trace.broadcasts,
            comm_degree=trace.comm_degree,
            unicasts=trace.unicasts,
        )


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def run_clique(g: Graph, program: Program, seed: int):
    """Execute `program` on graph g over the complete n-vertex network.

    Returns (outputs, trace, metrics) where outputs[v] is vertex v's result
    blob.  Raises RoundLimitExceeded (carrying the partial trace) if the
    program still runs after program.budget(n) rounds, and ProgramViolation
    if a message is wider than payload_cap(n) bits.  The rounds come from
    program.kernel(g, seed) if the program has a kernel, else from one
    program.node() state machine per vertex (_vertex_rounds); either way
    every round passes the same checks before it is recorded.
    """
    n = g.n
    limit, cap = program.budget(n), payload_cap(n)
    if program.kernel is not None:
        rounds = program.kernel(g, seed)
    else:
        rounds = _vertex_rounds(g, program.node, seed)
    trace = CliqueTrace(n)
    while True:
        try:
            cols = next(rounds)
        except StopIteration as done:
            outputs = done.value
            break
        if trace.num_rounds >= limit:
            raise RoundLimitExceeded(
                f"{program.name} still running after {limit} rounds",
                trace=trace,
            )
        trace.append_arrays(*_checked_round(cols, n, cap))
    if outputs is None or len(outputs) != n:
        raise ProgramViolation("kernel returned wrong number of outputs")
    return outputs, trace, CliqueMetrics.from_trace(trace)


def _vertex_rounds(g, node, seed):
    """The round generator of one node() NodeProgram per vertex.  It starts
    every program, steps the live vertices in ascending order, yields each
    round as (bcast_src, bcast_bits, uni_src, uni_dst, uni_bits) lists,
    delivers the round's messages as the next round's inboxes, and returns
    the outputs once every vertex has halted.  run_clique checks each round
    before it resumes the generator, so nothing unchecked is delivered."""
    n = g.n
    nodes = [node() for _ in range(n)]
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
    arrays, after the model's checks.  Columns that are not arrays (the
    per-vertex scheduler's lists) are made arrays; a round that sends
    nothing is CliqueTrace's shared silent round once its shapes pass.
    Integer columns are cast once (an int64 column is kept as it is) and a
    few whole-column tests pass a valid round: a zero-stride bits column
    (uniform_bits) by its one value.  Only a round that fails one builds
    per-message masks, which raise at the first offending broadcast, else
    unicast.  Unicasts that are only out of (source, destination) order
    pass."""
    if len(cols) == 5:
        bs, bb, us, ud, ub = cols
        if not (type(bs) is type(bb) is type(us) is type(ud) is type(ub) is np.ndarray):
            bs, bb, us, ud, ub = [np.asarray(a) for a in cols]
    if (len(cols) != 5 or bs.ndim != 1 or bb.ndim != 1 or us.ndim != 1
            or ud.ndim != 1 or ub.ndim != 1 or len(bb) != len(bs)
            or not len(us) == len(ud) == len(ub)):
        raise ProgramViolation(
            "kernel round is not (bcast_src, bcast_bits) and "
            "(uni_src, uni_dst, uni_bits) arrays of equal lengths"
        )
    nb, nu = len(bs), len(us)
    if not (nb or nu):
        return CliqueTrace._silent
    if ((nb and (bs.dtype.kind not in "iu" or bb.dtype.kind not in "iu"))
            or (nu and (us.dtype.kind not in "iu" or ud.dtype.kind not in "iu"
                        or ub.dtype.kind not in "iu"))):
        raise ProgramViolation("round holds non-integer values")
    if nb:
        bs, bb = bs.astype(np.int64, copy=False), bb.astype(np.int64, copy=False)
        lo, hi = (bb[0], bb[0]) if bb.strides == (0,) else (bb.min(), bb.max())
        if not (0 <= bs[0] and bs[-1] < n and (nb == 1 or (bs[1:] > bs[:-1]).all())
                and 1 <= lo and hi <= cap):
            down = np.zeros(nb, dtype=bool)  # a source not above the one before
            down[1:] = bs[1:] <= bs[:-1]
            _raise_first([
                ((bs < 0) | (bs >= n), lambda i: f"kernel: bad source {bs[i]}"),
                (down,
                 lambda i: f"kernel: broadcast source {bs[i]} not above {bs[i - 1]}"),
                (bb < 1, lambda i: f"vertex {bs[i]}: bad payload size {bb[i]}"),
                (bb > cap,
                 lambda i: f"vertex {bs[i]}: payload of {bb[i]} bits exceeds cap {cap}"),
            ])
    else:
        bs = bb = NONE
    if nu:
        us, ud = us.astype(np.int64, copy=False), ud.astype(np.int64, copy=False)
        ub = ub.astype(np.int64, copy=False)
        lo, hi = (ub[0], ub[0]) if ub.strides == (0,) else (ub.min(), ub.max())
        key = us * n + ud
        # seen as uint64, a negative id lies above 2**63: one max bounds an
        # id column on both sides
        if not (us.view(np.uint64).max() < n and ud.view(np.uint64).max() < n
                and 1 <= lo and hi <= cap and not (ud == us).any()
                and (key[1:] > key[:-1]).all()):
            dup = np.zeros(nu, dtype=bool)
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
    else:
        us = ud = ub = NONE
    return bs, bb, us, ud, ub


def _raise_first(checks):
    """checks: (bad mask, message of an index) pairs over one message list.
    Raises, at the first bad message, the first check it fails."""
    bad = functools.reduce(np.logical_or, [mask for mask, _ in checks])
    if bad.any():
        i = int(bad.argmax())
        raise ProgramViolation(next(text(i) for mask, text in checks if mask[i]))

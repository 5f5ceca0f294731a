import copy
import hashlib
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmachine import clique
from kmachine.acceptance import _observed, fidelity_instances, per_vertex_reference
from kmachine.clique import (
    HALT,
    NONE,
    SILENT,
    Broadcast,
    CliqueMetrics,
    CliqueTrace,
    NodeProgram,
    Program,
    ProgramViolation,
    RoundLimitExceeded,
    Unicast,
    _vertex_rounds,
    run_clique,
)
from kmachine.graphs import Graph, generate, inf_weight, label_bits
from kmachine.harness import (
    ExperimentConfig,
    Instance,
    default_stverify_candidate,
    run_cell,
)
from kmachine.programs import (
    ALGORITHMS,
    AlgoConfig,
    ConfigError,
    bellman_ford_program,
    bfs_program,
    conn_program,
    densest_subgraph_program,
    luby_mis_program,
    mst_program,
    pagerank_program,
    spanner_program,
    st_verify_program,
    triangle_program,
)
from kmachine.programs import fragments, mis, walks
from kmachine.programs.walks import walk_shape
from kmachine.rng import token_bases


class _ShoutOnce(NodeProgram):
    def step(self, rnd, inbox):
        return Broadcast(self.ctx.node, 4, halt=True)

    def output(self):
        return None


class _OneUnicast(NodeProgram):
    def step(self, rnd, inbox):
        if self.ctx.node == 0:
            return Unicast([(1, "x", 4)], halt=True)
        return HALT

    def output(self):
        return None


def _prog(cls):
    return Program("t", cls)


def _columns(trace):
    """Every round's five columns as lists, to compare traces with ==."""
    return [[col.tolist() for col in cols] for cols in trace.round_arrays()]


def test_broadcast_once_metrics():
    g = generate("clique", 4, 0)
    _, trace, met = run_clique(g, _prog(_ShoutOnce), seed=0)
    assert met.rounds == 1
    assert met.broadcasts == 4
    assert met.messages == 12  # each broadcast counts as n-1 deliveries
    assert met.comm_degree == 6  # 3 sent plus 3 addressed per vertex


def test_incident_is_the_graph_neighbor_tuple():
    g = generate("random_weighted", 30, 3, p=0.3, wmax=20)
    seen = {}

    class _Look(NodeProgram):
        def start(self, ctx):
            super().start(ctx)
            seen[ctx.node] = ctx

        def step(self, rnd, inbox):
            return HALT

        def output(self):
            return None

    run_clique(g, _prog(_Look), seed=41)
    assert all(seen[v].incident is g.neighbors(v) for v in range(g.n))
    assert all(seen[v].seed == 41 for v in range(g.n))


def test_single_unicast_metrics():
    g = generate("path", 3, 0)
    _, trace, met = run_clique(g, _prog(_OneUnicast), seed=0)
    assert (met.rounds, met.messages, met.broadcasts, met.comm_degree) == (1, 1, 0, 1)
    assert met.unicasts == 1


def test_bfs_round_count_near_diameter():
    g = generate("cycle", 8, 0)
    _, _, met = run_clique(g, bfs_program(AlgoConfig(source=0)), seed=0)
    assert 4 <= met.rounds <= 6  # diameter 4 plus small constant


def test_trace_determinism_randomized_program():
    g = generate("gnp", 48, 3, p=0.15)
    runs = []
    for _ in range(2):
        _, trace, _ = run_clique(g, luby_mis_program(), seed=9)
        runs.append("\n".join(trace.export_lines()))
    assert runs[0] == runs[1]
    _, other, _ = run_clique(g, luby_mis_program(), seed=10)
    assert runs[0] != "\n".join(other.export_lines())


class _Recorder(NodeProgram):
    """Broadcasts for three rounds while recording everything received."""

    def start(self, ctx):
        super().start(ctx)
        self.seen = []

    def step(self, rnd, inbox):
        self.seen.append((rnd, list(inbox.broadcasts), list(inbox.unicasts)))
        if rnd <= 3:
            target = (self.ctx.node + 1) % self.ctx.n
            return Unicast([(target, ("r", rnd), 6)])
        return HALT

    def output(self):
        return self.seen


def test_message_conservation():
    g = generate("cycle", 5, 0)
    outs, trace, _ = run_clique(g, _prog(_Recorder), seed=0)
    # every unicast recorded at round r shows up in exactly one inbox at r+1
    for rnd, (_, _, us, ud, _) in enumerate(trace.round_arrays(), start=1):
        for src, dst in zip(us.tolist(), ud.tolist()):
            entries = [
                (r, u) for seen in outs for (r, _, unis) in seen for u in unis
                if r == rnd + 1 and u == (src, ("r", rnd))
            ]
            assert len(entries) == 1
    # inbox contents at round r all come from round r-1 records
    for seen in outs:
        for rnd, _, unis in seen:
            if rnd == 1:
                assert not unis
            for src, payload in unis:
                assert payload[1] == rnd - 1


def _hand_trace(n, *rounds):
    """A trace of the given rounds, appended as they are, unchecked."""
    trace = CliqueTrace(n)
    for cols in rounds:
        trace.append_arrays(*(np.array(c, dtype=np.int64) for c in cols))
    return trace


def test_metrics_recompute_from_trace():
    g = generate("gnp", 24, 1, p=0.3)
    _, trace, met = run_clique(g, luby_mis_program(), seed=4)
    assert CliqueMetrics.from_trace(trace) == met
    _, walks_trace, _ = run_clique(g, pagerank_program(AlgoConfig()), seed=4)
    traces = [
        trace,  # broadcasts only
        walks_trace,  # unicasts only
        _hand_trace(
            5,
            ([0, 3], [4, 6], [1, 2, 4], [3, 0, 3], [2, 2, 5]),  # both kinds
            (_E, _E, _E, _E, _E),  # silent
            ([2, 2], [3, 3], _E, _E, _E),  # one source broadcasts twice
            ([4], [1], [0], [4], [7]),  # a broadcaster also receives
            ([1], [2], [1], [3], [1]),  # a broadcaster also sends
        ),
        _hand_trace(1, ([0], [3], _E, _E, _E), (_E, _E, _E, _E, _E)),
        _hand_trace(2, ([0, 1], [2, 2], [0], [1], [3]), ([1], [2], [1], [0], [1])),
    ]
    for tr in traces:
        n = tr.n
        met = CliqueMetrics.from_trace(tr)
        # independent tallies, one message at a time
        b = u = dprime = 0
        for bs, _, us, ud, _ in tr.round_arrays():
            degree = Counter()  # messages each vertex sends or is sent
            for src in bs.tolist():
                b += 1
                for dst in range(n):
                    if dst != src:
                        degree[src] += 1
                        degree[dst] += 1
            for src, dst in zip(us.tolist(), ud.tolist()):
                u += 1
                degree[src] += 1
                degree[dst] += 1
            dprime = max(dprime, *degree.values(), 0)
        assert met.broadcasts == b
        assert met.unicasts == u
        assert met.messages == u + b * (n - 1)
        assert met.rounds == len(tr.round_arrays())
        assert met.comm_degree == dprime
    assert CliqueMetrics.from_trace(trace).broadcasts > 0
    assert CliqueMetrics.from_trace(walks_trace).unicasts > 0
    # the twice-broadcasting source of n = 5 sends 2 * 4 and hears nothing else
    assert [CliqueMetrics.from_trace(t).comm_degree for t in traces[2:]] == [8, 0, 3]


class _Forever(NodeProgram):
    def step(self, rnd, inbox):
        return SILENT

    def output(self):
        return None


def test_round_budget():
    g = generate("path", 3, 0)
    # per-vertex programs and kernels share one round-limit rule and text
    looping = _kernel_program(*[(_E, _E, [0], [1], [2])] * 20)
    for prog in (_prog(_Forever), looping):
        with pytest.raises(RoundLimitExceeded) as e:
            run_clique(g, prog, seed=0, max_rounds=10)
        assert str(e.value) == f"{prog.name} still running after 10 rounds"
        assert e.value.trace.num_rounds == 10


class _TooBig(NodeProgram):
    def step(self, rnd, inbox):
        return Broadcast("x", 10_000)

    def output(self):
        return None


class _BadDst(NodeProgram):
    def step(self, rnd, inbox):
        return Unicast([(self.ctx.n + 3, "x", 2)])

    def output(self):
        return None


class _DupDst(NodeProgram):
    def step(self, rnd, inbox):
        return Unicast([(1, "x", 2), (1, "y", 2)]) if self.ctx.node == 0 else SILENT

    def output(self):
        return None


# the round each program yields first on path(4), as kernel columns
_VIOLATING_ROUND = {
    _TooBig: ([0, 1, 2, 3], [10_000] * 4, [], [], []),
    _BadDst: ([], [], [0, 1, 2, 3], [7] * 4, [2] * 4),
    _DupDst: ([], [], [0, 0], [1, 1], [2, 2]),
}


@pytest.mark.parametrize("cls", [_TooBig, _BadDst, _DupDst])
def test_program_violations(cls):
    # one checker: a per-vertex program and a kernel that yields the same
    # round fail with the same text
    g = generate("path", 4, 0)
    errors = []
    for prog in (_prog(cls), _kernel_program(_VIOLATING_ROUND[cls])):
        with pytest.raises(ProgramViolation) as e:
            run_clique(g, prog, seed=0)
        errors.append(str(e.value))
    assert errors[0] == errors[1]


def test_vertex_payload_sizes_are_checked_as_integers():
    def shout(bits):
        class _Shout(NodeProgram):
            def step(self, rnd, inbox):
                return Broadcast("x", bits, halt=True)

            def output(self):
                return None

        return _prog(_Shout)

    g = generate("path", 3, 0)
    for bits in (4.0, True):
        with pytest.raises(ProgramViolation, match="^round holds non-integer values$"):
            run_clique(g, shout(bits), seed=0)
    _, trace, _ = run_clique(g, shout(np.int64(4)), seed=0)
    assert _columns(trace)[0][:2] == [[0, 1, 2], [4, 4, 4]]


# faults _round_with_faults puts in a valid round's messages ("shuffle"
# reorders the unicasts, which leaves the round valid), then the forms it
# hands the columns over in: all but "int64" and "lists" are faults
_ROUND_FAULTS = ["shuffle", "bad_source", "bad_destination", "self", "repeat",
                 "bcast_order", "bits_0", "bits_over"]
_ROUND_FORMS = ["int64", "int32", "lists", "bool", "float", "short", "ndim"]


@st.composite
def _round_with_faults(draw):
    """(columns, n, cap, faults): a valid round on 2..12 vertices with at
    least one unicast and up to two drawn faults put in, in turn, handed
    over in a drawn form."""
    n, cap = draw(st.integers(2, 12)), draw(st.integers(1, 16))
    bits = st.integers(1, cap)
    bs = sorted(draw(st.sets(st.integers(0, n - 1))))
    pairs = sorted(draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
        min_size=1, max_size=3 * n)))
    cols = [np.array(c, dtype=np.int64) for c in (
        bs, [draw(bits) for _ in bs], [s for s, _ in pairs], [d for _, d in pairs],
        [draw(bits) for _ in pairs])]
    faults = [draw(st.sampled_from(_ROUND_FAULTS))
              for _ in range(draw(st.sampled_from([1, 2, 0])))]
    for fault in faults:
        first = draw(st.sampled_from([0, 2] if fault in ("bad_source", "bits_0", "bits_over")
                                     else [0] if fault == "bcast_order" else [2]))
        group = slice(first, 2 if first == 0 else 5)
        if not len(cols[first]):
            continue
        at = draw(st.integers(0, len(cols[first]) - 1))
        if fault == "shuffle":
            order = list(draw(st.permutations(range(len(cols[2])))))
            cols[group] = [c[order] for c in cols[group]]
        elif fault == "bad_source":
            cols[first][at] = draw(st.sampled_from([-1, n, n + 5, -2**40]))
        elif fault == "bad_destination":
            cols[3][at] = draw(st.sampled_from([-1, n, 2**40]))
        elif fault == "self":
            cols[3][at] = cols[2][at]
        elif fault in ("repeat", "bcast_order"):  # a message sent twice
            cols[group] = [np.insert(c, at, c[at]) for c in cols[group]]
        else:
            cols[group][-1][at] = 0 if fault == "bits_0" else cap + 1
    # half the rounds are int64 arrays, the only form the whole-column tests take
    form = draw(st.one_of(st.just("int64"), st.sampled_from(_ROUND_FORMS[1:])))
    c = draw(st.integers(0, 4))
    if form == "int32":
        cols = [a.astype(np.int32) for a in cols]
    elif form == "lists":  # as the per-vertex scheduler yields them
        cols = [a.tolist() for a in cols]
    elif form in ("bool", "float"):
        cols[c] = cols[c].astype(bool if form == "bool" else float)
    elif form == "short":
        cols[c] = cols[c][:-1]
    elif form == "ndim":
        cols[c] = cols[c].reshape(1, -1)
    return cols, n, cap, faults + [form]


def _first_fault(cols, n, cap):
    """The text of the first check a round fails, message by message: the
    columns' shape and type, then each broadcast in turn, then each unicast;
    None for a valid round."""
    cols = [np.asarray(a) for a in cols]
    if (any(a.ndim != 1 for a in cols) or len(cols[0]) != len(cols[1])
            or not len(cols[2]) == len(cols[3]) == len(cols[4])):
        return ("kernel round is not (bcast_src, bcast_bits) and "
                "(uni_src, uni_dst, uni_bits) arrays of equal lengths")
    if any(len(a) and a.dtype.kind not in "iu" for a in cols):
        return "round holds non-integer values"
    bs, bb, us, ud, ub = ([int(x) for x in a] for a in cols)
    for i, (src, bits) in enumerate(zip(bs, bb)):
        if not 0 <= src < n:
            return f"kernel: bad source {src}"
        if i and src <= bs[i - 1]:
            return f"kernel: broadcast source {src} not above {bs[i - 1]}"
        if bits < 1:
            return f"vertex {src}: bad payload size {bits}"
        if bits > cap:
            return f"vertex {src}: payload of {bits} bits exceeds cap {cap}"
    sent = set()
    for src, dst, bits in zip(us, ud, ub):
        if not 0 <= src < n:
            return f"kernel: bad source {src}"
        if not 0 <= dst < n or dst == src:
            return f"vertex {src}: bad destination {dst}"
        if (src, dst) in sent:
            return f"vertex {src}: two messages to {dst} in one round"
        sent.add((src, dst))
        if not 1 <= bits <= cap:
            return f"vertex {src}: payload size {bits} outside [1, {cap}]"
    return None


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_round_with_faults())
def test_whole_column_round_checks_agree_with_the_per_message_checks(case):
    # _checked_round gives every round the verdict and text of the
    # per-message reference; a valid round comes back as int64 arrays of
    # the same values (an int64 column as the same array), and one whose
    # unicasts are in ascending (source, destination) order never leaves
    # the whole-column tests for the per-message masks
    cols, n, cap, faults = case
    want = _first_fault(cols, n, cap)
    if faults == ["int64"]:
        assert want is None
    with mock.patch.object(clique, "_raise_first", wraps=clique._raise_first) as masks:
        try:
            got = clique._checked_round(cols, n, cap)
        except ProgramViolation as e:
            assert str(e) == want
            return
    assert want is None
    assert [(a.dtype, a.tolist()) for a in got] == [
        (np.dtype(np.int64), [int(x) for x in c]) for c in cols]
    for a, c in zip(got, cols):
        if isinstance(c, np.ndarray) and c.dtype == np.int64:
            assert a is (c if len(c) else NONE)
    pairs = list(zip(got[2].tolist(), got[3].tolist()))
    if pairs == sorted(pairs):
        assert not masks.called


def test_trace_export_format():
    g = generate("path", 3, 0)
    _, trace, _ = run_clique(g, _prog(_OneUnicast), seed=0)
    assert trace.export_lines() == ["1 0 1 4 0"]
    g2 = generate("clique", 3, 0)
    _, trace2, _ = run_clique(g2, _prog(_ShoutOnce), seed=0)
    assert trace2.export_lines() == ["1 0 2 4 1", "1 1 2 4 1", "1 2 2 4 1"]


# ---------------------------------------------------------------------------
# golden traces: SHA-256 of export_lines() plus repr(outputs), so engine
# speed-ups must keep every message and output byte-identical.  The MST
# digest dates from the first engine; the PageRank digest was re-pinned when
# walk tokens began drawing counter-keyed uniforms (rng.token_uniforms); the
# MIS and spanner digests were re-pinned when a vertex's coin
# rng.uniform(seed, "coin", vertex, round) became output `vertex` of the
# round's splitmix64 coin stream; the densest digest was measured
# while every densest vertex still read one shared mirror; the triangle
# digest was measured on the per-vertex program alone.
# ---------------------------------------------------------------------------


def _trace_digest(outputs, trace):
    text = "\n".join(trace.export_lines()) + "\n" + repr(outputs)
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_trace_pagerank():
    g = generate("gnp", 64, 3, p=0.2)
    prog = pagerank_program(AlgoConfig(gamma=0.15, tokens_per_node=600))
    assert prog.kernel is not None  # the pinned digest holds for the kernel
    outputs, trace, _ = run_clique(g, prog, 11)
    assert _trace_digest(outputs, trace) == (
        "6738663de4dbce5a42a7b256f7ef720cb1542cf9aaca348bb14dd13b4ab2efd6"
    )


def test_golden_trace_mst():
    g = generate("random_weighted", 48, 5, p=0.3, wmax=60)
    prog = mst_program()
    assert prog.kernel is not None  # the pinned digest holds for the kernel
    outputs, trace, _ = run_clique(g, prog, 13)
    assert _trace_digest(outputs, trace) == (
        "703f271cddbf261cf1202caac91c7a5d0c50917c4cd5093d46d0a869b216da09"
    )


def test_golden_trace_mis():
    g = generate("gnp", 64, 3, p=0.2)
    outputs, trace, _ = run_clique(g, luby_mis_program(), 5)
    assert _trace_digest(outputs, trace) == (
        "8ca8c856c150f63725c7d0c906201050210f231ca0a9956823171c512b4c46a6"
    )


def test_golden_trace_spanner():
    g = generate("random_weighted", 48, 5, p=0.3, wmax=60)
    outputs, trace, _ = run_clique(g, spanner_program(AlgoConfig(delta=3)), 5)
    assert _trace_digest(outputs, trace) == (
        "2c76d0c4d0db3e788b7e1135cd163b49ac78421beaa5435140226b16d72c1667"
    )


def test_golden_trace_triangle():
    g = generate("gnp", 64, 3, p=0.1)
    outputs, trace, _ = run_clique(g, triangle_program(), 5)
    assert _trace_digest(outputs, trace) == (
        "3a7824accc0795678ec28fe53baa0f9e174b69a05e78f116ef1771b07a6a56d2"
    )


def test_golden_trace_densest():
    g = generate("gnp", 40, 3, p=0.15)
    outputs, trace, _ = run_clique(g, densest_subgraph_program(AlgoConfig()), 5)
    assert _trace_digest(outputs, trace) == (
        "eb3fa811cdca9cc7120215d6b03e0ae24ae9c8604fcfdced50e92a365d80d295"
    )


# ---------------------------------------------------------------------------
# round kernels: byte-identical to the per-vertex programs they replace
# ---------------------------------------------------------------------------


def _assert_kernel_matches_reference(g, program, seed):
    # what criterion 1 compares: outputs, every column and the metrics
    assert program.kernel is not None
    run = run_clique(g, program, seed)
    assert _observed(run) == _observed(run_clique(g, per_vertex_reference(program), seed))
    return run[1]


def _cap_c(c):
    """Widens the payload cap to c * ceil(log2 n) bits for the runs inside."""
    return mock.patch.object(clique, "PAYLOAD_CAP_C", c)


@pytest.mark.parametrize("n, tokens", [(64, 600), (32, None)])
def test_pagerank_kernel_matches_reference_on_pagerank_shapes(n, tokens):
    cfg = AlgoConfig(gamma=0.15, tokens_per_node=tokens)
    for seed in range(3):
        g = generate("gnp", n, seed, p=0.2)
        _assert_kernel_matches_reference(g, pagerank_program(cfg), seed)


def test_pagerank_kernel_matches_reference_with_isolated_vertices():
    # 3, 7 and 8 have no edges: their tokens die after the death draw
    g = Graph(9, [(0, 1, 1), (1, 2, 1), (2, 0, 1), (4, 5, 1), (5, 6, 1)])
    for seed in range(4):
        trace = _assert_kernel_matches_reference(
            g, pagerank_program(AlgoConfig(tokens_per_node=40)), seed
        )
        assert CliqueMetrics.from_trace(trace).unicasts > 0


def test_pagerank_kernel_matches_reference_without_edges():
    # no CSR slots at all: the crossed-slot mask is empty and every token dies
    for g in (Graph(1, []), Graph(6, [])):
        for seed in range(2):
            trace = _assert_kernel_matches_reference(
                g, pagerank_program(AlgoConfig()), seed
            )
            assert CliqueMetrics.from_trace(trace).unicasts == 0


def test_pagerank_kernel_chunks_do_not_change_the_trace(monkeypatch):
    # 40 tokens per vertex start with more tokens than CSR slots, so the
    # round draws in chunks (here of 7 tokens, which split vertices'
    # batches) into the slot mask; 4 start with fewer and draw in one pass
    monkeypatch.setattr(walks, "_CHUNK", 7)
    g = generate("gnp", 24, 4, p=0.3)
    assert 24 * 4 < len(g.csr()[1]) < 24 * 40
    for tokens in (40, 4):
        prog = pagerank_program(AlgoConfig(tokens_per_node=tokens))
        _assert_kernel_matches_reference(g, prog, 2)


def test_pagerank_kernel_draws_nothing_after_the_last_token(monkeypatch):
    drawn = []  # the round of every token_bases call: one per round that draws

    def spy(seed, rnd, firsts):
        drawn.append(rnd)
        return token_bases(seed, rnd, firsts)

    monkeypatch.setattr(walks, "token_bases", spy)
    g = generate("gnp", 32, 1, p=0.2)
    assert (np.diff(g.csr()[0]) > 0).all()  # no isolated vertex: every token is drawn
    cfg = AlgoConfig(gamma=0.5)
    _, trace, _ = run_clique(g, pagerank_program(cfg), 3)
    assert trace.num_rounds == walk_shape(g.n, cfg).budget
    # a round starts with a token somewhere if it is the first round or
    # follows a round in which a token hopped
    hopped = [r for r, (_, _, us, _, _) in enumerate(trace.round_arrays(), start=1)
              if len(us)]
    assert drawn == sorted({1} | {r + 1 for r in hopped})
    assert max(drawn) < trace.num_rounds - 1  # the walk ended well before the budget


def test_walk_token_overflow_is_rejected_before_any_round():
    g = generate("path", 4, 0)
    prog = pagerank_program(AlgoConfig(tokens_per_node=2**31))  # 2**33 tokens
    for p in (prog, per_vertex_reference(prog)):
        with pytest.raises(ConfigError, match="token counters"):
            run_clique(g, p, 0)
    cfg = ExperimentConfig("pagerank", {"model": "path", "n": 4}, [2], [0],
                           algo=AlgoConfig(tokens_per_node=2**31))
    with pytest.raises(ConfigError):
        run_cell(cfg, 0)


def test_pagerank_kernel_payload_over_cap_is_a_violation():
    g = generate("gnp", 16, 2, p=0.4)
    prog = pagerank_program(AlgoConfig(tokens_per_node=10**6))  # 24-bit counts
    errors = []
    for p in (prog, per_vertex_reference(prog)):
        with pytest.raises(ProgramViolation) as e:
            run_clique(g, p, 5)
        errors.append(str(e.value))
    assert errors[0] == errors[1]


def test_pagerank_kernel_round_limit_keeps_the_partial_trace():
    g = generate("gnp", 32, 1, p=0.2)
    prog = pagerank_program(AlgoConfig())
    traces = []
    for p in (prog, per_vertex_reference(prog)):
        with pytest.raises(RoundLimitExceeded) as e:
            run_clique(g, p, 3, max_rounds=12)
        traces.append(e.value.trace)
    assert traces[0].num_rounds == traces[1].num_rounds == 12
    assert _columns(traces[0]) == _columns(traces[1])


@pytest.mark.parametrize("max_rounds", [1, 4, 7])
def test_distance_and_peeling_kernels_round_limit_keeps_the_partial_trace(max_rounds):
    # the three programs take 8, 10 and 12 rounds here
    g = generate("random_weighted", 64, 2, p=0.05, wmax=9)
    progs = [bfs_program(AlgoConfig(source=5)),
             bellman_ford_program(AlgoConfig(source=5)),
             densest_subgraph_program(AlgoConfig(eps=0.1))]
    for prog in progs:
        traces = []
        for p in (prog, per_vertex_reference(prog)):
            with pytest.raises(RoundLimitExceeded) as e:
                run_clique(g, p, 0, max_rounds=max_rounds)
            traces.append(e.value.trace)
        assert traces[0].num_rounds == traces[1].num_rounds == max_rounds
        assert _columns(traces[0]) == _columns(traces[1])


_W = 2**50 + 12345


@pytest.mark.parametrize("edges, far", [
    # distances 2**53 - 8 and 2**53 - 1 in int64, where a float log2 rounds
    # the bit length up to 54
    ([(v, v + 1, 2**50 - 1) for v in range(8)] + [(8, 9, 7)],
     {8: 2**53 - 8, 9: 2**53 - 1}),
    # n * max weight passes 2**63, so distances are Python ints; zero
    # weights and ties move parents only to lower ids
    ([(0, 1, _W), (1, 2, _W), (0, 2, 2 * _W + 1), (2, 3, 0), (3, 4, _W - 1),
      (0, 4, 3 * _W), (1, 4, 2 * _W)],
     {2: 2 * _W, 3: 2 * _W, 4: 3 * _W - 1}),
])
def test_bellman_ford_kernel_keeps_large_distances_exact(edges, far):
    g = Graph(5000, edges)
    prog = bellman_ford_program(AlgoConfig(source=0))
    errors = []
    for p in (prog, per_vertex_reference(prog)):
        with pytest.raises(ProgramViolation) as e:  # over the cap of 4 * 13 bits
            run_clique(g, p, 0)
        errors.append(str(e.value))
    assert errors[0] == errors[1]
    with _cap_c(16):
        _assert_kernel_matches_reference(g, prog, 0)
        out = run_clique(g, prog, 0)[0]
    assert {v: out[v][0] for v in far} == far
    assert out[-1] == (math.inf, None)


@pytest.mark.parametrize("block", [1, 5])
def test_fragment_kernels_match_reference_in_small_blocks(monkeypatch, block):
    # blocks far under a vertex's slot count: the sort's blocks still hold
    # whole sources, and the in-place compaction runs over many blocks
    monkeypatch.setattr(fragments, "_BLOCK", block)
    runs = [(alg, inst, s) for alg, inst, s in fidelity_instances(7)
            if alg in ("mst", "conn", "stverify")]
    for alg, inst, s in runs:
        prog = ALGORITHMS[alg].program(inst, AlgoConfig())
        _assert_kernel_matches_reference(inst.graph, prog, s)


# the algorithms whose program runs a round kernel; every other program
# runs one state machine per vertex
_KERNEL_ALGORITHMS = {"pagerank", "mst", "conn", "stverify", "mis", "triangle",
                      "spanner", "bfs", "bf_sssp", "densest"}


@pytest.mark.parametrize("alg", sorted(a for a, e in ALGORITHMS.items() if e.program))
def test_fidelity_instances_cover_each_algorithm_and_only_listed_ones_have_kernels(alg):
    # fidelity_instances holds 20 instances of alg, and alg has a kernel
    # exactly when it is in _KERNEL_ALGORITHMS; criterion 1 runs the
    # kernel-against-reference comparison itself
    runs = [inst for a, inst, _ in fidelity_instances(7) if a == alg]
    assert len(runs) == 20
    progs = [ALGORITHMS[alg].program(inst, AlgoConfig()) for inst in runs]
    assert {p.kernel is not None for p in progs} == {alg in _KERNEL_ALGORITHMS}


@pytest.mark.parametrize("alg", ["bf_sssp", "bfs"])
def test_every_kernel_matches_reference_on_fidelity_instances(alg):
    # the shortest-path kernels, compared with their per-vertex reference
    # on each of their fidelity instances: outputs, columns and metrics
    runs = [(inst, s) for a, inst, s in fidelity_instances(7) if a == alg]
    assert len(runs) == 20
    for inst, s in runs:
        _assert_kernel_matches_reference(
            inst.graph, ALGORITHMS[alg].program(inst, AlgoConfig()), s)


def test_every_kernel_round_takes_the_whole_column_check(monkeypatch):
    # a kernel that yields unsorted unicasts still runs correctly, on the
    # per-message masks, so only this spy sees a round leave the
    # whole-column tests
    masked = Counter()
    raise_first = clique._raise_first

    def spy(checks):
        masked[alg] += 1
        return raise_first(checks)

    monkeypatch.setattr(clique, "_raise_first", spy)
    ran = set()
    for alg, inst, s in fidelity_instances(7):
        if alg in _KERNEL_ALGORITHMS:
            run_clique(inst.graph, ALGORITHMS[alg].program(inst, AlgoConfig()), s)
            ran.add(alg)
    assert ran == _KERNEL_ALGORITHMS
    assert not masked, masked


@st.composite
def _edge_case_graphs(draw):
    """Graphs on 1..40 vertices: edgeless, a star or a clique on a prefix of
    the vertices (the rest isolated), or G(n, p)."""
    n = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["edgeless", "star", "clique", "gnp"]))
    if shape == "gnp":
        p = draw(st.sampled_from([0.05, 0.15, 0.4, 0.9]))
        return generate("gnp", n, draw(st.integers(0, 2**16)), p=p)
    size = draw(st.integers(1, n)) if shape != "edgeless" else 1
    if shape == "star":
        return Graph(n, [(0, b, 1) for b in range(1, size)])
    return Graph(n, [(a, b, 1) for a in range(size) for b in range(a + 1, size)])


def _assert_spanner_live_sets_stay_symmetric(g, program, seed):
    """After every round of the deep-copied reference, u is in v's live set
    exactly when v is in u's: _apply_round and the spanner kernel rely on
    it."""
    nodes = []

    def node():
        nodes.append(copy.deepcopy(program.node()))
        return nodes[-1]

    for _ in _vertex_rounds(g, node, seed):
        pairs = {(v.ctx.node, u) for v in nodes for u in v.live}
        assert pairs == {(u, v) for v, u in pairs}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_edge_case_graphs(), st.integers(0, 2**31))
def test_kernels_match_reference_on_edge_case_graphs(g, seed):
    for phases in (1, 2):  # budgets that run out: the over-budget path
        with mock.patch.object(mis, "default_phase_budget", return_value=phases):
            _assert_kernel_matches_reference(g, luby_mis_program(), seed)
    _assert_kernel_matches_reference(g, luby_mis_program(), seed)
    _assert_kernel_matches_reference(g, triangle_program(), seed)
    for delta in sorted({1, 2, 3, max(1, math.ceil(math.log2(g.n)))}):
        prog = spanner_program(AlgoConfig(delta=delta))
        _assert_kernel_matches_reference(g, prog, seed)
        _assert_spanner_live_sets_stay_symmetric(g, prog, seed)
    for tokens in (1, None, 40):
        # at n = 2 the default cap of 4 bits cannot hold 40 tokens' counts
        prog = pagerank_program(AlgoConfig(tokens_per_node=tokens))
        with _cap_c(16):
            _assert_kernel_matches_reference(g, prog, seed)
    for source in sorted({0, g.n - 1}):
        cfg = AlgoConfig(source=source)
        _assert_kernel_matches_reference(g, bfs_program(cfg), seed)
        for h in (_with_weights(g, 1, seed), _with_weights(g, 9, seed)):
            # at n = 2 the default cap of 4 bits holds distances up to 7
            with _cap_c(16):
                _assert_kernel_matches_reference(h, bellman_ford_program(cfg), seed)
    for eps in (0.1, 0.5, 2.0):
        prog = densest_subgraph_program(AlgoConfig(eps=eps))
        _assert_kernel_matches_reference(g, prog, seed)
    for h in (_with_weights(g, 1, seed), _with_weights(g, 9, seed)):
        # at n = 2 the default cap of 4 bits holds weights up to 7
        with _cap_c(16):
            _assert_kernel_matches_reference(h, mst_program(), seed)
    _assert_kernel_matches_reference(g, conn_program(), seed)
    prog = st_verify_program(default_stverify_candidate(g, seed))
    _assert_kernel_matches_reference(g, prog, seed)


def _with_weights(g, wmax, seed):
    """g's edges with weights drawn from 0..wmax: zero weights included,
    which no generator makes."""
    u, v, _ = g.edge_arrays()
    w = np.random.default_rng(seed).integers(0, wmax + 1, size=g.m)
    return Graph(g.n, np.column_stack([u, v, w]))


@pytest.mark.parametrize("n", [32, 64, 128])
def test_spanner_kernel_matches_reference_at_the_logsp_delta(n):
    # logsp's delta = ceil(log2 n): many iterations, so each round's live
    # slots and clusters carry into the next
    prog = spanner_program(AlgoConfig(delta=math.ceil(math.log2(n))))
    for seed in range(3):
        _assert_kernel_matches_reference(generate("gnp", n, seed, p=0.1), prog, seed)


def _tied_weight_graphs():
    """Weights in [1, 2] and in [0, 1]: most slots tie on weight, so the
    endpoint pair decides the merge order."""
    graphs = [generate("random_weighted", n, s, p=0.3, wmax=w)
              for n in (31, 64) for w in (1, 2) for s in range(2)]
    g = generate("random_weighted", 64, 5, p=0.3, wmax=2)
    graphs.append(Graph(g.n, [(u, v, w - 1) for u, v, w in g.edges]))
    return graphs


def _constant_weight_graphs(n):
    """Graphs on n vertices whose edges all weigh 0, 5 or inf_weight(n) - 1:
    the kernel keeps no weight column and reads the constant instead.  One
    base graph is connected, the other (p = 0.04) falls apart."""
    bases = [generate("gnp", n, 3, p=0.3), generate("gnp", n, 4, p=0.04)]
    return [(c, Graph(n, [(u, v, c) for u, v, _ in b.edges]))
            for c in (0, 5, inf_weight(n) - 1) for b in bases]


@pytest.mark.parametrize("block", [1, 5, fragments._BLOCK])
def test_fragment_kernels_match_reference_on_tied_weights(monkeypatch, block):
    monkeypatch.setattr(fragments, "_BLOCK", block)
    for i, g in enumerate(_tied_weight_graphs()):
        # even seeds propose the spanning tree, odd seeds a broken one
        candidate = default_stverify_candidate(g, i)
        for prog in (mst_program(), conn_program(), st_verify_program(candidate)):
            _assert_kernel_matches_reference(g, prog, i)
    n = 48
    L = label_bits(n)
    for i, (c, g) in enumerate(_constant_weight_graphs(n)):
        candidate = default_stverify_candidate(g, i)
        for prog in (mst_program(), conn_program(), st_verify_program(candidate)):
            # inf_weight(n) - 1 takes 4L bits, and a candidate L more
            with _cap_c(5):
                trace = _assert_kernel_matches_reference(g, prog, i)
            bits = set(np.concatenate([cols[1] for cols in trace.round_arrays()]).tolist())
            # label rounds take L bits; mst's candidates carry the constant
            want = max(1, c.bit_length()) if prog.name == "mst" else 0
            assert bits == {L, L + want}


def test_fragment_kernel_matches_reference_on_weights_wider_than_int32():
    # at n = 300 weights reach 2**36 - 2, beside int32 vertex ids, and ties
    # at the top of the range still go to the endpoints
    n = 300
    g = generate("gnp", n, 2, p=0.05)
    top = inf_weight(n) - 1
    rng = np.random.default_rng(2)
    for w in (rng.integers(top - 2, top + 1, size=g.m), rng.integers(0, top + 1, size=g.m)):
        u, v, _ = g.edge_arrays()
        h = Graph(n, np.column_stack([u, v, w]))
        with _cap_c(5):
            _assert_kernel_matches_reference(h, mst_program(), 2)


@pytest.mark.parametrize("n, wmax, packed", [(300, 1000, True),
                                               (300, inf_weight(300) - 1, True),
                                               (1 << 20, 1 << 30, False)])
def test_weight_sort_uses_one_packed_key_where_it_fits(monkeypatch, n, wmax, packed):
    # the slots of whole sources, each source's neighbours ascending, sort by
    # (source, weight, neighbour) through one argsort of a packed key, or
    # through the blocked lexsort where n * (wmax + 1) * n passes int64
    rng = np.random.default_rng(n + wmax)
    pairs = np.unique(rng.integers(0, n, size=(3000, 2)), axis=0)
    src, nbr = pairs[pairs[:, 0] != pairs[:, 1]].T
    weights = rng.integers(0, wmax + 1, size=len(src))
    weights[::7] = weights[0]  # ties, which the neighbour breaks
    eidx = rng.permutation(len(src))
    want = np.lexsort((nbr, weights[eidx], src))
    lexsorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: lexsorts.append(1) or lexsort(keys))
    monkeypatch.setattr(fragments, "_BLOCK", 64)
    for ids in (np.int32, np.int64):
        got_nbr = nbr.astype(ids)
        w = fragments._weight_sorted(n, src.astype(ids), got_nbr, eidx, weights)
        assert np.array_equal(got_nbr, nbr[want])
        assert np.array_equal(w, weights[eidx][want])
    assert bool(lexsorts) is not packed


@pytest.mark.parametrize("n, edges, candidate, spanning, tree", [
    (1, [], [], True, True),  # one vertex: it halts in the first merge round
    # two components, {0, 1, 2} and {3, 4}
    (5, [(0, 1, 3), (1, 2, 1), (0, 2, 2), (3, 4, 5)], [0, 1, 3], False, False),
    # 1, 4 and 6 have no edges
    (7, [(0, 2, 4), (2, 3, 1), (3, 5, 4)], [0, 1, 2], False, False),
    # zero weights take a 1-bit weight field; the candidate is the path 0..5
    (6, [(0, 1, 0), (1, 2, 0), (2, 3, 7), (3, 4, 0), (4, 5, 0), (0, 5, 0)],
     [0, 1, 2, 3, 4], True, True),
    # the candidate holds a cycle and leaves vertex 3 out; index 9 is no edge
    (4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)], [0, 1, 2, 9], True, False),
])
def test_fragment_kernels_match_reference_on_edge_shapes(n, edges, candidate,
                                                         spanning, tree):
    g = Graph(n, edges)
    progs = [mst_program(), conn_program(), st_verify_program(candidate)]
    for seed in range(2):
        for prog in progs:
            _assert_kernel_matches_reference(g, prog, seed)
    mst, conn, stverify = (run_clique(g, p, 0)[0] for p in progs)
    assert {flag for _, flag in mst} == {spanning}
    assert conn[0][1] == spanning and (conn[0][0] > 1) == (not spanning)
    assert stverify[0][0] == tree


def test_fragment_kernel_payload_over_cap_is_a_violation():
    # weight 2**12 takes 13 bits: 4 + 13 over the cap of 4 * 4
    g = Graph(16, [(0, 1, 2**12), (1, 2, 3), (2, 3, 5)])
    prog = mst_program()
    errors = []
    for p in (prog, per_vertex_reference(prog)):
        with pytest.raises(ProgramViolation) as e:
            run_clique(g, p, 0)
        errors.append(str(e.value))
    assert errors[0] == errors[1] == "vertex 0: payload of 17 bits exceeds cap 16"


def test_fragment_kernel_round_limit_keeps_the_partial_trace():
    g = generate("gnp", 64, 1, p=0.1)
    progs = [mst_program(), conn_program(), st_verify_program(range(g.m))]
    for prog in progs:
        traces = []
        for p in (prog, per_vertex_reference(prog)):
            with pytest.raises(RoundLimitExceeded) as e:
                run_clique(g, p, 3, max_rounds=4)
            traces.append(e.value.trace)
        assert traces[0].num_rounds == traces[1].num_rounds == 4
        assert _columns(traces[0]) == _columns(traces[1])


_E = []  # an empty column


def _kernel_program(*rounds, outputs=None):
    """A program whose kernel yields the given five-array rounds."""

    def kernel(g, seed):
        for r in rounds:
            yield r
        return [None] * g.n if outputs is None else outputs

    return Program("k", NodeProgram, kernel=kernel)


def test_kernel_messages_are_recorded_in_order():
    g = generate("path", 4, 0)
    prog = _kernel_program(
        ([1, 3], [6, 7], [0, 2], [3, 1], [4, 5]),
        (_E, _E, _E, _E, _E),
        (_E, _E, [3], [0], [2]),
    )
    _, trace, met = run_clique(g, prog, 0)
    assert trace.export_lines() == [
        "1 1 3 6 1", "1 3 3 7 1", "1 0 1 4 0", "1 2 1 5 0", "3 3 1 2 0",
    ]
    assert _columns(trace) == [
        [[1, 3], [6, 7], [0, 2], [3, 1], [4, 5]],
        [[], [], [], [], []],
        [[], [], [3], [0], [2]],
    ]
    assert (met.rounds, met.broadcasts, met.unicasts) == (3, 2, 3)


@pytest.mark.parametrize("sends", [
    (_E, _E, [0], [4], [2]),  # destination out of range
    (_E, _E, [1], [1], [2]),  # self-send
    (_E, _E, [5], [1], [2]),  # source out of range
    (_E, _E, [0, 1, 0], [1, 2, 1], [2, 2, 2]),  # two messages on one (src, dst)
    (_E, _E, [0], [1], [0]),  # empty payload
    (_E, _E, [0], [1], [99]),  # payload over the cap
    (_E, _E, [0, 1], [1], [2]),  # ragged arrays
    (_E, _E, [0.0], [1.0], [2.0]),  # not integers
    ([4], [2], _E, _E, _E),  # broadcast source out of range
    ([-1], [2], _E, _E, _E),  # negative broadcast source
    ([1, 1], [2, 2], _E, _E, _E),  # one source broadcasts twice
    ([2, 1], [2, 2], _E, _E, _E),  # sources descending
    ([0], [0], _E, _E, _E),  # empty broadcast payload
    ([0], [9], _E, _E, _E),  # broadcast over the cap of 4 * 2 bits
    ([0, 1], [2], _E, _E, _E),  # ragged broadcast arrays
    ([0.0], [2.0], _E, _E, _E),  # broadcast values not integers
    ([0], [2], [0], [1]),  # four arrays, not five
])
def test_kernel_round_violations(sends):
    g = generate("path", 4, 0)
    with pytest.raises(ProgramViolation):
        run_clique(g, _kernel_program(sends), 0)


def test_kernel_must_return_one_output_per_vertex():
    g = generate("path", 4, 0)
    with pytest.raises(ProgramViolation):
        run_clique(g, _kernel_program(outputs=[1, 2]), 0)


def test_kernel_round_budget():
    g = generate("path", 3, 0)
    prog = _kernel_program(*[(_E, _E, [0], [1], [2])] * 20)
    with pytest.raises(RoundLimitExceeded) as e:
        run_clique(g, prog, 0, max_rounds=10)
    assert e.value.trace.num_rounds == 10


def _stored_bytes(col):
    """The bytes a trace column holds: a zero-stride view holds its base."""
    return col.base.nbytes if len(col) > 1 and col.strides == (0,) else col.nbytes


def test_walk_trace_keeps_8_bytes_per_unicast_and_no_run_builds_edge_indices():
    # vertex ids are stored as int32 and PageRank's one multiplicity width as
    # one value per round: 24 B per unicast when every column was int64
    gnp = {"model": "gnp", "n": 4096, "p": 0.02}
    g = generate("gnp", 4096, 1, p=0.02)
    _, trace, met = run_clique(g, pagerank_program(AlgoConfig()), 1)
    stored = sum(_stored_bytes(c) for cols in trace.round_arrays() for c in cols)
    assert met.unicasts > 200_000
    assert stored <= 8 * met.unicasts + 8 * met.rounds
    assert all(cols[2].dtype == cols[3].dtype == np.int32
               for cols in trace.round_arrays() if len(cols[2]))
    # walks, BFS and MIS, and their validators, read no slot's edge index
    for alg in ("pagerank", "bfs", "mis"):
        res = run_cell(ExperimentConfig(algorithm=alg, graph=gnp, k=[2], seeds=[1]), 1)
        assert res.valid and res.instance.graph._csr is None, alg
    assert g._csr is None


def test_metrics_follow_the_trace_as_it_grows():
    g = generate("gnp", 24, 1, p=0.3)
    _, trace, met = run_clique(g, luby_mis_program(), seed=4)
    assert CliqueMetrics.from_trace(trace) == met
    trace.append_arrays(np.array([0]), np.array([3]), NONE, NONE, NONE)
    grown = CliqueMetrics.from_trace(trace)
    assert (grown.rounds, grown.broadcasts) == (met.rounds + 1, met.broadcasts + 1)

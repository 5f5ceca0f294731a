import hashlib

import numpy as np
import pytest

from kmachine.acceptance import fidelity_instances
from kmachine.clique import (
    HALT,
    SILENT,
    Broadcast,
    CliqueMetrics,
    NodeProgram,
    Program,
    ProgramViolation,
    RoundLimitExceeded,
    RoundRecord,
    Unicast,
    run_clique,
)
from kmachine.graphs import Graph, generate
from kmachine.harness import ExperimentConfig, make_program, run_cell
from kmachine.programs import (
    AlgoConfig,
    ConfigError,
    bfs_program,
    conn_program,
    luby_mis_program,
    mst_program,
    pagerank_program,
    spanner_program,
    st_verify_program,
)
from kmachine.programs import walks


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
    return Program("t", lambda n: [cls() for _ in range(n)])


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
        _, trace, _ = run_clique(g, luby_mis_program(AlgoConfig()), seed=9)
        runs.append("\n".join(trace.export_lines()))
    assert runs[0] == runs[1]
    _, other, _ = run_clique(g, luby_mis_program(AlgoConfig()), seed=10)
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
    for rnd, rec in enumerate(trace.rounds, start=1):
        for src, dst, bits in rec.unis:
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


def test_metrics_recompute_from_trace():
    g = generate("gnp", 24, 1, p=0.3)
    _, trace, met = run_clique(g, luby_mis_program(AlgoConfig()), seed=4)
    assert CliqueMetrics.from_trace(trace) == met
    # independent tallies
    b = sum(len(r.bcasts) for r in trace.rounds)
    u = sum(len(r.unis) for r in trace.rounds)
    assert met.broadcasts == b
    assert met.messages == u + b * (g.n - 1)
    assert met.rounds == len(trace.rounds)


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
    assert trace.rounds[0].bcasts == [(0, 4), (1, 4), (2, 4)]


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
# MIS and spanner digests date from per-vertex coins drawn as
# rng.uniform(seed, "coin", vertex, round).
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
    outputs, trace, _ = run_clique(g, luby_mis_program(AlgoConfig()), 5)
    assert _trace_digest(outputs, trace) == (
        "1a1877864666fe595209d630a75d4a5014ab12acd2ed167f8d5bba80c9f68966"
    )


def test_golden_trace_spanner():
    g = generate("random_weighted", 48, 5, p=0.3, wmax=60)
    outputs, trace, _ = run_clique(g, spanner_program(AlgoConfig(delta=3)), 5)
    assert _trace_digest(outputs, trace) == (
        "6badd3e10f83e0b5877a23bc0be09d1d8acf21f39a4c541eafb9476644ce1bb0"
    )


# ---------------------------------------------------------------------------
# round kernels: byte-identical to the per-vertex programs they replace
# ---------------------------------------------------------------------------


def _reference(program):
    """The same program without its kernel: one state machine per vertex."""
    return Program(program.name, program.build)


def _assert_kernel_matches_reference(g, program, seed, **kw):
    assert program.kernel is not None
    out, trace, met = run_clique(g, program, seed, **kw)
    ref_out, ref_trace, ref_met = run_clique(g, _reference(program), seed, **kw)
    assert trace.export_lines() == ref_trace.export_lines()
    # export_lines() leaves out destinations; compare every (src, dst, bits)
    assert [r.unis for r in trace.rounds] == [r.unis for r in ref_trace.rounds]
    assert [r.bcasts for r in trace.rounds] == [r.bcasts for r in ref_trace.rounds]
    assert repr(out) == repr(ref_out)
    assert met == ref_met
    return trace


def test_pagerank_kernel_matches_reference_on_fidelity_instances():
    runs = [(inst, s) for alg, inst, s in fidelity_instances(7) if alg == "pagerank"]
    assert runs
    for inst, s in runs:
        _assert_kernel_matches_reference(inst.graph, pagerank_program(AlgoConfig()), s)


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
        assert trace.unicast_count() > 0


def test_pagerank_kernel_chunks_do_not_change_the_trace(monkeypatch):
    # chunks of 7 tokens split every vertex's batch of 40
    monkeypatch.setattr(walks, "_CHUNK", 7)
    g = generate("gnp", 24, 4, p=0.3)
    prog = pagerank_program(AlgoConfig(tokens_per_node=40))
    _assert_kernel_matches_reference(g, prog, 2)


def test_walk_token_overflow_is_rejected_before_any_round():
    g = generate("path", 4, 0)
    prog = pagerank_program(AlgoConfig(tokens_per_node=2**31))  # 2**33 tokens
    for p in (prog, _reference(prog)):
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
    for p in (prog, _reference(prog)):
        with pytest.raises(ProgramViolation) as e:
            run_clique(g, p, 5)
        errors.append(str(e.value))
    assert errors[0] == errors[1]


def test_pagerank_kernel_round_limit_keeps_the_partial_trace():
    g = generate("gnp", 32, 1, p=0.2)
    prog = pagerank_program(AlgoConfig())
    traces = []
    for p in (prog, _reference(prog)):
        with pytest.raises(RoundLimitExceeded) as e:
            run_clique(g, p, 3, max_rounds=12)
        traces.append(e.value.trace)
    assert traces[0].num_rounds == traces[1].num_rounds == 12
    assert [r.unis for r in traces[0].rounds] == [r.unis for r in traces[1].rounds]


def test_fragment_kernels_match_reference_on_fidelity_instances():
    runs = [(alg, inst, s) for alg, inst, s in fidelity_instances(7)
            if alg in ("mst", "conn", "stverify")]
    assert len(runs) == 60
    for alg, inst, s in runs:
        prog = make_program(alg, inst, AlgoConfig())
        _assert_kernel_matches_reference(inst.graph, prog, s)


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
    for p in (prog, _reference(prog)):
        with pytest.raises(ProgramViolation) as e:
            run_clique(g, p, 0)
        errors.append(str(e.value))
    assert errors[0] == errors[1] == "vertex 0: payload of 17 bits exceeds cap 16"


def test_fragment_kernel_round_limit_keeps_the_partial_trace():
    g = generate("gnp", 64, 1, p=0.1)
    progs = [mst_program(), conn_program(), st_verify_program(range(g.m))]
    for prog in progs:
        traces = []
        for p in (prog, _reference(prog)):
            with pytest.raises(RoundLimitExceeded) as e:
                run_clique(g, p, 3, max_rounds=4)
            traces.append(e.value.trace)
        assert traces[0].num_rounds == traces[1].num_rounds == 4
        assert [r.bcasts for r in traces[0].rounds] == [
            r.bcasts for r in traces[1].rounds
        ]


_E = []  # an empty column


def _kernel_program(*rounds, outputs=None):
    """A program whose kernel yields the given five-array rounds."""

    def kernel(g, seed):
        for r in rounds:
            yield r
        return [None] * g.n if outputs is None else outputs

    return Program("k", lambda n: [], kernel=kernel)


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
    assert [r.bcasts for r in trace.rounds] == [[(1, 6), (3, 7)], [], []]
    assert [r.unis for r in trace.rounds] == [[(0, 3, 4), (2, 1, 5)], [], [(3, 0, 2)]]
    assert (met.rounds, met.broadcasts, met.unicasts, met.payload_bits) == (
        3, 2, 3, 24,
    )


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


def test_metrics_are_cached_until_the_trace_grows():
    g = generate("gnp", 24, 1, p=0.3)
    _, trace, met = run_clique(g, luby_mis_program(AlgoConfig()), seed=4)
    assert CliqueMetrics.from_trace(trace) is met
    trace.append(RoundRecord([(0, 3)], []))
    grown = CliqueMetrics.from_trace(trace)
    assert (grown.rounds, grown.broadcasts) == (met.rounds + 1, met.broadcasts + 1)

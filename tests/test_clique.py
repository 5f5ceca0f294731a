import hashlib

import pytest

from kmachine.acceptance import fidelity_instances
from kmachine.clique import (
    HALT,
    SILENT,
    Broadcast,
    CliqueMetrics,
    Idle,
    NodeProgram,
    Program,
    ProgramViolation,
    RoundLimitExceeded,
    Unicast,
    run_clique,
)
from kmachine.graphs import generate
from kmachine.harness import make_program
from kmachine.programs import (
    AlgoConfig,
    bfs_program,
    luby_mis_program,
    mst_program,
    pagerank_program,
)


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
    return Program("t", lambda n: [cls() for _ in range(n)], "p2p")


def test_broadcast_once_metrics():
    g = generate("clique", 4, 0)
    _, trace, met = run_clique(g, _prog(_ShoutOnce), seed=0)
    assert met.rounds == 1
    assert met.broadcasts == 4
    assert met.messages == 12  # each broadcast counts as n-1 deliveries
    assert met.comm_degree == 6  # 3 sent plus 3 addressed per vertex


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
    with pytest.raises(RoundLimitExceeded) as e:
        run_clique(g, _prog(_Forever), seed=0, max_rounds=10)
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


@pytest.mark.parametrize("cls", [_TooBig, _BadDst, _DupDst])
def test_program_violations(cls):
    g = generate("path", 4, 0)
    with pytest.raises(ProgramViolation):
        run_clique(g, _prog(cls), seed=0)


def test_trace_export_format():
    g = generate("path", 3, 0)
    _, trace, _ = run_clique(g, _prog(_OneUnicast), seed=0)
    assert trace.export_lines() == ["1 0 1 4 0"]
    g2 = generate("clique", 3, 0)
    _, trace2, _ = run_clique(g2, _prog(_ShoutOnce), seed=0)
    assert trace2.export_lines() == ["1 0 2 4 1", "1 1 2 4 1", "1 2 2 4 1"]


# ---------------------------------------------------------------------------
# Idle: skipped vertices must leave every message and output unchanged
# ---------------------------------------------------------------------------


class _Counted(NodeProgram):
    """Wraps a vertex program and counts its step() calls in calls[0]."""

    def __init__(self, inner, calls):
        self.inner = inner
        self.calls = calls

    def start(self, ctx):
        self.inner.start(ctx)

    def step(self, rnd, inbox):
        self.calls[0] += 1
        return self.inner.step(rnd, inbox)

    def output(self):
        return self.inner.output()


class _Awake(_Counted):
    """Turns Idle into SILENT, so the engine steps the vertex every round
    as if idling did not exist."""

    def step(self, rnd, inbox):
        act = super().step(rnd, inbox)
        return SILENT if isinstance(act, Idle) else act


def _wrapped(cls, program, calls):
    return Program(
        program.name,
        lambda n: [cls(p, calls) for p in program.build(n)],
        program.mode,
    )


def _assert_same_as_never_idle(g, make, seed):
    out, trace, met = run_clique(g, make(), seed)
    out_awake, trace_awake, met_awake = run_clique(
        g, _wrapped(_Awake, make(), [0]), seed
    )
    assert trace.export_lines() == trace_awake.export_lines()
    assert out == out_awake
    assert met == met_awake


def test_idle_matches_stepping_every_round_on_fidelity_instances():
    for algorithm, inst, s in fidelity_instances(7):
        _assert_same_as_never_idle(
            inst.graph, lambda: make_program(algorithm, inst, AlgoConfig()), s
        )


@pytest.mark.parametrize("n, tokens", [(64, 600), (32, None)])
def test_idle_matches_stepping_every_round_on_pagerank_shapes(n, tokens):
    cfg = AlgoConfig(gamma=0.15, tokens_per_node=tokens)
    for seed in range(3):
        g = generate("gnp", n, seed, p=0.2)
        _assert_same_as_never_idle(g, lambda: pagerank_program(cfg), seed)


def test_pagerank_idle_vertices_are_not_stepped():
    g = generate("gnp", 64, 1, p=0.1)
    awake, counted = [0], [0]
    run_clique(g, _wrapped(_Awake, pagerank_program(AlgoConfig()), awake), 1)
    run_clique(g, _wrapped(_Counted, pagerank_program(AlgoConfig()), counted), 1)
    assert counted[0] < awake[0] / 2


class _Script(NodeProgram):
    """Returns the action its script gives for the round (SILENT if none)
    and logs (round, broadcasts, unicasts) for every round it is stepped."""

    def __init__(self, script):
        self.script = script
        self.log = []

    def step(self, rnd, inbox):
        self.log.append((rnd, list(inbox.broadcasts), list(inbox.unicasts)))
        return self.script.get(rnd, SILENT)

    def output(self):
        return self.log


def _scripted(*scripts):
    return Program("script", lambda n: [_Script(s) for s in scripts], "p2p")


@pytest.mark.parametrize("ahead", [0, -1])
def test_idle_until_a_past_round_is_a_violation(ahead):
    g = generate("path", 2, 0)
    with pytest.raises(ProgramViolation):
        run_clique(g, _scripted({3: Idle(3 + ahead)}, {3: HALT}), seed=0)


def test_idle_vertex_wakes_on_its_alarm():
    g = generate("path", 2, 0)
    outs, _, met = run_clique(g, _scripted({1: Idle(5), 5: HALT}, {2: HALT}), seed=0)
    assert [r for r, _, _ in outs[0]] == [1, 5]
    assert met.rounds == 5


def test_idle_vertex_woken_early_by_a_unicast():
    g = generate("path", 2, 0)
    prog = _scripted({2: Unicast([(1, "wake", 4)], halt=True)}, {1: Idle(50), 3: HALT})
    outs, _, met = run_clique(g, prog, seed=0)
    assert outs[1] == [(1, [], []), (3, [], [(0, "wake")])]
    assert met.rounds == 3


def test_idle_vertex_woken_early_by_a_broadcast():
    g = generate("path", 3, 0)
    prog = _scripted(
        {2: Broadcast("hi", 4, halt=True)}, {1: Idle(50), 3: HALT}, {1: Idle(9), 3: HALT}
    )
    outs, _, met = run_clique(g, prog, seed=0)
    assert outs[1] == outs[2] == [(1, [], []), (3, [(0, "hi")], [])]
    assert met.rounds == 3


def test_halted_vertex_is_not_revived_by_its_alarm():
    g = generate("path", 3, 0)
    prog = _scripted(
        {2: Unicast([(1, "wake", 4)]), 8: HALT},
        {1: Idle(6), 3: HALT},
        {1: Idle(7), 7: HALT},  # still asleep when vertex 1's alarm was due
    )
    outs, _, met = run_clique(g, prog, seed=0)
    assert [r for r, _, _ in outs[1]] == [1, 3]
    assert [r for r, _, _ in outs[2]] == [1, 7]
    assert [r for r, _, _ in outs[0]] == list(range(1, 9))
    assert met.rounds == 8


def test_idle_vertices_count_against_the_round_budget():
    g = generate("path", 2, 0)
    with pytest.raises(RoundLimitExceeded) as e:
        run_clique(g, _scripted({1: Idle(100)}, {1: HALT}), seed=0, max_rounds=10)
    assert e.value.trace.num_rounds == 10


# ---------------------------------------------------------------------------
# golden traces: SHA-256 of export_lines() plus repr(outputs), pinned from
# the engine before idle skipping existed, so engine speed-ups must keep
# every message and output byte-identical
# ---------------------------------------------------------------------------


def _trace_digest(outputs, trace):
    text = "\n".join(trace.export_lines()) + "\n" + repr(outputs)
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_trace_pagerank():
    g = generate("gnp", 64, 3, p=0.2)
    prog = pagerank_program(AlgoConfig(gamma=0.15, tokens_per_node=600))
    outputs, trace, _ = run_clique(g, prog, 11)
    assert _trace_digest(outputs, trace) == (
        "27a1f6d4a5cc125a704a70ea5556e615f2ff77a62a1d33a2fbe695cd9e354f87"
    )


def test_golden_trace_mst():
    g = generate("random_weighted", 48, 5, p=0.3, wmax=60)
    outputs, trace, _ = run_clique(g, mst_program(), 13)
    assert _trace_digest(outputs, trace) == (
        "703f271cddbf261cf1202caac91c7a5d0c50917c4cd5093d46d0a869b216da09"
    )

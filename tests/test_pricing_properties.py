"""Property tests of the shared pricer on random small traces and placements.

Each example is a random trace: a few rounds of broadcasts (at most one
per vertex) and unicasts (at most one per ordered pair), with payloads of
1..64 bits, priced on an arbitrary vertex -> machine assignment.
"""

import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmachine.clique import NONE, CliqueMetrics, CliqueTrace, run_clique
from kmachine.graphs import Graph, generate, label_bits
from kmachine import machines
from kmachine.machines import Partition, price, random_vertex_partitions, round_loads_each
from kmachine.programs import AlgoConfig, bfs_program

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
BITS = st.integers(1, 64)


def _draw_trace(draw, n, broadcast_only, rounds):
    trace = CliqueTrace(n)
    for _ in range(draw(st.integers(0, rounds))):
        senders = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        bs = sorted(senders)
        bb = [draw(BITS) for _ in bs]
        pairs = []
        if not broadcast_only:
            pairs = draw(st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .filter(lambda p: p[0] != p[1]),
                unique=True, max_size=2 * n,
            ))
        us, ud = [s for s, _ in pairs], [d for _, d in pairs]
        ub = [draw(BITS) for _ in pairs]
        cols = (bs, bb, us, ud, ub)
        trace.append_arrays(*(np.array(c, dtype=np.int64) for c in cols))
    return trace


@st.composite
def priced(draw, broadcast_only=False, k=None, rounds=4):
    """(trace, partition) on 2..10 vertices, with up to `rounds` rounds;
    k = "n" puts them on n machines."""
    n = draw(st.integers(2, 10))
    trace = _draw_trace(draw, n, broadcast_only, rounds)
    k = n if k == "n" else k or draw(st.integers(1, n))
    home = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return trace, Partition(k=k, home=np.array(home, dtype=np.int64))


def _modes(trace):
    """Both modes on a broadcast-only trace, point-to-point otherwise."""
    if CliqueMetrics.from_trace(trace).unicasts:
        return ("p2p",)
    return ("p2p", "bcast")


@SETTINGS
@given(priced(), st.integers(1, 64))
def test_link_ledger_is_symmetric_with_zero_diagonal(case, W):
    trace, part = case
    for mode in _modes(trace):
        links = price(trace, part, W, mode=mode).per_link_bits
        assert links.shape == (part.k, part.k)
        assert (links == links.T).all()
        assert (np.diag(links) == 0).all()


@SETTINGS
@given(priced(), st.integers(1, 64))
def test_every_bit_is_counted_once_per_end(case, W):
    trace, part = case
    for mode in _modes(trace):
        rep = price(trace, part, W, mode=mode)
        assert rep.per_link_bits.sum() == rep.per_machine_bits.sum() == 2 * rep.total_bits


@SETTINGS
@given(priced(), st.integers(1, 64), st.integers(1, 64))
def test_rounds_never_grow_with_bandwidth(case, W, extra):
    trace, part = case
    for mode in _modes(trace):
        narrow = price(trace, part, W, mode=mode)
        wide = price(trace, part, W + extra, mode=mode)
        assert wide.km_rounds <= narrow.km_rounds
        assert wide.total_bits == narrow.total_bits


@SETTINGS
@given(priced(broadcast_only=True), st.integers(1, 64))
def test_dedup_never_beats_expansion(case, W):
    trace, part = case
    assert (price(trace, part, W, mode="bcast").km_rounds
            <= price(trace, part, W, mode="p2p").km_rounds)


@SETTINGS
@given(priced(k=1), st.integers(1, 64))
def test_one_machine_costs_nothing(case, W):
    trace, part = case
    for mode in _modes(trace):
        rep = price(trace, part, W, mode=mode)
        assert (rep.km_rounds, rep.total_bits) == (0, 0)


def _per_message(trace, part, W, mode):
    """(km_rounds, per_link_bits, total_bits) by charging
    every message on its own.  A broadcast is n-1 unicasts under p2p and one
    copy per other occupied machine under bcast; co-located traffic is free."""
    n, k, home = trace.n, part.k, part.home.tolist()
    hdr = label_bits(n) if mode == "bcast" else 2 * label_bits(n)
    km_rounds = 0
    links = [[0] * k for _ in range(k)]
    for bs, bb, us, ud, ub in trace.round_arrays():
        bcasts = list(zip(bs.tolist(), bb.tolist()))
        load = [[0] * k for _ in range(k)]
        if mode == "bcast":  # one copy to some vertex of each occupied machine
            sends = [(src, home.index(q), bits) for src, bits in bcasts
                     for q in set(home)]
        else:
            sends = [(src, dst, bits) for src, bits in bcasts
                     for dst in range(n) if dst != src]
            sends += zip(us.tolist(), ud.tolist(), ub.tolist())
        for src, dst, bits in sends:
            p, q = home[src], home[dst]
            if p != q:
                load[p][q] += bits + hdr
        km_rounds += -(-max(max(row) for row in load) // W)
        for p in range(k):
            for q in range(k):
                links[p][q] += load[p][q] + load[q][p]
    return km_rounds, links, sum(map(sum, links)) // 2


@SETTINGS
@given(priced(), st.integers(1, 64))
def test_pricing_matches_per_message_charging(case, W):
    trace, part = case
    for mode in _modes(trace):
        rep = price(trace, part, W, mode=mode)
        got = (rep.km_rounds, rep.per_link_bits.tolist(), rep.total_bits)
        assert got == _per_message(trace, part, W, mode)


# (messages, load entries) a pricing block may reach: every round a block
# alone, the whole trace one block, and rounds split by the entry cap (at
# k = n = 10 a block holds two rounds)
BLOCK_BUDGETS = {"round_alone": (1, 1 << 16), "one_block": (1 << 62, 1 << 62),
                 "entry_cap": (1 << 62, 200)}


@pytest.mark.parametrize("budget", BLOCK_BUDGETS.values(), ids=BLOCK_BUDGETS)
@SETTINGS
@given(st.one_of(priced(rounds=8), priced(broadcast_only=True, rounds=8),
                 priced(k=1, rounds=8), priced(k="n", rounds=8)),
       st.integers(1, 64))
def test_block_budgets_do_not_change_the_charges(budget, case, W):
    trace, part = case
    messages, cells = budget
    with mock.patch.object(machines, "_BLOCK_MESSAGES", messages), \
            mock.patch.object(machines, "_BLOCK_CELLS", cells):
        for mode in _modes(trace):
            rep = price(trace, part, W, mode=mode)
            got = (rep.km_rounds, rep.per_link_bits.tolist(), rep.total_bits)
            assert got == _per_message(trace, part, W, mode)


def test_pricing_blocks_keep_their_budgets():
    # 150 one-message rounds either side of one of 5000 messages, at k = 64:
    # a block of small rounds holds at most 2**16 / 64**2 = 16 of them, and
    # the large round is a block alone
    n, k = 128, 64
    trace = CliqueTrace(n)
    one = [np.array([0]), np.array([1]), np.array([3])]
    pairs = np.flatnonzero(~np.eye(n, dtype=bool).reshape(-1))[:5000]
    for r in range(301):
        uni = [pairs // n, pairs % n, np.full(5000, 3)] if r == 150 else one
        trace.append_arrays(NONE, NONE, *uni)
    part = Partition(k=k, home=np.arange(n) % k)
    blocks = [b.shape[0] for b in round_loads_each(trace, [part], "p2p")[0]]
    assert blocks == ([16] * 9 + [6]) + [1] + ([16] * 9 + [6])


@SETTINGS
@given(priced(), st.lists(st.integers(0, 4), max_size=6), st.integers(1, 64))
def test_silent_rounds_change_no_cost(case, gaps, W):
    # an empty round goes before round index `at` of each gap, or after the
    # last round; bound_rounds moves with T_C, so it is left out
    trace, part = case
    rounds = list(trace.round_arrays())
    for at in sorted(gaps, reverse=True):
        rounds.insert(min(at, trace.num_rounds), (NONE,) * 5)
    padded = CliqueTrace(trace.n)
    for cols in rounds:
        padded.append_arrays(*cols)
    for mode in _modes(trace):
        a, b = price(trace, part, W, mode=mode), price(padded, part, W, mode=mode)
        assert (a.km_rounds, a.total_bits) == (b.km_rounds, b.total_bits)
        assert (a.per_link_bits == b.per_link_bits).all()
        assert (a.per_machine_bits == b.per_machine_bits).all()


@st.composite
def nested(draw, broadcast_only=False):
    """(trace, partitions): machine counts among the divisors of K in
    {4, 6, 8, 12}, k = 1 included, drawn by random_vertex_partitions on
    K..2K vertices, so that some machines host no vertex."""
    K = draw(st.sampled_from([4, 6, 8, 12]))
    n = draw(st.integers(K, 2 * K))
    trace = _draw_trace(draw, n, broadcast_only, rounds=4)
    ks = draw(st.lists(st.sampled_from([d for d in range(1, K + 1) if K % d == 0]),
                       unique=True, min_size=1))
    return trace, random_vertex_partitions(Graph(n, []), ks, draw(st.integers(0, 2**32)))


def _ledger(rep):
    return [(f.name, getattr(rep, f.name).tolist() if f.name.startswith("per_")
             else getattr(rep, f.name)) for f in fields(rep)]


def _priced_each(trace, parts, W):
    """(ledgers from pricing all of `parts` at once, ledgers from pricing
    each alone, the set of pass counts over the messages that pricing them
    at once took in each mode)."""
    got, alone, passes = [], [], set()
    for mode in _modes(trace):
        with mock.patch.object(machines, "_machine_sums",
                               wraps=machines._machine_sums) as sums:
            loads = round_loads_each(trace, parts, mode)
            got += [_ledger(price(trace, part, W, mode=mode, loads=each))
                    for part, each in zip(parts, loads)]
        passes.add(sums.call_count)
        alone += [_ledger(price(trace, part, W, mode=mode)) for part in parts]
    return got, alone, passes


def _sends(trace):
    return any(len(bs) or len(us) for bs, _, us, _, _ in trace.round_arrays())


@SETTINGS
@given(st.one_of(nested(), nested(broadcast_only=True)), st.integers(1, 64))
def test_folded_machine_counts_price_like_each_alone(case, W):
    # every nest keeps its machine sums (the budget is lifted), so each k
    # is priced from a fold of its largest multiple's sums
    trace, parts = case
    with mock.patch.object(machines, "_KEPT_PER_MESSAGE", 1 << 40):
        got, alone, passes = _priced_each(trace, parts, W)
    assert got == alone
    ks = [p.k for p in parts]
    leads = {max(K for K in ks if K % k == 0) for k in ks}
    assert passes == {len(leads) if _sends(trace) else len(parts)}


@st.composite
def unnested(draw):
    """(trace, partitions, nests): k = 3 and 4 drawn by
    random_vertex_partitions, or k = 2 and 4 with hand-built homes, which
    nest only if home_2 == home_4 % 2."""
    n = draw(st.integers(4, 12))
    trace = _draw_trace(draw, n, draw(st.booleans()), rounds=4)
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**32))
        return trace, random_vertex_partitions(Graph(n, []), [3, 4], seed), False
    homes = [np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
             for k in (2, 4)]
    return (trace, [Partition(2, homes[0]), Partition(4, homes[1])],
            (homes[0] == homes[1] % 2).all())


@SETTINGS
@given(unnested(), st.integers(1, 64))
def test_partitions_that_do_not_nest_are_priced_alone(case, W):
    trace, parts, nests = case
    with mock.patch.object(machines, "_KEPT_PER_MESSAGE", 1 << 40):
        got, alone, passes = _priced_each(trace, parts, W)
    assert got == alone
    assert passes == {1 if nests and _sends(trace) else 2}


def test_a_nest_keeps_its_sums_only_within_the_message_budget():
    # one round of 4032 unicasts on 64 vertices: k = 2, 4, 8 keep 72
    # entries of sums, but k = 64 would keep 4160, so 2 and 64 are priced
    # alone
    n = 64
    pairs = np.flatnonzero(~np.eye(n, dtype=bool).reshape(-1))
    trace = CliqueTrace(n)
    trace.append_arrays(NONE, NONE, pairs // n, pairs % n, np.full(len(pairs), 5))
    for ks, want in (((2, 4, 8), 1), ((2, 64), 2)):
        parts = random_vertex_partitions(Graph(n, []), ks, 3)
        got, alone, passes = _priced_each(trace, parts, 7)
        assert got == alone
        assert passes == {want}


def test_a_long_trace_prices_each_machine_count_alone():
    # BFS on a 4096-vertex path sends one broadcast in each of its ~4096
    # rounds.  Keeping k = 64's sums would take 4096 (64^2 + 64) int64
    # entries, ~136 MB, for 4096 messages, so the budget prices each k with
    # a pass of its own, and pricing holds only a block's scratch at a time
    g = generate("path", 4096, 1)
    _, trace, _ = run_clique(g, bfs_program(AlgoConfig()), 1)
    parts = random_vertex_partitions(g, [2, 4, 8, 16, 32, 64], 1)
    with mock.patch.object(machines, "_machine_sums", wraps=machines._machine_sums) as sums:
        tracemalloc.start()
        try:
            loads = round_loads_each(trace, parts, "bcast")
            got = [_ledger(price(trace, part, mode="bcast", loads=each))
                   for part, each in zip(parts, loads)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert sums.call_count == len(parts)
    assert peak < 8 << 20
    assert got == [_ledger(price(trace, part, mode="bcast")) for part in parts]

"""Property tests of the shared pricer on random small traces and placements.

Each example is a random trace: a few rounds of broadcasts (at most one
per vertex) and unicasts (at most one per ordered pair), with payloads of
1..64 bits, priced on an arbitrary vertex -> machine assignment.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmachine.clique import NONE, CliqueMetrics, CliqueTrace
from kmachine.graphs import label_bits
from kmachine import machines
from kmachine.machines import Partition, price

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
BITS = st.integers(1, 64)


@st.composite
def priced(draw, broadcast_only=False, k=None, rounds=4):
    """(trace, partition) on 2..10 vertices, with up to `rounds` rounds;
    k = "n" puts them on n machines."""
    n = draw(st.integers(2, 10))
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
    blocks = [b.shape[0] for b in machines.round_loads(trace, part, "p2p")]
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

"""Every per-element key is an output of a splitmix64 stream keyed by
derive: a vertex's key is its counter's output, distinct counters give
distinct keys, a coin is the top 53 bits of the key, and the walk tokens'
draws are numbered without aliasing and distributed as the walk needs."""

from fractions import Fraction

import numpy as np
import pytest

from kmachine.graphs import Graph
from kmachine.machines import random_vertex_partition
from kmachine.rng import (
    MAX_TOKEN_VERTICES,
    MAX_TOKENS,
    _mix,
    derive,
    derive_each,
    splitmix64,
    token_bases,
    token_counters,
    token_hops,
    token_layout_fits,
    token_uniforms,
    unit_threshold,
    uniform,
    uniform_each,
)

# any warning fails a test here, so no uint64 overflow warning escapes
pytestmark = pytest.mark.filterwarnings("error")


def test_derive_each_equals_derive():
    # output x mod 2**64 of the stream keyed by derive(seed, tag, *parts)
    xs = [0, 1, 5, 4095, -7, 2**62, -2**63, 2**63 - 1]
    for seed, tag, parts in [
        (0, "node", (1,)), (12345, "node", (77,)), (-3, "x", (-1,)),
        (9, "rvp", ()), (2**40, "rvp", ()), (4, "y", (3, -2**63)),
    ]:
        ref = splitmix64(derive(seed, tag, *parts), [x % 2**64 for x in xs])
        keys = derive_each(seed, tag, xs, *parts)
        assert keys.dtype == np.uint64
        assert keys.tolist() == ref.tolist()
        assert derive_each(seed, tag, np.array(xs), *parts).tolist() == ref.tolist()
    assert derive_each(3, "rvp", []).tolist() == []


def test_distinct_counters_get_distinct_keys():
    # the stream is a bijection of its counter, so no vertex layout aliases
    xs = np.concatenate([np.arange(2**16), [0, 2**63 - 1, -1, -2**63]])
    for seed, tag, parts in [(0, "rvp", ()), (7, "coin", (3,)), (-2**63, "coin", (2**62,))]:
        keys = derive_each(seed, tag, xs, *parts)
        assert len(np.unique(keys)) == 2**16 + 3  # 0 appears twice


def test_uniform_known_answers():
    # re-pinned when vertex keys became splitmix64 outputs of derive's stream
    assert [uniform(*key) for key in [
        (0, "coin", 0, 1), (7, "coin", 3, 4), (-5, "coin", 2**40, 1),
        (2**63 - 1, "coin", -2**63, 2**62),
    ]] == [
        0.7724732850539779, 0.37900160492274704, 0.8281002964122143,
        0.5039272488660271,
    ]


def test_uniform_is_the_scaled_batch_key():
    vs = list(range(300)) + [2**62, -1]
    for seed, rnd in [(0, 1), (7, 4), (2**63 - 1, 2**62)]:
        keys = derive_each(seed, "coin", vs, rnd).tolist()
        coins = [uniform(seed, "coin", v, rnd) for v in vs]
        assert coins == [(key >> 11) * 2.0**-53 for key in keys]
        assert all(0.0 <= c < 1.0 for c in coins)


def test_uniform_each_equals_uniform():
    vs = list(range(300)) + [2**62, -1]
    for seed, rnd in [(0, 1), (7, 4), (2**63 - 1, 2**62)]:
        coins = uniform_each(seed, "coin", vs, rnd)
        assert coins.dtype == np.float64
        assert coins.tolist() == [uniform(seed, "coin", v, rnd) for v in vs]
    assert uniform_each(3, "coin", [], 1).tolist() == []


def _chi2(counts):
    expect = counts.sum() / len(counts)
    return float(((counts - expect) ** 2 / expect).sum())


def test_homes_and_coins_are_uniform():
    n = 10**5
    for seed in (1, 2):
        homes = random_vertex_partition(Graph(n, []), 7, seed).machine_counts()
        assert homes.sum() == n
        assert _chi2(homes) < 27.9  # the 0.9999 quantile, 6 degrees of freedom
        for rnd in (1, 2):
            coins = uniform_each(seed, "coin", np.arange(n), rnd)
            bins = np.bincount((coins * 16).astype(np.int64), minlength=16)
            assert len(bins) == 16
            assert _chi2(bins) < 44.3  # the 0.9999 quantile, 15 degrees of freedom


def test_splitmix64_known_answers():
    # the reference outputs of splitmix64 seeded with 1234567
    assert splitmix64(1234567, np.arange(1, 6)).tolist() == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821,
    ]


def test_token_uniforms_known_answers():
    # pinned when the walk tokens were the only splitmix64 stream; drawing
    # vertex keys from the same scheme must leave these bits alone
    for (seed, rnd, v, i), want1, want2 in [
        ((0, 1, [0, 1, 2], [0, 0, 5]),
         [0.4905664457988056, 0.4225325581423677, 0.9443393387614838],
         [0.3208441662789594, 0.22316079485150386, 0.2798063451735936]),
        ((2**63 - 1, 2**62, [2**31 - 1], [2**32 - 1]),
         [0.01891964236428123], [0.8206040745922758]),
        ((-5, 3, [7], [0]), [0.9412983141547796], [0.22095501542876994]),
    ]:
        u1, u2 = token_uniforms(seed, rnd, np.array(v), np.array(i))
        assert (u1.tolist(), u2.tolist()) == (want1, want2)


# the reset probabilities the fused walk draws are checked at: the extremes
# of the open unit interval, and each kind of real the config accepts
GAMMAS = [2.0**-53, 0.15, 0.5, 1 - 2.0**-53, np.float32(0.15), Fraction(1, 3)]


@pytest.mark.parametrize("gamma", GAMMAS, ids=repr)
def test_unit_threshold_is_the_exact_ceiling(gamma):
    b = unit_threshold(gamma)
    below, at = np.array([b - 1, b], dtype=np.uint64) * 2.0**-53
    assert not below >= gamma and at >= gamma


@pytest.mark.parametrize("gamma", GAMMAS, ids=repr)
def test_fused_token_draws_equal_token_uniforms(gamma):
    # token numbers t = firsts[j] + i on vertex ids[j], with vertex ids and
    # first numbers at the corners of the token layout; the ids skip
    # vertices, as the walk kernel's live vertices do
    ids = np.array([0, 3, MAX_TOKEN_VERTICES - 1, 7, 2**20])
    firsts = np.array([0, 5, MAX_TOKENS - 40, 9, 2**31])
    r = np.random.default_rng(3)
    j = np.sort(r.integers(0, len(firsts), 4000))
    i = r.integers(0, 32, 4000)
    for seed, rnd in [(0, 1), (2**63 - 1, 2**62), (-5, 3)]:
        u1, u2 = token_uniforms(seed, rnd, ids[j], i)
        bases = token_bases(seed, rnd, ids, firsts)
        hops, w2 = token_hops(bases[j], firsts[j] + i, unit_threshold(gamma))
        assert (hops == (u1 >= gamma)).all()
        assert w2.tolist() == u2[hops].tolist()


def test_draws_leave_their_inputs_unchanged():
    # the finalizer and the fused token draws run in place on arrays of
    # their own, never on the caller's
    r = np.random.default_rng(8)
    z = r.integers(0, 2**63, 500).astype(np.uint64) * np.uint64(3)
    xs = r.integers(-2**63, 2**63 - 1, 500)
    ids, firsts = np.arange(0, 100, 2), np.arange(0, 500, 10)
    t = np.arange(500)
    bases = r.integers(0, 2**63, 500).astype(np.uint64)
    inputs = [z, xs, ids, firsts, t, bases]
    before = [a.copy() for a in inputs]
    assert _mix(z) is not z
    derive_each(4, "node", xs, 2)
    splitmix64(5, z)
    token_bases(6, 3, ids, firsts)
    for gamma in (2.0**-53, 0.15, 1 - 2.0**-53):
        token_hops(bases, t, unit_threshold(gamma))
    for a, b in zip(inputs, before):
        assert np.array_equal(a, b)


def _extreme_pairs():
    """Every corner of the counter layout, plus random pairs in range."""
    r = np.random.default_rng(5)
    vs = [0, 1, MAX_TOKEN_VERTICES - 2, MAX_TOKEN_VERTICES - 1]
    is_ = [0, 1, MAX_TOKENS - 2, MAX_TOKENS - 1]
    v = [a for a in vs for _ in is_] + r.integers(0, MAX_TOKEN_VERTICES, 5000).tolist()
    i = [b for _ in vs for b in is_] + r.integers(0, MAX_TOKENS, 5000).tolist()
    return np.array(v, dtype=np.uint64), np.array(i, dtype=np.uint64)


def test_distinct_pairs_get_distinct_counters_and_draws():
    v, i = _extreme_pairs()
    pairs = len({(a, b) for a, b in zip(v.tolist(), i.tolist())})
    assert len(np.unique(token_counters(v, i))) == pairs
    u1, u2 = token_uniforms(2**63 - 1, 2**62, v, i)
    assert len(np.unique(np.concatenate([u1, u2]))) == 2 * pairs
    for u in (u1, u2):
        assert u.dtype == np.float64 and ((0.0 <= u) & (u < 1.0)).all()


def test_layout_guard_rejects_aliasing_sizes():
    assert token_layout_fits(MAX_TOKEN_VERTICES, MAX_TOKENS)
    assert not token_layout_fits(MAX_TOKEN_VERTICES + 1, 1)
    assert not token_layout_fits(2, MAX_TOKENS + 1)


def test_uniforms_depend_only_on_their_key():
    v = np.array([3, 3, 3, 9])
    i = np.array([0, 1, 2, 0])
    u1, u2 = token_uniforms(11, 4, v, i)
    # drawn alone, in another order, a token gets the same uniforms
    for j in (3, 1, 0, 2):
        w1, w2 = token_uniforms(11, 4, v[j:j + 1], i[j:j + 1])
        assert (w1[0], w2[0]) == (u1[j], u2[j])
    for other in [(12, 4), (11, 5)]:
        assert not np.isin(token_uniforms(*other, v, i)[0], u1).any()


def test_death_rate_and_hop_slots_match_their_distributions():
    gamma, d = 0.15, 7
    v = np.repeat(np.arange(1000), 200)
    i = np.tile(np.arange(200), 1000)
    dead = moved = 0
    hops = np.zeros(d, dtype=np.int64)
    for rnd in (1, 2):
        u1, u2 = token_uniforms(2024, rnd, v, i)
        dead += int((u1 < gamma).sum())
        moved += int((u1 >= gamma).sum())
        hops += np.bincount((u2[u1 >= gamma] * d).astype(np.int64), minlength=d)
    tokens = 2 * len(v)
    assert tokens >= 10**5
    sigma = (tokens * gamma * (1 - gamma)) ** 0.5
    assert abs(dead - tokens * gamma) <= 4 * sigma
    expect = moved / d
    chi2 = float(((hops - expect) ** 2 / expect).sum())
    assert chi2 < 27.9  # the 0.9999 quantile of chi-square with 6 degrees of freedom
    assert hops.sum() == moved


@pytest.mark.parametrize("count", [0, 1, 37])
def test_uniform_counts(count):
    u1, u2 = token_uniforms(1, 1, np.full(count, 4), np.arange(count))
    assert len(u1) == len(u2) == count


@pytest.mark.parametrize("seed, parts, bad", [(2**63, (), 2**63), (-2**63 - 1, (), -2**63 - 1),
                                              (0, (3, 2**64), 2**64)])
def test_derive_refuses_a_seed_or_part_outside_int64(seed, parts, bad):
    with pytest.raises(ValueError, match=str(bad)):
        derive(seed, "x", *parts)

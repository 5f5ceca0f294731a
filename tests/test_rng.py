"""The batch derivation reproduces the one-at-a-time one bit for bit, a
vertex's coin is the top 53 bits of its derived key, and the counter-based
token draws are splitmix64, numbered without aliasing and distributed as the
walk needs."""

import numpy as np
import pytest

from kmachine.rng import (
    MAX_TOKEN_VERTICES,
    MAX_TOKENS,
    derive,
    derive_each,
    splitmix64,
    token_counters,
    token_layout_fits,
    token_uniforms,
    uniform,
)

# any warning fails a test here, so no uint64 overflow warning escapes
pytestmark = pytest.mark.filterwarnings("error")


def test_derive_each_equals_derive():
    xs = [0, 1, 5, 4095, -7, 2**62]
    for seed, tag, parts in [
        (0, "node", (1,)), (12345, "node", (77,)), (-3, "x", (-1,)),
        (9, "rvp", ()), (2**40, "rvp", ()), (4, "y", (3, -2**63)),
    ]:
        ref = [derive(seed, tag, x, *parts) for x in xs]
        assert derive_each(seed, tag, xs, *parts) == ref


def test_uniform_known_answers():
    assert [uniform(*key) for key in [
        (0, "coin", 0, 1), (7, "coin", 3, 4), (-5, "coin", 2**40, 1),
        (2**63 - 1, "coin", -2**63, 2**62),
    ]] == [
        0.22587737721715484, 0.9739854863023589, 0.037745683004077546,
        0.23965087466990698,
    ]


def test_uniform_is_the_scaled_batch_key():
    vs = list(range(300)) + [2**62, -1]
    for seed, rnd in [(0, 1), (7, 4), (2**63 - 1, 2**62)]:
        keys = derive_each(seed, "coin", vs, rnd)
        coins = [uniform(seed, "coin", v, rnd) for v in vs]
        assert coins == [(key >> 11) * 2.0**-53 for key in keys]
        assert all(0.0 <= c < 1.0 for c in coins)


def test_splitmix64_known_answers():
    # the reference outputs of splitmix64 seeded with 1234567
    assert splitmix64(1234567, np.arange(1, 6)).tolist() == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821,
    ]


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

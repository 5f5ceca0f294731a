"""The batch RNG forms must reproduce the one-at-a-time ones bit for bit."""

import numpy as np

from kmachine.rng import (
    _pcg64_states,
    _reseeded,
    derive,
    derive_each,
    make_np_rng,
    make_np_rngs,
)

EDGE_KEYS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63, 2**64 - 1]


def _keys():
    """Edge keys, 1000 keys below 2**32 and 1000 full 64-bit keys."""
    r = np.random.default_rng(2024)
    small = r.integers(0, 2**32, 1000, dtype=np.uint64).tolist()
    big = r.integers(0, 2**64 - 1, 1000, dtype=np.uint64, endpoint=True).tolist()
    return EDGE_KEYS + small + big


def _draws(gen, i):
    """binomial over both of numpy's algorithms (inversion for small n*p,
    BTPE above), then a multinomial over uniform hop probabilities."""
    tokens = 1 + (i * 37) % 400
    d = 1 + i % 23
    return (
        int(gen.binomial(tokens, 0.15)),
        gen.multinomial(tokens, np.full(d, 1.0 / d)).tolist(),
        gen.bit_generator.state,
    )


def test_derive_each_equals_derive():
    for seed, tag, rnd in [(0, "node", 1), (12345, "node", 77), (-3, "x", -1)]:
        xs = [0, 1, 5, 4095, -7, 2**62]
        ref = [derive(seed, tag, x, rnd) for x in xs]
        assert derive_each(seed, tag, xs, rnd) == ref


def test_pcg64_states_equal_numpy_seeding():
    keys = _keys()
    assert len(keys) >= 2000
    for key, (state, inc) in zip(keys, _pcg64_states(keys)):
        ref = np.random.PCG64(key).state["state"]
        assert (state, inc) == (ref["state"], ref["inc"]), key


def test_reseeded_generator_draws_like_default_rng():
    keys = _keys()
    got = [_draws(gen, i) for i, gen in enumerate(_reseeded(keys))]
    assert got == [_draws(np.random.default_rng(k), i) for i, k in enumerate(keys)]


def test_make_np_rngs_is_make_np_rng_per_vertex():
    xs = list(range(0, 2500, 3))
    for seed, rnd in [(11, 1), (2**40 + 5, 96)]:
        gens = make_np_rngs(seed, "node", xs, rnd)
        got = [_draws(gen, i) for i, gen in enumerate(gens)]
        ref = [_draws(make_np_rng(seed, "node", x, rnd), i) for i, x in enumerate(xs)]
        assert got == ref


def test_make_np_rngs_of_no_vertices_is_empty():
    assert list(make_np_rngs(1, "node", [], 3)) == []

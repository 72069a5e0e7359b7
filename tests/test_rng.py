import random

import numpy as np
import pytest

import negdep.rng as rng_module
from negdep.rng import RngStream

# Pinned outputs: the stream is a contract, changing it silently would break
# every recorded seed.
SEED0_U64 = [
    16294208416658607535,
    7960286522194355700,
    487617019471545679,
    17909611376780542444,
]
SEED12345_U64 = [
    2454886589211414944,
    3778200017661327597,
    2205171434679333405,
    3248800117070709450,
]
SEED0_BITS53 = [7956156453446585, 3886858653415212, 238094247788840]
SEED7_PERM10 = [2, 8, 5, 9, 1, 3, 4, 7, 0, 6]


def test_frozen_u64_outputs():
    assert [RngStream(0).u64() for _ in range(1)] == SEED0_U64[:1]
    r = RngStream(0)
    assert [r.u64() for _ in range(4)] == SEED0_U64
    r = RngStream(12345)
    assert [r.u64() for _ in range(4)] == SEED12345_U64


def test_frozen_bits53():
    r = RngStream(0)
    assert [r.bits53() for _ in range(3)] == SEED0_BITS53


def test_frozen_permutation():
    r = RngStream(7)
    assert r.permutation(10) == SEED7_PERM10
    assert r.integer(5) == 3


def test_scalar_vector_agree():
    r1, r2 = RngStream(99), RngStream(99)
    assert [r1.u64() for _ in range(500)] == r2.u64_array(500).tolist()
    r1, r2 = RngStream(99), RngStream(99)
    assert [r1.bits53() for _ in range(100)] == r2.bits53_array(100).tolist()


def test_equal_seeds_equal_streams_100k():
    a = RngStream(321).u64_array(10**5)
    b = RngStream(321).u64_array(10**5)
    assert np.array_equal(a, b)


def test_counter_tracks_consumption():
    r = RngStream(5)
    r.u64()
    r.bits53_array(10)
    assert r.counter == 11


def test_split_deterministic_and_disjoint():
    a = RngStream(42).split(3)
    b = RngStream(42).split(3)
    assert a.seed == b.seed
    assert [a.u64() for _ in range(10)] == [b.u64() for _ in range(10)]
    c = RngStream(42).split(4)
    assert c.seed != a.seed
    parent = RngStream(42)
    assert parent.u64_array(100).tolist() != RngStream(42).split(0).u64_array(100).tolist()


def test_integer_bounds_and_bias_free_small():
    r = RngStream(17)
    draws = [r.integer(5) for _ in range(5000)]
    assert set(draws) <= set(range(5))
    counts = np.bincount(draws, minlength=5)
    # binomial 4-sigma around 1000
    assert np.all(np.abs(counts - 1000) < 4 * np.sqrt(5000 * 0.2 * 0.8))


def test_integer_requires_positive_bound():
    with pytest.raises(ValueError):
        RngStream(0).integer(0)
    assert RngStream(0).integer(1) == 0


def test_permutation_is_permutation():
    r = RngStream(23)
    for n in (1, 2, 5, 31):
        assert sorted(r.permutation(n)) == list(range(n))


def test_uniform01_range():
    u = RngStream(9).uniform01(10**4)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 4 * (12 ** -0.5) / 100


def test_integer_takes_any_integer_bound():
    assert RngStream(7).integer(np.int64(5)) == RngStream(7).integer(5)
    r = RngStream(7)
    r.reserve(4)
    assert r.integer(np.int64(5)) == RngStream(7).integer(5)
    with pytest.raises(TypeError):
        RngStream(7).integer(5.0)


def test_integer_bound_above_two_to_the_64_is_refused():
    for r in (RngStream(3), RngStream(3)):
        with pytest.raises(ValueError, match="at most 2\\*\\*64"):
            r.integer(2**64 + 1)
        assert r.counter == 0
        r.reserve(8)  # the second pass asks the window path
    # 2**64 itself is a raw word, on either path
    assert RngStream(3).integer(2**64) == RngStream(3).u64()
    r = RngStream(3)
    r.reserve(2)
    assert r.integer(2**64) == RngStream(3).u64()


def test_negative_counts_are_refused():
    with pytest.raises(ValueError):
        RngStream(0).u64_array(-1)
    with pytest.raises(ValueError):
        RngStream(0).reserve(-1)


def _fisher_yates(r, n):
    # the word-by-word loop permutation() replaced; the reference it must match
    a = list(range(n))
    for j in range(n - 1, 0, -1):
        k = r.integer(j + 1)
        a[j], a[k] = a[k], a[j]
    return a


def _draw(r, name, arg):
    if name in ("u64", "bits53"):
        return getattr(r, name)()
    if name in ("integer", "permutation"):
        return getattr(r, name)(arg)
    return getattr(r, name)(arg).tolist()  # u64_array, bits53_array, uniform01


def _random_draw(rnd):
    name = rnd.choice(["u64", "bits53", "integer", "permutation",
                       "u64_array", "bits53_array", "uniform01"])
    if name == "integer":
        return name, rnd.choice([1, 2, 3, 7, 31, 1000, 2**63 + 5, 2**64])
    if name == "permutation":
        return name, rnd.choice([0, 1, 2, 3, 5, 31, 64])
    return name, rnd.randint(0, 40)


@pytest.mark.parametrize("seed", range(12))
def test_reserve_changes_no_output_and_no_counter(seed):
    # a stream that reserves against one that never does: every draw and
    # every counter value must agree after every step.  Reservations are of
    # size 0, short, exact (the words the next draw takes) and long, made
    # mid-stream, twice in a row and after the window is used up.
    rnd = random.Random(seed)
    plain, ahead = RngStream(seed * 7919 + 1), RngStream(seed * 7919 + 1)
    for step in range(200):
        name, arg = _random_draw(rnd)
        before = plain.counter
        want = _draw(plain, name, arg)
        how = rnd.choice(["none", "zero", "short", "exact", "long", "twice"])
        if how == "exact":
            ahead.reserve(plain.counter - before)
        elif how != "none":
            count = {"zero": 0, "short": rnd.randint(1, 3), "long": rnd.randint(40, 300),
                     "twice": rnd.randint(0, 60)}[how]
            ahead.reserve(count)
            if how == "twice":
                ahead.reserve(rnd.randint(0, 60))
        assert ahead.counter == before, (step, how)
        assert _draw(ahead, name, arg) == want, (step, name, how)
        assert ahead.counter == plain.counter, (step, name, how)


def test_window_arrays_own_their_memory():
    # an array read from the window is a copy, not a view that pins the block
    r = RngStream(4)
    r.reserve(10)
    assert r.u64_array(5).flags.owndata


def test_permutation_matches_word_by_word_loop():
    for seed in range(20):
        for n in (0, 1, 2, 3, 5, 17, 31, 64, 200):
            r = RngStream(seed)
            assert r.permutation(n) == _fisher_yates(ref := RngStream(seed), n)
            assert r.counter == ref.counter


def test_permutation_mixes_more_words_mid_loop(monkeypatch):
    blocks = []
    words = rng_module._words

    def counting(key, start, count):
        blocks.append((start, count))
        return words(key, start, count)

    monkeypatch.setattr(rng_module, "_words", counting)
    r, ref = RngStream(11), RngStream(11)
    r.u64()
    ref.u64()
    r.reserve(3)  # runs out three steps into the loop
    assert r.permutation(31) == _fisher_yates(ref, 31)
    assert r.counter == ref.counter
    assert blocks[0] == (1, 3) and len(blocks) >= 2
    # each further block starts where the last one ended
    for (s0, c0), (s1, _) in zip(blocks, blocks[1:]):
        assert s1 == s0 + c0
    assert r.u64() == ref.u64()


def _next_draws(r):
    # raw words, then rejection-sampled integers and a permutation, then an
    # array draw: with a short window these run past it
    return ([r.u64() for _ in range(3)], r.integer(7), r.integer(2**40 + 3),
            r.permutation(9), r.bits53_array(12).tolist(), r.counter)


@pytest.mark.parametrize("first", [0, 7, 2**32])
@pytest.mark.parametrize("window", ["none", "short", "exact", "long"])
@pytest.mark.parametrize("count", [1, 37])
def test_split_block_equals_split(first, window, count):
    # "exact" is the number of words the draws take on the block's first
    # stream; the later streams of a block then see a short or a long window
    root = RngStream(2024)
    taken = _next_draws(root.split(first))[-1]
    words = {"none": 0, "short": 5, "exact": taken, "long": 200}[window]
    streams = list(root.split_block(first, count, words))
    assert len(streams) == count
    for i, s in enumerate(streams):
        ref = root.split(first + i)
        assert (s.seed, s.counter) == (ref.seed, ref.counter)
        assert _next_draws(s) == _next_draws(ref)
    assert root.counter == 0


@pytest.mark.parametrize("first", [2**64 - 3, 2**64 - 1, 2**64 + 5, -4])
def test_split_block_wraps_ids_like_split(first):
    # ids whose +1 reaches 2**64 (or is negative) wrap as split's mask does
    root = RngStream(77)
    for i, s in enumerate(root.split_block(first, 6, 4)):
        ref = root.split(first + i)
        assert s.seed == ref.seed
        assert [s.u64() for _ in range(6)] == [ref.u64() for _ in range(6)]


def test_split_block_refuses_negative_sizes():
    with pytest.raises(ValueError):
        RngStream(0).split_block(0, -1, 3)
    with pytest.raises(ValueError):
        RngStream(0).split_block(0, 3, -1)

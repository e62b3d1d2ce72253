"""The library's PCG64 draws against numpy.random, which stays their reference."""

import numpy as np
import pytest

from smoothncp import generate_starts, problem_from_selector
from smoothncp._draws import _BLOCK, Stream, first_uniforms, seed_words

SEEDS = [0, 1, 3, 2**32 + 5, 2**70 + 3]

# consecutive calls on one stream: size 1, shapes, one block, a size that is
# not a multiple of the block, and a call that spans several blocks
CALLS = [
    (-5.0, 5.0, 1),
    (-5.0, 5.0, (7, 7)),
    (0.0, 0.3, _BLOCK),
    (-500.0, 500.0, _BLOCK + 37),
    (-1.0, 1.0, (3, 2 * _BLOCK + 1)),
    (0.0, 20.0, 5),
]


def assert_same_bits(ours, theirs):
    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_matches_default_rng(seed):
    ours, theirs = Stream(seed), np.random.default_rng(seed)
    for low, high, size in CALLS:
        assert_same_bits(ours.uniform(low, high, size), theirs.uniform(low, high, size))


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_takes_protocol_entropy(seed):
    for entropy in ([seed, 0, 0], [seed, 3, 17], [seed, 2**32 + 1, 9]):
        ours, theirs = Stream(entropy), np.random.default_rng(entropy)
        for low, high, size in CALLS[:3]:
            assert_same_bits(ours.uniform(low, high, size), theirs.uniform(low, high, size))


@pytest.mark.parametrize("seed", SEEDS)
def test_first_uniforms_match_default_rng(seed):
    i = np.repeat(np.arange(1, 6, dtype=np.uint32), 7)
    j = np.tile(np.arange(7, dtype=np.uint32), 5)
    entropy = [np.full(i.shape, word, dtype=np.uint32) for word in seed_words(seed)] + [i, j]
    theirs = np.array([np.random.default_rng([seed, int(a), int(b)]).uniform(-1.5, 20.0)
                       for a, b in zip(i, j)])
    assert_same_bits(first_uniforms(entropy, -1.5, 20.0), theirs)


def test_seed_words():
    assert seed_words(0) == [0]
    assert seed_words(2**32 + 5) == [5, 1]
    assert seed_words(2**70 + 3) == [3, 0, 64]


@pytest.mark.parametrize("seed", [-1, [3, -1]])
def test_negative_seeds_raise(seed):
    # numpy.random raises for these too; nothing below the check would
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        Stream(seed)


# --- the seeded families and the protocol starts ----------------------------------


def hp_hard_reference(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-5.0, 5.0, (n, n))
    upper = np.triu(rng.uniform(-5.0, 5.0, (n, n)), 1)
    d = rng.uniform(0.0, 0.3, n)
    q = rng.uniform(-500.0, 500.0, n)
    return a.T @ a + (upper - upper.T) + np.diag(d), q


def linear_spd_reference(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (n, n))
    q = rng.uniform(-2.0, 2.0, n)
    return a.T @ a + np.eye(n), q


@pytest.mark.parametrize("selector", ["hphard:1", "hphard:5", "hphard:20", "hphard:37",
                                      "hphard:20:3", "hphard:5:4294967301"])
def test_hp_hard_data_match_numpy_random(selector):
    _, n, *seed = selector.split(":")
    m, q = hp_hard_reference(int(n), int(seed[0]) if seed else 0)
    problem = problem_from_selector(selector)
    assert_same_bits(problem.meta["M"], m)
    assert_same_bits(problem.meta["q"], q)


@pytest.mark.parametrize("selector", ["linspd:1", "linspd:8", "linspd:12", "linspd:13",
                                      "linspd:8:7"])
def test_linear_spd_data_match_numpy_random(selector):
    _, n, *seed = selector.split(":")
    m, q = linear_spd_reference(int(n), int(seed[0]) if seed else 0)
    problem = problem_from_selector(selector)
    assert_same_bits(problem.meta["M"], m)
    assert_same_bits(problem.meta["q"], q)


@pytest.mark.parametrize("n, count, seed", [
    (1, 1, 0), (2, 11, 1), (4, 30, 4047793131), (20, 11, 1), (3, 4, 2**32 + 5), (2, 3, 2**70 + 3),
])
def test_generate_starts_match_per_entry_generators(n, count, seed):
    theirs = [np.ones(n)] + [
        np.array([np.random.default_rng([seed, i, j]).uniform(0.0, 20.0) for j in range(n)])
        for i in range(1, count)
    ]
    ours = generate_starts(n, count, seed)
    assert len(ours) == count
    for x, y in zip(ours, theirs):
        assert_same_bits(x, y)

"""Generator correctness: seeding, known answers, draw helpers."""

import hashlib

import numpy as np
import pytest

from delius import rng as rng_module
from delius.autoencoder import AutoencoderSpec, build
from delius.rng import Rng, splitmix64
from oracles import normal_whole_block

# First outputs of splitmix64 from state 0, computed step by step from the
# published mixing constants and frozen here.
SPLITMIX_FROM_ZERO = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
)


def test_splitmix64_known_answers():
    state = 0
    for expected in SPLITMIX_FROM_ZERO:
        state, out = splitmix64(state)
        assert out == expected


def test_splitmix64_wraps_at_64_bits():
    state, out = splitmix64((1 << 64) - 1)
    assert 0 <= state < (1 << 64)
    assert 0 <= out < (1 << 64)


def test_first_word_from_known_state():
    # With state words (1, 2, 3, 4) the first output is
    # rotl(1 + 4, 23) + 1 = (5 << 23) + 1, worked out by hand.
    r = Rng(0)
    r._s = [1, 2, 3, 4]
    assert r.next_u64() == (5 << 23) + 1


def test_seeding_uses_splitmix_stream():
    r = Rng(0)
    assert r._s == list(SPLITMIX_FROM_ZERO) + [r._s[3]]
    state = 0
    for _ in range(4):
        state, out = splitmix64(state)
    assert r._s[3] == out


def test_same_seed_same_stream():
    a, b = Rng(1234), Rng(1234)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]


def test_different_seeds_diverge():
    a, b = Rng(1), Rng(2)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_block_matches_single_draws():
    a, b = Rng(99), Rng(99)
    assert a._u64_block(37).tolist() == [b.next_u64() for _ in range(37)]


def test_uniform_range_and_determinism():
    r, again = Rng(5), Rng(5)
    values = np.array([r.uniform() for _ in range(10000)])
    assert values.min() >= 0.0
    assert values.max() < 1.0
    assert abs(values.mean() - 0.5) < 0.02
    assert values.tolist() == [again.uniform() for _ in range(10000)]


def test_normal_moments():
    draws = Rng(17).normal(100000)
    assert abs(float(draws.mean())) < 0.02
    assert abs(float(draws.std()) - 1.0) < 0.02


def test_normal_scale_and_shape():
    draws = Rng(3).normal((200, 50), mean=2.0, std=0.1)
    assert draws.shape == (200, 50)
    assert abs(float(draws.mean()) - 2.0) < 0.01
    assert abs(float(draws.std()) - 0.1) < 0.01


def test_normal_deterministic():
    assert np.array_equal(Rng(8).normal((5, 7)), Rng(8).normal((5, 7)))


def test_below_bounds():
    r = Rng(11)
    draws = [r.below(7) for _ in range(2000)]
    assert min(draws) == 0
    assert max(draws) == 6


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        Rng(0).below(0)


def test_permutation_is_permutation():
    perm = Rng(21).permutation(100)
    assert sorted(perm.tolist()) == list(range(100))
    assert np.array_equal(perm, Rng(21).permutation(100))


def test_weighted_index_respects_zero_weights():
    r = Rng(31)
    weights = np.array([0.0, 0.0, 1.0, 0.0])
    assert all(r.weighted_index(weights) == 2 for _ in range(50))


def test_weighted_index_distribution():
    r = Rng(41)
    weights = np.array([1.0, 3.0])
    draws = [r.weighted_index(weights) for _ in range(4000)]
    share = sum(draws) / len(draws)
    assert abs(share - 0.75) < 0.03


def test_weighted_index_rejects_zero_total():
    with pytest.raises(ValueError):
        Rng(0).weighted_index(np.zeros(3))


# Known answers of the word-by-word generator, frozen from it before large
# blocks were drawn by lanes: SHA-256 of each draw's bytes and the next
# raw word after it.  The normal draws also depend on numpy's log, sqrt,
# cos and sin.


def _sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def test_block_known_answer():
    r = Rng(2021)
    words = r._u64_block(1000003).astype("<u8")
    assert _sha256(words) == "f45b73269593f7f9e611e89c5654ca23647c82413f3edd40f70e2521a7279c9f"
    assert r.next_u64() == 0xE8AFAE76EE5E4C61


def test_normal_known_answer():
    r = Rng(2021)
    draws = r.normal((2000, 500), std=0.01)
    assert _sha256(draws) == "95b6b7bb16f67195451f3d63ef36614c7936d9ff2823861f0265a50a5ba03b03"
    assert r.next_u64() == 0xE39D641A32BC6A0B


def test_permutation_known_answer():
    r = Rng(2021)
    perm = r.permutation(6000).astype(np.int64)
    assert _sha256(perm) == "d2076977239bdad3e784cdaa1c6361c65658b384ad3338af4242d74f2da06c08"
    assert r.next_u64() == 0x682B1D5E4A153AF2


# Lane path: every block must equal the words and final state of the
# one-word-at-a-time stream.


def _assert_block_is_stream(seed: int, n: int, block) -> None:
    a, b = Rng(seed), Rng(seed)
    assert block(a, n).tolist() == [b.next_u64() for _ in range(n)]
    assert a._s == b._s
    assert a.next_u64() == b.next_u64()


def _lane_path(r: Rng, n: int) -> np.ndarray:
    words, r._s = rng_module._lane_words(r._s, n)
    return words.T.reshape(-1)[:n]


SMALL_LANE = 1 << rng_module._lane_log_len(1)


@pytest.mark.parametrize(
    "n",
    [1, SMALL_LANE - 1, SMALL_LANE, SMALL_LANE + 1, 2 * SMALL_LANE + 1,
     3 * SMALL_LANE + 5, 5 * SMALL_LANE + 3],
)
def test_lane_path_matches_stream_at_lane_boundaries(n):
    assert rng_module._lane_log_len(n) == rng_module._lane_log_len(1)
    _assert_block_is_stream(77, n, _lane_path)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_block_matches_stream_at_crossover(offset):
    _assert_block_is_stream(78, rng_module._LANE_MIN_WORDS + offset, Rng._u64_block)


@pytest.mark.parametrize("n", [0, 1, 40000, 3 * 2**15 + 5])
def test_block_matches_stream(n):
    _assert_block_is_stream(79, n, Rng._u64_block)


@pytest.mark.parametrize("k", [0, 1, 4, 7, 10])
def test_jump_matrix_matches_scalar_steps(k):
    gen = np.random.default_rng(k)
    state = [int(w) for w in gen.integers(0, 2**64, size=4, dtype=np.uint64)]
    jumped = rng_module._apply(rng_module._jump_columns(k), np.array([state], dtype=np.uint64))
    _, stepped = rng_module._scalar_words(state, 1 << k)
    assert jumped[0].tolist() == stepped


# Batched bounded draws.


def test_below_each_matches_below():
    bounds = list(range(1, 5000)) + [7, 2**40 + 3]
    a, b = Rng(12), Rng(12)
    assert a.below_each(bounds) == [b.below(bound) for bound in bounds]
    assert a._s == b._s


def test_below_each_falls_back_exactly_on_rejection():
    # 2**64 % (2**63 + 1) = 2**63 - 1, so almost half of all words are
    # rejected and the batched draw must replay the scalar loop.
    bound = 2**63 + 1
    a, b = Rng(13), Rng(13)
    got = a.below_each([bound] * 50)
    assert got == [b.below(bound) for _ in range(50)]
    assert a._s == b._s
    one_word_each = Rng(13)
    one_word_each._u64_block(50)
    assert a._s != one_word_each._s  # some word was rejected


class _ListRng(Rng):
    """Serves the given words in order; its state is the read position."""

    def __init__(self, words):
        super().__init__(0)
        self.words = words
        self._s = [0]

    def next_u64(self):
        (pos,) = self._s
        self._s = [pos + 1]
        return self.words[pos]

    def _u64_block(self, n):
        (pos,) = self._s
        self._s = [pos + n]
        return np.array(self.words[pos : pos + n], dtype=np.uint64)


def test_below_each_rejects_exactly_from_the_limit():
    # 2**64 % 6 == 4: words below 2**64 - 4 are kept, the four above are not.
    limit = 2**64 - 4
    r = _ListRng([limit - 1, limit, 5])
    assert r.below_each([6, 6]) == [(limit - 1) % 6, 5]
    assert r._s == [3]
    r = _ListRng([limit - 1, 5])
    assert r.below_each([6, 6]) == [(limit - 1) % 6, 5]
    assert r._s == [2]


def test_below_each_rejects_nonpositive():
    with pytest.raises(ValueError):
        Rng(0).below_each([3, 0])


def test_below_each_empty():
    r = Rng(14)
    assert r.below_each([]) == []
    assert r._s == Rng(14)._s


@pytest.mark.parametrize("n", [0, 1, 2, 1000, 5001])
def test_permutation_matches_scalar_fisher_yates(n):
    ref = Rng(15)
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = ref.below(i + 1)
        order[i], order[j] = order[j], order[i]
    r = Rng(15)
    assert r.permutation(n).tolist() == order
    assert r._s == ref._s


# The chunked Box-Muller transform against a frozen copy of the whole-block
# one: the same bits and the same stream state after every count, across
# the word-loop/lane crossover and the chunk boundaries.

CHUNK = 2 * rng_module._CHUNK_PAIRS  # draws per chunk when 32 | lane length


@pytest.mark.parametrize(
    "count", [1, 2, 3, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3, 4095, 4096, 4097]
)
def test_normal_matches_whole_block_transform(count):
    a, b = Rng(81), Rng(81)
    got = a.normal(count, mean=0.25, std=3.0)
    want = normal_whole_block(b, count, mean=0.25, std=3.0)
    assert got.shape == (count,)
    assert got.tobytes() == want.tobytes()
    assert a._s == b._s
    assert a.next_u64() == b.next_u64()


def test_normal_chunks_split_where_the_tests_expect():
    # CHUNK words take lanes of 32 words and so exactly one chunk; one
    # more pair starts a second chunk of one lane.
    for words in (CHUNK, CHUNK + 2, 2 * CHUNK + 4):
        assert 1 << rng_module._lane_log_len(words) == 32


@pytest.mark.parametrize("shape", [(0,), (3, 0), (7, 5), (1, 4097)])
def test_normal_matches_whole_block_transform_for_shapes(shape):
    a, b = Rng(82), Rng(82)
    got = a.normal(shape, std=0.01)
    want = normal_whole_block(b, shape, std=0.01)
    assert got.shape == want.shape == shape
    assert got.tobytes() == want.tobytes()
    assert a._s == b._s


def _state_opening_with(first: int, x: int) -> list[int]:
    """A state whose first word is ``first``, with ``x`` choosing the second.

    With ``s0 = 0`` the first output is ``rotl(s3, 23)``; after one step
    ``s0 = s3 ^ s1``, which ``s1`` sets to ``x``.
    """
    mask = (1 << 64) - 1
    s3 = ((first >> 23) | (first << 41)) & mask
    return [0, s3 ^ x, 0, s3]


def test_normal_keeps_the_sign_of_a_zero_draw():
    # Top 53 bits set: u1 = 1, so log u1 = 0 and radius = sqrt(-0.0) = -0.0.
    first = ((1 << 53) - 1) << 11
    for k in range(1, 100):
        state = _state_opening_with(first, (k * 0x9E3779B97F4A7C15) % (1 << 64))
        words, _ = rng_module._scalar_words(state, 2)
        angle = 2.0 * np.pi * (words[1] >> 11) * 2.0 ** -53
        if np.cos(angle) < 0 < np.sin(angle):
            break
    else:
        pytest.fail("no second word with its angle in (pi/2, pi)")
    assert words[0] == first
    for count in (2, 5000):  # the word loop, then the lane path
        for mean in (0.0, -0.0, 1.5):
            a, b = Rng(0), Rng(0)
            a._s, b._s = list(state), list(state)
            got = a.normal(count, mean=mean, std=2.0)
            want = normal_whole_block(b, count, mean=mean, std=2.0)
            assert got.tobytes() == want.tobytes()
            assert a._s == b._s
    # -0.0 * cos is +0.0 and -0.0 * sin is -0.0; adding a mean of +0.0
    # turns that -0.0 into +0.0, as the whole-block transform does.
    r = Rng(0)
    r._s = list(state)
    draws = r.normal(2, mean=0.0, std=2.0)
    assert draws.tolist() == [0.0, 0.0]
    assert not np.signbit(draws).any()
    r._s = list(state)
    assert np.signbit(r.normal(2, mean=-0.0, std=2.0)).tolist() == [False, True]


# Known answers frozen from the whole-block transform: the autoencoder's
# initial weights and a small affine draw, each with the next word.


def test_build_known_answer():
    r = Rng(21)
    params = build(AutoencoderSpec(), 1024, r)
    digest = hashlib.sha256()
    for block in params.blocks():
        digest.update(np.ascontiguousarray(block).tobytes())
    assert digest.hexdigest() == "70054671c3eea44e1e7c024abe39ed3b90e0e166ea3206fa515233dd9804d1d5"
    assert r.next_u64() == 0x76D43A0B9472F603


def test_small_affine_normal_known_answer():
    r = Rng(5)
    draws = r.normal((3, 5), mean=2.0, std=0.5)
    assert _sha256(draws) == "acadc8e81e9a56bc2f7d0ee90dba46394c4afae75f975da533903e6177e54ba1"
    assert r.next_u64() == 0xBC49957F69CD7A00

"""Deterministic random number generation.

The stream is xoshiro256++ with its four state words seeded from
splitmix64, so a given seed produces the same sequence of 64-bit words
on every platform.  Every stochastic choice in the package (weight
initialisation, epoch shuffles, restart seeds, sampling, layout
initialisation) draws from one of these generators, which is what makes
whole pipeline runs reproducible from a single seed.

Large blocks of words come from many lanes of the same generator stepping
together as numpy ``uint64`` arrays.  The words are exactly the words of
the one stream, and the generator is left in exactly the state that
``n`` calls of ``next_u64`` leave, so the stream, every draw built on it
and every artifact are the same as with a word-by-word loop.  The
xoshiro256++ state update is linear over GF(2), so advancing a state by
``m`` steps is a product with the ``m``-th power of its 256x256 bit
transition matrix (Haramoto et al., "Efficient jump ahead
for F2-linear random number generators", INFORMS J. Computing 20(3),
2008).  Lane ``i`` of a block with lane length ``L`` (a power of two)
starts at word ``i*L``: its state is the caller's state advanced by
``i*L`` steps.  The powers ``2**k`` of the matrix are squared once per
process and kept as packed bits; the lane start states are built by
doubling, one matrix product over a block of lanes per power of two of
the lane count.

Blocks below ``_LANE_MIN_WORDS`` (4096) words use the scalar word loop,
which also serves ``next_u64``.  On one core of an AVX-512 Xeon, with
the matrices cached, the loop takes 0.6, 1.1 and 2.4 ms for 1k, 2k and
4k words and the lanes 0.4-0.6 ms for each; but the first lane call in
a process also squares the matrices, about 4 ms, which a process that
draws only a few small blocks never earns back.  The lane length is
about the cube root of the block size, which was fastest from 1k to 4M
words.

Normal draws never put their words in stream order as a whole block.
The Box-Muller transform runs over chunks of whole lanes, about
``_CHUNK_PAIRS`` pairs each: a chunk's words are shifted and transposed
to stream order in one pass, each step of the transform runs in place
over chunk-sized scratch arrays that stay in cache, and the draws are
written straight into the result.  The float operations, and their
order, are those of the whole-block form, so the bits are the same.
``np.cos`` and ``np.sin`` set the floor: 19 ns per draw on the same
core, 68 ms of the 3.56M draws that initialise the paper's autoencoder,
about half the time of a large draw.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 2.0 ** -53

# Blocks of at least this many words are drawn by the lane path.
_LANE_MIN_WORDS = 4096
# Pairs of words per Box-Muller chunk: its words, scratch and draws
# (1 MiB) stay in a 2 MiB L2 cache.
_CHUNK_PAIRS = 1 << 14
# States per block of a jump product: its picked table entries take 256 KiB.
_APPLY_STATES = 256
# Offset of each byte's group in the flattened ``_apply`` table.
_GROUPS = np.arange(32, dtype=np.intp)[:, None]


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state by one step; returns (new_state, output)."""
    state = (state + _GOLDEN) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _scalar_words(state: list[int], n: int) -> tuple[list[int], list[int]]:
    """The next ``n`` xoshiro256++ words from ``state``, and the state after them."""
    s0, s1, s2, s3 = state
    mask = _MASK
    out = [0] * n
    for i in range(n):
        x = (s0 + s3) & mask
        out[i] = ((((x << 23) & mask) | (x >> 41)) + s0) & mask
        t = (s1 << 17) & mask
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) & mask) | (s3 >> 19)
    return out, [s0, s1, s2, s3]


def _apply(columns: np.ndarray, states: np.ndarray) -> np.ndarray:
    """GF(2) product of a 256x256 bit matrix with each of ``states``.

    ``columns`` holds the matrix as 256 states, ``(256, 4)`` uint64: column
    ``c = 64*w + b`` is the image of the unit state with only bit ``b`` of
    word ``w`` set.  ``states`` is ``(m, 4)`` uint64; each image is the
    XOR of the columns of its set bits.  The XORs of every subset of each
    group of eight columns are tabulated first, so each state takes one
    table entry per byte (the "four Russians" method), and the states go
    through in blocks of ``_APPLY_STATES`` so that the picked entries stay
    in cache.  The table (256 KiB) is built anew in each call: one kept
    per jump power would stay resident for the life of the process.
    """
    table = np.empty((256, 32, 4), dtype=np.uint64)  # [subset, group, word]
    table[0] = 0
    # [bit, group, word], contiguous so that each XOR runs over whole rows.
    bits = np.ascontiguousarray(columns.reshape(32, 8, 4).transpose(1, 0, 2))
    for b in range(8):
        np.bitwise_xor(table[: 1 << b], bits[b], out=table[1 << b : 2 << b])
    table = table.reshape(-1, 4)
    images = np.empty((len(states), 4), dtype=np.uint64)
    for first in range(0, len(states), _APPLY_STATES):
        block = states[first : first + _APPLY_STATES]
        # Byte g of a little-endian state holds bits 8g..8g+7: group g.
        subsets = np.ascontiguousarray(block, dtype="<u8").view(np.uint8).T
        picked = np.take(table, subsets.astype(np.intp) * 32 + _GROUPS, axis=0)
        np.bitwise_xor.reduce(picked, axis=0, out=images[first : first + _APPLY_STATES])
    return images


@functools.cache
def _jump_columns(k: int) -> np.ndarray:
    """Read-only columns (see ``_apply``) of the matrix that advances a state ``2**k`` steps.

    The one-step columns are the unit states stepped once; each higher
    power is the square of the one below.
    """
    if k == 0:
        stepped = []
        for c in range(256):
            unit = [0, 0, 0, 0]
            unit[c // 64] = 1 << (c % 64)
            stepped.append(_scalar_words(unit, 1)[1])
        columns = np.array(stepped, dtype=np.uint64)
    else:
        half = _jump_columns(k - 1)
        columns = _apply(half, half)
    columns.setflags(write=False)
    return columns


def _lane_starts(state: list[int], log_len: int, lanes: int) -> np.ndarray:
    """States at words ``0, L, 2L, ...`` for ``lanes`` lanes of length ``L = 2**log_len``.

    Returns a ``(lanes, 4)`` uint64 array.  The lane count doubles each
    round: lanes ``h..2h-1`` are lanes ``0..h-1`` advanced by ``h*L`` steps.
    """
    starts = np.empty((lanes, 4), dtype=np.uint64)
    starts[0] = state
    have, k = 1, log_len
    while have < lanes:
        take = min(have, lanes - have)
        starts[have : have + take] = _apply(_jump_columns(k), starts[:take])
        have += take
        k += 1
    return starts


def _lane_log_len(n: int) -> int:
    """log2 of the lane length for an ``n``-word block: the cube root of ``n``, at least 16."""
    return max(4, round(math.log2(n) / 3))


def _lane_words(state: list[int], n: int) -> tuple[np.ndarray, list[int]]:
    """The next ``n`` words in lane layout, and the state after them, from lanes stepped together.

    The words are a ``(L, lanes)`` uint64 array: word ``i*L + j`` of the
    stream is at ``[j, i]``.  The last lane runs past the ``n``-th word to
    the end of its ``L`` steps.
    """
    log_len = _lane_log_len(n)
    lane_len = 1 << log_len
    lanes = -(-n // lane_len)
    s0, s1, s2, s3 = np.ascontiguousarray(_lane_starts(state, log_len, lanes).T)
    # The last lane is the stream's end: it takes ``last`` of its steps.
    last = n - (lanes - 1) * lane_len
    out = np.empty((lane_len, lanes), dtype=np.uint64)
    x = np.empty(lanes, dtype=np.uint64)
    t = np.empty(lanes, dtype=np.uint64)
    sh23, sh41, sh17, sh45, sh19 = (np.uint64(v) for v in (23, 41, 17, 45, 19))
    final = None
    for j in range(lane_len):
        np.add(s0, s3, out=x)
        np.left_shift(x, sh23, out=t)
        np.right_shift(x, sh41, out=x)
        np.bitwise_or(t, x, out=t)
        np.add(t, s0, out=out[j])
        np.left_shift(s1, sh17, out=t)
        np.bitwise_xor(s2, s0, out=s2)
        np.bitwise_xor(s3, s1, out=s3)
        np.bitwise_xor(s1, s2, out=s1)
        np.bitwise_xor(s0, s3, out=s0)
        np.bitwise_xor(s2, t, out=s2)
        np.left_shift(s3, sh45, out=t)
        np.right_shift(s3, sh19, out=s3)
        np.bitwise_or(s3, t, out=s3)
        if j == last - 1:
            final = [int(s0[-1]), int(s1[-1]), int(s2[-1]), int(s3[-1])]
    return out, final


def _box_muller(words: np.ndarray, out: np.ndarray, mean: float, std: float,
                scratch: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
    """Write ``mean + std * z`` for the Box-Muller draws ``z`` of a run of whole lanes.

    ``words`` is ``(L, B)`` uint64 in lane layout (see ``_lane_words``)
    with ``L`` even, and ``out`` takes the first ``out.size`` draws of its
    ``L*B``, in stream order: words ``2m`` and ``2m + 1`` give draws ``2m``
    (cosine) and ``2m + 1`` (sine).  ``scratch`` is a uint64 array of at
    least ``L*B`` and two float64 arrays of at least ``L*B/2`` elements.
    The float operations and their order are those of the textbook form:
    ``u1 = (w0 + 1) * 2**-53`` lies in (0, 1] so the logarithm is always
    defined, ``radius = sqrt(-2 log u1)`` and ``angle = 2 pi * w1 * 2**-53``.
    """
    length, lanes = words.shape
    size = length * lanes // 2
    bits, radius, angle = scratch
    # The words in stream order, shifted below 2**53 so each converts to
    # float64 exactly.
    bits = np.right_shift(words.T, np.uint64(11), out=bits[: 2 * size].reshape(lanes, length))
    radius, angle = radius[:size], angle[:size]
    np.add(bits[:, 0::2], 1.0, out=radius.reshape(lanes, -1))
    radius *= _INV_2_53
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    np.multiply(bits[:, 1::2], _INV_2_53, out=angle.reshape(lanes, -1))
    angle *= 2.0 * math.pi
    trig = bits.reshape(-1).view(np.float64)[:size]
    for half, wave in ((out[0::2], np.cos), (out[1::2], np.sin)):
        wave(angle, out=trig)
        trig *= radius
        trig *= std
        np.add(trig[: half.size], mean, out=half)


class Rng:
    """xoshiro256++ generator with the draw helpers used across the package."""

    def __init__(self, seed: int):
        sm = int(seed) & _MASK
        state = []
        for _ in range(4):
            sm, word = splitmix64(sm)
            state.append(word)
        self._s = state

    def next_u64(self) -> int:
        """Next raw 64-bit word of the stream."""
        words, self._s = _scalar_words(self._s, 1)
        return words[0]

    def _lane_block(self, n: int) -> np.ndarray:
        """The next ``n`` words of the stream in the lane layout of ``_lane_words``.

        Blocks below ``_LANE_MIN_WORDS`` come from the word loop as one lane.
        """
        if n < _LANE_MIN_WORDS:
            words, self._s = _scalar_words(self._s, n)
            return np.array(words, dtype=np.uint64)[:, None]
        words, self._s = _lane_words(self._s, n)
        return words

    def _u64_block(self, n: int) -> np.ndarray:
        """The next ``n`` words of the stream as a uint64 array."""
        return self._lane_block(n).T.reshape(-1)[:n]

    def uniform(self) -> float:
        """One float in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * _INV_2_53

    def normal(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """Gaussian draws via the Box-Muller transform, ``mean + std * z``.

        Pair ``m`` of the stream's words gives draws ``2m`` (the cosine
        branch) and ``2m + 1`` (the sine branch); an odd count drops the
        last sine.  The transform runs over chunks of about
        ``_CHUNK_PAIRS`` pairs (whole lanes of ``_lane_words``) and writes
        each chunk's draws straight into the result, which holds exactly
        the ``count`` draws.  Its bits are those of the transform over the
        whole block.  Of a 1M-draw call (40 ms on one core of an AVX-512
        Xeon) the cosines and sines take half, 19 ns per draw, and the
        words under a third.
        """
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        count = 1
        for dim in shape:
            count *= dim
        draws = np.empty(count, dtype=np.float64)
        if count == 0:
            return draws.reshape(shape)
        words = self._lane_block(count + count % 2)
        lane_len, lanes = words.shape
        step = max(1, 2 * _CHUNK_PAIRS // lane_len)
        size = min(step, lanes) * lane_len
        scratch = (np.empty(size, dtype=np.uint64), np.empty(size // 2), np.empty(size // 2))
        for first in range(0, lanes, step):
            stop = min(first + step, lanes)
            out = draws[first * lane_len : stop * lane_len]
            _box_muller(words[:, first:stop], out, mean, std, scratch)
        return draws.reshape(shape)

    def below(self, bound: int) -> int:
        """Unbiased integer in [0, bound) via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def below_each(self, bounds) -> list[int]:
        """``[self.below(b) for b in bounds]``: same results, same final state.

        Draws one word per bound as a block and reduces them all at once.
        If any word would have been rejected, the state is restored and
        the draws are repeated one by one, so the result is exact.
        """
        bounds = np.asarray(bounds)
        if bounds.size and bounds.min() <= 0:
            raise ValueError("bound must be positive")
        bounds = bounds.astype(np.uint64)
        saved = list(self._s)
        words = self._u64_block(bounds.size)
        # Word x is kept iff x < 2**64 - (2**64 % b), i.e. x <= MAX - (2**64 % b).
        top = np.uint64(_MASK)
        excess = (top % bounds + np.uint64(1)) % bounds
        if np.all(words <= top - excess):
            return (words % bounds).tolist()
        self._s = saved
        return [self.below(b) for b in bounds.tolist()]

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        order = list(range(n))
        picks = self.below_each(np.arange(n, 1, -1, dtype=np.uint64))
        for i, j in zip(range(n - 1, 0, -1), picks):
            order[i], order[j] = order[j], order[i]
        return np.array(order, dtype=np.int64)

    def weighted_index(self, weights: np.ndarray) -> int:
        """Index drawn with probability proportional to the given weights."""
        weights = np.asarray(weights, dtype=np.float64)
        total = float(weights.sum())
        if not total > 0.0 or not np.isfinite(total):
            raise ValueError("weights must have a positive finite sum")
        target = self.uniform() * total
        cumulative = np.cumsum(weights)
        idx = int(np.searchsorted(cumulative, target, side="right"))
        return min(idx, len(weights) - 1)

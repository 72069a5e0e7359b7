"""Deterministic, splittable random stream.

Counter-based SplitMix64: output i is a pure function of (key, i), so the
stream is reproducible across runs and platforms and substreams can be
derived without sharing state.  The exact output sequence is part of this
package's contract and is pinned by tests; do not change the mixing
constants or the draw algorithms.

Because word i depends on (key, i) alone, words can be mixed ahead of the
counter in one numpy block (``reserve``) and read back in order: every
draw reads the lookahead window while it covers the counter and mixes as
usual past it.  A reservation changes no output and no counter value; a
short or unused one only costs speed.  ``split_block`` does the same for a
run of substreams: it derives their keys and mixes their first words as one
``(count, words)`` block, so a replication study splits and mixes many
replications at once and still draws exactly the words ``split`` would.

Reference for the mixer: Steele, Lea, Flood, "Fast splittable pseudorandom
number generators", OOPSLA 2014.  Block mixing of a counter-based stream:
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011.
"""

import operator

import numpy as np

__all__ = ["RngStream", "FRAC_BITS"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # increment between successive counter states
_SPLIT = 0xD1B54A32D192ED03   # increment used when deriving substream keys
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_GOLDEN_U64 = np.uint64(_GOLDEN)
_SPLIT_U64 = np.uint64(_SPLIT)
_MUL1_U64 = np.uint64(_MUL1)
_MUL2_U64 = np.uint64(_MUL2)

# Uniform offsets are 53-bit fractions; 53 = float64 mantissa width.
FRAC_BITS = 53
_EMPTY = np.empty(0, dtype=np.uint64)


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """_mix64 on every entry of a uint64 array, in place."""
    z ^= z >> 30
    z *= _MUL1_U64
    z ^= z >> 27
    z *= _MUL2_U64
    z ^= z >> 31
    return z


def _words(key: int, start: int, count: int) -> np.ndarray:
    """Words start+1, ..., start+count of the stream keyed by key."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _GOLDEN_U64
    z += np.uint64(key)
    return _mix_array(z)


def _count(count) -> int:
    count = operator.index(count)
    if count < 0:
        raise ValueError("count must be non-negative")
    return count


class RngStream:
    """Splittable deterministic stream of 64-bit words.

    Equal seeds give equal sequences.  ``split(k)`` derives an independent
    substream keyed by (seed, k); children never share counter state with
    the parent, so parallel consumers each own their stream.

    The lookahead window holds words ``_lo + 1 .. _lo + len(_block)``, as an
    array (``_block``) and as a memoryview of it (``_ahead``), which scalar
    reads index as ints without copying the window.
    """

    __slots__ = ("_key", "_counter", "_lo", "_block", "_ahead")

    def __init__(self, seed: int):
        self._key = seed & _MASK64
        self._counter = 0
        self._lo = 0
        self._block = _EMPTY
        self._ahead = []

    @property
    def seed(self) -> int:
        """The key; feeding it back to RngStream reproduces this stream."""
        return self._key

    @property
    def counter(self) -> int:
        return self._counter

    def split(self, stream_id: int) -> "RngStream":
        return RngStream(_mix64(self._key + ((stream_id + 1) & _MASK64) * _SPLIT))

    def split_block(self, first: int, count: int, words: int):
        """Iterate over split(first), ..., split(first + count - 1), each
        with its first words words already mixed as its lookahead window.

        The keys come from one vectorised SplitMix step (uint64 arithmetic
        wraps exactly like split's mask) and the windows are mixed as one
        (count, words) block, each stream reading its row in place.  Every
        stream equals split(first + i) in seed, counter and every draw,
        within the window and past it.
        """
        count, words = _count(count), _count(words)
        ids = np.arange(count, dtype=np.uint64)
        ids += np.uint64((operator.index(first) + 1) & _MASK64)
        ids *= _SPLIT_U64
        ids += np.uint64(self._key)
        keys = _mix_array(ids)
        block = np.arange(1, words + 1, dtype=np.uint64) * _GOLDEN_U64 + keys[:, None]
        _mix_array(block)
        return (_windowed(key, row) for key, row in zip(keys.tolist(), block))

    def reserve(self, count: int) -> None:
        """Mix the next count words ahead in one block; the counter stays.

        Draws then read these words in order.  No output changes: a
        reservation only decides where words are mixed, not which.  A
        window that already covers the next count words is kept.
        """
        count = _count(count)
        if self._counter - self._lo + count > len(self._ahead):
            self._mix_ahead(count)

    def _mix_ahead(self, count: int) -> None:
        self._lo = self._counter
        self._block = _words(self._key, self._counter, count)
        self._ahead = memoryview(self._block)

    # -- raw words ---------------------------------------------------------

    def u64(self) -> int:
        i = self._counter - self._lo
        self._counter += 1
        if i < len(self._ahead):
            return self._ahead[i]
        return _mix64(self._key + self._counter * _GOLDEN)

    def u64_array(self, count: int) -> np.ndarray:
        count = _count(count)
        i = self._counter - self._lo
        start = self._counter
        self._counter += count
        if i + count <= len(self._ahead):
            return self._block[i:i + count].copy()
        return _words(self._key, start, count)

    # -- derived draws -----------------------------------------------------

    def bits53(self) -> int:
        return self.u64() >> 11

    def bits53_array(self, count: int) -> np.ndarray:
        return self.u64_array(count) >> np.uint64(64 - FRAC_BITS)

    def uniform01(self, count: int) -> np.ndarray:
        """count iid uniforms on [0,1) as floats (53-bit resolution)."""
        return self.bits53_array(count).astype(np.float64) * (2.0 ** -FRAC_BITS)

    def integer(self, bound: int) -> int:
        """Unbiased uniform integer in [0, bound) via top-bits rejection.

        bound is any integer in [1, 2**64]; integer(2**64) is a raw word.
        """
        bound = operator.index(bound)
        if bound < 1:
            raise ValueError("bound must be positive")
        if bound > 1 << 64:
            raise ValueError("bound must be at most 2**64")
        if bound == 1:
            return 0
        shift = 64 - (bound - 1).bit_length()
        while True:
            r = self.u64() >> shift
            if r < bound:
                return r

    def permutation(self, n: int) -> list:
        """Uniform permutation of range(n) by Fisher-Yates (downward).

        Step j draws integer(j + 1) from the window's words; when they run
        out, the next block is mixed at once rather than word by word.
        """
        a = list(range(n))
        words = self._ahead
        end = len(words)
        pos = self._counter - self._lo
        for j in range(n - 1, 0, -1):
            shift = 64 - j.bit_length()
            while True:
                if pos >= end:
                    self._counter = self._lo + pos
                    self._mix_ahead(2 * j)
                    words, pos = self._ahead, 0
                    end = len(words)
                k = words[pos] >> shift
                pos += 1
                if k <= j:
                    break
            a[j], a[k] = a[k], a[j]
        self._counter = self._lo + pos
        return a


def _windowed(key: int, window: np.ndarray) -> RngStream:
    # a fresh stream whose lookahead window is words 1 .. len(window)
    stream = RngStream(key)
    stream._block = window
    stream._ahead = memoryview(window)
    return stream

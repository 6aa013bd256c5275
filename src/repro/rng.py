"""Seeded random-number plumbing.

All stochastic components in the library draw their randomness from a
generator passed in explicitly, so that campaigns, missions and tests are
reproducible bit-for-bit under a fixed seed.  This module centralises
construction and forking of generators.

A campaign gives every trial its own child of the campaign seed.  For an
integer (or ``None``) seed, :func:`trial_streams` builds those children
as :class:`TrialStream` objects: an exact replica of the numpy
``Generator`` that ``make_rng(seed).spawn(n)[k]`` would be, for the one
method a trial's fault draw uses, ``integers``.  Building a stream costs
a few integer operations where building a Generator costs a SeedSequence,
a bit generator and a Generator object.  A Generator seed keeps numpy's
own :func:`fork`, because spawning from it advances its SeedSequence and
its bit generator may be anything.
"""

from __future__ import annotations

import operator

import numpy as np

DEFAULT_SEED = 0x5EED

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def make_rng(
    seed: int | np.random.Generator | TrialStream | None = None,
) -> np.random.Generator | TrialStream:
    """Return a ``numpy`` Generator, or the given trial stream.

    Accepts ``None`` (the fixed :data:`DEFAULT_SEED`), an integer seed, or
    an existing generator or :class:`TrialStream` (returned unchanged), so
    components can uniformly take a ``seed`` argument of any of those
    kinds.  A stream answers only ``integers``; callers that draw anything
    else never receive one.
    """
    if isinstance(seed, (np.random.Generator, TrialStream)):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def fork(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``n`` independent child generators.

    Uses the ``spawn`` API so children are statistically independent of the
    parent and of each other.
    """
    if n < 0:
        raise ValueError(f"cannot fork a negative number of generators: {n}")
    return list(rng.spawn(n))


def trial_rngs(
    seed: int | np.random.Generator | None, n: int
) -> list[TrialStream] | list[np.random.Generator]:
    """One child per trial: :func:`trial_streams` for an integer or ``None``
    seed, numpy's :func:`fork` for a Generator."""
    if isinstance(seed, np.random.Generator):
        return fork(seed, n)
    return trial_streams(seed, n)


class TrialStream:
    """The ``integers`` draws of one numpy PCG64 ``Generator``, exactly.

    Holds PCG64's 128-bit state and increment and its buffered upper half
    of a 64-bit output (``has_uint32`` / ``uinteger`` in numpy's state).
    :meth:`integers` takes PCG64's XSL-RR outputs through numpy's Lemire
    bounded draw, so it returns what ``Generator.integers(high)`` returns
    and leaves the state where numpy leaves it.  :meth:`generator` hands
    the position on to a real Generator for any other distribution.
    """

    __slots__ = ("state", "inc", "has_uint32", "uinteger")

    def __init__(
        self, state: int, inc: int, has_uint32: bool = False, uinteger: int = 0
    ) -> None:
        self.state = state
        self.inc = inc
        self.has_uint32 = has_uint32
        self.uinteger = uinteger

    def __reduce__(self):
        return TrialStream, (
            self.state, self.inc, self.has_uint32, self.uinteger
        )

    def _next64(self) -> int:
        state = self.state = (self.state * _PCG_MULT + self.inc) & _M128
        xored = (state >> 64 ^ state) & _M64
        rot = state >> 122
        return (xored >> rot | xored << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self.has_uint32:
            self.has_uint32 = False
            return self.uinteger
        value = self._next64()
        self.has_uint32 = True
        self.uinteger = value >> 32
        return value & _M32

    def integers(self, high: int) -> int:
        """A uniform int in ``[0, high)``, as ``Generator.integers(high)``.

        ``high`` 1 draws nothing; up to 2**32 it takes buffered 32-bit
        outputs, above it whole 64-bit ones.  ``high`` outside
        ``[1, 2**63]`` raises ``ValueError`` as numpy does.
        """
        high = operator.index(high)
        if high <= 1:
            if high == 1:
                return 0
            raise ValueError("high <= 0")
        if high < 1 << 32:
            drawn = self._next32() * high
            if drawn & _M32 < high:
                threshold = ((1 << 32) - high) % high
                while drawn & _M32 < threshold:
                    drawn = self._next32() * high
            return drawn >> 32
        if high == 1 << 32:
            return self._next32()
        if high > 1 << 63:
            raise ValueError("high is out of bounds for int64")
        drawn = self._next64() * high
        if drawn & _M64 < high:
            threshold = ((1 << 64) - high) % high
            while drawn & _M64 < threshold:
                drawn = self._next64() * high
        return drawn >> 64

    def generator(self) -> np.random.Generator:
        """A numpy Generator that continues from this stream's position."""
        bit_generator = np.random.PCG64(0)
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": self.state, "inc": self.inc},
            "has_uint32": int(self.has_uint32),
            "uinteger": self.uinteger,
        }
        return np.random.Generator(bit_generator)


def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    """SeedSequence's ``hashmix``: the mixed word and the next constant."""
    value ^= hash_const
    hash_const = hash_const * _MULT_A & _M32
    value = value * hash_const & _M32
    return value ^ value >> 16, hash_const


def _mix(x: int, y: int) -> int:
    result = (_MIX_L * x - _MIX_R * y) & _M32
    return result ^ result >> 16


def _constants(init: int, mult: int, count: int) -> np.ndarray:
    """``count`` (xor, multiply) constant pairs of a hash chain, as a
    ``(2, count, 1)`` uint32 array that broadcasts over children."""
    pairs = []
    for _ in range(count):
        following = init * mult & _M32
        pairs.append(((init,), (following,)))
        init = following
    return np.array(pairs, dtype=np.uint32).transpose(1, 0, 2)


#: ``generate_state``'s constants for PCG64's eight 32-bit seed words.
_STATE_CONSTANTS = _constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """The pool every child of ``SeedSequence(seed)`` shares, and the hash
    constant its spawn-key word is mixed in with.

    A child's entropy is the seed's 32-bit words, zero-padded to the pool
    size, then its spawn key.  The key comes last, so everything before it
    is the same for every child.
    """
    words = [
        seed >> bit & _M32 for bit in range(0, max(seed.bit_length(), 1), 32)
    ]
    words += [0] * (_POOL_SIZE - len(words))
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    return pool, hash_const


def _seeded(
    state_hi: int, state_lo: int, inc_hi: int, inc_lo: int
) -> TrialStream:
    """PCG64 seeded with four 64-bit words: two LCG steps around the add."""
    inc = (inc_hi << 65 | inc_lo << 1 | 1) & _M128
    state = (state_hi << 64 | state_lo) + inc
    return TrialStream((state * _PCG_MULT + inc) & _M128, inc)


def trial_streams(seed: int | None, n: int) -> list[TrialStream]:
    """Children ``0..n-1`` of ``SeedSequence(seed)`` as trial streams.

    Equal, draw for draw, to ``make_rng(seed).spawn(n)``: ``None`` is
    :data:`DEFAULT_SEED`, and any non-negative integer works.  The seed's
    words are hashed once; every child then mixes in its spawn-key word,
    generates PCG64's four seed words and takes PCG64's two seeding
    steps, all children at once in uint32 arrays.  A negative seed or
    ``n`` raises ``ValueError``.
    """
    seed = DEFAULT_SEED if seed is None else operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    if n < 0:
        raise ValueError(f"cannot fork a negative number of generators: {n}")
    pool, hash_const = _seed_pool(seed)
    key_xor, key_mult = _constants(hash_const, _MULT_A, _POOL_SIZE)
    keys = np.arange(n, dtype=np.uint32)
    value = (keys ^ key_xor) * key_mult
    value ^= value >> 16
    pool = np.array([[_MIX_L * word & _M32] for word in pool], np.uint32)
    mixed = pool - np.uint32(_MIX_R) * value
    mixed ^= mixed >> 16
    state_xor, state_mult = _STATE_CONSTANTS
    words = (np.concatenate((mixed, mixed)) ^ state_xor) * state_mult
    words ^= words >> 16
    words = words.astype(np.uint64)
    seed_words = (words[0::2] | words[1::2] << np.uint64(32)).tolist()
    return list(map(_seeded, *seed_words))

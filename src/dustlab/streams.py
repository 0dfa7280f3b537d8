"""numpy's ``default_rng`` streams, computed as array code without ``numpy.random``.

A stream is ``SeedSequence(entropy)`` feeding ``PCG64`` (XSL-RR 128/64, O'Neill
2014), as ``numpy.random.default_rng`` builds it; the outputs here equal numpy's
bit for bit.  ``SeedSequence`` hashes each row's entropy words into a 4-word
pool and draws two 128-bit words from it, the state and the increment.  PCG64
steps a 128-bit LCG, kept as ``(hi, lo)`` pairs of ``uint64`` arrays, and
outputs ``rotr(hi ^ lo, state >> 122)``.  numpy imports ``numpy.random`` lazily
and builds a generator in tens of microseconds; here one pass seeds every
stream of a batch.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

MASK32 = 0xFFFFFFFF
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
#: PCG's default 128-bit multiplier as a (hi, lo) column.
MULTIPLIER = np.array([[2549297995355413924], [4865540595714422341]], np.uint64)
#: Most steps ``Stream.random`` jumps at once, which bounds its jump table.
JUMP_BLOCK = 1 << 12


def check_seed(seed) -> None:
    """Refuse a seed that is not a non-negative integer; callers check before any other work."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")


def seed_words(seed: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative integer, ``[0]`` for 0, as numpy splits it."""
    check_seed(seed)
    seed, words = int(seed), []
    while True:
        words.append(seed & MASK32)
        seed >>= 32
        if not seed:
            return words


def _hasher(h: int, mult: int):
    """numpy's ``SeedSequence`` hash on ``uint32`` arrays, with its running constant from ``h``."""
    def hash_(value):
        nonlocal h
        value = (value ^ np.uint32(h)) * np.uint32(h * mult & MASK32)
        h = h * mult & MASK32
        return value ^ (value >> 16)
    return hash_


def _seeded(entropy: np.ndarray):
    """PCG64 ``(state, inc)`` of each row of ``uint32`` entropy words, as numpy seeds them.

    The ``SeedSequence`` pool is mixed and read as ``generate_state(4, uint64)``
    reads it; ``pcg_setseq_128_srandom_r`` then steps, adds the seed and steps.
    """
    def mix(x, y):
        value = x * np.uint32(MIX_MULT_L) - y * np.uint32(MIX_MULT_R)
        return value ^ (value >> 16)

    hashmix = _hasher(INIT_A, MULT_A)
    rows, count = entropy.shape
    pool = [hashmix(entropy[:, i] if i < count else np.zeros(rows, np.uint32)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, count):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    hash_out = _hasher(INIT_B, MULT_B)
    words = [hash_out(pool[i % 4]).astype(np.uint64) for i in range(8)]
    w = [lo | (hi << 32) for lo, hi in zip(words[0::2], words[1::2])]
    inc = ((w[2] << 1) | (w[3] >> 63), (w[3] << 1) | 1)
    state = _muladd(_add(inc, (w[0], w[1])), MULTIPLIER, inc)
    return state, inc


def _mulhi(a, b):
    """High 64 bits of the 128-bit products of two ``uint64`` arrays, on 32-bit limbs."""
    a0, a1, b0, b1 = a & MASK32, a >> 32, b & MASK32, b >> 32
    cross0, cross1 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (cross0 & MASK32) + (cross1 & MASK32)
    return a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32)


def _add(x, y):
    """``x + y`` mod 2**128 on ``(hi, lo)`` pairs."""
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < x[1]), lo


def _muladd(x, a, c):
    """``x * a + c`` mod 2**128 on ``(hi, lo)`` pairs; the cross terms wrap natively."""
    hi = _mulhi(x[1], a[1]) + x[1] * a[0] + x[0] * a[1]
    return _add((hi, x[1] * a[1]), c)


def _output(state) -> np.ndarray:
    """PCG64's XSL-RR output of each 128-bit state."""
    hi, lo = state
    rot, x = hi >> 58, hi ^ lo
    return (x >> rot) | (x << ((64 - rot) & 63))


def doubles(outputs: np.ndarray) -> np.ndarray:
    """numpy's ``next_double`` of raw outputs: the top 53 bits times 2**-53."""
    return (outputs >> 11) * (1.0 / 9007199254740992.0)


def first_outputs(entropy: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` raw ``uint64`` outputs of each row's stream, shape ``(count, rows)``."""
    state, inc = _seeded(entropy)
    out = []
    for _ in range(count):
        state = _muladd(state, MULTIPLIER, inc)
        out.append(_output(state))
    return np.stack(out)


class Stream:
    """The stream of ``numpy.random.default_rng(seed)``; ``random(n)`` continues it.

    States n steps ahead are ``A_j * s + C_j`` for j = 1..n, with ``(A_j, C_j)``
    tabulated by doubling: ``A_{j+k} = A_j A_k`` and ``C_{j+k} = A_j C_k + C_j``.
    So a draw of n doubles is array work, in blocks of ``JUMP_BLOCK`` steps.
    """

    def __init__(self, seed: int):
        self._state, inc = _seeded(np.array([seed_words(seed)], np.uint32))
        self._a, self._c = MULTIPLIER, np.array(inc)  # (hi, lo) rows, j = 1, 2, ...

    def random(self, n: int) -> np.ndarray:
        """The next ``n`` doubles in [0, 1), as ``Generator.random(n)`` draws them."""
        parts = [np.empty(0)]
        while n > 0:
            k = min(n, JUMP_BLOCK)
            while self._a.shape[1] < k:
                a, c = self._a, self._c
                self._a = np.concatenate((a, _muladd(a, a[:, -1:], (0, 0))), axis=1)
                self._c = np.concatenate((c, _muladd(a, c[:, -1:], c)), axis=1)
            hi, lo = _muladd(self._a[:, :k], self._state, self._c[:, :k])
            parts.append(doubles(_output((hi, lo))))
            self._state = (hi[-1:], lo[-1:])
            n -= k
        return np.concatenate(parts)

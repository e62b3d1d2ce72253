"""numpy's default_rng(seed).uniform, drawn without importing numpy.random.

SeedSequence's entropy mixing and the PCG64 generator that default_rng
builds (a 128-bit LCG with the XSL-RR output), written out on uint64
arrays, so the seeded problem families and the protocol starts cost no
numpy.random import.  numpy's NEP 19 keeps the bit streams stable; the
tests compare every draw with numpy.random itself.

Two directions are vectorized:
- over streams: `first_uniforms` takes the first draw of many seeds;
- over the draws of one stream: `Stream.uniform` jumps ahead from the
  state s at the start of a block, s_k = a^k s + c (a^k - 1) / (a - 1)
  mod 2**128, with the multipliers of one block computed once.
"""

from __future__ import annotations

import operator
from functools import cache

import numpy as np

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_BLOCK = 4096  # draws per jump-ahead block: bounds the temporaries, not the stream

# SeedSequence's hash constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)

_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 11, 32, 58, 63, 64))
_LOW32 = np.uint64(_M32)


def seed_words(seed: int) -> list:
    """The uint32 words SeedSequence makes of a nonnegative int, low word first."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    words = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _M32)
    return words


def _split(value: int) -> tuple:
    """A 128-bit int as its (high, low) uint64 words."""
    return np.uint64(value >> 64), np.uint64(value & _M64)


def _affine(x, m: int, c):
    """(x * m + c) mod 2**128 for (high, low) uint64 pairs x and c, x arrays."""
    xh, xl = x
    mh, ml = _split(m)
    m0, m1 = ml & _LOW32, ml >> _U32
    x0, x1 = xl & _LOW32, xl >> _U32
    p00, p01, p10 = x0 * m0, x0 * m1, x1 * m0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    hi = x1 * m1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32) + xh * ml + xl * mh
    lo = xl * ml
    lo_c = lo + c[1]
    return hi + c[0] + (lo_c < lo), lo_c


def _uniforms(state, low: float, high: float) -> np.ndarray:
    """Generator.uniform's low + (high - low) * u of each state's XSL-RR output."""
    hi, lo = state
    x, rot = hi ^ lo, hi >> _U58
    bits = (x >> rot) | (x << ((_U64 - rot) & _U63))
    return low + (high - low) * ((bits >> _U11).astype(np.float64) * (1.0 / 9007199254740992.0))


def _seeded(entropy: list) -> tuple:
    """PCG64's (state, increment) as default_rng seeds them, for each column
    of `entropy`, a list of equal-length uint32 arrays, one word each."""
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ np.uint32(hash_a)
        hash_a = (hash_a * _MULT_A) & _M32
        value = value * np.uint32(hash_a)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = _MIX_L * x - _MIX_R * y
        return value ^ (value >> np.uint32(16))

    # SeedSequence.mix_entropy
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[k] if k < len(entropy) else zero) for k in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    # SeedSequence.generate_state(4, np.uint64), from 8 uint32 words
    hash_b = _INIT_B
    words = []
    for k in range(8):
        value = pool[k % _POOL] ^ np.uint32(hash_b)
        hash_b = (hash_b * _MULT_B) & _M32
        value = value * np.uint32(hash_b)
        words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    init_state, init_seq = [(words[k + 1] << _U32 | words[k], words[k + 3] << _U32 | words[k + 2])
                            for k in (0, 4)]
    # pcg64_srandom_r: state 0, inc = 2 * seq + 1, step, add the seed, step
    inc = (init_seq[0] << _U1 | init_seq[1] >> _U63, init_seq[1] << _U1 | _U1)
    return _affine(_affine(inc, 1, init_state), _PCG_MULT, inc), inc


def first_uniforms(entropy: list, low: float, high: float) -> np.ndarray:
    """default_rng(e).uniform(low, high) for every column e of `entropy`, a
    list of equal-length uint32 arrays, one word each."""
    state, inc = _seeded(entropy)
    return _uniforms(_affine(state, _PCG_MULT, inc), low, high)


@cache
def _jumps() -> tuple:
    """a^k and (a^k - 1) / (a - 1) = 1 + a + ... + a^(k-1) mod 2**128, for
    k = 1 .. _BLOCK, as (high, low) uint64 arrays; built by doubling."""
    power = tuple(np.array([word]) for word in _split(_PCG_MULT))
    geometric = (np.zeros(1, np.uint64), np.ones(1, np.uint64))
    while power[0].size < _BLOCK:
        a_m = int(power[0][-1]) << 64 | int(power[1][-1])
        g_m = (geometric[0][-1], geometric[1][-1])
        power = tuple(map(np.concatenate, zip(power, _affine(power, a_m, (0, 0)))))
        geometric = tuple(map(np.concatenate, zip(geometric, _affine(geometric, a_m, g_m))))
    return power, geometric


class Stream:
    """The draws of np.random.default_rng(seed).uniform, call after call.

    `seed` is a nonnegative int or a sequence of them, as default_rng
    takes it; each call of `uniform` continues the stream where the last
    one stopped.
    """

    def __init__(self, seed):
        words = [w for part in ([seed] if isinstance(seed, (int, np.integer)) else seed)
                 for w in seed_words(part)]
        state, inc = _seeded([np.array([w], np.uint32) for w in words])
        self._state = int(state[0][0]) << 64 | int(state[1][0])
        self._inc = int(inc[0][0]) << 64 | int(inc[1][0])
        self._offsets = None  # inc * (a^k - 1) / (a - 1), on first use

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """An array of shape `size`, filled in C order from the stream."""
        out = np.empty(size)
        flat = out.reshape(-1)
        power, geometric = _jumps()
        if self._offsets is None:
            self._offsets = _affine(geometric, self._inc, (0, 0))
        for start in range(0, flat.size, _BLOCK):
            k = min(_BLOCK, flat.size - start)
            state = _affine((power[0][:k], power[1][:k]), self._state,
                            (self._offsets[0][:k], self._offsets[1][:k]))
            flat[start:start + k] = _uniforms(state, low, high)
            self._state = int(state[0][-1]) << 64 | int(state[1][-1])
        return out

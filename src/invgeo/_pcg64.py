"""Pure-Python ``np.random.default_rng(seed).uniform``, bit for bit.

The samplers in :mod:`invgeo.roots` promise a fixed stream per seed, the one
NumPy's default generator draws.  Importing NumPy only for that stream costs
more than the rest of a CLI call, so this module repeats NumPy's arithmetic
with Python integers instead: ``SeedSequence`` entropy mixing, the PCG64
XSL-RR generator, and ``random_uniform``'s ``low + range * next_double``.
"""
from __future__ import annotations

import math

_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence hash constants (O'Neill's seed_seq_fe, as in NumPy).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for a plain int seed."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [0] if seed == 0 else []
    while seed:
        entropy.append(seed & _M32)
        seed >>= 32

    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = (const * _MULT_A) & _M32
        value = (value * const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    const = _INIT_B
    state = []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ const
        const = (const * _MULT_B) & _M32
        value = (value * const) & _M32
        state.append(value ^ (value >> 16))
    return [state[i] | state[i + 1] << 32 for i in range(0, 2 * _POOL, 2)]


class Generator:
    """``np.random.default_rng(seed)``, reduced to the ``uniform`` the samplers use."""

    def __init__(self, seed: int):
        w = _seed_words(seed)
        self._inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
        self._state = 0
        self._step()
        self._state = (self._state + (w[0] << 64 | w[1])) & _M128
        self._step()

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULT + self._inc) & _M128

    def _next_double(self) -> float:
        self._step()
        hi, lo = self._state >> 64, self._state & 0xFFFFFFFFFFFFFFFF
        x, rot = hi ^ lo, hi >> 58
        x = ((x >> rot) | (x << (64 - rot))) & 0xFFFFFFFFFFFFFFFF
        return (x >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float) -> float:
        low, high = float(low), float(high)
        span = high - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span < 0:
            raise ValueError("high - low < 0")
        return low + span * self._next_double()

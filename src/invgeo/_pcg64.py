"""Pure-Python ``np.random.default_rng(seed).uniform``, bit for bit.

The samplers in :mod:`invgeo.roots` promise a fixed stream per seed, the one
NumPy's default generator draws.  Importing NumPy only for that stream costs
more than the rest of a CLI call, so this module repeats NumPy's arithmetic
with Python integers instead: ``SeedSequence`` entropy mixing, the PCG64
XSL-RR generator, and ``random_uniform``'s ``low + range * next_double``.
The entropy mixing reads its hash constants, which do not depend on the
seed, from the precomputed sequences ``_HASH_A`` and ``_HASH_B``;
``_HASH_A`` is extended on demand for a seed longer than 128 bits.

``Generator.uniform(low, high, size)`` takes NumPy's signature: without
``size`` it returns one float, with it a list of ``size`` floats, the draws
NumPy's array would hold, in order.  Both are one loop over the 128-bit
state, kept in locals and written back once, so a sampler that asks for a
batch pays one call, not one per draw.
"""
from __future__ import annotations

import math

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53: next_double's top 53 bits as [0, 1)

# SeedSequence hash constants (O'Neill's seed_seq_fe, as in NumPy).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _powers(init: int, mult: int, n: int) -> list[int]:
    """init * mult**k masked to 32 bits, for k = 0 .. n - 1."""
    out = [init]
    while len(out) < n:
        out.append(out[-1] * mult & _M32)
    return out


#: The hash constants, in the order seed_seq_fe's hashmix steps through
#: them: entry k XORs the k-th hashed word and entry k + 1 multiplies it.
#: They do not depend on the seed.  _HASH_A covers up to _POOL entropy words,
#: a seed below 2**128, and is extended on demand for a longer seed.
#: _HASH_B is the fixed sequence of generate_state.
_HASH_A = _powers(_INIT_A, _MULT_A, 4 * _POOL + 1)
_HASH_B = _powers(_INIT_B, _MULT_B, 2 * _POOL + 1)


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for a plain int seed."""
    global _HASH_A
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [0] if seed == 0 else []
    while seed:
        entropy.append(seed & _M32)
        seed >>= 32
    # one hashed word per pool slot, twelve for the pool's own mixing and
    # _POOL per entropy word past the pool
    hashes = _POOL * max(len(entropy), _POOL)
    h = _HASH_A
    if len(h) <= hashes:
        # a longer sequence replaces the table whole and is never appended
        # to, so a thread still reading the shorter one reads valid constants
        h = _HASH_A = _powers(_INIT_A, _MULT_A, hashes + 1)

    pool = []
    for k in range(_POOL):
        value = ((entropy[k] if k < len(entropy) else 0) ^ h[k]) * h[k + 1] & _M32
        pool.append(value ^ value >> 16)
    k = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value = (pool[src] ^ h[k]) * h[k + 1] & _M32
                r = (_MIX_L * pool[dst] - _MIX_R * (value ^ value >> 16)) & _M32
                pool[dst] = r ^ r >> 16
                k += 1
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            value = (word ^ h[k]) * h[k + 1] & _M32
            r = (_MIX_L * pool[dst] - _MIX_R * (value ^ value >> 16)) & _M32
            pool[dst] = r ^ r >> 16
            k += 1

    state = []
    for i in range(2 * _POOL):
        value = (pool[i % _POOL] ^ _HASH_B[i]) * _HASH_B[i + 1] & _M32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 2 * _POOL, 2)]


class Generator:
    """``np.random.default_rng(seed)``, reduced to the ``uniform`` the samplers use."""

    def __init__(self, seed: int):
        w = _seed_words(seed)
        inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
        # PCG64's seeding: step from 0, add the initial state, step again
        state = (inc + (w[0] << 64 | w[1])) & _M128
        self._inc = inc
        self._state = (state * _PCG_MULT + inc) & _M128

    def uniform(self, low: float, high: float, size: int | None = None):
        """One draw from [low, high), or a list of ``size`` of them."""
        low, high = float(low), float(high)
        span = high - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span < 0:
            raise ValueError("high - low < 0")
        if size is not None and size < 0:
            raise ValueError("negative dimensions are not allowed")
        state, inc, mult = self._state, self._inc, _PCG_MULT
        out = []
        append = out.append
        for _ in range(1 if size is None else size):
            state = (state * mult + inc) & _M128
            hi, lo = state >> 64, state & _M64
            x, rot = hi ^ lo, hi >> 58
            x = ((x >> rot) | (x << (64 - rot))) & _M64
            append(low + span * ((x >> 11) * _DOUBLE_UNIT))
        self._state = state
        return out[0] if size is None else out

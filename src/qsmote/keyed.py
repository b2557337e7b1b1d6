"""Keyed draws: numpy's per-key streams for a whole table of keys at once.

Each synthetic record draws from its own stream `default_rng([seed, *key])`,
so no record depends on the records batched with it. Building one
Generator per key is slow, so this module computes those streams' start
in array arithmetic instead: SeedSequence's entropy pool and
`generate_state(4, uint64)` in uint32, then PCG64's seeding (two 128-bit
LCG steps, kept as 64-bit limbs) in uint64. `uniform` and `binomial` are
bit-identical to `default_rng([seed, *row])`, which the tests hold them to.
"""

import numpy as np

from .errors import ParameterError

_M32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG_DEFAULT_MULTIPLIER_128


def check_seed(seed):
    """A seed is a non-negative integer, as numpy's SeedSequence takes it; any size works."""
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")


def _words(seed, columns):
    """The uint32 entropy words of [seed, *row], one array (over rows) per word."""
    check_seed(seed)
    seed = int(seed)
    cols = [np.asarray(c) for c in columns]
    if not cols or any(c.ndim != 1 or len(c) != len(cols[0]) for c in cols):
        raise ParameterError("keys need one or more 1-D columns of equal length")
    for c in cols:
        if len(c) and not (np.issubdtype(c.dtype, np.integer) and c.min() >= 0 and c.max() <= _M32):
            raise ParameterError("key columns must hold integers in [0, 2**32)")
    words = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        words.append(seed & _M32)
    n = len(cols[0])
    return [np.full(n, w, dtype=np.uint32) for w in words] + [c.astype(np.uint32) for c in cols]


def _hash(value, const, mult):
    """SeedSequence's hashmix step: (hashed value, next hash constant)."""
    const_next = (const * mult) & _M32
    value = (value ^ np.uint32(const)) * np.uint32(const_next)
    return value ^ (value >> np.uint32(16)), const_next


def _mix(x, y):
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


def _mul_const(hi, lo, c):
    """(hi, lo) * c mod 2**128, for 64-bit limbs and a 128-bit constant."""
    c_hi, c_lo = np.uint64(c >> 64), np.uint64(c & (2**64 - 1))
    c1, c0 = np.uint64((c >> 32) & _M32), np.uint64(c & _M32)
    m32, s32 = np.uint64(_M32), np.uint64(32)
    x1, x0 = lo >> s32, lo & m32
    # the high 64 bits of lo * c_lo, from four 32x32-bit products
    p00, p01, p10 = x0 * c0, x0 * c1, x1 * c0
    mid = (p00 >> s32) + (p01 & m32) + (p10 & m32)
    mulhi = x1 * c1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)
    return mulhi + hi * c_lo + lo * c_hi, lo * c_lo


def _add(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


def _step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step: state * multiplier + increment."""
    return _add(*_mul_const(hi, lo, _PCG_MULT), inc_hi, inc_lo)


def _seeded(seed, columns):
    """PCG64 (state_hi, state_lo, inc_hi, inc_lo) of default_rng([seed, *row]) for every row."""
    words = _words(seed, columns)
    with np.errstate(over="ignore"):
        # SeedSequence.mix_entropy over a pool of four words
        const, pool = _INIT_A, []
        for i in range(_POOL_SIZE):
            value = words[i] if i < len(words) else np.zeros_like(words[0])
            value, const = _hash(value, const, _MULT_A)
            pool.append(value)
        # every pool word into every other, then each word beyond the pool into all four
        for src in range(max(_POOL_SIZE, len(words))):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    value, const = _hash(pool[src] if src < _POOL_SIZE else words[src], const, _MULT_A)
                    pool[dst] = _mix(pool[dst], value)
        # generate_state(4, uint64): eight uint32 words, paired little-end first
        const, state = _INIT_B, []
        for i in range(8):
            value, const = _hash(pool[i % _POOL_SIZE], const, _MULT_B)
            state.append(value.astype(np.uint64))
        s_hi, s_lo, i_hi, i_lo = (state[j] | (state[j + 1] << np.uint64(32)) for j in range(0, 8, 2))
        # pcg_setseq_128_srandom_r: inc = 2*initseq + 1; step from 0; add initstate; step
        inc_hi = (i_hi << np.uint64(1)) | (i_lo >> np.uint64(63))
        inc_lo = (i_lo << np.uint64(1)) | np.uint64(1)
        hi, lo = _add(inc_hi, inc_lo, s_hi, s_lo)
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def uniform(seed, *columns):
    """`np.random.default_rng([seed, *row]).uniform()` for every row of the key columns.

    One PCG64 step, the XSL-RR output and (x >> 11) * 2**-53. Every key
    value must be an integer in [0, 2**32), so each is one entropy word.
    """
    hi, lo, inc_hi, inc_lo = _seeded(seed, columns)
    with np.errstate(over="ignore"):
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> np.uint64(58)
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return (x >> np.uint64(11)) * 2.0**-53


def binomial(seed, n, p, *columns):
    """`np.random.default_rng([seed, *row]).binomial(n, p[i])` for every row i of the key columns.

    The start states are computed at once, but numpy's binomial is a
    rejection sampler with a varying number of draws, so each row's count
    is one call on a Generator set to that row's state.
    """
    states = zip(*(a.tolist() for a in _seeded(seed, columns)))
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    counts = []
    for (s_hi, s_lo, c_hi, c_lo), p_row in zip(states, np.asarray(p, dtype=float).tolist()):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": s_hi << 64 | s_lo, "inc": c_hi << 64 | c_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        counts.append(generator.binomial(n, p_row))
    return np.array(counts, dtype=np.int64)

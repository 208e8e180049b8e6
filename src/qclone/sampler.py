"""numpy's seeded Poisson stream on the standard library: a port of the path of
``np.random.default_rng(SeedSequence(seed).spawn(6)[i]).poisson(lam)``.

SeedSequence (numpy/random/bit_generator.pyx) hashes 32-bit entropy words
into a pool of four words, by constants tabulated once; PCG64
(numpy/random/src/pcg64) is seeded from the pool's generate_state(4, uint64);
Generator.poisson runs random_poisson (numpy/random/src/distributions/
distributions.c) on PCG64's doubles, each step of the 128-bit LCG inline.
A seed draws bit for bit the counts numpy draws from it.  Only a draw loads
this module: `detection.sample_counts` and a noisy `run_experiment`.
"""

import math
import operator
from typing import Iterable

_MASK32, _MASK53, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 53) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53

# Generator.poisson refuses a larger rate: the PTRS candidate must stay in int64
POISSON_LAM_MAX = (2**63 - 1) - math.sqrt(2**63 - 1) * 10
_TWO63 = 2.0**63


def _powers(init: int, mult: int, n: int) -> list[int]:
    """init * mult**k mod 2**32 for k < n."""
    return [init * pow(mult, k, 1 << 32) & _MASK32 for k in range(n)]


# Hashmix call k xors a word with _HASH_A[k], then multiplies it by _HASH_A[k + 1]:
# calls 0-15 mix up to four words, four more each further word, then a child's index.
_HASH_A = _powers(_INIT_A, _MULT_A, 21)
# generate_state's word k does the same with _HASH_B[k] and _HASH_B[k + 1]
_HASH_B = _powers(_INIT_B, _MULT_B, 9)


def _entropy_words(n) -> list[int]:
    """A nonnegative integer as 32-bit words, least significant first."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _pool(words: list[int]) -> tuple[list[int], list[int]]:
    """SeedSequence.mix_entropy of entropy words, missing pool words read
    as zeros: the pool, and the hash constants of the next four calls."""
    h = _HASH_A if len(words) <= 4 else _powers(_INIT_A, _MULT_A, 4 * len(words) + 5)
    m, ml, mr = _MASK32, _MIX_L, _MIX_R
    p0, p1, p2, p3 = [(x := (e ^ c) * d & m) ^ x >> 16
                      for e, c, d in zip(words + [0] * 3, h, h[1:5])]
    # every pool word into every other (y hashes the source, x mixes it in)
    p1 = (x := ml * p1 - mr * ((y := (p0 ^ h[4]) * h[5] & m) ^ y >> 16) & m) ^ x >> 16
    p2 = (x := ml * p2 - mr * ((y := (p0 ^ h[5]) * h[6] & m) ^ y >> 16) & m) ^ x >> 16
    p3 = (x := ml * p3 - mr * ((y := (p0 ^ h[6]) * h[7] & m) ^ y >> 16) & m) ^ x >> 16
    p0 = (x := ml * p0 - mr * ((y := (p1 ^ h[7]) * h[8] & m) ^ y >> 16) & m) ^ x >> 16
    p2 = (x := ml * p2 - mr * ((y := (p1 ^ h[8]) * h[9] & m) ^ y >> 16) & m) ^ x >> 16
    p3 = (x := ml * p3 - mr * ((y := (p1 ^ h[9]) * h[10] & m) ^ y >> 16) & m) ^ x >> 16
    p0 = (x := ml * p0 - mr * ((y := (p2 ^ h[10]) * h[11] & m) ^ y >> 16) & m) ^ x >> 16
    p1 = (x := ml * p1 - mr * ((y := (p2 ^ h[11]) * h[12] & m) ^ y >> 16) & m) ^ x >> 16
    p3 = (x := ml * p3 - mr * ((y := (p2 ^ h[12]) * h[13] & m) ^ y >> 16) & m) ^ x >> 16
    p0 = (x := ml * p0 - mr * ((y := (p3 ^ h[13]) * h[14] & m) ^ y >> 16) & m) ^ x >> 16
    p1 = (x := ml * p1 - mr * ((y := (p3 ^ h[14]) * h[15] & m) ^ y >> 16) & m) ^ x >> 16
    p2 = (x := ml * p2 - mr * ((y := (p3 ^ h[15]) * h[16] & m) ^ y >> 16) & m) ^ x >> 16
    pool, k = [p0, p1, p2, p3], 16
    for word in words[4:]:  # each word beyond the pool size into every pool word
        for dst in range(4):
            x = ml * pool[dst] - mr * ((y := (word ^ h[k]) * h[k + 1] & m) ^ y >> 16) & m
            pool[dst], k = x ^ x >> 16, k + 1
    return pool, h[k:k + 5]


def seed_sequence_pool(entropy: int, spawn_key: tuple[int, ...] = ()) -> list[int]:
    """The pool of ``np.random.SeedSequence(entropy, spawn_key=spawn_key)``; with a
    key, numpy (1.19 on) pads the entropy with zero words to the pool size first."""
    run = _entropy_words(entropy)
    spawn = [word for key in spawn_key for word in _entropy_words(key)]
    if spawn:
        run += [0] * (4 - len(run))
    return _pool(run + spawn)[0]


class PCG64:
    """numpy's PCG64 (128-bit LCG, XSL-RR output) seeded from a SeedSequence pool."""

    __slots__ = ("state", "inc")

    def __init__(self, pool: list[int]):
        (p0, p1, p2, p3), m = pool, _MASK32
        b0, b1, b2, b3, b4, b5, b6, b7, b8 = _HASH_B
        # generate_state(4, np.uint64): eight hashed words, read in pairs as
        # little-endian 64-bit words s0, s1, i0, i1
        w0 = (x := (p0 ^ b0) * b1 & m) ^ x >> 16
        w1 = (x := (p1 ^ b1) * b2 & m) ^ x >> 16
        w2 = (x := (p2 ^ b2) * b3 & m) ^ x >> 16
        w3 = (x := (p3 ^ b3) * b4 & m) ^ x >> 16
        w4 = (x := (p0 ^ b4) * b5 & m) ^ x >> 16
        w5 = (x := (p1 ^ b5) * b6 & m) ^ x >> 16
        w6 = (x := (p2 ^ b6) * b7 & m) ^ x >> 16
        w7 = (x := (p3 ^ b7) * b8 & m) ^ x >> 16
        # pcg64_set_seed takes the first word of each pair as the high half;
        # its two steps from state 0 leave ((inc + s) * MULT + inc)
        self.inc = inc = ((w4 | w5 << 32) << 64 | w6 | w7 << 32) << 1 & _MASK128 | 1
        self.state = ((inc + ((w0 | w1 << 32) << 64 | w2 | w3 << 32)) * _PCG_MULT + inc) & _MASK128

    def next_uint64(self) -> int:
        self.state = state = (self.state * _PCG_MULT + self.inc) & _MASK128
        value = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (value >> rot | value << (64 - rot)) & _MASK64

    def next_double(self) -> float:
        return (self.next_uint64() >> 11) * _DOUBLE_UNIT


def spawned_streams(seed: int, n: int) -> list[PCG64]:
    """The bit generators of ``np.random.SeedSequence(seed).spawn(n)``.

    Child i's entropy is the seed's words, padded with zeros to the pool size, then
    i: the seed is mixed once, and each i (one word: n is at most 2**32) after it.
    """
    (p0, p1, p2, p3), (h0, h1, h2, h3, h4) = _pool(_entropy_words(seed))
    m, ml, mr = _MASK32, _MIX_L, _MIX_R
    streams = []
    for i in range(n):
        q0 = (x := ml * p0 - mr * ((y := (i ^ h0) * h1 & m) ^ y >> 16) & m) ^ x >> 16
        q1 = (x := ml * p1 - mr * ((y := (i ^ h1) * h2 & m) ^ y >> 16) & m) ^ x >> 16
        q2 = (x := ml * p2 - mr * ((y := (i ^ h2) * h3 & m) ^ y >> 16) & m) ^ x >> 16
        q3 = (x := ml * p3 - mr * ((y := (i ^ h3) * h4 & m) ^ y >> 16) & m) ^ x >> 16
        streams.append(PCG64((q0, q1, q2, q3)))
    return streams


def poisson_plan(expected: Iterable[float]) -> list[tuple[float, ...]]:
    """Each rate with the constants `draw` needs, computed once: from 10 up log(lam) and
    PTRS's b, a, v_r and log(1/alpha), below 10 exp(-lam).  Like ``Generator.poisson``,
    ValueError for a rate above `POISSON_LAM_MAX`, negative or nan."""
    rates = [float(lam) for lam in expected]
    if not all(lam <= POISSON_LAM_MAX for lam in rates):  # nan fails here too
        raise ValueError("lam value too large")
    if not all(lam >= 0.0 for lam in rates):
        raise ValueError("lam < 0 or lam contains NaNs")
    plan = []
    for lam in rates:
        if lam >= 10.0:
            b = 0.931 + 2.53 * math.sqrt(lam)
            plan.append((lam, math.log(lam), b, -0.059 + 0.02483 * b, 0.9277 - 3.6224 / (b - 2),
                         math.log(1.1239 + 1.1328 / (b - 3.4))))
        else:
            plan.append((lam, math.exp(-lam), 0.0, 0.0, 0.0, 0.0))
    return plan


def draw(stream: PCG64, plan: list[tuple[float, ...]]) -> tuple[float, ...]:
    """random_poisson at each rate of a `poisson_plan`, from the stream, which it advances:
    multiplication below 10, and from 10 Hoermann's PTRS (Insurance: Mathematics and
    Economics 12, 39, 1993) in random_poisson_ptrs's arithmetic."""
    state, inc, mult = stream.state, stream.inc, _PCG_MULT
    m53, m64, m128, unit = _MASK53, _MASK64, _MASK128, _DOUBLE_UNIT
    log, floor, counts = math.log, math.floor, []
    for lam, c, b, a, vr, log_invalpha in plan:  # c: log(lam), or exp(-lam) below 10
        if lam >= 10.0:
            while True:
                state = (state * mult + inc) & m128
                z = (state >> 64 ^ state) & m64
                u = ((z | z << 64) >> ((state >> 122) + 11) & m53) * unit - 0.5
                state = (state * mult + inc) & m128
                z = (state >> 64 ^ state) & m64
                v = ((z | z << 64) >> ((state >> 122) + 11) & m53) * unit
                us = 0.5 - abs(u)
                if us == 0.0:  # C divides by zero here and gets k < 0: rejected
                    continue
                x = (2 * a / us + b) * u + lam + 0.43
                # C casts floor(x) to int64; outside its range that gives INT64_MIN
                k = float(floor(x)) if -_TWO63 <= x < _TWO63 else -_TWO63
                if us >= 0.07 and v <= vr:
                    break
                if k < 0 or (us < 0.013 and v > us):
                    continue
                # log(0) is -inf in C, which always accepts
                if v == 0.0 or (log(v) + log_invalpha - log(a / (us * us) + b)
                                <= -lam + k * c - _loggam(k + 1)):
                    break
            counts.append(k)
        elif lam == 0.0:
            counts.append(0.0)
        else:
            k, prod = 0, 1.0
            while True:
                state = (state * mult + inc) & m128
                z = (state >> 64 ^ state) & m64
                prod *= ((z | z << 64) >> ((state >> 122) + 11) & m53) * unit
                if prod <= c:
                    break
                k += 1
            counts.append(float(k))
    stream.state = state
    return tuple(counts)


_LOGGAM_COEFFS = (
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04, -5.952380952380952e-04,
    8.417508417508418e-04, -1.917526917526918e-03, 6.410256410256410e-03, -2.955065359477124e-02,
    1.796443723688307e-01, -1.39243221690590e00,
)
_LOG_2PI = 1.8378770664093453e00


def _loggam(x: float) -> float:
    """random_loggam: log Gamma(x) by Stirling's series, shifted up to 7."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_COEFFS[9]
    for coeff in _LOGGAM_COEFFS[8::-1]:
        gl0 = gl0 * x2 + coeff
    gl = gl0 / x0 + 0.5 * _LOG_2PI + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl


def sample_counts(expected: Iterable[float], seed: int | PCG64) -> tuple[float, ...]:
    """Poisson-distributed integer counts around the expected rates, as
    ``np.random.default_rng(seed).poisson(expected)`` draws them.

    ``seed`` is a nonnegative int or a `PCG64` stream, which the draws advance.
    A rate `poisson_plan` refuses raises ValueError before anything is drawn.
    """
    plan = poisson_plan(expected)
    return draw(seed if isinstance(seed, PCG64) else PCG64(seed_sequence_pool(seed)), plan)

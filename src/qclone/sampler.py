"""numpy's seeded Poisson stream on the standard library: a port of the
path numpy takes for
``np.random.default_rng(SeedSequence(seed).spawn(6)[i]).poisson(lam)``.

SeedSequence (numpy/random/bit_generator.pyx) hashes 32-bit entropy words
into a pool of four words; PCG64 (numpy/random/src/pcg64) is seeded from the
pool's generate_state(4, uint64); Generator.poisson runs random_poisson
(numpy/random/src/distributions/distributions.c) on PCG64's doubles.  A seed
draws bit for bit the counts numpy draws from it; `tests/sampling_oracle.py`
holds the numpy path the tests compare with.

Only a draw loads this module: `detection.sample_counts` and a noisy
`detection.run_experiment` import it when called.
"""

import math
import operator
from typing import Iterable

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53

# Generator.poisson refuses a larger rate: the PTRS candidate must stay
# inside int64
POISSON_LAM_MAX = (2**63 - 1) - math.sqrt(2**63 - 1) * 10
_TWO63 = 2.0**63


def _entropy_words(n) -> list[int]:
    """A nonnegative integer as 32-bit words, least significant first."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    """SeedSequence's hashmix: the hashed word and the next hash constant."""
    value ^= hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> _XSHIFT, hash_const


def _mix(x: int, y: int) -> int:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y & _MASK32
    return result ^ result >> _XSHIFT


def _absorb(pool: list[int], hash_const: int, words: Iterable[int]) -> tuple[list[int], int]:
    """Mix entropy words beyond the pool size into every pool word."""
    pool = list(pool)
    for word in words:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    return pool, hash_const


def _mix_entropy(entropy: list[int]) -> tuple[list[int], int]:
    """SeedSequence.mix_entropy: the pool and the hash constant after it."""
    hash_const, pool = _INIT_A, []
    for i in range(_POOL_SIZE):
        value, hash_const = _hashmix(entropy[i] if i < len(entropy) else 0, hash_const)
        pool.append(value)
    # every pool word into every other, so that late words affect early ones
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    return _absorb(pool, hash_const, entropy[_POOL_SIZE:])


def seed_sequence_pool(entropy: int, spawn_key: tuple[int, ...] = ()) -> list[int]:
    """The pool of ``np.random.SeedSequence(entropy, spawn_key=spawn_key)``.

    With a spawn key the run entropy is padded with zero words to the pool
    size before the key's words are appended, as numpy does since 1.19.
    """
    run = _entropy_words(entropy)
    spawn = [word for key in spawn_key for word in _entropy_words(key)]
    if spawn:
        run += [0] * (_POOL_SIZE - len(run))
    return _mix_entropy(run + spawn)[0]


def _generate_state(pool: list[int]) -> tuple[int, int, int, int]:
    """SeedSequence.generate_state(4, np.uint64) of a pool."""
    hash_const, words = _INIT_B, []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> _XSHIFT)
    # pairs of 32-bit words read as little-endian 64-bit words
    return tuple(words[i] | words[i + 1] << 32 for i in range(0, 8, 2))


class PCG64:
    """numpy's PCG64 bit generator (128-bit LCG, XSL-RR output) seeded from
    a SeedSequence pool, with Generator.poisson's sampler."""

    __slots__ = ("state", "inc")

    def __init__(self, pool: list[int]):
        s0, s1, i0, i1 = _generate_state(pool)
        # pcg64_set_seed: the first word of each pair is the high half
        self.inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self.state = 0
        self.next_uint64()
        self.state = (self.state + (s0 << 64 | s1)) & _MASK128
        self.next_uint64()

    def next_uint64(self) -> int:
        self.state = state = (self.state * _PCG_MULT + self.inc) & _MASK128
        value = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (value >> rot | value << (64 - rot)) & _MASK64

    def next_double(self) -> float:
        return (self.next_uint64() >> 11) * _DOUBLE_UNIT

    def poisson(self, lam: float) -> float:
        """random_poisson: PTRS from 10 up, multiplication below."""
        if lam >= 10.0:
            return self._poisson_ptrs(lam)
        if lam == 0.0:
            return 0.0
        enlam = math.exp(-lam)
        k, prod = 0, 1.0
        while True:
            prod *= self.next_double()
            if prod > enlam:
                k += 1
            else:
                return float(k)

    def _poisson_ptrs(self, lam: float) -> float:
        """Hoermann's transformed rejection (PTRS), Insurance: Mathematics
        and Economics 12, 39 (1993), in random_poisson_ptrs's arithmetic."""
        slam = math.sqrt(lam)
        loglam = math.log(lam)
        b = 0.931 + 2.53 * slam
        a = -0.059 + 0.02483 * b
        invalpha = 1.1239 + 1.1328 / (b - 3.4)
        vr = 0.9277 - 3.6224 / (b - 2)
        while True:
            u = self.next_double() - 0.5
            v = self.next_double()
            us = 0.5 - abs(u)
            if us == 0.0:  # C divides by zero here and gets k < 0: rejected
                continue
            x = (2 * a / us + b) * u + lam + 0.43
            # C casts floor(x) to int64; outside its range that gives INT64_MIN
            k = float(math.floor(x)) if -_TWO63 <= x < _TWO63 else -_TWO63
            if us >= 0.07 and v <= vr:
                return k
            if k < 0 or (us < 0.013 and v > us):
                continue
            # log(0) is -inf in C, which always accepts
            if v == 0.0 or (
                math.log(v) + math.log(invalpha) - math.log(a / (us * us) + b)
                <= -lam + k * loglam - _loggam(k + 1)
            ):
                return k


_LOGGAM_COEFFS = (
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
    -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
    6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
    -1.39243221690590e00,
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
        gl0 *= x2
        gl0 += coeff
    gl = gl0 / x0 + 0.5 * _LOG_2PI + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl


def spawned_streams(seed: int, n: int) -> list[PCG64]:
    """The bit generators of ``np.random.SeedSequence(seed).spawn(n)``.

    Child i's entropy is the seed's words, padded with zeros to the pool
    size, then i.  All but its last word are the same for every child, so
    they are mixed once (`_mix_entropy` reads the missing pool words as the
    zeros of the padding), and i is absorbed after them.
    """
    pool, hash_const = _mix_entropy(_entropy_words(seed))
    return [PCG64(_absorb(pool, hash_const, _entropy_words(i))[0]) for i in range(n)]


def sample_counts(expected: Iterable[float], seed: int | PCG64) -> tuple[float, ...]:
    """Poisson-distributed integer counts around the expected rates, as
    ``np.random.default_rng(seed).poisson(expected)`` draws them.

    ``seed`` is a nonnegative int or a `PCG64` stream, which the draws
    advance; the same seed always yields the same counts.  Like
    ``Generator.poisson``, a rate above `POISSON_LAM_MAX`, negative or nan
    raises ValueError before anything is drawn.
    """
    rates = [float(lam) for lam in expected]
    if not all(lam <= POISSON_LAM_MAX for lam in rates):  # nan fails here too
        raise ValueError("lam value too large")
    if not all(lam >= 0.0 for lam in rates):
        raise ValueError("lam < 0 or lam contains NaNs")
    stream = seed if isinstance(seed, PCG64) else PCG64(seed_sequence_pool(seed))
    return tuple(stream.poisson(lam) for lam in rates)

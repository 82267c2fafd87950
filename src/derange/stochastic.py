"""Erlang moments, exact and Monte Carlo.

The sum of r independent Exp(1) draws has k-th moment rising(r, k); the
Monte Carlo layer estimates it and the moment-expansion reconstruction of
the generalized polynomials, against a counter-based SplitMix64 uniform
stream so every estimate is a pure function of (seed, samples).

The sampler streams: draws come in blocks of `_CHUNK` samples, each cut
from its own slice of the stream, and the per-block (count, mean, M2) are
merged in block order with the Chan-Golub-LeVeque update. Memory is
O(_CHUNK * r) whatever the sample count.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import DerangeDomainError, binomial, rising_factorial

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# Samples per block. Blocks of 2^12-2^14 samples ran fastest on a 2-vCPU
# Xeon (2 MB L2 per core); 2^16 was 1.3-1.5x slower. The block size changes
# only the merge order, so estimates move in the last bits, not the draws.
_CHUNK = 1 << 14


class OutOfDomain(DerangeDomainError):
    pass


@dataclass(frozen=True)
class MomentEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int


def erlang_moment_exact(r: int, k: int) -> int:
    """E[(X_1 + ... + X_r)^k] for iid Exp(1): the rising factorial r^(k)."""
    if r < 1 or k < 0:
        raise DerangeDomainError("need r >= 1, k >= 0")
    return rising_factorial(r, k)


def mgf_erlang(r: int, t) -> Fraction:
    """Moment generating function 1/(1-t)^r, exact; domain t < 1."""
    if r < 1:
        raise DerangeDomainError("need r >= 1")
    t = Fraction(t)
    if t >= 1:
        raise OutOfDomain(f"mgf diverges for t >= 1, got {t}")
    return 1 / (1 - t) ** r


def _mix64(x: int) -> int:
    x &= _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    x ^= x >> 31
    return x


class SplitMix64:
    """Counter-based SplitMix64: output i is mix(seed + (i+1)*golden_gamma).

    Counter addressing makes the sequential stream and the vectorized
    stream bit-identical.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self.counter = 0

    def next_u64(self) -> int:
        self.counter += 1
        return _mix64(self.seed + self.counter * _GAMMA)

    def next_float(self) -> float:
        # 53 random bits in [0, 1)
        return (self.next_u64() >> 11) * 2.0 ** -53


def _uniforms(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Vectorized slice [offset, offset+count) of the SplitMix64 stream,
    computed in place in one array plus one scratch array."""
    x = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    x *= np.uint64(_GAMMA)
    x += np.uint64(seed & _MASK)
    t = np.empty_like(x)
    x ^= np.right_shift(x, np.uint64(30), out=t)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, np.uint64(27), out=t)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= np.right_shift(x, np.uint64(31), out=t)
    x >>= np.uint64(11)
    return np.multiply(x, 2.0 ** -53, out=t.view(np.float64))


def sample_erlang(r: int, rng: SplitMix64) -> float:
    """One Erlang(r) draw: sum of r inverse-CDF exponentials -ln(1-U)."""
    if r < 1:
        raise DerangeDomainError("need r >= 1")
    return sum(-math.log1p(-rng.next_float()) for _ in range(r))


def _erlang_blocks(r: int, samples: int, seed: int) -> Iterator[np.ndarray]:
    """Erlang(r) draws in blocks of at most _CHUNK samples. Block j reads
    uniforms [j*_CHUNK*r, ...) of the stream, so the blocks concatenate to
    the sequential sample_erlang draws."""
    for start in range(0, samples, _CHUNK):
        m = min(_CHUNK, samples - start)
        u = _uniforms(seed, m * r, start * r)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        y = u.reshape(m, r).sum(axis=1)
        yield np.negative(y, out=y)


def _estimate(r: int, samples: int, seed: int,
              statistic: Callable[[np.ndarray], np.ndarray]) -> MomentEstimate:
    """Mean and standard error of statistic(Y_r), one block at a time: each
    block's (count, mean, M2) is folded into the running totals with the
    Chan-Golub-LeVeque update, in block order."""
    count, mean, m2 = 0, 0.0, 0.0
    for y in _erlang_blocks(r, samples, seed):
        s = statistic(y)
        b_count, b_mean = s.size, float(s.mean())
        s -= b_mean
        # numpy's pairwise sum, not a BLAS dot, whose order may vary by build
        b_m2 = float(np.square(s, out=s).sum())
        delta = b_mean - mean
        total = count + b_count
        mean += delta * b_count / total
        m2 += b_m2 + delta * delta * count * b_count / total
        count = total
    return MomentEstimate(mean, math.sqrt(m2 / (count - 1)) / math.sqrt(count),
                          samples, seed)


def mc_moment(r: int, k: int, samples: int, seed: int) -> MomentEstimate:
    """Sample mean and standard error of Y_r^k."""
    if samples < 2:
        raise DerangeDomainError("need samples >= 2")
    if r < 1:
        raise DerangeDomainError("need r >= 1")
    if k < 0 or k > 8:
        raise DerangeDomainError("k capped at 8 (moment variance blow-up)")
    if k == 0:
        return MomentEstimate(1.0, 0.0, samples, seed)
    return _estimate(r, samples, seed, lambda y: np.power(y, k, out=y))


def mc_generalized_D(n: int, r: int, x, samples: int, seed: int) -> MomentEstimate:
    """Plug-in estimator of sum_k C(n,k) x^k E[Y_r^k] from one shared sample
    set, with the standard error of the per-draw statistic."""
    if samples < 2:
        raise DerangeDomainError("need samples >= 2")
    if r < 1:
        raise DerangeDomainError("need r >= 1")
    if n < 0 or n > 8:
        raise DerangeDomainError("n capped at 8")
    if n == 0:
        return MomentEstimate(1.0, 0.0, samples, seed)
    x = Fraction(x)
    coeffs = [float(binomial(n, k) * x ** k) for k in range(n, -1, -1)]
    return _estimate(r, samples, seed, lambda y: np.polyval(coeffs, y))

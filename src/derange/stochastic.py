"""Erlang moments, exact and Monte Carlo.

The sum of r independent Exp(1) draws has k-th moment rising(r, k); the
Monte Carlo layer estimates it and the moment-expansion reconstruction of
the generalized polynomials, against a counter-based SplitMix64 uniform
stream so every estimate is a pure function of (seed, samples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import DerangeDomainError, binomial, rising_factorial

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class OutOfDomain(DerangeDomainError):
    pass


@dataclass(frozen=True)
class GammaParams:
    """Gamma(alpha, beta) parameters; only (1, 1) is ever sampled here."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise DerangeDomainError("gamma parameters must be positive")


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
    """Vectorized slice [offset, offset+count) of the SplitMix64 stream."""
    idx = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    x = (np.uint64(seed & _MASK) + idx * np.uint64(_GAMMA))
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def sample_erlang(r: int, rng: SplitMix64) -> float:
    """One Erlang(r) draw: sum of r inverse-CDF exponentials -ln(1-U)."""
    if r < 1:
        raise DerangeDomainError("need r >= 1")
    return sum(-math.log1p(-rng.next_float()) for _ in range(r))


def _erlang_samples(r: int, samples: int, seed: int) -> np.ndarray:
    u = _uniforms(seed, samples * r).reshape(samples, r)
    return (-np.log1p(-u)).sum(axis=1)


def mc_moment(r: int, k: int, samples: int, seed: int) -> MomentEstimate:
    """Sample mean and standard error of Y_r^k."""
    if samples < 2:
        raise DerangeDomainError("need samples >= 2")
    if k < 0 or k > 8:
        raise DerangeDomainError("k capped at 8 (moment variance blow-up)")
    if k == 0:
        return MomentEstimate(1.0, 0.0, samples, seed)
    vals = _erlang_samples(r, samples, seed) ** k
    return MomentEstimate(
        float(vals.mean()),
        float(vals.std(ddof=1) / math.sqrt(samples)),
        samples,
        seed,
    )


def mc_generalized_D(n: int, r: int, x, samples: int, seed: int) -> MomentEstimate:
    """Plug-in estimator of sum_k C(n,k) x^k E[Y_r^k] from one shared sample
    set, with the standard error of the per-draw statistic."""
    if samples < 2:
        raise DerangeDomainError("need samples >= 2")
    if n < 0 or n > 8:
        raise DerangeDomainError("n capped at 8")
    if n == 0:
        return MomentEstimate(1.0, 0.0, samples, seed)
    xf = float(Fraction(x))
    y = _erlang_samples(r, samples, seed)
    stat = np.zeros_like(y)
    for k in range(n + 1):
        stat += binomial(n, k) * xf ** k * y ** k
    return MomentEstimate(
        float(stat.mean()),
        float(stat.std(ddof=1) / math.sqrt(samples)),
        samples,
        seed,
    )

"""Erlang moments, exact and Monte Carlo.

The sum of r independent Exp(1) draws has k-th moment rising(r, k); the
Monte Carlo layer estimates it and the moment-expansion reconstruction of
the generalized polynomials, against a counter-based SplitMix64 uniform
stream so every estimate is a pure function of (seed, samples).

The sampler streams: draws come in blocks of `_CHUNK` samples, each cut
from its own slice of the stream, and the per-block (count, mean, M2) are
merged in block order with the Chan-Golub-LeVeque update. Each estimate
allocates one workspace, O(_CHUNK * r) memory whatever the sample count,
and computes every block in place in it, so a yielded block is a view that
the next block overwrites: copy it to keep it.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import DerangeDomainError, binomial, rising_factorial
from .polys import eval_poly, generalized_D_poly

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# Samples per block. Blocks of 2^12-2^14 samples ran fastest on a 2-vCPU
# Xeon (2 MB L2 per core); 2^16 was 1.3-1.5x slower. The block size changes
# only the merge order, so estimates move in the last bits, not the draws.
_CHUNK = 1 << 14


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


def zscore_gate(est: MomentEstimate, target) -> tuple[float, bool]:
    """The z-score of an estimate against its exact target, and whether it
    is within 6 standard errors; a zero stderr passes only on the target."""
    target = float(target)
    z = 0.0 if est.stderr == 0 else (est.mean - target) / est.stderr
    return z, abs(z) <= 6 and (est.stderr > 0 or est.mean == target)


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


def _mix_inplace(x: np.ndarray, t: np.ndarray) -> None:
    """_mix64 on every uint64 of x, in place; t is scratch of x's shape."""
    x ^= np.right_shift(x, np.uint64(30), out=t)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, np.uint64(27), out=t)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= np.right_shift(x, np.uint64(31), out=t)


def _uniforms(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Vectorized slice [offset, offset+count) of the SplitMix64 stream,
    computed in place in one array plus one scratch array."""
    x = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    x *= np.uint64(_GAMMA)
    x += np.uint64(seed & _MASK)
    t = np.empty_like(x)
    _mix_inplace(x, t)
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
    the sequential sample_erlang draws.

    The workspace is allocated once per call and every block is computed in
    it in place; each yielded block is a view the next one overwrites. The
    r exponentials of a draw are summed column by column, sample_erlang's
    order, which is also numpy's row sum for r < 8."""
    block = min(_CHUNK, samples)
    base = np.arange(1, block * r + 1, dtype=np.uint64)
    base *= np.uint64(_GAMMA)
    x = np.empty_like(base)
    t = np.empty_like(base)
    u = t.view(np.float64)
    y = np.empty(block)
    for start in range(0, samples, _CHUNK):
        m = min(_CHUNK, samples - start)
        n = m * r
        xs, us, ys = x[:n], u[:n], y[:m]
        # counter i of the stream is seed + i*GAMMA: shift base to this block
        np.add(base[:n], np.uint64((start * r * _GAMMA + seed) & _MASK), out=xs)
        _mix_inplace(xs, t[:n])
        xs >>= np.uint64(11)
        np.copyto(us, xs.view(np.int64))  # exact: xs < 2^53
        us *= -2.0 ** -53  # -U, exactly
        np.log1p(us, out=us)
        cols = us.reshape(m, r)
        np.copyto(ys, cols[:, 0])
        for j in range(1, r):
            ys += cols[:, j]
        yield np.negative(ys, out=ys)


@np.errstate(over="ignore", invalid="ignore")  # the m2 check below reports it
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
    if not math.isfinite(m2):  # an overflow anywhere leaves inf or nan here
        raise DerangeDomainError(
            f"the estimate from {samples} samples overflows a float")
    return MomentEstimate(mean, math.sqrt(m2 / (count - 1)) / math.sqrt(count),
                          samples, seed)


def _horner(coeffs: list[float], y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.polyval(coeffs, y) computed in out: the same operations in the
    same order, without polyval's temporary arrays."""
    out.fill(coeffs[0])
    for c in coeffs[1:]:
        out *= y
        out += c
    return out


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
    # the statistic (1 + xY)^n has mean D_n(x) and mean square D_2n(x), and
    # the estimate sums `samples` squares in floats: refuse what overflows
    if eval_poly(generalized_D_poly(2 * n, r), x) * samples > sys.float_info.max:
        raise DerangeDomainError(
            f"D_{n}({x}) at r = {r} is out of float range for "
            f"{samples} samples")
    coeffs = [float(binomial(n, k) * x ** k) for k in range(n, -1, -1)]
    acc = np.empty(min(_CHUNK, samples))
    return _estimate(r, samples, seed, lambda y: _horner(coeffs, y, acc[:y.size]))

"""Erlang moments by Monte Carlo.

The sum of r independent Exp(1) draws has k-th moment rising(r, k); the
Monte Carlo layer estimates it and the moment-expansion reconstruction of
the generalized polynomials, against a counter-based SplitMix64 uniform
stream so every estimate is a pure function of (seed, samples): uniform i,
from i = 1, is the top 53 bits of the SplitMix64 finalizer of
seed + i * _GAMMA (mod 2^64), times 2^-53. `_erlang_blocks` is the one
implementation of that stream. A seed is one of 0..2^64-1: any other would
alias one of those. The stream has 2^64 distinct uniforms, and a request
for more (samples * r > 2^64) would read its first ones again.
`mc_moment` and `mc_generalized_D` refuse both, with the sample count and
r, in one request check.

The sampler streams: draws come in blocks of `_CHUNK` samples, each cut
from its own slice of the stream, and the per-block (count, mean, M2) are
merged in block order with the Chan-Golub-LeVeque update. A block is
drawn a few columns (a column is one uniform of each draw) a pass: as
many as fill _CHUNK values, so one for a full block and thousands for a
few samples at large r. Each stream allocates one workspace of four
buffers of at most _CHUNK values, O(_CHUNK) memory whatever the sample
count and r, and computes every block in place in it: a yielded block and
its scratch are views that the next block overwrites, so copy one to keep
it. A request costs time in proportion to samples * r.

One pass over a stream serves every statistic asked of it: `_estimate`
folds each block into one running (mean, M2) per statistic. The pass owns
two `_CHUNK`-float buffers, the float64 views of the stream's uniform and
counter buffers, both free once a block's columns are summed:
`_erlang_blocks` yields them with each block. `_estimate` calls each
statistic as statistic(y, out), in order, with the counter view as out,
and takes the statistic's deviations in the uniform view. So the draws y
stay intact until the last statistic has read them, and out still holds
a statistic's values when the next one is called. The moment table
raises each order k from order k - 1 in out by one multiply, so its bits
depend on numpy's float64 log1p kernel but on no power kernel. It draws
each (r, samples, seed) stream once for every order k = 1.._KMAX, and
`mc_moment` indexes it. The table is memoized for the last stream only: a
sweep that walks k innermost draws each r once, and nothing carries over
between sweeps. `mc_generalized_D` is not memoized.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .exact import DerangeDomainError
from .polys import eval_poly, generalized_D_poly

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# Samples per block. Blocks of 2^12-2^14 samples ran fastest on a 2-vCPU
# Xeon (2 MB L2 per core); 2^16 was 1.3-1.5x slower. The block size changes
# only the merge order, so estimates move in the last bits, not the draws.
_CHUNK = 1 << 14
# The highest moment order estimated, by `mc_moment` and by the degree n of
# `mc_generalized_D`; the variance of Y_r^k, which holds E[Y_r^2k], blows
# up with k.
_KMAX = 8


class MomentEstimate(NamedTuple):
    mean: float
    stderr: float


def zscore_gate(est: MomentEstimate, target) -> tuple[float, bool]:
    """The z-score of an estimate against its exact target, and whether it
    is within 6 standard errors; a zero stderr passes only on the target."""
    target = float(target)
    z = 0.0 if est.stderr == 0 else (est.mean - target) / est.stderr
    return z, abs(z) <= 6 and (est.stderr > 0 or est.mean == target)


def _mix_inplace(x: np.ndarray, t: np.ndarray) -> None:
    """The SplitMix64 finalizer on every uint64 of x, in place; t is scratch
    of x's shape."""
    x ^= np.right_shift(x, np.uint64(30), out=t)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, np.uint64(27), out=t)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= np.right_shift(x, np.uint64(31), out=t)


def _erlang_blocks(r: int, samples: int, seed: int
                   ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Erlang(r) draws in blocks of at most _CHUNK samples, each yielded
    with two scratch buffers of its size: the float64 views of the uniform
    and the counter buffers, free once the block's columns are summed.
    Block j reads uniforms [j*_CHUNK*r, ...) of the stream, so the blocks
    concatenate to the draws of one sequential walk of it, r uniforms per
    draw.

    Column c of a block holds uniform c of each of its draws. A pass draws
    g = min(_CHUNK // block, r) columns as the rows of a (g, block) array,
    so a full block takes one column a pass and a few samples at large r
    fill the workspace: row j of the pass at column c holds column c + j,
    whose counters are one constant plus the shared offsets
    j*_GAMMA + d*r*_GAMMA of draw d. The workspace is four buffers of at
    most _CHUNK values, allocated once per call whatever r, and every block
    is computed in it in place; each yielded block and scratch is a view
    the next block overwrites. The r exponentials of a draw are summed
    column by column, in draw order, which is also numpy's row sum for
    r < 8."""
    block = min(_CHUNK, samples)
    g = min(_CHUNK // block, r)
    offset = np.arange(block, dtype=np.uint64)
    offset *= np.uint64(r * _GAMMA & _MASK)
    offset = np.add.outer(np.arange(g, dtype=np.uint64) * np.uint64(_GAMMA),
                          offset)
    x = np.empty(offset.size, dtype=np.uint64)
    t = np.empty_like(x)
    y = np.empty(block)
    u = t.view(np.float64)
    v = x.view(np.float64)
    for start in range(0, samples, _CHUNK):
        m = min(_CHUNK, samples - start)
        ys = y[:m]
        for c in range(0, r, g):
            rows = min(g, r - c)
            xs, ts, us = x[:rows * m], t[:rows * m], u[:rows * m]
            # counter i of the stream is seed + i*GAMMA, and draw d of the
            # block reads i = (start + d)*r + c + j + 1 in row j
            np.add(offset[:rows, :m],
                   np.uint64((seed + (start * r + c + 1) * _GAMMA) & _MASK),
                   out=xs.reshape(rows, m))
            _mix_inplace(xs, ts)
            xs >>= np.uint64(11)
            np.copyto(us, xs.view(np.int64))  # exact: xs < 2^53
            us *= -2.0 ** -53  # -U, exactly
            if c == 0:  # column 0 starts the block
                np.log1p(us[:m], out=ys)
                us = us[m:]
            for row in np.log1p(us, out=us).reshape(-1, m):
                ys += row
        yield np.negative(ys, out=ys), u[:m], v[:m]


@np.errstate(over="ignore", invalid="ignore")  # the m2 check below reports it
def _estimate(r: int, samples: int, seed: int,
              statistics: Sequence[Callable[[np.ndarray, np.ndarray],
                                            np.ndarray]]
              ) -> list[MomentEstimate]:
    """Mean and standard error of each statistic(Y_r), all from one pass
    over the draws, one block at a time: each block's (count, mean, M2) of
    every statistic is folded into that statistic's running totals with the
    Chan-Golub-LeVeque update, in block order. The statistics are called in
    order as statistic(y, out) and return their values, in out or in y
    itself; out is the counter view that `_erlang_blocks` yields with the
    block, and each statistic's deviations go to the uniform view, so out
    still holds the values of the statistic before when the next one is
    called. The pass allocates no buffer of its own, and no statistic
    writes to the block y that the next statistic reads."""
    count, means, m2s = 0, [0.0] * len(statistics), [0.0] * len(statistics)
    for y, scratch, out in _erlang_blocks(r, samples, seed):
        b_count = y.size
        total = count + b_count
        for i, statistic in enumerate(statistics):
            s = statistic(y, out)
            # ndarray.mean without its wrapper: the same pairwise sum, divided
            b_mean = float(np.add.reduce(s)) / b_count
            d = np.subtract(s, b_mean, out=scratch)
            # numpy's pairwise sum, not a BLAS dot, whose order may vary by build
            b_m2 = float(np.add.reduce(np.square(d, out=d)))
            delta = b_mean - means[i]
            means[i] += delta * b_count / total
            m2s[i] += b_m2 + delta * delta * count * b_count / total
        count = total
    if not all(map(math.isfinite, m2s)):  # an overflow leaves inf or nan
        raise DerangeDomainError(
            f"the estimate from {samples} samples overflows a float")
    return [MomentEstimate(mean, math.sqrt(m2 / (count - 1)) / math.sqrt(count))
            for mean, m2 in zip(means, m2s)]


def _horner(coeffs: list[float], y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.polyval(coeffs, y) computed in out: the same operations in the
    same order, without polyval's temporary arrays."""
    out.fill(coeffs[0])
    for c in coeffs[1:]:
        out *= y
        out += c
    return out


def _check_request(samples: int, r: int, seed: int) -> None:
    """Refuse a sample count, r or seed that no stream serves: the stream
    is defined for seeds 0..2^64-1 only, and a seed outside them would
    alias one inside; it has 2^64 distinct counters, and a request for more
    than 2^64 uniforms would read the first ones again."""
    if samples < 2:
        raise DerangeDomainError("need samples >= 2")
    if r < 1:
        raise DerangeDomainError("need r >= 1")
    if not 0 <= seed <= _MASK:
        raise DerangeDomainError(f"need 0 <= seed < 2^64, got {seed}")
    if samples * r > 1 << 64:
        raise DerangeDomainError(
            f"need samples * r <= 2^64, got {samples} * {r}")


def mc_moment(r: int, k: int, samples: int, seed: int) -> MomentEstimate:
    """Sample mean and standard error of Y_r^k."""
    _check_request(samples, r, seed)
    if k < 0 or k > _KMAX:
        raise DerangeDomainError(
            f"need 0 <= k <= {_KMAX} (moment variance blow-up)")
    if k == 0:
        return MomentEstimate(1.0, 0.0)
    return _moment_table(r, samples, seed)[k - 1]


@functools.lru_cache(maxsize=1)
def _moment_table(r: int, samples: int, seed: int) -> tuple[MomentEstimate, ...]:
    """The estimates of E[Y_r^k] for k = 1.._KMAX from one pass over the
    stream. Order 1 is the draws themselves, order 2 is y*y, and each order
    above is the one below times y, in place in the pass's out buffer: the
    k-fold product y*y*...*y taken left to right, one multiply an order
    rather than one pow call. Its relative error is at most about
    (k - 1) * 2^-53 (Higham 2002, section 3.1)."""
    def first(y, out):
        return y

    def second(y, out):
        return np.multiply(y, y, out=out)

    def next_order(y, out):
        return np.multiply(out, y, out=out)

    return tuple(_estimate(r, samples, seed,
                           [first, second] + [next_order] * (_KMAX - 2)))


def mc_generalized_D(n: int, r: int, x, samples: int, seed: int) -> MomentEstimate:
    """Plug-in estimator of sum_k C(n,k) x^k E[Y_r^k] from one shared sample
    set, with the standard error of the per-draw statistic."""
    _check_request(samples, r, seed)
    if n < 0 or n > _KMAX:
        raise DerangeDomainError(f"need 0 <= n <= {_KMAX}")
    if n == 0:
        return MomentEstimate(1.0, 0.0)
    x = Fraction(x)
    # the statistic (1 + xY)^n has mean D_n(x) and mean square D_2n(x), and
    # the estimate sums `samples` squares in floats: refuse what overflows
    if eval_poly(generalized_D_poly(2 * n, r), x) * samples > sys.float_info.max:
        raise DerangeDomainError(
            f"D_{n}({x}) at r = {r} is out of float range for "
            f"{samples} samples")
    coeffs = [float(math.comb(n, k) * x ** k) for k in range(n, -1, -1)]
    [est] = _estimate(r, samples, seed,
                      [lambda y, out: _horner(coeffs, y, out)])
    return est

"""Erlang moments by Monte Carlo.

The sum Y_r of r independent Exp(1) draws has k-th moment rising(r, k);
the Monte Carlo layer estimates these moments and the generalized
polynomials, against a counter-based SplitMix64 uniform stream so every
estimate is a pure function of (seed, samples): uniform i,
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
few samples at large r. A draw is Y_r = -log prod_j (1 - U_j), one log
for each run of at most 19 factors: each factor is exact and at least
2^-53, so the product of 19 stays a normal float. Each stream allocates
one workspace of four buffers of at most _CHUNK values, and a fifth for
the logs' running sum when r > 19, O(_CHUNK) memory whatever the sample
count and r, each starting on a 64-byte cache line, and computes every
block in place in it: a yielded block and its scratch are views that the
next block overwrites, so copy one to keep it. A request costs time in
proportion to samples * r.

Every estimate is a power of one affine statistic of the draws: D_n^{(r)}(x)
= E[(1 + x*Y_r)^n] and E[Y_r^k] = rising(r, k) are E[(c + x*Y_r)^k] at
(c, x) = (1, x) and (0, 1). `_estimate` is the one estimator: one pass
over a stream writes z = c + x*y over each block and raises it one
multiply an order, folding each order asked for into its running (mean,
M2). The powers and the deviations go to the float64 views of the
stream's counter and uniform buffers, both free once a block's columns
are multiplied, so a pass holds the stream's buffers and no more. The
bits of an estimate depend on numpy's float64 log kernel but on no
power kernel. The moment table is the (0, 1) pass over every order
k = 1.._KMAX, and `mc_moment` indexes it; it is memoized for the last
stream only: a sweep that walks k innermost draws each r once, and
nothing carries over between sweeps. `mc_generalized_D` is the (1, x)
pass at order n alone, and is not memoized.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Iterator, Sequence
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .exact import DerangeDomainError, as_text
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
# The most factors 1 - U_j one log of their product reads: each is at least
# 2^-53, so 19 of them keep the product at or above 2^-1007, inside the
# normal floats (the least is 2^-1022), where 20 could fall below and lose
# bits.
_RUN = 19


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


def _aligned(size: int, dtype) -> np.ndarray:
    """An uninitialized array of size values of dtype whose data starts on
    a 64-byte boundary, a cache line: `np.empty` promises only 16 bytes,
    and mc-sweep's sampler pass took 121-139 ms with every buffer at 0 mod
    64 against 139-166 ms at 16 mod 64 (BENCH_37.json)."""
    itemsize = np.dtype(dtype).itemsize
    raw = np.empty(size * itemsize + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + size * itemsize].view(dtype)


def _erlang_blocks(r: int, samples: int, seed: int
                   ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Erlang(r) draws in blocks of at most _CHUNK samples, each yielded
    with two scratch buffers of its size: the float64 views of the uniform
    and the counter buffers, free once the block's columns are multiplied.
    Block j reads uniforms [j*_CHUNK*r, ...) of the stream, so the blocks
    concatenate to the draws of one sequential walk of it, r uniforms per
    draw.

    A draw is Y_r = -log prod_j (1 - U_j), its r exponentials -log(1 - U_j)
    taken as one log of their product (Devroye 1986, ch. IX). Each factor
    1 - U_j = (2^53 - k)*2^-53, with k the top 53 bits of a mix, is exact.
    The columns are multiplied left to right in runs of at most _RUN, one
    log a run, and a draw's logs are summed in run order. The integers
    2^53 - k are multiplied unscaled and a run's product is scaled once by
    2^(-53*length): the partial products lie in [1, 2^1007] unscaled and
    in [2^-1007, 1] scaled, both normal, where a power-of-two scale
    commutes with rounding, so the bits are those of scaling each factor.

    Column c of a block holds uniform c of each of its draws. A pass draws
    g = min(_CHUNK // block, r) columns as the rows of a (g, block) array,
    so a full block takes one column a pass and a few samples at large r
    fill the workspace: row j of the pass at column c holds column c + j,
    whose counters are one constant plus the shared offsets
    j*_GAMMA + d*r*_GAMMA of draw d. The workspace is four buffers of at
    most _CHUNK values, and a fifth, the running sum of the logs, for
    r > 19; each is 64-byte aligned and allocated once per call, and every
    block is computed in it in place; each yielded block and scratch is a
    view the next block overwrites."""
    block = min(_CHUNK, samples)
    g = min(_CHUNK // block, r)
    offset = _aligned(g * block, np.uint64).reshape(g, block)
    draw = np.arange(block, dtype=np.uint64)
    draw *= np.uint64(r * _GAMMA & _MASK)
    np.add.outer(np.arange(g, dtype=np.uint64) * np.uint64(_GAMMA), draw,
                 out=offset)
    del draw  # before the workspace, so the peak is the workspace alone
    x = _aligned(offset.size, np.uint64)
    t = _aligned(offset.size, np.uint64)
    y = _aligned(block, np.float64)
    logs = _aligned(block, np.float64) if r > _RUN else None
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
            np.subtract(np.uint64(1 << 53), xs, out=xs)  # (1 - U) * 2^53
            np.copyto(us, xs.view(np.int64))  # exact: xs <= 2^53
            for j, factor in enumerate(us.reshape(rows, m), c):
                if j % _RUN == 0:
                    np.copyto(ys, factor)
                else:
                    ys *= factor
                if j % _RUN == _RUN - 1 or j == r - 1:  # a run ends
                    ys *= 2.0 ** (-53 * (j % _RUN + 1))
                    if j == r - 1:
                        np.log(ys, out=ys)
                        if j >= _RUN:
                            ys += logs[:m]
                    elif j < _RUN:
                        np.log(ys, out=logs[:m])
                    else:
                        logs[:m] += np.log(ys, out=ys)
        yield np.negative(ys, out=ys), u[:m], v[:m]


@np.errstate(over="ignore", invalid="ignore")  # the m2 check below reports it
def _estimate(r: int, samples: int, seed: int, c: float, x: float,
              orders: Sequence[int]) -> list[MomentEstimate]:
    """Mean and standard error of (c + x*Y_r)^k for each k of the ascending
    orders, all from one pass over the draws, one block at a time. The block
    y becomes z = c + x*y in place (left as it is for (0, 1)), and each
    order is the one below times z: order 1 is z, order 2 is z*z into the
    counter view that `_erlang_blocks` yields with the block, and each
    order above is that view times z, in place. So order k is the k-fold
    product z*z*...*z taken left to right, with relative error at most
    about (k - 1) * 2^-53 (Higham 2002, section 3.1). Each order asked for
    has its block (count, mean, M2) folded into its running totals with
    the Chan-Golub-LeVeque update, in block order, its deviations taken in
    the uniform view. The pass allocates no buffer of its own."""
    count, means, m2s = 0, [0.0] * len(orders), [0.0] * len(orders)
    for z, scratch, out in _erlang_blocks(r, samples, seed):
        if (c, x) != (0, 1):
            z *= x
            z += c
        b_count = z.size
        total = count + b_count
        power, i = z, 0
        for k in range(1, orders[-1] + 1):
            if k > 1:
                power = np.multiply(power, z, out=out)
            if k != orders[i]:
                continue
            # ndarray.mean without its wrapper: the same pairwise sum, divided
            b_mean = float(np.add.reduce(power)) / b_count
            d = np.subtract(power, b_mean, out=scratch)
            # numpy's pairwise sum, not a BLAS dot, whose order may vary by build
            b_m2 = float(np.add.reduce(np.square(d, out=d)))
            delta = b_mean - means[i]
            means[i] += delta * b_count / total
            m2s[i] += b_m2 + delta * delta * count * b_count / total
            i += 1
        count = total
    if not all(map(math.isfinite, m2s)):  # an overflow leaves inf or nan
        raise DerangeDomainError(
            f"the estimate from {samples} samples overflows a float")
    return [MomentEstimate(mean, math.sqrt(m2 / (count - 1)) / math.sqrt(count))
            for mean, m2 in zip(means, m2s)]


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
    """The estimates of E[Y_r^k] for k = 1.._KMAX: the (c, x) = (0, 1) pass
    of `_estimate`, so order k is the k-fold product y*y*...*y."""
    return tuple(_estimate(r, samples, seed, 0, 1, range(1, _KMAX + 1)))


def mc_generalized_D(n: int, r: int, x, samples: int, seed: int) -> MomentEstimate:
    """The estimate of D_n^{(r)}(x) = E[(1 + x*Y_r)^n]: the (1, x) pass of
    `_estimate` at order n alone, so the statistic is the n-fold product of
    z = 1 + x*y and no coefficient of the expanded polynomial is formed."""
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
            f"D_{n}({as_text(x)}) at r = {r} is out of float range for "
            f"{samples} samples")
    [est] = _estimate(r, samples, seed, 1, float(x), [n])
    return est

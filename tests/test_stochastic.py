import ast
import functools
import math
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from derange import stochastic
from derange.exact import DerangeDomainError, rising_factorial
from derange.polys import eval_poly, generalized_D_poly
from derange.stochastic import (
    _CHUNK,
    _GAMMA,
    _KMAX,
    _MASK,
    MomentEstimate,
    _erlang_blocks,
    _estimate,
    _mix_inplace,
    _moment_table,
    mc_generalized_D,
    mc_moment,
    zscore_gate,
)

SMALL = 20_000  # enough for a 6-sigma sanity check without slowing the suite


# References for the sampler's one stream, _erlang_blocks: the SplitMix64
# stream drawn one uniform at a time, and a vectorized slice of it.
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
    _mix_inplace(x, t)
    x >>= np.uint64(11)
    return np.multiply(x, 2.0 ** -53, out=t.view(np.float64))


# The factors 1 - U_j that one log reads, restated here from their bound:
# each is at least 2^-53, and 2^(-53*19) = 2^-1007 is a normal float.
RUN = 19


def sample_erlang(r: int, rng: SplitMix64) -> float:
    """One Erlang(r) draw, -log of the product of its r factors 1 - U: the
    running product is flushed to a sum of logs every RUN factors."""
    if r < 1:
        raise DerangeDomainError("need r >= 1")
    y, product = 0.0, 1.0
    for j in range(r):
        product *= 1 - rng.next_float()
        if j % RUN == RUN - 1 or j == r - 1:
            y -= math.log(product)
            product = 1.0
    return y


def product_draws(factors: np.ndarray) -> np.ndarray:
    """Row d's draw -log prod_j factors[d, j]: each run of RUN columns is
    multiplied left to right, from a copy of its first, and the runs' logs
    are added in column order."""
    y = np.zeros(len(factors))
    for first in range(0, factors.shape[1], RUN):
        product = factors[:, first].copy()
        for j in range(first + 1, min(first + RUN, factors.shape[1])):
            product *= factors[:, j]
        y += np.log(product)
    return -y


class TestSplitMix64:
    def test_reproducible_stream(self):
        a = SplitMix64(123)
        b = SplitMix64(123)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_distinct_seeds_differ(self):
        assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()

    def test_floats_in_unit_interval(self):
        rng = SplitMix64(42)
        vals = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_vectorized_matches_sequential(self):
        rng = SplitMix64(42)
        seq = [rng.next_float() for _ in range(64)]
        vec = _uniforms(42, 64)
        assert seq == list(vec)

    def test_vectorized_offset(self):
        full = _uniforms(7, 100)
        assert list(_uniforms(7, 40, offset=60)) == list(full[60:])


# sample counts on both sides of each block boundary
BOUNDARY_SAMPLES = [2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]
BOUNDARY_R, BOUNDARY_SEED = 3, 42


@functools.cache
def sequential_draws(samples):
    rng = SplitMix64(BOUNDARY_SEED)
    return [sample_erlang(BOUNDARY_R, rng) for _ in range(samples)]


def blocks_of(r, samples, seed):
    """Every block of one _erlang_blocks call, each copied out of the
    workspace the next block overwrites."""
    return [block.copy() for block, *_ in _erlang_blocks(r, samples, seed)]


def test_sample_erlang_matches_vectorized_stream():
    for samples in BOUNDARY_SAMPLES:
        blocks = blocks_of(BOUNDARY_R, samples, BOUNDARY_SEED)
        assert [b.size for b in blocks[:-1]] == [_CHUNK] * (len(blocks) - 1)
        vec = np.concatenate(blocks)
        assert np.allclose(sequential_draws(samples), vec, rtol=0, atol=1e-12)
    # on both sides of the run boundaries, across one many-column pass
    for r in (19, 20, 38, 39, 40):
        rng = SplitMix64(BOUNDARY_SEED)
        draws = [sample_erlang(r, rng) for _ in range(3)]
        vec = np.concatenate(blocks_of(r, 3, BOUNDARY_SEED))
        assert np.allclose(draws, vec, rtol=0, atol=1e-12), r


def allocating_blocks(r, samples, seed):
    """The block pipeline without the in-place kernel: a fresh uniform
    slice for every block, and the product draws of its factors 1 - U
    (exact: U is a multiple of 2^-53)."""
    for start in range(0, samples, _CHUNK):
        m = min(_CHUNK, samples - start)
        u = _uniforms(seed, m * r, start * r)
        yield product_draws(1 - u.reshape(m, r))


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


@pytest.mark.parametrize("r", range(1, 8))
def test_block_kernel_is_the_allocating_pipeline_bit_for_bit(r):
    # the kernel multiplies the unscaled integers 2^53 - k and scales each
    # run once; the reference scales every factor, with the same bits
    for samples in BOUNDARY_SAMPLES:
        new = blocks_of(r, samples, BOUNDARY_SEED)
        old = list(allocating_blocks(r, samples, BOUNDARY_SEED))
        assert len(new) == len(old)
        assert all(bits(a) == bits(b) for a, b in zip(new, old))


@pytest.mark.parametrize("samples,r", [
    pytest.param(2 * _CHUNK + 3, 8, id="8"),
    pytest.param(2 * _CHUNK + 3, 11, id="11"),
    # a few samples take many columns a pass; the last shape ends on a
    # partial pass of _CHUNK // 5000 = 3 columns
    *[pytest.param(samples, r, id=f"{samples}-{r}")
      for samples, r in [(2, 3 * _CHUNK), (3, 40), (100, 8), (5000, 7)]],
    # a run of RUN factors ends at r = 19 and 38, one more starts at 20 and
    # 39: on the one-column pass of a full block, and across the rows of
    # the many-column passes of 2 and 3 samples
    *[pytest.param(samples, r, id=f"run-{samples}-{r}")
      for samples in (_CHUNK + 1, 2, 3) for r in (19, 20, 38, 39, 40)]])
def test_block_kernel_sums_columns_in_draw_order(samples, r):
    factors = 1 - _uniforms(BOUNDARY_SEED, samples * r).reshape(samples, r)
    assert bits(np.concatenate(blocks_of(r, samples, BOUNDARY_SEED))) == bits(
        product_draws(factors))


@pytest.mark.parametrize("samples", [3, _CHUNK + 1])
def test_the_extreme_factors_keep_every_draw_finite(monkeypatch, samples):
    # every mix all ones makes every U = 1 - 2^-53, the least factor 2^-53,
    # and every mix 0 makes every U = 0, the factor 1 (the unscaled 2^53):
    # at r = 40 the draws are 40*53*log 2 and 0; a run of 20 factors would
    # take the unscaled product to 2^1060, past the largest float
    for fill, want in [(_MASK, 40 * 53 * math.log(2)), (0, 0.0)]:
        monkeypatch.setattr(stochastic, "_mix_inplace",
                            lambda x, t: x.fill(fill))
        draws = np.concatenate(blocks_of(40, samples, BOUNDARY_SEED))
        assert draws.size == samples
        assert np.allclose(draws, want, rtol=1e-15, atol=0), fill


@pytest.mark.parametrize("r,samples", [
    (1, 2), (3, 5000), (3, 2 * _CHUNK + 3), (40, 3), (40, _CHUNK + 1)])
def test_every_view_of_the_workspace_starts_a_cache_line(r, samples):
    for views in _erlang_blocks(r, samples, BOUNDARY_SEED):
        assert [view.ctypes.data % 64 for view in views] == [0, 0, 0]


def test_a_few_samples_draw_a_workspace_of_columns_a_pass(monkeypatch):
    # 2 samples fill the workspace with _CHUNK // 2 columns a pass, so r =
    # 3 * _CHUNK columns take 6 passes, not one pass a column
    mixes, mix = [], stochastic._mix_inplace

    def counting(x, t):
        mixes.append(x.size)
        mix(x, t)

    monkeypatch.setattr(stochastic, "_mix_inplace", counting)
    blocks_of(3 * _CHUNK, 2, BOUNDARY_SEED)
    assert mixes == [_CHUNK] * 6


def test_successive_blocks_share_one_buffer():
    blocks = [block for block, *_ in
              _erlang_blocks(BOUNDARY_R, 3 * _CHUNK + 5, BOUNDARY_SEED)]
    assert len(blocks) == 4
    assert all(np.shares_memory(blocks[0], b) for b in blocks[1:])


def test_the_sampler_workspace_does_not_grow_with_r():
    # a block is drawn one column at a time in _CHUNK-sized buffers, so a
    # moment-table pass allocates as much at r = 8 as at r = 1: four
    # buffers (offsets, counters, uniforms that are then the statistics'
    # scratch, and the block) and a few KB of small objects
    def peak(r):
        _moment_table.cache_clear()
        tracemalloc.start()
        try:
            _moment_table(r, 3 * _CHUNK + 5, BOUNDARY_SEED)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _moment_table.cache_clear()

    peak(1)  # numpy's first-call allocations are not the workspace's
    assert peak(1) <= 4 * _CHUNK * 8 + 8192
    assert peak(8) <= peak(1) + 4096
    # past one run of factors, the running sum of the logs is a fifth
    assert peak(40) <= peak(1) + _CHUNK * 8 + 4096


def test_a_polynomial_pass_holds_the_same_four_buffers():
    # z = 1 + x*y is written over the block and its powers into the counter
    # view, so a polynomial pass allocates no more than a moment-table pass
    def peak(r):
        tracemalloc.start()
        try:
            mc_generalized_D(_KMAX, r, F(-11, 13), 3 * _CHUNK + 5,
                             BOUNDARY_SEED)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # numpy's first-call allocations are not the workspace's
    assert peak(1) <= 4 * _CHUNK * 8 + 8192
    assert peak(8) <= 4 * _CHUNK * 8 + 8192


def test_every_statistic_writes_to_the_one_scratch_of_the_pass(monkeypatch):
    # once a block is folded, the block holds z = c + x*y, the float64 view
    # of the counter buffer holds the top order's z*z*...*z taken left to
    # right, and the uniform view holds that order's squared deviations:
    # neither view shares memory with the block, and both are the same
    # buffers on every block, for the moment pass and a polynomial pass
    counters, uniforms, views = [], [], []
    mix, draw = stochastic._mix_inplace, stochastic._erlang_blocks

    def mixing(xs, ts):
        counters.append(xs.base)
        uniforms.append(ts.base)
        mix(xs, ts)

    def drawing(r, samples, seed):
        for y, scratch, out in draw(r, samples, seed):
            z = y.copy() if (c, x) == (0, 1) else y * x + c
            yield y, scratch, out
            power = z.copy()
            for _ in range(orders[-1] - 1):
                power *= z
            mean = float(np.add.reduce(power)) / z.size
            assert bits(y) == bits(z)
            assert bits(out) == bits(power)
            assert bits(scratch) == bits(np.square(power - mean))
            views.append((y, scratch, out))

    monkeypatch.setattr(stochastic, "_mix_inplace", mixing)
    monkeypatch.setattr(stochastic, "_erlang_blocks", drawing)
    for c, x, orders in [(0, 1, range(1, _KMAX + 1)), (1, -11 / 13, [5])]:
        for seen in (counters, uniforms, views):
            seen.clear()
        _estimate(BOUNDARY_R, 3 * _CHUNK + 5, BOUNDARY_SEED, c, x, orders)
        assert [y.size for y, *_ in views] == [_CHUNK] * 3 + [5]
        assert all(base is counters[0] for base in counters)
        assert all(base is uniforms[0] for base in uniforms)
        for y, scratch, out in views:
            assert out.base is counters[0] and scratch.base is uniforms[0]
            assert not np.shares_memory(out, y)
            assert not np.shares_memory(scratch, y)
            assert not np.shares_memory(out, scratch)


def test_one_pass_draws_every_stream():
    """`_estimate` is the only code of the package that reads
    `_erlang_blocks`, and only `_moment_table` and `mc_generalized_D` read
    `_estimate`: every estimate is a power of c + x*Y_r from that pass."""
    readers = {"_erlang_blocks": [], "_estimate": []}
    for path in sorted(Path(stochastic.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            names = {getattr(node, "id", None) or getattr(node, "attr", None)
                     for node in ast.walk(top)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            owner = getattr(top, "name", "<module>")
            for name in readers.keys() & names:
                readers[name].append(f"{path.stem}.{owner}")
    assert readers == {
        "_erlang_blocks": ["stochastic._estimate"],
        "_estimate": ["stochastic._moment_table", "stochastic.mc_generalized_D"]}


def test_interleaved_generators_keep_their_own_workspace():
    samples = 2 * _CHUNK + 3
    alone_a = blocks_of(3, samples, 42)
    alone_b = blocks_of(5, samples, 7)
    both = zip(_erlang_blocks(3, samples, 42), _erlang_blocks(5, samples, 7))
    for i, ((a, *_), (b, *_)) in enumerate(both):
        assert bits(a) == bits(alone_a[i])
        assert bits(b) == bits(alone_b[i])
    assert i == len(alone_a) - 1


GOLDEN_SAMPLES = 3 * _CHUNK + 5
# (mean, stderr) as float.hex at GOLDEN_SAMPLES samples, seed 42, recorded
# from the allocating sampler that preceded the in-place block kernel, and
# again at k >= 3 where they moved when each order became the one below
# times y, in place of one np.power call an order. The polynomial values
# at (5, 1/2), (7, 1/2) and n = 5..8 at -11/13 were recorded again when
# the statistic became the n-fold product of 1 + x*y in place of Horner's
# rule on the expanded coefficients, and 21 entries were recorded again,
# each mean moved by at most 9e-14 of its standard error, when a draw
# became one log of the product of its factors 1 - U in place of a sum of
# log1p(-U). The bits depend on the SIMD kernel numpy dispatches float64
# log to, not on the stream alone: at X86_V4 (numpy 2.4.6 on an AVX-512
# Xeon), np.log differs from math.log in 58 of the 16,384 elements of the
# first r = 1 block at seed 42. A multiply is correctly rounded on every
# kernel, so log is the one kernel the bits depend on. A host that
# dispatches it to another kernel (an older CPU, or
# NPY_DISABLE_CPU_FEATURES) can move these bits with the sampler
# unchanged; the assertion names the kernel it ran, and
# `python tests/test_stochastic.py` prints both dicts from the current
# build, and each entry that moved as old -> new.
GOLDEN_MOMENTS = {  # (r, k)
    (1, 1): ("0x1.fe3cc6ed95e8cp-1", "0x1.24fa3bc4a0f54p-8"),
    (1, 2): ("0x1.f9bba4a655778p+0", "0x1.4e04b2aa0ef36p-6"),
    (1, 3): ("0x1.7af6b62295d55p+2", "0x1.139f926b9f5afp-3"),
    (1, 4): ("0x1.85545e8a890c2p+4", "0x1.496e11859f166p+0"),
    (1, 5): ("0x1.08213bb26a7cbp+7", "0x1.e107d5ef6ddb8p+3"),
    (1, 6): ("0x1.ceb1860e6a7a0p+9", "0x1.7ba56e35cc2eep+7"),
    (1, 7): ("0x1.f6f8b086ed6c9p+12", "0x1.3504bf8200c2ep+11"),
    (1, 8): ("0x1.4047cb78e2d7cp+16", "0x1.fe791ed6d0246p+14"),
    (2, 1): ("0x1.fcdc584182f8bp+0", "0x1.a02487534dc06p-8"),
    (2, 2): ("0x1.7bb7b6e2a468ep+2", "0x1.514f062d77625p-5"),
    (2, 3): ("0x1.7a7b921d2524dp+4", "0x1.39b4661b0d968p-2"),
    (2, 4): ("0x1.da2a2d9981662p+6", "0x1.67bbcff2cd20bp+1"),
    (2, 5): ("0x1.681f4559cea39p+9", "0x1.e9052592dd6a0p+4"),
    (2, 6): ("0x1.434f0cb72c881p+12", "0x1.73c221db28812p+8"),
    (2, 7): ("0x1.4f695e56e6f1fp+15", "0x1.2e9073d2313c7p+12"),
    (2, 8): ("0x1.88e11f23be8f6p+18", "0x1.00abfdbd143f0p+16"),
    (3, 1): ("0x1.7e29ad2550da5p+1", "0x1.fef8379092443p-8"),
    (3, 2): ("0x1.7cdf600494bc2p+3", "0x1.0d6d0ca9a83abp-4"),
    (3, 3): ("0x1.da862c1b53ea0p+5", "0x1.23ecd1b41c4efp-1"),
    (3, 4): ("0x1.62592c832d204p+8", "0x1.676121b48466dp+2"),
    (3, 5): ("0x1.33fc8d962c0a2p+11", "0x1.f435a27b21108p+5"),
    (3, 6): ("0x1.30a9b5898be3cp+14", "0x1.7e738e32ae1ccp+9"),
    (3, 7): ("0x1.50b813e04616ap+17", "0x1.380999073cd44p+13"),
    (3, 8): ("0x1.9910baf315b70p+20", "0x1.09d85babeedfcp+17"),
    (4, 1): ("0x1.fe784e3bb3ca5p+1", "0x1.26fbd75ad08c7p-7"),
    (4, 2): ("0x1.3e359bea1aff8p+4", "0x1.80402c6dcff83p-4"),
    (4, 3): ("0x1.db9fba44a5b7dp+6", "0x1.e778cfb4751bfp-1"),
    (4, 4): ("0x1.9e1156ced0ad8p+9", "0x1.55140b252cc53p+3"),
    (4, 5): ("0x1.9b42e12549e82p+12", "0x1.0aa584391b10bp+7"),
    (4, 6): ("0x1.ca93584fb039cp+15", "0x1.ca137022c5508p+10"),
    (4, 7): ("0x1.1b2fd0238ddd9p+19", "0x1.a632c99cd0cedp+14"),
    (4, 8): ("0x1.7eb5a88acbb4fp+22", "0x1.990eae29317a9p+18"),
    (5, 1): ("0x1.3efb9d8fd3742p+2", "0x1.487c3b2b088f2p-7"),
    (5, 2): ("0x1.dc7f73f9ad3cep+4", "0x1.fc0c626fbf516p-4"),
    (5, 3): ("0x1.9e6f91b7f91c2p+7", "0x1.6e7752bd593f0p+0"),
    (5, 4): ("0x1.9acab54d41d24p+10", "0x1.1ae71a81504eap+4"),
    (5, 5): ("0x1.c8747b2d6f15ep+13", "0x1.e02d92bb0cd55p+7"),
    (5, 6): ("0x1.189b41c3f269cp+17", "0x1.bf7ce69696734p+11"),
    (5, 7): ("0x1.79adf710204bcp+20", "0x1.c48189eb2c481p+15"),
    (5, 8): ("0x1.13b13aa00b317p+24", "0x1.e897057426f96p+19"),
}
GOLDEN_POLYNOMIAL = {  # (n, x) at r = 3
    (1, F("1/2")): ("0x1.3f14d692a86d3p+1", "0x1.fef8379092443p-9"),
    (2, F("1/2")): ("0x1.bd848694f2cb3p+2", "0x1.88388a9aed718p-6"),
    (3, F("1/2")): ("0x1.5d1d1f7f8bea0p+4", "0x1.096b906ae0779p-3"),
    (4, F("1/2")): ("0x1.328452fad1337p+6", "0x1.76e0aefb38cd7p-1"),
    (5, F("1/2")): ("0x1.2c183c14e46c3p+8", "0x1.1fada46410029p+2"),
    (6, F("1/2")): ("0x1.456e4e2f6ef35p+10", "0x1.dfe01e6a34c2cp+4"),
    (7, F("1/2")): ("0x1.83d066892fd01p+12", "0x1.ac59c18ad7453p+7"),
    (8, F("1/2")): ("0x1.f780ade0ef369p+14", "0x1.91ed8663ac6cfp+10"),
    (1, F("-11/13")): ("-0x1.86bcaedcb0367p+0", "0x1.b05be03f40afep-8"),
    (2, F("-11/13")): ("0x1.1e05e043631f8p+2", "0x1.1e1bc1a0a2987p-5"),
    (3, F("-11/13")): ("-0x1.0f2d841cafa8ep+4", "0x1.d4deaefd9e1c8p-3"),
    (4, F("-11/13")): ("0x1.3fbacd1264f3bp+6", "0x1.c990f2107104fp+0"),
    (5, F("-11/13")): ("-0x1.be42916285ebfp+8", "0x1.ff3b9773b4b75p+3"),
    (6, F("-11/13")): ("0x1.65f67cc8a9e38p+11", "0x1.3914bbbc14cacp+7"),
    (7, F("-11/13")): ("-0x1.424b4526bd49ep+14", "0x1.96d57850b3177p+10"),
    (8, F("-11/13")): ("0x1.3f318b26b08adp+17", "0x1.129baf944833ep+14"),
}


def _dispatch() -> dict:
    """The CPU target numpy runs float64 log on, the one kernel that the
    goldens depend on: the draws are logs of products of exact factors,
    and the moments and the polynomial values are products of c + x*y,
    whose multiplies and adds are correctly rounded."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy before 2.0 has no introspection
        return {"numpy": np.__version__}
    info = opt_func_info(func_name="^log$", signature="float64")
    return {name: [target["current"] for target in sigs.values()]
            for name, sigs in info.items()}


def golden_estimates() -> tuple[dict, dict]:
    """Every golden's (mean, stderr) as float.hex, from the current build."""
    def pinned(est):
        return est.mean.hex(), est.stderr.hex()
    return ({(r, k): pinned(mc_moment(r, k, GOLDEN_SAMPLES, 42))
             for r, k in GOLDEN_MOMENTS},
            {(n, x): pinned(mc_generalized_D(n, 3, x, GOLDEN_SAMPLES, 42))
             for n, x in GOLDEN_POLYNOMIAL})


def golden_key(key) -> str:
    """A golden's key as this file writes it: (r, k) or (n, F("x"))."""
    a, b = key
    return f'({a}, F("{b}"))' if isinstance(b, F) else f"({a}, {b})"


def golden_source(moments: dict, polynomial: dict) -> str:
    """The two golden dicts as this file writes them."""
    def entry(key, pair):
        return f'    {golden_key(key)}: ("{pair[0]}", "{pair[1]}"),'
    return "\n".join([
        "GOLDEN_MOMENTS = {  # (r, k)",
        *[entry(key, pair) for key, pair in moments.items()],
        "}",
        "GOLDEN_POLYNOMIAL = {  # (n, x) at r = 3",
        *[entry(key, pair) for key, pair in polynomial.items()],
        "}"])


def golden_changes(old: dict, new: dict) -> list[str]:
    """One line for each entry of old whose bits differ in new, as
    old -> new (mean, stderr)."""
    return [f"{golden_key(key)}: {old[key]} -> {new[key]}"
            for key in old if new[key] != old[key]]


def test_golden_estimates():
    # any change to the stream, the block kernel or the merge order moves a
    # bit; so does another SIMD dispatch of log (see GOLDEN_SAMPLES)
    moments, polynomial = golden_estimates()
    dispatch = _dispatch()
    for (r, k), want in GOLDEN_MOMENTS.items():
        assert moments[r, k] == want, (r, k, dispatch)
    for (n, x), want in GOLDEN_POLYNOMIAL.items():
        assert polynomial[n, x] == want, (n, x, dispatch)


def test_the_golden_printer_writes_this_files_dicts():
    # so the script's output can replace the dicts above as it stands
    source = Path(__file__).read_text()
    assert golden_source(GOLDEN_MOMENTS, GOLDEN_POLYNOMIAL) + "\n" in source


def test_the_golden_printer_names_each_moved_entry():
    key = 5, F(1, 2)
    moved = dict(GOLDEN_POLYNOMIAL)
    moved[key] = ("0x1.0p+0", GOLDEN_POLYNOMIAL[key][1])
    assert golden_changes(GOLDEN_MOMENTS, dict(GOLDEN_MOMENTS)) == []
    assert golden_changes(GOLDEN_POLYNOMIAL, moved) == [
        f'(5, F("1/2")): {GOLDEN_POLYNOMIAL[key]} -> {moved[key]}']


def two_pass(values):
    """math.fsum mean and standard error, the reference for the merge."""
    n = len(values)
    mean = math.fsum(values) / n
    m2 = math.fsum((v - mean) ** 2 for v in values)
    return mean, math.sqrt(m2 / (n - 1) / n)


@pytest.mark.parametrize("samples", BOUNDARY_SAMPLES)
def test_mc_moment_matches_two_pass_reference(samples):
    # every order, so a product chain that skips or repeats a factor fails
    ests = [mc_moment(BOUNDARY_R, k, samples, BOUNDARY_SEED)
            for k in range(1, _KMAX + 1)]
    for k, est in enumerate(ests, 1):
        mean, stderr = two_pass([y ** k for y in sequential_draws(samples)])
        assert est.mean == pytest.approx(mean, rel=1e-12, abs=0), k
        assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0), k
    _moment_table.cache_clear()  # compare two computations, not one memo
    assert ests == [mc_moment(BOUNDARY_R, k, samples, BOUNDARY_SEED)
                    for k in range(1, _KMAX + 1)]


@pytest.mark.parametrize("samples", BOUNDARY_SAMPLES)
def test_moment_table_is_the_single_statistic_pass_bit_for_bit(samples):
    # a pass that folds order k alone gives the table's entry k: the chain
    # runs up to order k either way, and folding the orders below touches
    # neither the running power nor order k's totals
    for r in range(1, 6):
        _moment_table.cache_clear()
        table = _moment_table(r, samples, BOUNDARY_SEED)
        assert len(table) == _KMAX
        for k in range(1, _KMAX + 1):
            [alone] = _estimate(r, samples, BOUNDARY_SEED, 0, 1, [k])
            assert table[k - 1] == alone, (r, k)
            assert mc_moment(r, k, samples, BOUNDARY_SEED) == alone, (r, k)


@pytest.fixture
def streams(monkeypatch):
    """The (r, samples, seed) of every Erlang stream drawn, from a cold
    moment table."""
    drawn = []

    def counting(r, samples, seed):
        drawn.append((r, samples, seed))
        return _erlang_blocks(r, samples, seed)

    monkeypatch.setattr(stochastic, "_erlang_blocks", counting)
    _moment_table.cache_clear()
    yield drawn
    _moment_table.cache_clear()


def test_the_memo_holds_the_last_stream_only(streams):
    keys = [(2, 2000, 7), (3, 2000, 7), (2, 2000, 7)]
    first, _, again = [mc_moment(r, 3, samples, seed)
                       for r, samples, seed in keys]
    assert streams == keys
    assert again == first
    assert _moment_table.cache_info().maxsize == 1


def test_a_polynomial_value_is_drawn_every_call(streams):
    for _ in range(2):
        mc_generalized_D(3, 2, F(1, 2), 2000, 7)
    assert streams == [(2, 2000, 7)] * 2


@pytest.mark.parametrize("samples", BOUNDARY_SAMPLES)
def test_mc_generalized_D_matches_two_pass_reference(samples):
    # every degree at two points, against the expanded polynomial
    # sum_k C(n,k) x^k y^k, each draw's terms summed by math.fsum: a wrong
    # affine step, or a chain that skips or repeats a factor of 1 + x*y,
    # fails
    y = np.array(sequential_draws(samples))
    for x in (F(1, 2), F(-11, 13)):
        for n in range(1, _KMAX + 1):
            est = mc_generalized_D(n, BOUNDARY_R, x, samples, BOUNDARY_SEED)
            terms = np.column_stack([float(math.comb(n, k) * x ** k) * y ** k
                                     for k in range(n + 1)])
            mean, stderr = two_pass(list(map(math.fsum, terms.tolist())))
            assert est.mean == pytest.approx(mean, rel=1e-12, abs=0), n
            assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0), n
            assert est == mc_generalized_D(n, BOUNDARY_R, x, samples,
                                           BOUNDARY_SEED)


def test_sample_erlang_mean():
    rng = SplitMix64(42)
    n = 50_000
    mean = sum(sample_erlang(2, rng) for _ in range(n)) / n
    # E[Y_2] = 2, Var = 2
    assert abs(mean - 2) < 6 * (2 / n) ** 0.5


class TestMcMoment:
    def test_zeroth_moment_exact(self):
        est = mc_moment(1, 0, 100, 42)
        assert est.mean == 1.0 and est.stderr == 0.0

    def test_deterministic(self):
        a = mc_moment(2, 3, SMALL, 42)
        _moment_table.cache_clear()  # compare two computations, not one memo
        b = mc_moment(2, 3, SMALL, 42)
        assert a == b

    def test_seed_sensitivity(self):
        assert mc_moment(2, 3, SMALL, 42) != mc_moment(2, 3, SMALL, 43)

    @pytest.mark.parametrize("r,k", [(1, 2), (2, 3), (3, 1), (5, 4)])
    def test_hits_exact_moment(self, r, k):
        est = mc_moment(r, k, SMALL, 42)
        assert zscore_gate(est, rising_factorial(r, k))[1]

    def test_k_cap(self):
        with pytest.raises(ValueError):
            mc_moment(2, 9, SMALL, 42)


class TestMcGeneralizedD:
    def test_n_zero_exact(self):
        est = mc_generalized_D(0, 2, F(1, 2), 100, 42)
        assert est.mean == 1.0 and est.stderr == 0.0

    def test_deterministic(self):
        a = mc_generalized_D(2, 1, F(1), SMALL, 42)
        b = mc_generalized_D(2, 1, F(1), SMALL, 42)
        assert a == b

    @pytest.mark.parametrize("n,r,x", [(2, 1, F(1)), (3, 2, F(-1)), (4, 3, F(1, 2))])
    def test_hits_polynomial_value(self, n, r, x):
        est = mc_generalized_D(n, r, x, SMALL, 42)
        assert zscore_gate(est, eval_poly(generalized_D_poly(n, r), x))[1]

    def test_example_target_value(self):
        # 1 - 6 + 18 - 24 from the coefficients 1, 6, 18, 24
        assert eval_poly(generalized_D_poly(3, 2), -1) == -11

    def test_overflow_in_the_draws_is_a_domain_error(self):
        # just inside the exact range check, the heavy tail of Y^16 makes
        # a sum of squares overflow for this seed (stderr would be inf, and
        # the gate would pass it with z = 0)
        x = F(1761493309092524544)
        assert mc_generalized_D(8, 1, x, 1000, 0).stderr < math.inf
        with pytest.raises(DerangeDomainError, match="overflows a float"):
            mc_generalized_D(8, 1, x, 1000, 76)


@pytest.mark.parametrize("mean,stderr,target,want", [
    (2.5, 0.25, 1, (6.0, True)),              # on the 6-sigma edge
    (2.5, 0.125, F(1), (12.0, False)),        # outside it
    (1.0, 0.0, 1, (0.0, True)),               # exact, no spread
    (1.0, 0.0, F(3, 2), (0.0, False)),        # no spread, off target
])
def test_zscore_gate(mean, stderr, target, want):
    assert zscore_gate(MomentEstimate(mean, stderr), target) == want


@pytest.mark.parametrize("estimate", [
    lambda r: mc_moment(r, 2, 100, 1),
    lambda r: mc_moment(r, 0, 100, 1),
    lambda r: mc_generalized_D(2, r, 1, 100, 1),
    lambda r: mc_generalized_D(0, r, 1, 100, 1),
], ids=["moment", "zeroth-moment", "polynomial", "polynomial-n0"])
@pytest.mark.parametrize("r", [0, -1])
def test_r_below_one_is_a_domain_error(estimate, r):
    # an Erlang(r) sum needs r >= 1 draws; with none, Y = 0 and the
    # estimate would be checked against a target it cannot reach
    with pytest.raises(DerangeDomainError, match="r >= 1"):
        estimate(r)


@pytest.mark.parametrize("estimate", [
    lambda seed: mc_moment(2, 2, 100, seed),
    lambda seed: mc_moment(2, 0, 100, seed),
    lambda seed: mc_generalized_D(2, 2, 1, 100, seed),
    lambda seed: mc_generalized_D(0, 2, 1, 100, seed),
], ids=["moment", "zeroth-moment", "polynomial", "polynomial-n0"])
def test_seeds_outside_64_bits_are_refused(estimate):
    # seed + i*GAMMA is taken mod 2^64, so -1 would alias 2^64 - 1, and
    # 2^64 would alias 0
    for seed in (0, _MASK):
        estimate(seed)
    for seed in (-1, _MASK + 1):
        with pytest.raises(DerangeDomainError, match=r"^need 0 <= seed"):
            estimate(seed)


def test_kmax_caps_both_estimators(monkeypatch):
    # the order past _KMAX is refused by both, with _KMAX in the message
    for kmax in (_KMAX, 3):
        monkeypatch.setattr(stochastic, "_KMAX", kmax)
        with pytest.raises(DerangeDomainError, match=rf"^need 0 <= k <= {kmax} "
                           r"\(moment variance blow-up\)$"):
            mc_moment(1, kmax + 1, 100, 1)
        with pytest.raises(DerangeDomainError, match=rf"^need 0 <= n <= {kmax}$"):
            mc_generalized_D(kmax + 1, 1, 1, 100, 1)


def test_the_request_check_keeps_its_order():
    with pytest.raises(DerangeDomainError, match="^need samples >= 2$"):
        mc_moment(0, 9, 1, -1)
    with pytest.raises(DerangeDomainError, match="^need r >= 1$"):
        mc_generalized_D(9, 0, 1, 2, -1)
    with pytest.raises(DerangeDomainError, match="^need 0 <= seed"):
        mc_moment(1, 9, 2, -1)
    with pytest.raises(DerangeDomainError, match="^need 0 <= seed"):
        mc_moment(1 << 63, 9, 3, -1)
    with pytest.raises(DerangeDomainError, match=r"^need samples \* r <= 2\^64"):
        mc_moment(1 << 63, 9, 3, 0)
    with pytest.raises(DerangeDomainError, match=r"^need samples \* r <= 2\^64"):
        mc_generalized_D(9, 1 << 63, 1, 3, 0)


def test_a_request_reads_at_most_the_streams_2_to_the_64_uniforms():
    # uniform i is the mix of seed + i*GAMMA with GAMMA odd, so i = 1..2^64
    # are distinct mod 2^64 and uniform 2^64 + 1 is uniform 1 again; the
    # check is called alone, so nothing is drawn
    for samples, r in [(2, 1 << 63), (1 << 32, 1 << 32), (1 << 64, 1)]:
        stochastic._check_request(samples, r, 0)
    # 2^64 + 1 = 274,177 * 67,280,421,310,721
    for samples, r in [(274_177, 67_280_421_310_721), ((1 << 64) + 1, 1),
                       (3, 1 << 63)]:
        assert samples * r > 1 << 64
        with pytest.raises(DerangeDomainError, match=(
                rf"^need samples \* r <= 2\^64, got {samples} \* {r}$")):
            stochastic._check_request(samples, r, 0)


if __name__ == "__main__":
    # re-record the goldens after a kernel move: paste the output over the
    # two dicts (from a checkout, run with PYTHONPATH=src); each entry that
    # moved goes to stderr as old -> new
    moments, polynomial = golden_estimates()
    print(golden_source(moments, polynomial))
    for line in (golden_changes(GOLDEN_MOMENTS, moments)
                 + golden_changes(GOLDEN_POLYNOMIAL, polynomial)):
        print(line, file=sys.stderr)

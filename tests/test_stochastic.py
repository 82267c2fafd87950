import functools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from derange.exact import DerangeDomainError, binomial
from derange.polys import eval_poly, generalized_D_poly
from derange.stochastic import (
    _CHUNK,
    MomentEstimate,
    SplitMix64,
    _erlang_blocks,
    _horner,
    _uniforms,
    erlang_moment_exact,
    mc_generalized_D,
    mc_moment,
    sample_erlang,
    zscore_gate,
)

SMALL = 20_000  # enough for a 6-sigma sanity check without slowing the suite


def test_erlang_moment_exact():
    assert erlang_moment_exact(7, 0) == 1
    assert erlang_moment_exact(1, 3) == 6
    assert erlang_moment_exact(2, 3) == 24


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
    return [b.copy() for b in _erlang_blocks(r, samples, seed)]


def test_sample_erlang_matches_vectorized_stream():
    for samples in BOUNDARY_SAMPLES:
        blocks = blocks_of(BOUNDARY_R, samples, BOUNDARY_SEED)
        assert [b.size for b in blocks[:-1]] == [_CHUNK] * (len(blocks) - 1)
        vec = np.concatenate(blocks)
        assert np.allclose(sequential_draws(samples), vec, rtol=0, atol=1e-12)


def allocating_blocks(r, samples, seed):
    """The block pipeline before the in-place kernel: a fresh uniform slice,
    -log1p(-U) and numpy's row sum for every block."""
    for start in range(0, samples, _CHUNK):
        m = min(_CHUNK, samples - start)
        u = _uniforms(seed, m * r, start * r)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        y = u.reshape(m, r).sum(axis=1)
        yield np.negative(y, out=y)


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


@pytest.mark.parametrize("r", range(1, 8))
def test_block_kernel_is_the_allocating_pipeline_bit_for_bit(r):
    # numpy's row sum is sequential below 8 terms, the kernel's column order
    for samples in BOUNDARY_SAMPLES:
        new = blocks_of(r, samples, BOUNDARY_SEED)
        old = list(allocating_blocks(r, samples, BOUNDARY_SEED))
        assert len(new) == len(old)
        assert all(bits(a) == bits(b) for a, b in zip(new, old))


@pytest.mark.parametrize("r", [8, 11])
def test_block_kernel_sums_columns_in_draw_order(r):
    samples = 2 * _CHUNK + 3
    logs = np.log1p(-_uniforms(BOUNDARY_SEED, samples * r)).reshape(samples, r)
    y = logs[:, 0].copy()
    for j in range(1, r):
        y += logs[:, j]
    assert bits(np.concatenate(blocks_of(r, samples, BOUNDARY_SEED))) == bits(-y)


def test_successive_blocks_share_one_buffer():
    blocks = list(_erlang_blocks(BOUNDARY_R, 3 * _CHUNK + 5, BOUNDARY_SEED))
    assert len(blocks) == 4
    assert all(np.shares_memory(blocks[0], b) for b in blocks[1:])


def test_interleaved_generators_keep_their_own_workspace():
    samples = 2 * _CHUNK + 3
    alone_a = blocks_of(3, samples, 42)
    alone_b = blocks_of(5, samples, 7)
    both = zip(_erlang_blocks(3, samples, 42), _erlang_blocks(5, samples, 7))
    for i, (a, b) in enumerate(both):
        assert bits(a) == bits(alone_a[i])
        assert bits(b) == bits(alone_b[i])
    assert i == len(alone_a) - 1


def polynomial_coeffs(n, x):
    """mc_generalized_D's coefficients of sum_k C(n,k) x^k y^k, highest first."""
    return [float(binomial(n, k) * x ** k) for k in range(n, -1, -1)]


@pytest.mark.parametrize("x", [F(0), F(1, 2), F(-11, 13), F(3)])
def test_inplace_horner_is_polyval_bit_for_bit(x):
    y = np.concatenate([[0.0], blocks_of(BOUNDARY_R, 999, BOUNDARY_SEED)[0]])
    for n in range(9):
        coeffs = polynomial_coeffs(n, x)
        out = np.empty_like(y)
        assert _horner(coeffs, y, out) is out
        assert bits(out) == bits(np.polyval(coeffs, y))


GOLDEN_SAMPLES = 3 * _CHUNK + 5
# (mean, stderr) as float.hex at GOLDEN_SAMPLES samples, seed 42, recorded
# from the allocating sampler that preceded the in-place block kernel
GOLDEN_MOMENTS = {  # (r, k)
    (1, 1): ("0x1.fe3cc6ed95e8cp-1", "0x1.24fa3bc4a0f54p-8"),
    (1, 2): ("0x1.f9bba4a655778p+0", "0x1.4e04b2aa0ef36p-6"),
    (1, 3): ("0x1.7af6b62295d55p+2", "0x1.139f926b9f5afp-3"),
    (1, 4): ("0x1.85545e8a890c2p+4", "0x1.496e11859f166p+0"),
    (1, 5): ("0x1.08213bb26a7cbp+7", "0x1.e107d5ef6ddb9p+3"),
    (1, 6): ("0x1.ceb1860e6a7a2p+9", "0x1.7ba56e35cc2eep+7"),
    (1, 7): ("0x1.f6f8b086ed6c9p+12", "0x1.3504bf8200c2ep+11"),
    (1, 8): ("0x1.4047cb78e2d7cp+16", "0x1.fe791ed6d0247p+14"),
    (2, 1): ("0x1.fcdc584182f8bp+0", "0x1.a02487534dc06p-8"),
    (2, 2): ("0x1.7bb7b6e2a468ep+2", "0x1.514f062d77625p-5"),
    (2, 3): ("0x1.7a7b921d2524cp+4", "0x1.39b4661b0d968p-2"),
    (2, 4): ("0x1.da2a2d9981663p+6", "0x1.67bbcff2cd20bp+1"),
    (2, 5): ("0x1.681f4559cea38p+9", "0x1.e9052592dd6a0p+4"),
    (2, 6): ("0x1.434f0cb72c881p+12", "0x1.73c221db28812p+8"),
    (2, 7): ("0x1.4f695e56e6f1fp+15", "0x1.2e9073d2313c8p+12"),
    (2, 8): ("0x1.88e11f23be8f6p+18", "0x1.00abfdbd143f2p+16"),
    (3, 1): ("0x1.7e29ad2550da5p+1", "0x1.fef8379092443p-8"),
    (3, 2): ("0x1.7cdf600494bc2p+3", "0x1.0d6d0ca9a83abp-4"),
    (3, 3): ("0x1.da862c1b53ea0p+5", "0x1.23ecd1b41c4efp-1"),
    (3, 4): ("0x1.62592c832d204p+8", "0x1.676121b48466dp+2"),
    (3, 5): ("0x1.33fc8d962c0a2p+11", "0x1.f435a27b21108p+5"),
    (3, 6): ("0x1.30a9b5898be3cp+14", "0x1.7e738e32ae1ccp+9"),
    (3, 7): ("0x1.50b813e046169p+17", "0x1.380999073cd44p+13"),
    (3, 8): ("0x1.9910baf315b70p+20", "0x1.09d85babeedfcp+17"),
    (4, 1): ("0x1.fe784e3bb3ca4p+1", "0x1.26fbd75ad08c7p-7"),
    (4, 2): ("0x1.3e359bea1aff9p+4", "0x1.80402c6dcff83p-4"),
    (4, 3): ("0x1.db9fba44a5b7cp+6", "0x1.e778cfb4751bep-1"),
    (4, 4): ("0x1.9e1156ced0ad9p+9", "0x1.55140b252cc51p+3"),
    (4, 5): ("0x1.9b42e12549e82p+12", "0x1.0aa584391b10bp+7"),
    (4, 6): ("0x1.ca93584fb039dp+15", "0x1.ca137022c5508p+10"),
    (4, 7): ("0x1.1b2fd0238ddd8p+19", "0x1.a632c99cd0cebp+14"),
    (4, 8): ("0x1.7eb5a88acbb4fp+22", "0x1.990eae29317a8p+18"),
    (5, 1): ("0x1.3efb9d8fd3743p+2", "0x1.487c3b2b088f2p-7"),
    (5, 2): ("0x1.dc7f73f9ad3cep+4", "0x1.fc0c626fbf516p-4"),
    (5, 3): ("0x1.9e6f91b7f91c1p+7", "0x1.6e7752bd593f0p+0"),
    (5, 4): ("0x1.9acab54d41d23p+10", "0x1.1ae71a81504eap+4"),
    (5, 5): ("0x1.c8747b2d6f15ep+13", "0x1.e02d92bb0cd55p+7"),
    (5, 6): ("0x1.189b41c3f269cp+17", "0x1.bf7ce69696733p+11"),
    (5, 7): ("0x1.79adf710204bbp+20", "0x1.c48189eb2c480p+15"),
    (5, 8): ("0x1.13b13aa00b317p+24", "0x1.e897057426f95p+19"),
}
GOLDEN_POLYNOMIAL = {  # (n, x) at r = 3
    (1, F("1/2")): ("0x1.3f14d692a86d3p+1", "0x1.fef8379092443p-9"),
    (2, F("1/2")): ("0x1.bd848694f2cb3p+2", "0x1.88388a9aed718p-6"),
    (3, F("1/2")): ("0x1.5d1d1f7f8bea0p+4", "0x1.096b906ae0779p-3"),
    (4, F("1/2")): ("0x1.328452fad1337p+6", "0x1.76e0aefb38cd7p-1"),
    (5, F("1/2")): ("0x1.2c183c14e46c3p+8", "0x1.1fada46410029p+2"),
    (6, F("1/2")): ("0x1.456e4e2f6ef36p+10", "0x1.dfe01e6a34c2dp+4"),
    (7, F("1/2")): ("0x1.83d066892fd01p+12", "0x1.ac59c18ad7454p+7"),
    (8, F("1/2")): ("0x1.f780ade0ef36ap+14", "0x1.91ed8663ac6d0p+10"),
    (1, F("-11/13")): ("-0x1.86bcaedcb0367p+0", "0x1.b05be03f40afep-8"),
    (2, F("-11/13")): ("0x1.1e05e043631f8p+2", "0x1.1e1bc1a0a2987p-5"),
    (3, F("-11/13")): ("-0x1.0f2d841cafa8ep+4", "0x1.d4deaefd9e1c8p-3"),
    (4, F("-11/13")): ("0x1.3fbacd1264f3bp+6", "0x1.c990f2107104fp+0"),
    (5, F("-11/13")): ("-0x1.be42916285ebfp+8", "0x1.ff3b9773b4b76p+3"),
    (6, F("-11/13")): ("0x1.65f67cc8a9e39p+11", "0x1.3914bbbc14cacp+7"),
    (7, F("-11/13")): ("-0x1.424b4526bd49fp+14", "0x1.96d57850b317ap+10"),
    (8, F("-11/13")): ("0x1.3f318b26b08b0p+17", "0x1.129baf9448340p+14"),
}


def test_golden_estimates():
    # any change to the stream, the block kernel or the merge order moves a bit
    def pinned(est):
        return est.mean.hex(), est.stderr.hex()
    for (r, k), want in GOLDEN_MOMENTS.items():
        assert pinned(mc_moment(r, k, GOLDEN_SAMPLES, 42)) == want, (r, k)
    for (n, x), want in GOLDEN_POLYNOMIAL.items():
        assert pinned(mc_generalized_D(n, 3, x, GOLDEN_SAMPLES, 42)) == want, (n, x)


def two_pass(values):
    """math.fsum mean and standard error, the reference for the merge."""
    n = len(values)
    mean = math.fsum(values) / n
    m2 = math.fsum((v - mean) ** 2 for v in values)
    return mean, math.sqrt(m2 / (n - 1) / n)


@pytest.mark.parametrize("samples", BOUNDARY_SAMPLES)
def test_mc_moment_matches_two_pass_reference(samples):
    k = 4
    est = mc_moment(BOUNDARY_R, k, samples, BOUNDARY_SEED)
    mean, stderr = two_pass([y ** k for y in sequential_draws(samples)])
    assert est.mean == pytest.approx(mean, rel=1e-12, abs=0)
    assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0)
    assert est == mc_moment(BOUNDARY_R, k, samples, BOUNDARY_SEED)


@pytest.mark.parametrize("samples", BOUNDARY_SAMPLES)
def test_mc_generalized_D_matches_two_pass_reference(samples):
    n, x = 5, F(1, 2)
    est = mc_generalized_D(n, BOUNDARY_R, x, samples, BOUNDARY_SEED)
    coeffs = polynomial_coeffs(n, x)[::-1]
    stat = [math.fsum(c * y ** k for k, c in enumerate(coeffs))
            for y in sequential_draws(samples)]
    mean, stderr = two_pass(stat)
    assert est.mean == pytest.approx(mean, rel=1e-12, abs=0)
    assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0)
    assert est == mc_generalized_D(n, BOUNDARY_R, x, samples, BOUNDARY_SEED)


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
        b = mc_moment(2, 3, SMALL, 42)
        assert a == b

    def test_seed_sensitivity(self):
        assert mc_moment(2, 3, SMALL, 42) != mc_moment(2, 3, SMALL, 43)

    @pytest.mark.parametrize("r,k", [(1, 2), (2, 3), (3, 1), (5, 4)])
    def test_hits_exact_moment(self, r, k):
        est = mc_moment(r, k, SMALL, 42)
        assert zscore_gate(est, erlang_moment_exact(r, k))[1]

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
    assert zscore_gate(MomentEstimate(mean, stderr, 100, 42), target) == want


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

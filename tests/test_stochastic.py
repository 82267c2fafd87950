import functools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from derange.exact import DerangeDomainError, binomial
from derange.polys import eval_poly, generalized_D_poly
from derange.stochastic import (
    _CHUNK,
    OutOfDomain,
    SplitMix64,
    _erlang_blocks,
    _uniforms,
    erlang_moment_exact,
    mc_generalized_D,
    mc_moment,
    mgf_erlang,
    sample_erlang,
)

SMALL = 20_000  # enough for a 6-sigma sanity check without slowing the suite


def test_erlang_moment_exact():
    assert erlang_moment_exact(7, 0) == 1
    assert erlang_moment_exact(1, 3) == 6
    assert erlang_moment_exact(2, 3) == 24


def test_mgf_erlang():
    assert mgf_erlang(5, 0) == 1
    assert mgf_erlang(1, F(1, 2)) == 2
    assert mgf_erlang(3, -1) == F(1, 8)
    with pytest.raises(OutOfDomain):
        mgf_erlang(2, 1)


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


def test_sample_erlang_matches_vectorized_stream():
    for samples in BOUNDARY_SAMPLES:
        blocks = list(_erlang_blocks(BOUNDARY_R, samples, BOUNDARY_SEED))
        assert [b.size for b in blocks[:-1]] == [_CHUNK] * (len(blocks) - 1)
        vec = np.concatenate(blocks)
        assert np.allclose(sequential_draws(samples), vec, rtol=0, atol=1e-12)


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
    coeffs = [float(binomial(n, k) * x ** k) for k in range(n + 1)]
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
        assert abs(est.mean - erlang_moment_exact(r, k)) <= 6 * est.stderr

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
        target = float(eval_poly(generalized_D_poly(n, r), x))
        assert abs(est.mean - target) <= 6 * est.stderr

    def test_example_target_value(self):
        # 1 - 6 + 18 - 24 from the coefficients 1, 6, 18, 24
        assert eval_poly(generalized_D_poly(3, 2), -1) == -11


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

"""Weight-family generation: frozen values, identities and sign patterns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as spgamma

from fracbvp.weights import (
    centered_weights_half,
    grunwald_coeffs,
    weight_table,
    wsgd_lambdas,
    wsgd_weights,
)
from oracles import centered_weights

BETAS = (1.1, 1.5, 1.9)


class TestGrunwald:
    def test_beta_two_is_second_difference(self):
        np.testing.assert_array_equal(grunwald_coeffs(2.0, 3), [1.0, -2.0, 1.0, 0.0])

    def test_beta_one(self):
        np.testing.assert_array_equal(grunwald_coeffs(1.0, 2), [1.0, -1.0, 0.0])

    def test_beta_15_hand_evaluated(self):
        # recursion by hand: g1 = -1.5, g2 = (1 - 2.5/2)(-1.5) = 0.375,
        # g3 = (1 - 2.5/3)(0.375) = 0.0625
        np.testing.assert_allclose(
            grunwald_coeffs(1.5, 3), [1.0, -1.5, 0.375, 0.0625], rtol=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_order(self, bad):
        with pytest.raises(ValueError):
            grunwald_coeffs(bad, 4)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            grunwald_coeffs(1.5, -1)

    @pytest.mark.parametrize("beta", BETAS)
    def test_generating_function(self, beta):
        # sum g_k z^k must reproduce (1-z)^beta; z=0.5 converges fast
        g = grunwald_coeffs(beta, 200)
        z = 0.5
        total = np.sum(g * z ** np.arange(201))
        assert abs(total - (1.0 - z) ** beta) < 1e-12

    @pytest.mark.parametrize("beta", (1.01, 1.5, 1.99))
    def test_partial_sums_decrease_to_zero(self, beta):
        g = grunwald_coeffs(beta, 10_000)
        partial = np.cumsum(g)
        mags = np.abs(partial)
        assert np.all(np.diff(mags) <= 1e-15)
        assert mags[-1] < 1e-3


class TestWsgd:
    def test_beta_two_classical_stencil(self):
        np.testing.assert_array_equal(wsgd_weights(2.0, 3), [1.0, -2.0, 1.0, 0.0])

    def test_hand_evaluated_small(self):
        # lam1 = 8.75/12, lam0 = 1.75/6, lam_{-1} = -0.25/12;
        # w0 = lam1, w1 = lam1*(-1.5) + lam0
        lam1, lam0, _ = wsgd_lambdas(1.5)
        np.testing.assert_allclose(wsgd_weights(1.5, 0), [8.75 / 12.0], rtol=1e-15)
        np.testing.assert_allclose(
            wsgd_weights(1.5, 1), [lam1, lam1 * -1.5 + lam0], rtol=1e-15)
        assert abs(wsgd_weights(1.5, 1)[1] - (-0.8020833333333334)) < 1e-15

    @pytest.mark.parametrize("bad", [1.0, 2.0001, 0.5, 3.0])
    def test_rejects_order_outside_range(self, bad):
        with pytest.raises(ValueError):
            wsgd_weights(bad, 4)

    def test_lambda_sum_identity_random_orders(self):
        rng = np.random.default_rng(20240817)
        betas = rng.uniform(1.0, 2.0, size=1000)
        betas[0] = 2.0
        for beta in betas:
            if beta <= 1.0:
                continue
            assert abs(sum(wsgd_lambdas(beta)) - 1.0) <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("beta", BETAS)
    def test_matches_three_term_combination(self, beta):
        n = 40
        lam1, lam0, lam_neg1 = wsgd_lambdas(beta)
        g = grunwald_coeffs(beta, n)
        w = wsgd_weights(beta, n)
        assert w[0] == lam1 * g[0]
        assert w[1] == lam1 * g[1] + lam0 * g[0]
        for k in range(2, n + 1):
            assert w[k] == lam1 * g[k] + lam0 * g[k - 1] + lam_neg1 * g[k - 2]


class TestCentered:
    def test_beta_two_laplacian_stencil(self):
        np.testing.assert_allclose(
            centered_weights(2.0, 2), [0.0, 1.0, -2.0, 1.0, 0.0], atol=1e-15)

    def test_beta_15_against_gamma_oracle(self):
        w = centered_weights(1.5, 1)  # [w1, w0, w1]
        w0_oracle = -spgamma(2.5) / spgamma(1.75) ** 2
        w1_oracle = (1.0 - 2.5 / 1.75) * w0_oracle
        assert abs(w[1] - w0_oracle) < 1e-14
        assert abs(w[0] - w1_oracle) < 1e-14
        assert abs(w0_oracle - -1.5737) < 1e-3
        assert abs(w1_oracle - 0.67445) < 1e-3

    @pytest.mark.parametrize("beta", BETAS)
    def test_recursion_vs_direct_gamma_ratio(self, beta):
        # direct formula: w_k = -(-1)^k Gamma(b+1) / (Gamma(b/2-k+1) Gamma(b/2+k+1))
        w = centered_weights_half(beta, 50)
        k = np.arange(51)
        direct = -((-1.0) ** k) * spgamma(beta + 1.0) / (
            spgamma(0.5 * beta - k + 1.0) * spgamma(0.5 * beta + k + 1.0))
        np.testing.assert_allclose(w, direct, rtol=1e-12)

    @pytest.mark.parametrize("beta", BETAS)
    def test_symmetry(self, beta):
        w = centered_weights(beta, 17)
        np.testing.assert_array_equal(w, w[::-1])

    @pytest.mark.parametrize("beta", BETAS)
    def test_tail_sum_vanishes(self, beta):
        # Fourier series of |2 sin(z/2)|^beta evaluated at z = 0
        w = centered_weights(beta, 40_000)
        assert abs(np.sum(w)) < 2e-4

    def test_rejects_order_and_width(self):
        with pytest.raises(ValueError):
            centered_weights(2.5, 4)
        with pytest.raises(ValueError):
            centered_weights(1.5, 0)


class TestSignPatterns:
    @pytest.mark.parametrize("beta", (1.01, 1.5, 1.99))
    def test_grunwald_positive_from_two(self, beta):
        g = grunwald_coeffs(beta, 10_000)
        assert g[0] == 1.0
        assert g[1] == -beta
        assert np.all(g[2:] > 0.0)

    @pytest.mark.parametrize("beta", (1.01, 1.5, 1.99))
    def test_centered_signs(self, beta):
        w = centered_weights_half(beta, 10_000)
        assert w[0] < 0.0
        assert np.all(w[1:] >= 0.0)


class TestWeightTable:
    def test_fields_and_invariants(self):
        # what the operators read: w_0 .. w_n and the centered half
        t = weight_table(1.5, 32)
        np.testing.assert_array_equal(t.w, wsgd_weights(1.5, 32))
        np.testing.assert_array_equal(t.wc, centered_weights_half(1.5, 32))
        np.testing.assert_array_equal(t.wc, centered_weights(1.5, 32)[32:])
        assert len(t.w) == len(t.wc) == 33

    def test_immutable_and_cached(self):
        t = weight_table(1.7, 16)
        assert weight_table(1.7, 16) is t
        for arr in (t.w, t.wc):
            with pytest.raises(ValueError):
                arr[0] = 0.0


@settings(max_examples=60, deadline=None)
@given(beta=st.floats(min_value=1.001, max_value=2.0))
def test_property_identities(beta):
    assert abs(sum(wsgd_lambdas(beta)) - 1.0) <= 8 * np.finfo(float).eps
    g = grunwald_coeffs(beta, 10)
    assert g[0] == 1.0 and g[1] == -beta
    assert np.all(g[2:] >= 0.0)
    w = centered_weights(beta, 6)
    np.testing.assert_array_equal(w, w[::-1])

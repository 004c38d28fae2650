"""Closed-form derivatives of power functions and the problem catalog."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gamma as spgamma

from fracbvp.analytic import (
    PowerSum,
    PowerTerm,
    elliptic_rhs,
    left_derivative,
    left_rl_derivative_power,
    right_derivative,
    singular_exponents,
)
from fracbvp.catalog import (
    CATALOG_NAMES,
    _ex1_profile,
    catalog,
    singular_term,
    with_overrides,
)
from fracbvp.grids import Grid, GridFunction
from fracbvp.solver import FracParams
from oracles import apply_left_wsgd, two_sided_derivative_series

XS = np.linspace(0.05, 0.95, 11)


class TestPowerDerivatives:
    @pytest.mark.parametrize("beta", (1.2, 1.5, 1.9))
    def test_left_pole_annihilates(self, beta):
        d = left_rl_derivative_power(beta, beta - 1.0)
        assert d.terms == ()
        np.testing.assert_array_equal(d(XS), np.zeros_like(XS))

    @pytest.mark.parametrize("beta", (1.2, 1.5, 1.9))
    def test_left_of_x_beta_is_gamma_constant(self, beta):
        d = left_rl_derivative_power(beta, beta)
        np.testing.assert_allclose(d(XS), spgamma(beta + 1.0), rtol=1e-14)

    def test_left_cubic_against_gamma_oracle(self):
        d = left_rl_derivative_power(1.5, 3.0)
        oracle = spgamma(4.0) / spgamma(2.5) * XS ** 1.5
        np.testing.assert_allclose(d(XS), oracle, rtol=1e-14)

    @pytest.mark.parametrize("beta", (1.2, 1.5, 1.9))
    def test_right_mirrors(self, beta):
        def right_power(beta, eta):
            # right-sided derivative of the one-term sum (1 - x)**eta
            return right_derivative(
                PowerSum.left_anchored([(1.0, eta)]).reflected(), beta)

        assert right_power(beta, beta - 1.0).terms == ()
        np.testing.assert_allclose(
            right_power(beta, beta)(XS), spgamma(beta + 1.0), rtol=1e-14)
        d = right_power(1.5, 2.0)
        assert d.terms == (PowerTerm(math.gamma(3.0) / math.gamma(1.5), 0.0, 0.5),)
        oracle = spgamma(3.0) / spgamma(1.5) * (1.0 - XS) ** 0.5
        np.testing.assert_allclose(d(XS), oracle, rtol=1e-14)

    def test_rejects_exponent_at_or_below_minus_one(self):
        with pytest.raises(ValueError):
            left_rl_derivative_power(1.5, -1.0)

    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_beta_two_reduces_to_second_derivative(self, k):
        # Gamma(k+1)/Gamma(k-1) must be the exact integer k(k-1)
        d = left_rl_derivative_power(2.0, float(k))
        assert len(d.terms) == 1
        assert d.terms[0].coef == float(k * (k - 1))
        assert d.terms[0].left == float(k - 2)

    def test_linearity_on_random_sums(self):
        rng = np.random.default_rng(7)
        beta = 1.6
        for _ in range(5):
            coefs = rng.uniform(-2, 2, size=5)
            exps = rng.uniform(0.0, 4.0, size=5)
            whole = left_derivative(
                PowerSum.left_anchored(zip(coefs, exps)), beta)
            parts = np.zeros_like(XS)
            for c, e in zip(coefs, exps):
                parts = parts + c * left_rl_derivative_power(beta, e)(XS)
            np.testing.assert_allclose(whole(XS), parts, rtol=1e-12, atol=1e-12)


class TestPowerSumAlgebra:
    def test_add_scale_negate(self):
        p = PowerSum.left_anchored([(2.0, 1.0)])
        q = PowerSum.left_anchored([(1.0, 2.0)]).reflected()
        assert q.terms == (PowerTerm(1.0, 0.0, 2.0),)
        assert q.reflected() == PowerSum.left_anchored([(1.0, 2.0)])
        np.testing.assert_allclose((p + q)(XS), 2 * XS + (1 - XS) ** 2, rtol=1e-15)
        np.testing.assert_allclose((3.0 * p)(XS), 6 * XS, rtol=1e-15)
        np.testing.assert_allclose((p - p)(XS), 0.0, atol=0)

    def test_mismatched_intervals_rejected(self):
        p = PowerSum.left_anchored([(1.0, 1.0)], a=0.0, b=1.0)
        q = PowerSum.left_anchored([(1.0, 1.0)], a=0.0, b=2.0)
        with pytest.raises(ValueError):
            p + q

    def test_mixed_orientation_cannot_take_fractional_side(self):
        mixed = PowerSum(0.0, 1.0, (PowerTerm(1.0, 0.7, 0.3),))
        with pytest.raises(ValueError, match="is 0.3 cannot .* the left endpoint"):
            left_derivative(mixed, 1.5)
        with pytest.raises(ValueError, match="is 0.7 cannot .* the right endpoint"):
            right_derivative(mixed, 1.5)


class TestEllipticRhs:
    def test_one_sided_singular_rhs_formula(self):
        # image of x^{b-1}(1-x) under u - D_left^b u is x^{b-1}(1-x) + Gamma(b+1)
        for beta in (1.1, 1.5, 1.9):
            spec = singular_term(FracParams(1.0, beta, 1.0))
            expect = spec.us(XS) + spgamma(beta + 1.0)
            np.testing.assert_allclose(spec.fs(XS), expect, rtol=1e-13)

    def test_symmetric_singular_rhs_formula(self):
        # image of x^{b/2}(1-x)^{b/2}: us - cos(b pi/2) Gamma(b+1)
        for beta in (1.1, 1.5, 1.9):
            spec = singular_term(FracParams(1.0, beta, 0.5))
            shift = -math.cos(0.5 * beta * math.pi) * spgamma(beta + 1.0)
            np.testing.assert_allclose(spec.fs(XS) - spec.us(XS), shift, rtol=1e-12)

    def test_riesz_identity_pointwise(self):
        beta = 1.7
        spec = singular_term(FracParams(1.0, beta, 0.5))
        xs = np.linspace(0.001, 0.999, 100)
        diff = spec.fs(xs) - spec.us(xs)
        target = -math.cos(0.5 * beta * math.pi) * spgamma(beta + 1.0)
        np.testing.assert_allclose(diff, target, rtol=1e-12)

    def test_no_closed_form_for_intermediate_theta(self):
        u = PowerSum.left_anchored([(1.0, 0.7)])
        with pytest.raises(ValueError):
            elliptic_rhs(u, 1.0, 1.5, 0.3)

    def test_theta_zero_mirror(self):
        beta = 1.4
        spec = singular_term(FracParams(1.0, beta, 0.0))
        expect = spec.us(XS) + spgamma(beta + 1.0)
        np.testing.assert_allclose(spec.fs(XS), expect, rtol=1e-13)


def _two_sided_constant(beta, theta):
    """-Gamma(beta+1) |theta e^{i pi beta/2} + (1-theta) e^{-i pi beta/2}|,
    the image of the singular product under the two-sided derivative."""
    half = 0.5 * math.pi * beta
    return -spgamma(beta + 1.0) * math.hypot(math.cos(half),
                                             (2.0 * theta - 1.0) * math.sin(half))


class TestSingularTerm:
    # beta/2 + atan((2 theta - 1) tan(pi beta/2))/pi, unnormalised, misses 1
    # at theta = 0 by an ulp for beta = 1.357, 1.806 and 1.839
    @pytest.mark.parametrize("beta", [*np.linspace(1.01, 1.99, 99), 1.001, 1.357,
                                      1.43, 1.72, 1.806, 1.839, 1.999])
    def test_exponents_are_exact_at_theta_zero_half_one(self, beta):
        beta = float(beta)
        assert singular_exponents(beta, 1.0) == (beta - 1.0, 1.0)
        assert singular_exponents(beta, 0.5) == (0.5 * beta, 0.5 * beta)
        assert singular_exponents(beta, 0.0) == (1.0, beta - 1.0)

    @pytest.mark.parametrize("theta", (0.3, 0.5, 0.8))
    @pytest.mark.parametrize("beta", (1.2, 1.5, 1.8))
    def test_identity_against_binomial_series(self, beta, theta):
        # theta D_left w + (1-theta) D_right w is the constant, and it is
        # the image elliptic_rhs gives the singular term
        xs = np.linspace(0.3, 0.7, 9)
        gamma, other = singular_exponents(beta, theta)
        series = two_sided_derivative_series(gamma, other, beta, theta, xs)
        np.testing.assert_allclose(series, _two_sided_constant(beta, theta),
                                   rtol=1e-12)
        spec = singular_term(FracParams(0.0, beta, theta))
        assert spec.us.terms == (PowerTerm(1.0, gamma, other),)
        np.testing.assert_allclose(spec.fs(xs), -series, rtol=1e-12)

    def test_wrong_exponent_is_not_constant(self):
        xs = np.linspace(0.3, 0.7, 9)
        for beta in (1.2, 1.5, 1.8):
            series = two_sided_derivative_series(0.5 * beta, 0.5 * beta, beta, 0.3, xs)
            assert np.ptp(series) > 1e-2 * np.max(np.abs(series))

    def test_exponents_solve_the_balance(self):
        # (1-theta) sin(pi gamma) = theta sin(pi (beta-gamma)), gamma in [beta-1, 1]
        for beta in (1.2, 1.5, 1.8):
            for theta in np.linspace(0.0, 1.0, 21):
                gamma, other = singular_exponents(beta, theta)
                assert other == beta - gamma and beta - 1.0 <= gamma <= 1.0
                assert abs((1.0 - theta) * math.sin(math.pi * gamma)
                           - theta * math.sin(math.pi * other)) < 1e-15


class TestCatalog:
    def test_names_and_unknown(self):
        for name in CATALOG_NAMES:
            catalog(name, 1.5)
        with pytest.raises(KeyError):
            catalog("nope", 1.5)
        with pytest.raises(ValueError):
            catalog("ex1-case1", 2.5)

    def test_ex1_case2_rhs_is_x_plus_one(self):
        spec = catalog("ex1-case2", 1.3)
        np.testing.assert_allclose(spec.rhs(XS), XS + 1.0, rtol=1e-15)
        assert spec.exact is None

    def test_ex2_case1_exact_values(self):
        beta = 1.5
        spec = catalog("ex2-case1", beta)
        expect = XS ** 2 * (1 - XS) ** 2 + 2 * XS ** (beta / 2) * (1 - XS) ** (beta / 2)
        np.testing.assert_allclose(spec.exact(XS), expect, rtol=1e-14)
        assert spec.params.theta == 0.5

    def test_exact_solutions_vanish_at_endpoints(self):
        ends = np.array([0.0, 1.0])
        for name in ("ex1-case1", "ex2-case1"):
            spec = catalog(name, 1.5)
            np.testing.assert_allclose(spec.exact(ends), 0.0, atol=1e-15)
            np.testing.assert_allclose(spec.singular.us(ends), 0.0, atol=1e-15)

    @pytest.mark.parametrize("beta", (1.5,))
    def test_ex1_case1_rhs_cross_checked_by_discrete_operator(self, beta):
        # alpha*u - (discrete left derivative of u-samples) must approach the
        # closed-form rhs; away from the boundary the defect is O(h^(b-1))
        spec = catalog("ex1-case1", beta)
        grid = Grid(0.0, 1.0, 2 ** 14)
        v = GridFunction(grid, spec.exact(grid.nodes()))
        dv = apply_left_wsgd(v, beta)
        lhs = spec.params.alpha * v.interior - dv.interior
        rhs = spec.rhs(grid.interior_nodes())
        mid = slice(2 ** 12, 3 * 2 ** 12)  # central half of the interval
        h = grid.h
        tol = 5.0 * h ** (beta - 1.0)
        assert np.max(np.abs(lhs[mid] - rhs[mid])) < tol

    def test_ex3_consistency(self):
        beta = 1.6
        prob = catalog("ex3", beta)
        assert prob.final_time == 1.0
        np.testing.assert_allclose(prob.initial(XS), 0.0, atol=0)
        np.testing.assert_allclose(
            prob.exact(XS, 1.0),
            (XS ** (beta - 1) + XS ** 2 + XS ** (1 + beta)) * (1 - XS),
            rtol=1e-14)
        # rhs at t: 3t^2*S - t^3*DS; at t=0 it vanishes
        np.testing.assert_allclose(prob.rhs(XS, 0.0), 0.0, atol=0)

    def test_overrides(self):
        spec = catalog("ex1-case2", 1.5)
        # reaction override keeps the fixed rhs, rebuilds the singular image
        mod = with_overrides(spec, alpha=2.0)
        assert mod.params.alpha == 2.0
        np.testing.assert_allclose(mod.rhs(XS), XS + 1.0)
        np.testing.assert_allclose(
            mod.singular.fs(XS), 2.0 * mod.singular.us(XS) + spgamma(2.5),
            rtol=1e-13)
        # any theta keeps a singular term, with the derived exponents
        free = with_overrides(spec, theta=0.3)
        sing = free.singular
        assert (sing.rho_left, sing.rho_right) == singular_exponents(1.5, 0.3)
        assert sing.rho_right == pytest.approx(0.629, abs=1e-3)
        np.testing.assert_allclose(sing.fs(XS) - sing.us(XS),
                                   -_two_sided_constant(1.5, 0.3), rtol=1e-13)

    @pytest.mark.parametrize("name,params", [
        ("ex2-case2", FracParams(1.0, 1.5, 0.3)),
        ("ex3", FracParams(0.0, 1.5, 0.5)),
    ])
    def test_singular_term_follows_the_operator(self, name, params):
        # the term is derived from the problem's own operator, so a problem
        # with new parameters never carries the old exponents
        spec = catalog(name, 1.5)
        assert spec.singular == singular_term(spec.params)
        changed = [replace(spec, params=params)]
        if name != "ex3":
            changed.append(with_overrides(spec, alpha=params.alpha,
                                          theta=params.theta))
        for problem in changed:
            assert problem.singular == singular_term(params)
            assert ((problem.singular.rho_left, problem.singular.rho_right)
                    == singular_exponents(1.5, params.theta))

    def test_override_with_exact_rebuilds_rhs(self):
        spec = catalog("ex1-case1", 1.5)
        mod = with_overrides(spec, alpha=3.0)
        expect = 3.0 * spec.exact(XS) + (spec.rhs(XS) - spec.exact(XS))
        np.testing.assert_allclose(mod.rhs(XS), expect, rtol=1e-12)


def _termwise(ps, x):
    """Reference evaluation of a power sum, one full array per term."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for t in ps.terms:
        val = np.full_like(x, t.coef)
        if t.left != 0.0:
            val = val * (x - ps.a) ** t.left
        if t.right != 0.0:
            val = val * (ps.b - x) ** t.right
        out += val
    return out


def _ex3_rhs_termwise(beta, x, t):
    profile = _ex1_profile(beta)
    d_profile = left_derivative(profile, beta)
    return 3.0 * t * t * _termwise(profile, x) - t ** 3 * _termwise(d_profile, x)


class TestBitIdentity:
    SUMS = {
        "ex1-profile": _ex1_profile(1.5),
        "ex1-derivative": left_derivative(_ex1_profile(1.5), 1.5),
        "constant": PowerSum.constant(-2.5),
        "constant-plus-right": PowerSum(0.0, 1.0, (PowerTerm(0.5, 0.0, 0.0),
                                                   PowerTerm(3.0, 0.0, 0.7))),
        "other-interval": PowerSum(-1.0, 2.0, (PowerTerm(1.5, 0.3, 0.0),
                                               PowerTerm(-0.7, 1.3, 2.5))),
        "zero": PowerSum.zero(),
    }
    POINTS = {
        "array": XS,
        "grid": Grid(0.0, 1.0, 64).interior_nodes(),
        "matrix": XS.reshape(1, -1) * np.ones((2, 1)),
        "0-d array": np.asarray(0.3),
        "float": 0.3,
        "list": [0.1, 0.5],
    }

    @pytest.mark.parametrize("points", POINTS)
    @pytest.mark.parametrize("name", SUMS)
    def test_power_sum_matches_termwise(self, name, points):
        ps, x = self.SUMS[name], self.POINTS[points]
        got, want = ps(x), _termwise(ps, x)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)

    def test_ex3_rhs_matches_termwise_across_grids(self):
        beta = 1.5
        rhs = catalog("ex3", beta).rhs
        grids = [Grid(0.0, 1.0, M).interior_nodes() for M in (16, 32, 64, 128, 256, 512)]
        # coarse and fine in alternation, then more grids than are kept
        calls = [grids[k % 2] for k in range(6)] + grids + grids[::-1]
        for k, x in enumerate(calls):
            t = (k + 0.5) * 1e-3
            assert np.array_equal(rhs(x, t), _ex3_rhs_termwise(beta, x, t))

    def test_ex3_rhs_follows_nodes_changed_in_place(self):
        beta = 1.5
        rhs = catalog("ex3", beta).rhs
        x = Grid(0.0, 1.0, 32).interior_nodes()
        assert np.array_equal(rhs(x, 0.25), _ex3_rhs_termwise(beta, x, 0.25))
        x[3] += 1e-3
        x[-1] = 0.5
        assert np.array_equal(rhs(x, 0.25), _ex3_rhs_termwise(beta, x, 0.25))
        x *= 0.5
        assert np.array_equal(rhs(x, 0.75), _ex3_rhs_termwise(beta, x, 0.75))

    @pytest.mark.parametrize("x", [0.3, np.asarray(0.7), np.float64(0.0)])
    def test_ex3_rhs_scalars(self, x):
        rhs = catalog("ex3", 1.5).rhs
        got, want = rhs(x, 0.5), _ex3_rhs_termwise(1.5, x, 0.5)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)

"""Two-grid strength estimation and the posterior correction."""

from dataclasses import replace

import numpy as np
import pytest

from fracbvp import correction
from fracbvp.analytic import PowerSum, PowerTerm
from fracbvp.catalog import catalog, manufactured, singular_term
from fracbvp.correction import TwoGridCorrector, correct
from fracbvp.solver import FracParams, SchemeKind, SolverError, make_solver


def _pure_singular_problem(beta, theta, scale=1.0):
    params = FracParams(1.0, beta, theta)
    sing = singular_term(params)
    return replace(
        manufactured("pure-singular", params, scale * sing.us),
        rhs=scale * sing.fs), sing


class TestXiStrength:
    def test_identical_solves_give_unit_strength(self):
        # f = f^s: the problem and singular solves coincide bit for bit
        prob, sing = _pure_singular_problem(1.5, 1.0)
        sol = correct(prob, 64, SchemeKind.WSGD)
        np.testing.assert_array_equal(sol.xi.interior, 1.0)
        np.testing.assert_array_equal(sol.coarse.values,
                                      sol.corrected_coarse.values
                                      - (sing.us(sol.coarse.grid.nodes())
                                         - sol.coarse.values))

    def test_pure_singular_corrected_to_exact(self):
        prob, sing = _pure_singular_problem(1.5, 1.0)
        sol = correct(prob, 64, SchemeKind.WSGD)
        exact = sing.us(sol.corrected_coarse.grid.nodes())
        assert np.max(np.abs(sol.corrected_coarse.values - exact)) < 1e-13

    def test_linearity_in_rhs_scale(self):
        for c in (-2.0, 0.5, 10.0):
            prob, sing = _pure_singular_problem(1.4, 1.0, scale=c)
            sol = correct(prob, 32 * 2, SchemeKind.WSGD)
            xi = sol.xi.interior
            assert abs(np.median(xi) - c) <= 1e-8 * abs(c)
            exact = c * sing.us(sol.corrected_coarse.grid.nodes())
            err = np.max(np.abs(sol.corrected_coarse.values - exact))
            assert err <= 1e-9 * abs(c)

    def test_known_strength_three(self):
        # u = x^2(1-x)^2 + 3*us, symmetric case: interior median near 3
        beta = 1.5
        params = FracParams(1.0, beta, 0.5)
        sing = singular_term(params)
        u = PowerSum(0.0, 1.0, (PowerTerm(1.0, 2.0, 2.0),)) + 3.0 * sing.us
        prob = manufactured("strength-three", params, u)
        sol = correct(prob, 64, SchemeKind.FCD)
        med = float(np.median(sol.xi.interior))
        assert abs(med - 3.0) <= 0.15

    def test_smooth_problem_strength_vanishes(self):
        # No singular content: the strength vanishes under refinement.  The
        # ratio measures xi only next to the singular end, where the
        # singular gap us - us_h has order below 2; elsewhere both gaps are
        # O(h^2) and the ratio tends to an O(1) function, not to xi.  Next
        # to the singular end |xi_h| decays like h^(3 - beta), a factor
        # 2^1.5 ~ 2.83 per halving at beta = 1.5.
        u = PowerSum(0.0, 1.0, (PowerTerm(1.0, 2.0, 2.0),))
        for theta in (1.0, 0.0):
            params = FracParams(1.0, 1.5, theta)
            prob = manufactured("smooth", params, u)
            sing = singular_term(params)
            node = 0 if sing.rho_left < sing.rho_right else -1
            strengths = []
            for M in (64, 128, 256):
                sol = correct(prob, M, SchemeKind.WSGD)
                strengths.append(abs(sol.xi.interior[node]))
            assert strengths[0] > 2.0 * strengths[1], (theta, strengths)
            assert strengths[1] > 2.0 * strengths[2], (theta, strengths)


class TestGuard:
    # 7 coarse interior nodes; fine index 2j+1 is the coarse node j, so the
    # strength denominators are us_f[1::2] - us_c
    @staticmethod
    def _corrector(us_h, us_half):
        us_f = np.zeros(15)
        us_f[1::2] = us_half
        return TwoGridCorrector(us_h, us_f, np.zeros(7), np.zeros(15))

    def test_all_denominators_guarded_raises(self):
        ones = np.ones(7)
        with pytest.raises(SolverError):
            # us_half == us_h: zero denominators
            self._corrector(ones, ones)

    def test_guarded_node_inherits_nearest(self):
        num = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        us_h = np.ones(7)
        us_half = np.array([2.0, 2.0, 1.0, 2.0, 2.0, 2.0, 2.0])  # zero denominator at idx 2
        corrector = self._corrector(us_h, us_half)
        interior = corrector.correct(num, np.zeros(15))[2]
        # numerator = -num, denominator = 1 except idx 2;
        # idx 2 ties between neighbours 1 and 3; 3 is closer to the center
        assert corrector.guard_activations == 1
        np.testing.assert_allclose(np.delete(interior, 2), -np.delete(num, 2))
        assert interior[2] == interior[3]

    def test_resolved_guard_matches_the_pointwise_rule(self):
        # the guard is resolved once into an index map; the strength it
        # gives equals num/den at unguarded nodes and, bit for bit, the
        # nearest unguarded node's num/den elsewhere (ties toward the center)
        rng = np.random.default_rng(3)
        us_h = rng.uniform(1.0, 2.0, 7)
        us_half = us_h + rng.uniform(0.5, 1.0, 7)
        us_half[[0, 3, 6]] = us_h[[0, 3, 6]]  # guarded: both ends and the center
        corrector = self._corrector(us_h, us_half)
        u_c, u_f = rng.standard_normal(7), rng.standard_normal(15)
        xi = corrector.correct(u_c, u_f)[2]
        num, den = u_f[1::2] - u_c, us_half - us_h
        # node 3 ties between 2 and 4, both 1 from the center: the first wins
        for node, source in enumerate([1, 1, 2, 2, 4, 5, 5]):
            assert xi[node] == num[source] / den[source]
        assert corrector.guard_activations == 3


class TestTwoGridCorrector:
    def test_strengths_on_coarse_nodes_and_midpoints(self):
        # 7 coarse interior nodes x_1..x_7 (index j is x_{j+1}) and 15 fine
        # ones (index 2j is the midpoint x_{j+1/2}, index 2j+1 is x_{j+1});
        # integer data keep every product exact
        k = np.arange(1.0, 8.0)
        us_c, us_f = k.copy(), 2.0 * np.arange(1.0, 16.0)
        u_c, u_f = np.zeros(7), np.zeros(15)
        u_f[1::2] = 3.0 * k * k             # denominators 3k: strengths k
        exact_c, exact_f = us_c + 10.0, us_f + np.arange(15.0)
        gap_c, gap_f = exact_c - us_c, exact_f - us_f
        corrector = TwoGridCorrector(us_c, us_f, exact_c, exact_f)
        field_c, field_f, xi = corrector.correct(u_c, u_f)
        assert corrector.guard_activations == 0
        assert np.array_equal(xi, k)
        assert np.array_equal(field_c, u_c + xi * gap_c)
        # coarse nodes of the fine field take the coarse strength
        assert np.array_equal(field_f[1::2], u_f[1::2] + xi * gap_f[1::2])
        # midpoint x_{j+1/2} takes the strength of its right neighbour x_{j+1}
        assert np.array_equal(field_f[0:14:2], u_f[0:14:2] + xi * gap_f[0:14:2])
        # the last midpoint x_{15/2} has no interior right neighbour: clamped
        assert field_f[14] == u_f[14] + xi[6] * gap_f[14]


class TestCorrect:
    @pytest.mark.parametrize("M", [4, 6, 7, 63])
    def test_validation(self, M):
        spec = catalog("ex1-case1", 1.5)
        with pytest.raises(ValueError, match="even interval count >= 8"):
            correct(spec, M, SchemeKind.WSGD)

    def test_reference_cell_b19(self):
        # frozen: one-sided problem, beta=1.9, pair (512, 1024), fine field
        spec = catalog("ex1-case1", 1.9)
        sol = correct(spec, 512, SchemeKind.WSGD)
        f = sol.corrected_fine
        err = np.max(np.abs(f.values - spec.exact(f.grid.nodes())))
        assert err == pytest.approx(1.27e-7, rel=0.02)

    def test_fine_and_coarse_fields_consistent(self):
        spec = catalog("ex1-case1", 1.5)
        sol = correct(spec, 128, SchemeKind.WSGD)
        # corrected fine restricted to coarse nodes telescopes onto the
        # corrected coarse field wherever the guard did not fire
        assert sol.guard_activations == 0
        np.testing.assert_allclose(
            sol.corrected_fine.values[::2], sol.corrected_coarse.values,
            rtol=1e-10, atol=1e-14)

    def test_improves_over_uncorrected(self):
        spec = catalog("ex1-case1", 1.5)
        sol = correct(spec, 128, SchemeKind.WSGD)
        xc = sol.coarse.grid.nodes()
        raw = np.max(np.abs(sol.coarse.values - spec.exact(xc)))
        done = np.max(np.abs(sol.corrected_coarse.values - spec.exact(xc)))
        assert done < raw / 50.0

    def test_declares_two_solves_per_grid(self, monkeypatch):
        # the problem's and the singular term's solve share one GMRES
        # solver on each grid
        paths = []

        def spy(*args, **kwargs):
            solver = make_solver(*args, **kwargs)
            paths.append(solver.path)
            return solver

        monkeypatch.setattr(correction, "make_solver", spy)
        spec = catalog("ex1-case1", 1.5)
        correct(spec, 64, SchemeKind.WSGD)
        assert paths == ["gmres", "gmres"]


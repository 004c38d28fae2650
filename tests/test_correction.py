"""Two-grid strength estimation and the posterior correction."""

from dataclasses import replace

import numpy as np
import pytest

from fracbvp import correction
from fracbvp.analytic import PowerSum, PowerTerm, singular_exponents
from fracbvp.catalog import catalog, manufactured, singular_term
from fracbvp.correction import TwoGridCorrector, correct
from fracbvp.solver import FracParams, SchemeKind, SolverError, make_solver


def _pure_singular_problem(beta, theta, scale=1.0):
    params = FracParams(1.0, beta, theta)
    sing = singular_term(params)
    return replace(
        manufactured("pure-singular", params, scale * sing.us),
        rhs=scale * sing.fs), sing


def _strength(problem, M, scheme):
    """The corrected solution on the pair (M, 2M), the raw coarse solves
    and the pointwise strength at the coarse interior nodes."""
    solved = {}
    sol = correct(problem, M, scheme, solved)
    coarse, fine = solved[M], solved[2 * M]
    us = problem.singular.us
    corrector = TwoGridCorrector(coarse.us, fine.us, us(coarse.nodes),
                                 us(fine.nodes))
    return sol, coarse, corrector.correct(coarse.u, fine.u)[2]


class TestXiStrength:
    def test_identical_solves_give_unit_strength(self):
        # f = f^s: the problem and singular solves coincide bit for bit
        prob, sing = _pure_singular_problem(1.5, 1.0)
        sol, raw, xi = _strength(prob, 64, SchemeKind.WSGD)
        np.testing.assert_array_equal(xi, 1.0)
        np.testing.assert_array_equal(raw.u, sol.corrected_coarse.values[1:-1]
                                      - (sing.us(raw.nodes) - raw.u))

    def test_pure_singular_corrected_to_exact(self):
        prob, sing = _pure_singular_problem(1.5, 1.0)
        sol = correct(prob, 64, SchemeKind.WSGD)
        exact = sing.us(sol.corrected_coarse.grid.nodes())
        assert np.max(np.abs(sol.corrected_coarse.values - exact)) < 1e-13

    def test_linearity_in_rhs_scale(self):
        for c in (-2.0, 0.5, 10.0):
            prob, sing = _pure_singular_problem(1.4, 1.0, scale=c)
            sol, _, xi = _strength(prob, 32 * 2, SchemeKind.WSGD)
            assert abs(np.median(xi) - c) <= 1e-8 * abs(c)
            exact = c * sing.us(sol.corrected_coarse.grid.nodes())
            err = np.max(np.abs(sol.corrected_coarse.values - exact))
            assert err <= 1e-9 * abs(c)

    def test_known_strength_three(self):
        # u = x^2(1-x)^2 + 3*us, symmetric case: interior median near 3
        beta = 1.5
        params = FracParams(1.0, beta, 0.5)
        sing = singular_term(params)
        u = PowerSum((PowerTerm(1.0, 2.0, 2.0),)) + 3.0 * sing.us
        prob = manufactured("strength-three", params, u)
        med = float(np.median(_strength(prob, 64, SchemeKind.FCD)[2]))
        assert abs(med - 3.0) <= 0.15

    def test_smooth_problem_strength_vanishes(self):
        # No singular content: the strength vanishes under refinement.  The
        # ratio measures xi only next to the singular end, where the
        # singular gap us - us_h has order below 2; elsewhere both gaps are
        # O(h^2) and the ratio tends to an O(1) function, not to xi.  Next
        # to the singular end |xi_h| decays like h^(3 - beta), a factor
        # 2^1.5 ~ 2.83 per halving at beta = 1.5.
        u = PowerSum((PowerTerm(1.0, 2.0, 2.0),))
        for theta in (1.0, 0.0):
            params = FracParams(1.0, 1.5, theta)
            prob = manufactured("smooth", params, u)
            rho_left, rho_right = singular_exponents(1.5, theta)
            node = 0 if rho_left < rho_right else -1
            strengths = []
            for M in (64, 128, 256):
                xi = _strength(prob, M, SchemeKind.WSGD)[2]
                strengths.append(abs(xi[node]))
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

    def test_guarded_node_is_left_uncorrected(self):
        num = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        us_h = np.ones(7)
        us_half = np.array([2.0, 2.0, 1.0, 2.0, 2.0, 2.0, 2.0])  # zero denominator at idx 2
        corrector = self._corrector(us_h, us_half)
        u_f = np.arange(15.0)
        field_c, field_f, xi = corrector.correct(num, u_f)
        # numerator = u_f[1::2] - num, denominator = 1 except idx 2
        assert corrector.guard_activations == 1
        assert xi[2] == 0.0
        np.testing.assert_array_equal(np.delete(xi, 2), np.delete(u_f[1::2] - num, 2))
        # the exact values are 0, so the gaps are -us: an unguarded node
        # moves, and the guarded one keeps the raw inputs on both grids
        assert field_c[1] != num[1] and field_c[2] == num[2]
        np.testing.assert_array_equal(field_f[4:6], u_f[4:6])

    def test_resolved_guard_matches_the_pointwise_rule(self):
        # the strength is num/den at unguarded nodes, bit for bit, and 0 at
        # guarded ones, where both fields equal the raw inputs bit for bit:
        # the coarse node, its fine twin and the midpoint that takes its
        # strength
        rng = np.random.default_rng(3)
        us_h = rng.uniform(1.0, 2.0, 7)
        us_half = us_h + rng.uniform(0.5, 1.0, 7)
        guarded = [0, 3, 6]  # both ends and the center
        us_half[guarded] = us_h[guarded]
        us_f = np.zeros(15)
        us_f[1::2] = us_half
        exact_c, exact_f = rng.standard_normal(7), rng.standard_normal(15)
        corrector = TwoGridCorrector(us_h, us_f, exact_c, exact_f)
        u_c, u_f = rng.standard_normal(7), rng.standard_normal(15)
        field_c, field_f, xi = corrector.correct(u_c, u_f)
        num, den = u_f[1::2] - u_c, us_half - us_h
        assert corrector.guard_activations == 3
        for node in range(7):
            assert xi[node] == (0.0 if node in guarded else num[node] / den[node])
        np.testing.assert_array_equal(field_c[guarded], u_c[guarded])
        # fine index 2j+1 is coarse node j, 2j its midpoint; the last
        # midpoint, 14, takes node 6's strength too
        fine = [0, 1, 6, 7, 12, 13, 14]
        np.testing.assert_array_equal(field_f[fine], u_f[fine])
        moved = np.setdiff1d(np.arange(15), fine)
        assert np.all(field_f[moved] != u_f[moved])

    def test_guard_fires_next_to_the_free_end(self):
        # at beta = 1.01 the singular term's two solves agree to rounding
        # next to x = 1: the last 9 coarse nodes are guarded and left
        # uncorrected
        problem, solved = catalog("ex1-case1", 1.01), {}
        sol = correct(problem, 4096, SchemeKind.WSGD, solved)
        coarse, fine = solved[4096], solved[8192]
        us = problem.singular.us
        corrector = TwoGridCorrector(coarse.us, fine.us, us(coarse.nodes),
                                     us(fine.nodes))
        xi = corrector.correct(coarse.u, fine.u)[2]
        num = fine.u[1::2] - coarse.u
        assert sol.guard_activations == corrector.guard_activations == 9
        assert len(xi) == 4095 and coarse.nodes[4086] > 0.9975
        np.testing.assert_array_equal(xi[:4086], num[:4086] / corrector.den[:4086])
        np.testing.assert_array_equal(xi[4086:], 0.0)
        np.testing.assert_array_equal(sol.corrected_coarse.values[4087:-1],
                                      coarse.u[4086:])
        # fine nodes 8172 on are the midpoints and twins of coarse nodes
        # 4086 on
        np.testing.assert_array_equal(sol.corrected_fine.values[8173:-1],
                                      fine.u[8172:])
        # frozen: the study row's error on the fine grid
        f = sol.corrected_fine
        err = np.max(np.abs(f.values - problem.exact(f.grid.nodes())))
        assert err == 5.491518806577389e-06

    def test_where_the_beta_18_reference_is_guarded(self):
        # the level-15 ex1-case2 reference at beta = 1.8 corrects the pair
        # (2**14, 2**15).  The guard fires twice: on a run of nodes next to
        # x = 1, and on six nodes around x ~ 0.845, where the denominator
        # changes sign.  Both runs sit where the denominator is a difference
        # of values that agree to rounding, so the nodes move with the
        # BLAS's summation order: 13849-13854 and 16379-16382 with two
        # OpenBLAS threads, 13854-13859 and 16378-16382 with one
        problem, solved = catalog("ex1-case2", 1.8), {}
        sol = correct(problem, 2 ** 14, SchemeKind.WSGD, solved)
        coarse, fine = solved[2 ** 14], solved[2 ** 15]
        us = problem.singular.us
        corrector = TwoGridCorrector(coarse.us, fine.us, us(coarse.nodes),
                                     us(fine.nodes))
        xi = corrector.correct(coarse.u, fine.u)[2]
        den, x = corrector.den, coarse.nodes
        guarded = np.nonzero(xi == 0.0)[0]
        assert sol.guard_activations == corrector.guard_activations == len(guarded)
        # one sign change on (1/2, 1): den[k] < 0 < den[k + 1]
        (k,) = np.nonzero(np.diff(np.sign(den[8191:])))[0] + 8191
        assert den[k] < 0.0 < den[k + 1] and 0.845 < x[k] < 0.846
        mid, end = guarded[guarded < k + 100], guarded[guarded >= k + 100]
        np.testing.assert_array_equal(mid, np.arange(k - 2, k + 4))
        np.testing.assert_array_equal(end, np.arange(end[0], 16383))
        assert x[end[0]] > 0.9996


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
        solved = {}
        sol = correct(spec, 128, SchemeKind.WSGD, solved)
        xc = solved[128].nodes
        raw = np.max(np.abs(solved[128].u - spec.exact(xc)))
        done = np.max(np.abs(sol.corrected_coarse.values[1:-1] - spec.exact(xc)))
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


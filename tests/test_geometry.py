import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from gibbsgap import geometry
from gibbsgap.errors import ValidationError
from gibbsgap.geometry import (
    CERTIFY_TOL,
    _inclination_forms,
    _max_form,
    _smoothed_objective,
    check_sandwich,
    friedrichs_angle_bruteforce,
    friedrichs_angle_from_norm,
    inclination,
    inclination_lower_bound,
    subspace_basis,
)
from gibbsgap.measure import ProductSpace, TargetDistribution, equicorrelated_binary
from conftest import make_suite
from oracles import conditional_mean, random_target


#: pmf proportional to this on (2, 2, 2): a cell of each coordinate has mass
#: below 1e-20, whose direction a rank cut on the singular values of the
#: centered cell indicators loses
TINY_CELLS = np.array([0.25, 5e-21, 0.25, 1e-23, 0.25, 1e-23, 0.25, 5e-21])


def _tiny_cells_target() -> TargetDistribution:
    return TargetDistribution(ProductSpace((2, 2, 2)), TINY_CELLS / TINY_CELLS.sum())


#: one_cell's coordinate 1 has a single x_{-1} cell, so its basis has no column
BASIS_TARGETS = {"eps_pair": equicorrelated_binary(2, 0.25), "tiny_cells": _tiny_cells_target(),
                 "one_cell": random_target(seed=3, dims=(4, 1)),
                 **{"suite%d" % k: pi for k, pi in enumerate(make_suite(40))}}
BASIS_CASES = [pytest.param(pi, i, id="%s-i%d" % (name, i))
               for name, pi in BASIS_TARGETS.items() for i in range(1, pi.space.d + 1)]


class TestSubspaceBasis:
    @pytest.mark.parametrize("pi, i", BASIS_CASES)
    def test_dimension(self, pi, i):
        # M_i cap M-perp has one direction per x_{-i} cell, less the constants
        n = pi.space.total_states
        assert subspace_basis(i, pi).shape == (n, n // pi.space.dims[i - 1] - 1)

    @pytest.mark.parametrize("pi, i", BASIS_CASES)
    def test_orthonormal_in_pi(self, pi, i):
        b = subspace_basis(i, pi)
        gram = b.T @ (pi.pmf[:, None] * b)
        np.testing.assert_allclose(gram, np.eye(b.shape[1]), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("pi, i", BASIS_CASES)
    def test_mean_zero(self, pi, i):
        b = subspace_basis(i, pi)
        np.testing.assert_allclose(pi.pmf @ b, 0.0, rtol=0, atol=1e-12)

    def test_reads_no_conditional(self, eps_pair):
        # the brute-force angle stays independent of the values the kernels use
        expected = [subspace_basis(i, eps_pair) for i in (1, 2)]
        eps_pair.__dict__["conditionals"] = tuple((cells, np.full(cond.shape, np.nan))
                                                  for cells, cond in eps_pair.conditionals)
        for i in (1, 2):
            np.testing.assert_array_equal(subspace_basis(i, eps_pair), expected[i - 1])

    def test_constant_in_coordinate(self, eps_pair):
        # columns of the coordinate-1 basis do not depend on x1
        v = subspace_basis(1, eps_pair)
        np.testing.assert_allclose(v[0], v[2], atol=1e-12)
        np.testing.assert_allclose(v[1], v[3], atol=1e-12)

    def test_index_validation(self, eps_pair):
        with pytest.raises(ValidationError):
            subspace_basis(0, eps_pair)


class TestFriedrichsAngle:
    def test_eps_pair_closed_form(self, eps_pair):
        assert friedrichs_angle_from_norm(eps_pair) == pytest.approx(0.5, abs=1e-10)

    def test_uniform_product_is_zero(self, uniform_2x2):
        assert friedrichs_angle_from_norm(uniform_2x2) == pytest.approx(0.0, abs=1e-10)
        assert friedrichs_angle_bruteforce(uniform_2x2) == pytest.approx(0.0, abs=1e-10)

    def test_methods_agree_on_suite(self, target_suite):
        for pi in target_suite[:40]:
            cf = friedrichs_angle_from_norm(pi)
            bf = friedrichs_angle_bruteforce(pi)
            assert cf == pytest.approx(bf, abs=1e-8)

    def test_bruteforce_equals_gram_form(self, target_suite):
        # c = lambda_max(Y^T Y - I) / (d - 1) over the stacked bases Y, as the
        # block-coefficient eigenproblem states it
        for pi in target_suite[:40]:
            d = pi.space.d
            s = np.sqrt(pi.pmf)
            y = np.hstack([subspace_basis(i, pi) * s[:, None] for i in range(1, d + 1)])
            gram = y.T @ y
            cross = 0.5 * (gram + gram.T) - np.eye(gram.shape[0])
            c = np.linalg.eigvalsh(cross)[-1] / (d - 1.0)
            assert friedrichs_angle_bruteforce(pi) == pytest.approx(c, abs=1e-12)

    def test_bruteforce_keeps_cells_of_tiny_mass(self):
        pi = _tiny_cells_target()
        assert friedrichs_angle_bruteforce(pi) == pytest.approx(friedrichs_angle_from_norm(pi),
                                                                abs=1e-12)

    def test_angle_in_valid_range(self, target_suite):
        for pi in target_suite[:40]:
            d = pi.space.d
            c = friedrichs_angle_from_norm(pi)
            assert -1.0 / (d - 1.0) - 1e-9 <= c <= 1.0 + 1e-9

    def test_near_degenerate_coupling(self):
        pi = equicorrelated_binary(2, 0.0)
        assert friedrichs_angle_from_norm(pi) == pytest.approx(1.0, abs=1e-9)


class TestInclination:
    def test_uniform_2x2_value(self, uniform_2x2):
        res = inclination(uniform_2x2, restarts=8, seed=0)
        assert res.value == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-5)

    def test_deterministic_given_seed(self, eps_pair):
        a = inclination(eps_pair, restarts=4, seed=3)
        b = inclination(eps_pair, restarts=4, seed=3)
        assert a.value == b.value
        np.testing.assert_array_equal(a.witness, b.witness)

    def test_eps_pair_value(self, eps_pair):
        res = inclination(eps_pair, restarts=8, seed=0)
        assert res.value == pytest.approx(0.5, abs=1e-5)

    def test_near_degenerate_coupling_vanishes(self):
        pi = equicorrelated_binary(2, 0.0)
        res = inclination(pi, restarts=8, seed=0)
        assert res.value <= 1e-4

    def test_witness_mean_zero_unit(self, eps_pair):
        res = inclination(eps_pair, restarts=4, seed=0)
        assert eps_pair.pmf @ res.witness == pytest.approx(0.0, abs=1e-10)
        assert eps_pair.pmf @ res.witness ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_value_is_upper_bound_vs_certified_lower(self, target_suite):
        for pi in target_suite[:10]:
            d = pi.space.d
            c = friedrichs_angle_from_norm(pi)
            res = inclination(pi, restarts=8, seed=0)
            assert res.value >= inclination_lower_bound(c, d) - 1e-6

    def test_rejects_bad_restarts(self, eps_pair):
        with pytest.raises(ValidationError):
            inclination(eps_pair, restarts=0)


class TestInclinationForms:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 1, 2), (2, 3, 4), (2, 2, 2, 2)])
    def test_forms_are_the_squared_distances(self, dims):
        # v^T A_i v = ||f - E[f | x_{-i}]||^2 for f = D^{-1/2} Q v, A_i exactly symmetric
        pi = random_target(seed=len(dims), dims=dims)
        forms, q = _inclination_forms(pi)
        assert (forms == forms.transpose(0, 2, 1)).all()
        for v in np.random.default_rng(0).standard_normal((3, q.shape[1])):
            f = q @ v / np.sqrt(pi.pmf)
            for i, a in enumerate(forms, start=1):
                r = f - conditional_mean(f, i, pi)
                assert v @ a @ v == pytest.approx(pi.pmf @ r ** 2, abs=1e-13 * (v @ v))

    def test_chart_is_scipy_null_space(self, target_suite):
        # the chart fixes where the seeded restarts start, so it must not move
        for pi in target_suite:
            chart = scipy.linalg.null_space(np.sqrt(pi.pmf)[None, :])
            assert np.abs(_inclination_forms(pi)[1] - chart).max() <= 1e-15


def _restart_loop(pi, restarts, seed, nelder_mead=True):
    """The seeded multi-restart optimizer alone, as it ran before the dual:
    (ell_hat, witness).  Each restart ends with a Nelder-Mead search unless
    nelder_mead is False."""
    forms, q = _inclination_forms(pi)
    rng = np.random.default_rng(seed)
    best_val, best_v = np.inf, None
    for _ in range(restarts):
        w = rng.standard_normal(q.shape[1])
        w /= np.linalg.norm(w)
        for beta in (4.0, 32.0, 256.0, 2048.0, 16384.0):
            res = scipy.optimize.minimize(
                _smoothed_objective, w, args=(forms, beta), jac=True,
                method="L-BFGS-B", options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-12},
            )
            w = res.x / np.linalg.norm(res.x)
        if nelder_mead and q.shape[1] <= 12:
            polish = scipy.optimize.minimize(
                lambda x: _max_form(forms, x / np.linalg.norm(x)), w,
                method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
            )
            if polish.fun < _max_form(forms, w):
                w = polish.x / np.linalg.norm(polish.x)
        val = _max_form(forms, w)
        if val < best_val - 1e-15:
            best_val, best_v = val, w.copy()
    return float(np.sqrt(max(best_val, 0.0))), (q @ best_v) / np.sqrt(pi.pmf)


@pytest.fixture(scope="module")
def suite_inclinations(target_suite):
    return [inclination(pi, restarts=2, seed=0) for pi in target_suite]


@pytest.fixture
def open_target():
    """A random 2x2x2x2 pmf drawn like the benchmark pool's: lambda_min is
    double at the dual optimum and the dual stays below ell^2."""
    g = np.random.default_rng([2]).gamma(1.0, size=16)
    return TargetDistribution(ProductSpace((2, 2, 2, 2)), g / g.sum())


class TestInclinationDual:
    def test_dual_never_exceeds_ell_hat(self, suite_inclinations):
        for res in suite_inclinations:
            assert 0.0 < res.lower
            assert res.lower ** 2 <= res.value ** 2 + 1e-15

    def test_bracket_closes_on_suite(self, target_suite, suite_inclinations):
        closed = [res.certified for res in suite_inclinations]
        assert all(c for pi, c in zip(target_suite, closed) if pi.space.d == 2)
        assert sum(closed) >= 90
        for res in suite_inclinations:
            assert res.restarts == (0 if res.certified else 2)
            if res.certified:
                width = res.value ** 2 - res.lower ** 2
                assert width <= CERTIFY_TOL * max(1.0, res.value ** 2) + 1e-15

    def test_certified_witness(self, target_suite, suite_inclinations):
        for pi, res in list(zip(target_suite, suite_inclinations))[:10]:
            if res.certified:
                forms, q = _inclination_forms(pi)
                v = q.T @ (np.sqrt(pi.pmf) * res.witness)
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
                assert np.sqrt(_max_form(forms, v)) == pytest.approx(res.value, abs=1e-14)

    def test_closed_no_worse_than_restarts(self, target_suite, suite_inclinations):
        closed = [pi for pi, res in zip(target_suite, suite_inclinations) if res.certified]
        for pi in closed[:4]:
            value, _ = _restart_loop(pi, restarts=4, seed=0)
            assert inclination(pi, restarts=4, seed=0).value <= value + 1e-12

    def test_open_bracket_falls_back_to_restarts(self, open_target):
        res = inclination(open_target, restarts=4, seed=0)
        assert not res.certified
        assert res.restarts == 4
        assert res.kkt_residual is not None
        assert res.lower ** 2 < res.value ** 2 - 1e-3

    def test_uniform_weights_give_the_angle(self, target_suite):
        # sum_i A_i = d (I - RSG_uniform) on mean-zero functions
        for pi in target_suite[:40]:
            d = pi.space.d
            forms, _ = _inclination_forms(pi)
            c = friedrichs_angle_from_norm(pi)
            lam_min = np.linalg.eigvalsh(forms.sum(axis=0))[0]
            assert lam_min / d == pytest.approx((d - 1.0) * (1.0 - c) / d, abs=1e-12)


#: Suite targets whose dual bracket stays open.
OPEN_SUITE = (8, 46, 64, 83, 98)


def _first_order_residual(forms, v):
    """Independent stationarity check of a witness v of min_v max_i v^T A_i v:
    the distance from 0 to the convex hull of the sphere gradients
    A_i v - (v^T A_i v) v of the forms active at v."""
    g = np.einsum("i,kij,j->k", v, forms, v)
    active = g >= g.max() - 1e-9
    grads = (forms[active] @ v - g[active, None] * v).T
    big = 1e3
    a = np.vstack([grads, np.full(active.sum(), big)])
    mu, _ = scipy.optimize.nnls(a, np.append(np.zeros(v.shape[0]), big))
    return float(np.linalg.norm(grads @ mu)), float(g.max() - g[active].min())


class TestBranchPolish:
    @pytest.mark.parametrize("index", OPEN_SUITE)
    def test_open_suite_target_no_worse_and_stationary(self, index, target_suite,
                                                       suite_inclinations):
        pi, res = target_suite[index], suite_inclinations[index]
        value, _ = _restart_loop(pi, restarts=2, seed=0)
        assert not res.certified
        assert res.value ** 2 <= value ** 2 + 1e-12
        assert 0.0 <= res.kkt_residual + 1e-15 <= 1e-12
        forms, q = _inclination_forms(pi)
        v = q.T @ (np.sqrt(pi.pmf) * res.witness)
        assert np.sqrt(_max_form(forms, v)) == pytest.approx(res.value, abs=1e-14)
        grad, spread = _first_order_residual(forms, v)
        assert grad <= 1e-10 and spread <= 1e-12

    def test_open_target_no_worse_and_stationary(self, open_target):
        res = inclination(open_target, restarts=4, seed=0)
        value, _ = _restart_loop(open_target, restarts=4, seed=0)
        assert res.value ** 2 <= value ** 2 + 1e-12
        assert 0.0 <= res.kkt_residual + 1e-15 <= 1e-12
        forms, q = _inclination_forms(open_target)
        grad, spread = _first_order_residual(forms, q.T @ (np.sqrt(open_target.pmf) * res.witness))
        assert grad <= 1e-10 and spread <= 1e-12

    def test_relabelings_agree(self, open_target):
        tensor = open_target.as_tensor()
        values = []
        for axes, flips in [((0, 1, 2, 3), ()), ((3, 2, 1, 0), ()), ((1, 0, 2, 3), ()),
                            ((0, 1, 3, 2), (0,)), ((0, 1, 2, 3), (0, 1, 2, 3)),
                            ((2, 3, 0, 1), (1,)), ((1, 2, 3, 0), (2, 3)), ((3, 0, 1, 2), (0, 2))]:
            relabeled = np.flip(np.transpose(tensor, axes), axis=flips)
            pi = TargetDistribution(open_target.space, relabeled.reshape(-1).copy())
            values.append(inclination(pi, restarts=4, seed=0).value)
        assert max(values) - min(values) <= 1e-12

    def test_first_polish_after_the_beta_32_stage(self, open_target, monkeypatch):
        betas = []
        polish = geometry._branch_polish
        monkeypatch.setattr(geometry, "_branch_polish",
                            lambda forms, w, beta: betas.append(beta) or polish(forms, w, beta))
        inclination(open_target, restarts=4, seed=0)
        assert len(betas) >= 4 and min(betas) == 32.0

    def test_failed_polish_runs_the_restart_loop(self, open_target, monkeypatch):
        monkeypatch.setattr(geometry, "_branch_polish", lambda forms, w, beta: None)
        betas = []
        lbfgs = geometry._lbfgs
        monkeypatch.setattr(geometry, "_lbfgs",
                            lambda fun, x, args: betas.append(args[1]) or lbfgs(fun, x, args))
        res = inclination(open_target, restarts=4, seed=0)
        assert betas == [4.0, 32.0, 256.0, 2048.0, 16384.0] * 4
        # the scipy L-BFGS-B loop stops its stages elsewhere, and the unpolished
        # ell_hat moves with the stopping point: 6.9e-11 apart here (up to
        # 9.5e-9 on the open suite targets).  The best restart may differ, so
        # the witness is checked for its value only.
        value, _ = _restart_loop(open_target, restarts=4, seed=0, nelder_mead=False)
        assert res.value == pytest.approx(value, abs=1e-9)
        forms, q = _inclination_forms(open_target)
        v = q.T @ (np.sqrt(open_target.pmf) * res.witness)
        assert np.sqrt(_max_form(forms, v)) == pytest.approx(res.value, abs=1e-14)
        assert res.kkt_residual is None
        assert not res.certified and res.restarts == 4


class TestLbfgs:
    def test_rosenbrock(self):
        def rosenbrock(x):
            a, b = x
            return ((1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2,
                    np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)]))

        x = geometry._lbfgs(rosenbrock, np.array([-1.2, 1.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-9)

    def test_reaches_the_scipy_minimum(self, target_suite, open_target):
        # each annealing stage from the same start: L-BFGS-B's value and
        # _lbfgs's agree to 3.8e-11 at worst over 4 restarts of these targets
        for pi in [target_suite[i] for i in OPEN_SUITE] + [open_target]:
            forms, q = _inclination_forms(pi)
            rng = np.random.default_rng(0)
            for _ in range(2):
                w = rng.standard_normal(q.shape[1])
                w /= np.linalg.norm(w)
                for beta in (4.0, 32.0, 256.0, 2048.0, 16384.0):
                    ref = scipy.optimize.minimize(
                        _smoothed_objective, w, args=(forms, beta), jac=True,
                        method="L-BFGS-B",
                        options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-12})
                    x = geometry._lbfgs(_smoothed_objective, w, (forms, beta))
                    assert _smoothed_objective(x, forms, beta)[0] == pytest.approx(ref.fun,
                                                                                   abs=1e-9)
                    w = ref.x / np.linalg.norm(ref.x)


class TestSandwich:
    def test_lower_bound_formula(self):
        assert inclination_lower_bound(0.5, 2) == pytest.approx(0.125)
        assert inclination_lower_bound(1.0, 3) == 0.0

    def test_left_inequality_on_suite(self, target_suite):
        for pi in target_suite[:10]:
            d = pi.space.d
            c = friedrichs_angle_from_norm(pi)
            ell_hat = inclination(pi, restarts=8, seed=0).value
            out = check_sandwich(c, ell_hat, d)
            assert out["left_pass"]

    def test_exact_values_satisfy_both_sides(self, uniform_2x2):
        # c = 0 and ell = 1/sqrt(2) are exact here, so both sides must hold
        out = check_sandwich(0.0, 1.0 / np.sqrt(2.0), 2)
        assert out["left_pass"]
        assert out["right_advisory_pass"]

import numpy as np
import pytest
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
from gibbsgap.measure import ProductSpace, TargetDistribution, equicorrelated_binary, random_target


class TestSubspaceBasis:
    def test_dimension(self, eps_pair):
        # M_i cap M-perp for a 2x2 space has one direction per coordinate
        assert subspace_basis(1, eps_pair).dim == 1
        assert subspace_basis(2, eps_pair).dim == 1

    def test_orthonormal_in_pi(self, eps_pair):
        b = subspace_basis(1, eps_pair)
        gram = b.vectors.T @ (eps_pair.pmf[:, None] * b.vectors)
        np.testing.assert_allclose(gram, np.eye(b.dim), atol=1e-12)

    def test_mean_zero(self, eps_pair):
        b = subspace_basis(2, eps_pair)
        np.testing.assert_allclose(eps_pair.pmf @ b.vectors, 0.0, atol=1e-12)

    def test_constant_in_coordinate(self, eps_pair):
        # columns of the coordinate-1 basis do not depend on x1
        v = subspace_basis(1, eps_pair).vectors
        np.testing.assert_allclose(v[0], v[2], atol=1e-12)
        np.testing.assert_allclose(v[1], v[3], atol=1e-12)

    def test_index_validation(self, eps_pair):
        with pytest.raises(ValidationError):
            subspace_basis(0, eps_pair)


class TestFriedrichsAngle:
    def test_eps_pair_closed_form(self, eps_pair):
        assert friedrichs_angle_from_norm(eps_pair).value == pytest.approx(0.5, abs=1e-10)

    def test_uniform_product_is_zero(self, uniform_2x2):
        assert friedrichs_angle_from_norm(uniform_2x2).value == pytest.approx(0.0, abs=1e-10)
        assert friedrichs_angle_bruteforce(uniform_2x2).value == pytest.approx(0.0, abs=1e-10)

    def test_methods_agree_on_suite(self, target_suite):
        for pi in target_suite[:40]:
            cf = friedrichs_angle_from_norm(pi).value
            bf = friedrichs_angle_bruteforce(pi).value
            assert cf == pytest.approx(bf, abs=1e-8)

    def test_angle_in_valid_range(self, target_suite):
        for pi in target_suite[:40]:
            d = pi.space.d
            c = friedrichs_angle_from_norm(pi).value
            assert -1.0 / (d - 1.0) - 1e-9 <= c <= 1.0 + 1e-9

    def test_near_degenerate_coupling(self):
        pi = equicorrelated_binary(2, 0.0)
        assert friedrichs_angle_from_norm(pi).value == pytest.approx(1.0, abs=1e-9)


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
            c = friedrichs_angle_from_norm(pi).value
            res = inclination(pi, restarts=8, seed=0)
            assert res.value >= inclination_lower_bound(c, d) - 1e-6

    def test_rejects_bad_restarts(self, eps_pair):
        with pytest.raises(ValidationError):
            inclination(eps_pair, restarts=0)


def _restart_loop(pi, restarts, seed):
    """The seeded multi-restart optimizer alone, as it ran before the dual:
    (ell_hat, witness)."""
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
        if q.shape[1] <= 12:
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
            c = friedrichs_angle_from_norm(pi).value
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
        res = inclination(open_target, restarts=4, seed=0)
        value, witness = _restart_loop(open_target, restarts=4, seed=0)
        assert res.value == value
        np.testing.assert_array_equal(res.witness, witness)
        assert res.kkt_residual is None
        assert not res.certified and res.restarts == 4


class TestSandwich:
    def test_lower_bound_formula(self):
        assert inclination_lower_bound(0.5, 2) == pytest.approx(0.125)
        assert inclination_lower_bound(1.0, 3) == 0.0

    def test_left_inequality_on_suite(self, target_suite):
        for pi in target_suite[:10]:
            d = pi.space.d
            c = friedrichs_angle_from_norm(pi).value
            ell_hat = inclination(pi, restarts=8, seed=0).value
            out = check_sandwich(c, ell_hat, d)
            assert out["left_pass"]

    def test_exact_values_satisfy_both_sides(self, uniform_2x2):
        # c = 0 and ell = 1/sqrt(2) are exact here, so both sides must hold
        out = check_sandwich(0.0, 1.0 / np.sqrt(2.0), 2, tol=1e-6)
        assert out["left_pass"]
        assert out["right_advisory_pass"]

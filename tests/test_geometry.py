import math

import numpy as np
import pytest

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
from gibbsgap.operators import RandomScan, l2_norm_centered, rsg
from conftest import make_suite
from oracles import conditional_mean, lbfgs, random_target, smoothed_objective, two_loop_direction


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

    def test_methods_agree_at_256_states(self):
        pi = equicorrelated_binary(8, 0.25)
        assert abs(friedrichs_angle_bruteforce(pi) - friedrichs_angle_from_norm(pi)) <= 1e-9

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
        res = inclination(uniform_2x2, restarts=8)
        assert res.value == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-5)

    def test_deterministic(self, eps_pair):
        a = inclination(eps_pair, restarts=4)
        b = inclination(eps_pair, restarts=4)
        assert a.value == b.value
        np.testing.assert_array_equal(a.witness, b.witness)

    def test_eps_pair_value(self, eps_pair):
        res = inclination(eps_pair, restarts=8)
        assert res.value == pytest.approx(0.5, abs=1e-5)

    def test_near_degenerate_coupling_vanishes(self):
        pi = equicorrelated_binary(2, 0.0)
        res = inclination(pi, restarts=8)
        assert res.value <= 1e-4

    def test_witness_mean_zero_unit(self, eps_pair):
        res = inclination(eps_pair, restarts=4)
        assert eps_pair.pmf @ res.witness == pytest.approx(0.0, abs=1e-10)
        assert eps_pair.pmf @ res.witness ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_value_is_upper_bound_vs_certified_lower(self, target_suite):
        for pi in target_suite[:10]:
            d = pi.space.d
            c = friedrichs_angle_from_norm(pi)
            res = inclination(pi, restarts=8)
            assert res.value >= inclination_lower_bound(c, d) - 1e-6

    def test_one_mean_zero_direction(self):
        # on (2, 1) the dual's plane is u_0 alone; M_2 holds every function
        # and M_1 only the constants, so ell = 1 and the bracket stays open
        res = inclination(random_target(seed=1, dims=(2, 1)), restarts=4)
        assert not res.certified and res.restarts == 4
        assert res.value == pytest.approx(1.0, abs=1e-12)

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
        # the chart fixes where the open-bracket restarts start, so it must not move
        linalg = pytest.importorskip("scipy.linalg")
        for pi in target_suite:
            chart = linalg.null_space(np.sqrt(pi.pmf)[None, :])
            assert np.abs(_inclination_forms(pi)[1] - chart).max() <= 1e-15


def _one_row(w, forms, beta):
    """_smoothed_objective of the single vector w: a value and a gradient."""
    val, grad = _smoothed_objective(w[None, :], forms, beta)
    return val[0], grad[0]


def _plane_starts(forms, restarts):
    """cos(theta_j) u_0 + sin(theta_j) u_1, theta_j = pi j / restarts, for the
    dual's two lowest eigenvectors u_0, u_1 at its final weights."""
    u = geometry.inclination_dual(forms)[2]
    return [math.cos(math.pi * j / restarts) * u[:, 0] + math.sin(math.pi * j / restarts) * u[:, 1]
            for j in range(restarts)]


def _restart_loop(pi, restarts, seed=0, nelder_mead=True, plane=False):
    """The multi-restart optimizer alone by scipy's L-BFGS-B: (ell_hat,
    witness).  By default it runs as before the dual, from seeded normal
    draws through the stages beta = 4, 32, ..., 16384; with plane true it
    starts from ``_plane_starts`` and skips the beta = 4 stage, as
    ``inclination`` does.  Each restart ends with a Nelder-Mead search unless
    nelder_mead is False."""
    optimize = pytest.importorskip("scipy.optimize")
    forms, q = _inclination_forms(pi)
    if plane:
        starts, betas = _plane_starts(forms, restarts), (32.0, 256.0, 2048.0, 16384.0)
    else:
        rng = np.random.default_rng(seed)
        starts = [rng.standard_normal(q.shape[1]) for _ in range(restarts)]
        betas = (4.0, 32.0, 256.0, 2048.0, 16384.0)
    best_val, best_v = np.inf, None
    for w in starts:
        w = w / np.linalg.norm(w)
        for beta in betas:
            res = optimize.minimize(
                _one_row, w, args=(forms, beta), jac=True,
                method="L-BFGS-B", options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-12},
            )
            w = res.x / np.linalg.norm(res.x)
        if nelder_mead and q.shape[1] <= 12:
            polish = optimize.minimize(
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
    return [inclination(pi, restarts=2) for pi in target_suite]


@pytest.fixture
def open_target():
    """A random 2x2x2x2 pmf drawn like the benchmark pool's: lambda_min is
    double at the dual optimum and the dual stays below ell^2."""
    g = np.random.default_rng([2]).gamma(1.0, size=16)
    return TargetDistribution(ProductSpace((2, 2, 2, 2)), g / g.sum())


class TestScanNorms:
    def test_equal_the_dense_norms_on_suite(self, target_suite):
        # 1 - lambda_min(sum_i w_i A_i) against the SVD of the random-scan kernel
        rng = np.random.default_rng(17)
        worst = 0.0
        for pi in target_suite:
            d = pi.space.d
            scans = [RandomScan.uniform(d)] + [RandomScan(tuple(w / w.sum()))
                                               for w in rng.uniform(0.05, 1.0, size=(8, d))]
            norms = inclination(pi, restarts=1, scans=scans).scan_norms
            assert list(norms) == scans
            for scan in scans:
                worst = max(worst, abs(norms[scan] - l2_norm_centered(rsg(scan, pi))))
        assert worst <= 1e-14

    def test_c02_uniform_norm(self, eps_pair):
        norms = inclination(eps_pair, scans=[RandomScan.uniform(2)]).scan_norms
        assert norms[RandomScan.uniform(2)] == pytest.approx(0.75, abs=1e-14)

    def test_chunks_give_the_bits_of_one_stack(self, monkeypatch):
        pi = random_target(seed=9, dims=(2, 3, 2))
        scans = [RandomScan.uniform(3), RandomScan((0.2, 0.3, 0.5)), (0.5, 0.25, 0.25)]
        whole = inclination(pi, restarts=1, scans=scans).scan_norms
        monkeypatch.setattr(geometry, "_STACK_BYTES", 1)  # one sum per chunk
        assert inclination(pi, restarts=1, scans=scans).scan_norms == whole
        assert RandomScan((0.5, 0.25, 0.25)) in whole  # weight tuples are taken as scans

    def test_refuses_a_mismatched_scan(self, eps_pair):
        with pytest.raises(ValidationError, match="scan has 3 coordinates, target has 2"):
            inclination(eps_pair, scans=[RandomScan.uniform(3)])


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
            assert inclination(pi, restarts=4).value <= value + 1e-12

    def test_open_bracket_falls_back_to_restarts(self, open_target):
        res = inclination(open_target, restarts=4)
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
    optimize = pytest.importorskip("scipy.optimize")
    g = np.einsum("i,kij,j->k", v, forms, v)
    active = g >= g.max() - 1e-9
    grads = (forms[active] @ v - g[active, None] * v).T
    big = 1e3
    a = np.vstack([grads, np.full(active.sum(), big)])
    mu, _ = optimize.nnls(a, np.append(np.zeros(v.shape[0]), big))
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
        res = inclination(open_target, restarts=4)
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
            values.append(inclination(pi, restarts=4).value)
        assert max(values) - min(values) <= 1e-12

    def test_first_polish_after_the_beta_32_stage(self, open_target, monkeypatch):
        betas = []
        polish = geometry._branch_polish
        monkeypatch.setattr(geometry, "_branch_polish",
                            lambda forms, w, beta: betas.append(beta) or polish(forms, w, beta))
        inclination(open_target, restarts=4)
        assert len(betas) >= 4 and min(betas) == 32.0

    def test_failed_polish_runs_the_restart_loop(self, open_target, monkeypatch):
        monkeypatch.setattr(geometry, "_branch_polish", lambda forms, w, beta: None)
        stages = []
        lbfgs = geometry._lbfgs
        monkeypatch.setattr(geometry, "_lbfgs", lambda fun, x, args: stages.append(
            (args[1], x.shape[0])) or lbfgs(fun, x, args))
        res = inclination(open_target, restarts=4)
        # no restart leaves the schedule, so every stage steps all four in one call
        assert stages == [(beta, 4) for beta in (32.0, 256.0, 2048.0, 16384.0)]
        # the scipy L-BFGS-B loop from the same starts stops its stages
        # elsewhere, and the unpolished ell_hat moves with the stopping point:
        # 4.3e-10 apart here (up to 1.4e-9 on the open suite targets).  The
        # best restart may differ, so the witness is checked for its value only.
        value, _ = _restart_loop(open_target, restarts=4, nelder_mead=False, plane=True)
        assert res.value == pytest.approx(value, abs=1e-9)
        forms, q = _inclination_forms(open_target)
        v = q.T @ (np.sqrt(open_target.pmf) * res.witness)
        assert np.sqrt(_max_form(forms, v)) == pytest.approx(res.value, abs=1e-14)
        assert res.kkt_residual is None
        assert not res.certified and res.restarts == 4


class TestLbfgs:
    def test_rosenbrock(self):
        def rosenbrock(x):
            a, b = x.T
            return ((1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2,
                    np.stack([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)],
                             axis=1))

        x = geometry._lbfgs(rosenbrock, np.array([[-1.2, 1.0], [2.0, -1.0], [-0.5, 3.0]]))
        np.testing.assert_allclose(x, np.ones((3, 2)), atol=1e-9)

    def test_reaches_the_scipy_minimum(self, target_suite, open_target):
        # each annealing stage from the same starts: L-BFGS-B's value and
        # _lbfgs's agree to 6.8e-12 at worst over 2 restarts of these targets
        optimize = pytest.importorskip("scipy.optimize")
        for pi in [target_suite[i] for i in OPEN_SUITE] + [open_target]:
            forms, q = _inclination_forms(pi)
            rng = np.random.default_rng(0)
            w = rng.standard_normal((2, q.shape[1]))
            w /= np.linalg.norm(w, axis=1, keepdims=True)
            for beta in (4.0, 32.0, 256.0, 2048.0, 16384.0):
                refs = [optimize.minimize(
                    _one_row, start, args=(forms, beta), jac=True, method="L-BFGS-B",
                    options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-12}) for start in w]
                x = geometry._lbfgs(_smoothed_objective, w, (forms, beta))
                values = _smoothed_objective(x, forms, beta)[0]
                for value, ref in zip(values, refs):
                    assert value == pytest.approx(ref.fun, abs=1e-9)
                w = np.array([ref.x / np.linalg.norm(ref.x) for ref in refs])


def _push(mem, rows, pairs_by_row, rng, m):
    """Push one seeded valid pair (y = A s, A positive definite) into the
    memories of the given rows, recording it in pairs_by_row."""
    count = mem[0].shape[0]
    s = rng.standard_normal((count, m))
    root = rng.standard_normal((m, m))
    y = s @ (root @ root.T + 0.5 * np.eye(m))
    sy = np.einsum("ij,ij->i", s, y)
    geometry._push_pairs(mem, rows, s, y, sy)
    for r in rows:
        pairs_by_row[r].append((s[r], y[r], 1.0 / (s[r] @ y[r])))


class TestLockstep:
    """Many rows stepped by one batched L-BFGS against the per-vector oracle."""

    @pytest.mark.parametrize("m", [2, 15, 60])
    def test_compact_direction_equals_two_loop(self, m):
        # rows hold 0, 1, 3, 10 and (past the memory) 13 pairs, pushed in turns
        rng = np.random.default_rng(m)
        pushes = [0, 1, 3, 10, 13]
        mem = geometry._pair_memory(len(pushes), m)
        pairs = [[] for _ in pushes]
        for step in range(max(pushes)):
            _push(mem, np.array([r for r, k in enumerate(pushes) if k > step]), pairs, rng, m)
        g = rng.standard_normal((len(pushes), m))
        p = geometry._lbfgs_direction(mem, g)
        for r in range(len(pushes)):
            ref = two_loop_direction(pairs[r][-geometry.LBFGS_MEMORY:], g[r])
            assert np.abs(p[r] - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_objective_rows_equal_the_einsum_oracle(self, target_suite, open_target):
        for pi in [target_suite[i] for i in OPEN_SUITE] + [open_target]:
            forms, q = _inclination_forms(pi)
            w = np.random.default_rng(1).standard_normal((4, q.shape[1]))
            for beta in (4.0, 16384.0):
                values, grads = _smoothed_objective(w, forms, beta)
                for x, value, grad in zip(w, values, grads):
                    ref_value, ref_grad = smoothed_objective(x, forms, beta)
                    assert value == pytest.approx(ref_value, rel=1e-14)
                    assert np.abs(grad - ref_grad).max() <= 1e-13

    def test_rows_equal_single_row_calls(self, target_suite, open_target):
        for pi in [target_suite[8], open_target]:
            forms, q = _inclination_forms(pi)
            w = np.random.default_rng(3).standard_normal((32, q.shape[1]))
            for beta in (4.0, 32.0):
                batch = geometry._lbfgs(_smoothed_objective, w, (forms, beta))
                fours = np.concatenate([geometry._lbfgs(_smoothed_objective, w[i:i + 4],
                                                        (forms, beta)) for i in range(0, 32, 4)])
                assert np.array_equal(fours, batch)
                for row, x in zip(w[:6], batch):
                    assert np.array_equal(geometry._lbfgs(_smoothed_objective, row[None, :],
                                                          (forms, beta))[0], x)

    def test_rejected_pair_matches_the_oracle(self, monkeypatch):
        # f = sum_j cos(x_j) + |x|^2 / 4 bends down near 0: the first step of
        # the crafted row (row 1) gives s^T y < 0, while rows 0 and 2 start
        # where f is convex along their first steps
        def fun(x):
            return np.cos(x).sum(axis=1) + 0.25 * (x * x).sum(axis=1), 0.5 * x - np.sin(x)

        def one(x):
            value, grad = fun(x[None, :])
            return value[0], grad[0]

        x0 = np.array([[3.0, -2.5, 4.0], [0.3, -0.2, 0.1], [2.0, 2.5, -3.5]])
        g = one(x0[1])[1]
        s = -g / np.linalg.norm(g)
        assert one(x0[1] + s)[0] <= one(x0[1])[0] + 1e-4 * (g @ s)  # the unit step is taken
        assert s @ (one(x0[1] + s)[1] - g) < 0.0

        kept = []
        direction = geometry._lbfgs_direction
        monkeypatch.setattr(geometry, "_lbfgs_direction", lambda mem, g: kept.append(
            (mem[2] > 0.0).sum(axis=1)) or direction(mem, g))
        x = geometry._lbfgs(fun, x0)
        # at the second step the crafted row holds no pair; the others hold theirs
        assert kept[1].tolist() == [1, 0, 1]
        monkeypatch.undo()
        for row, start in zip(x, x0):
            assert np.abs(row - lbfgs(one, start)).max() <= 1e-12
            assert np.array_equal(geometry._lbfgs(fun, start[None, :])[0], row)

    def test_row_at_a_stationary_point_comes_back_unchanged(self):
        scale = np.array([1.0, 3.0, 10.0])

        def fun(x):
            return 0.5 * ((x - 1.0) ** 2 * scale).sum(axis=1), (x - 1.0) * scale

        x0 = np.array([[4.0, -2.0, 0.5], [1.0, 1.0, 1.0], [1.0, 1.0 + 1e-13, 1.0]])
        x = geometry._lbfgs(fun, x0)
        assert np.array_equal(x[1:], x0[1:])  # |g| <= LBFGS_GTOL: no step
        np.testing.assert_allclose(x[0], np.ones(3), atol=1e-9)

    def test_starts_are_spread_in_the_dual_plane(self, open_target, monkeypatch):
        starts = []
        lbfgs_ = geometry._lbfgs
        monkeypatch.setattr(geometry, "_lbfgs", lambda fun, x, args: starts.append(
            x.copy()) or lbfgs_(fun, x, args))
        inclination(open_target, restarts=4)
        four = starts[0]
        starts.clear()
        inclination(open_target, restarts=32)
        forms, _ = _inclination_forms(open_target)
        assert np.array_equal(four, np.array(_plane_starts(forms, 4)))
        # the 4 starts are rows 0, 8, 16 and 24 of the 32
        assert np.array_equal(starts[0][::8], four)

    @pytest.mark.parametrize("index", OPEN_SUITE)
    def test_more_restarts_no_worse_on_the_open_suite(self, index, target_suite):
        pi = target_suite[index]
        assert inclination(pi, restarts=32).value <= inclination(pi, restarts=4).value

    def test_more_restarts_no_worse_on_the_open_target(self, open_target):
        assert inclination(open_target, restarts=32).value <= inclination(open_target,
                                                                          restarts=4).value


class TestSandwich:
    def test_lower_bound_formula(self):
        assert inclination_lower_bound(0.5, 2) == pytest.approx(0.125)
        assert inclination_lower_bound(1.0, 3) == 0.0

    def test_left_inequality_on_suite(self, target_suite):
        for pi in target_suite[:10]:
            d = pi.space.d
            c = friedrichs_angle_from_norm(pi)
            ell_hat = inclination(pi, restarts=8).value
            out = check_sandwich(c, ell_hat, d)
            assert out["left_pass"]

    def test_exact_values_satisfy_both_sides(self, uniform_2x2):
        # c = 0 and ell = 1/sqrt(2) are exact here, so both sides must hold
        out = check_sandwich(0.0, 1.0 / np.sqrt(2.0), 2)
        assert out["left_pass"]
        assert out["right_advisory_pass"]

import math
import tracemalloc

import numpy as np
import pytest

from gibbsgap.errors import ValidationError
from gibbsgap import operators
from gibbsgap.operators import (
    DeterministicScan,
    MarkovOperator,
    RandomScan,
    Spectra,
    _small_step_kernel,
    adjoint,
    dsg,
    is_reversible,
    l2_norm_centered,
    rsg,
    small_step,
    spectral_radius_centered,
    symmetrized_sweep,
)
from oracles import conditional_mean, power_norm_sequence, random_target


class TestScanSpecs:
    def test_dsg_rejects_non_permutation(self):
        with pytest.raises(ValidationError):
            DeterministicScan((1, 1, 2))
        with pytest.raises(ValidationError):
            DeterministicScan((0, 1))

    def test_rsg_rejects_bad_weights(self):
        with pytest.raises(ValidationError):
            RandomScan((0.5, 0.6))
        with pytest.raises(ValidationError):
            RandomScan((1.0, 0.0))

    @pytest.mark.parametrize("weights, bad", [((math.nan, math.nan), "weight 1 is nan"),
                                              ((0.5, math.nan), "weight 2 is nan"),
                                              ((math.inf, 0.5), "weight 1 is inf")])
    def test_rsg_names_a_non_finite_weight(self, weights, bad):
        # a NaN fails every comparison, so a "<= 0" check and the sum check let it through
        with pytest.raises(ValidationError, match=bad):
            RandomScan(weights)

    def test_uniform(self):
        assert RandomScan.uniform(4).weights == (0.25,) * 4


class TestMarkovOperator:
    def test_rejects_bad_rows(self, uniform_2x2):
        k = np.full((4, 4), 0.3)
        with pytest.raises(ValidationError, match="rows"):
            MarkovOperator(k, uniform_2x2.pmf)

    def test_rejects_nonstationary(self, uniform_2x2):
        k = np.zeros((4, 4))
        k[:, 0] = 1.0
        with pytest.raises(ValidationError, match="stationarity"):
            MarkovOperator(k, uniform_2x2.pmf)

    def test_clamps_tiny_negative_dust(self, uniform_2x2):
        k = np.full((4, 4), 0.25)
        k[0, 0] = 0.25 - 1e-15
        k[0, 1] = 0.25 + 1e-15
        op = MarkovOperator(k, uniform_2x2.pmf)
        assert op.kernel.min() >= 0.0

    @pytest.mark.parametrize("entry", ["all", "one"])
    def test_rejects_nan_kernel(self, uniform_2x2, entry):
        k = np.full((4, 4), np.nan if entry == "all" else 0.25)
        k[0, 0] = np.nan
        with pytest.raises(ValidationError):
            MarkovOperator(k, uniform_2x2.pmf)

    def test_rejects_large_negative(self, uniform_2x2):
        k = np.full((4, 4), 0.25)
        k[0, 0] = -0.1
        k[0, 1] = 0.6
        with pytest.raises(ValidationError, match="dust"):
            MarkovOperator(k, uniform_2x2.pmf)


class TestSmallStep:
    def test_acts_as_conditional_mean(self, eps_pair):
        rng = np.random.default_rng(0)
        for i in (1, 2):
            op = small_step(i, eps_pair)
            f = rng.standard_normal(4)
            expected = conditional_mean(f, i, eps_pair)
            np.testing.assert_allclose(op.kernel @ f, expected, atol=1e-14)

    def test_projection_idempotent(self, eps_pair):
        op = small_step(1, eps_pair)
        np.testing.assert_allclose(op.kernel @ op.kernel, op.kernel, atol=1e-14)

    def test_self_adjoint(self, eps_pair):
        op = small_step(2, eps_pair)
        np.testing.assert_allclose(adjoint(op).kernel, op.kernel, atol=1e-14)

    def test_eps_pair_entries(self, eps_pair):
        # conditioned on x2 = 0: P(x1 = 0) = 0.75
        op = small_step(1, eps_pair)
        assert op.kernel[0, 0] == pytest.approx(0.75)
        assert op.kernel[0, 2] == pytest.approx(0.25)
        assert op.kernel[0, 1] == 0.0


def _cell_loop_kernel(i, pi):
    """Reference: the small-step kernel filled one x_{-i} cell at a time."""
    dims = pi.space.dims
    n = pi.space.total_states
    axis = i - 1
    w = pi.as_tensor()
    cond = w / w.sum(axis=axis, keepdims=True)
    kernel = np.zeros((n, n))
    moved = np.moveaxis(np.arange(n).reshape(dims), axis, -1).reshape(-1, dims[axis])
    cond_rows = np.moveaxis(cond, axis, -1).reshape(-1, dims[axis])
    for cell, crow in zip(moved, cond_rows):
        kernel[np.ix_(cell, cell)] = crow[None, :]
    return kernel


class TestSmallStepKernel:
    @pytest.mark.parametrize("dims", [(3, 3), (2, 3, 4), (4, 2, 2, 3)])
    def test_equals_cell_loop(self, dims):
        pi = random_target(21, dims)
        for i in range(1, len(dims) + 1):
            assert (_small_step_kernel(i, pi) == _cell_loop_kernel(i, pi)).all()


class TestSweeps:
    def test_dsg_matches_product_of_small_steps(self, eps_pair):
        k1 = small_step(1, eps_pair).kernel
        k2 = small_step(2, eps_pair).kernel
        np.testing.assert_allclose(dsg((1, 2), eps_pair).kernel, k1 @ k2, atol=1e-14)
        np.testing.assert_allclose(dsg((2, 1), eps_pair).kernel, k2 @ k1, atol=1e-14)

    def test_rsg_is_convex_combination(self, eps_pair):
        k1 = small_step(1, eps_pair).kernel
        k2 = small_step(2, eps_pair).kernel
        op = rsg((0.25, 0.75), eps_pair)
        np.testing.assert_allclose(op.kernel, 0.25 * k1 + 0.75 * k2, atol=1e-14)

    def test_rsg_reversible_dsg_not(self, eps_pair):
        assert is_reversible(rsg(RandomScan.uniform(2), eps_pair))
        assert not is_reversible(dsg((1, 2), eps_pair))

    def test_symmetrized_sweep_is_palindrome(self, eps_pair):
        k1 = small_step(1, eps_pair).kernel
        k2 = small_step(2, eps_pair).kernel
        sym = symmetrized_sweep((1, 2), eps_pair)
        np.testing.assert_allclose(sym.kernel, k1 @ k2 @ k1, atol=1e-14)
        assert is_reversible(sym)

    @pytest.mark.parametrize("dims", [(2, 3, 4), (4, 2, 2, 3)])
    def test_products_equal_cell_loop_products(self, dims):
        pi = random_target(22, dims)
        d = len(dims)
        steps = [_cell_loop_kernel(i, pi) for i in range(1, d + 1)]
        for sigma in (tuple(range(1, d + 1)), tuple(range(d, 0, -1)), (2, 1) + tuple(range(3, d + 1))):
            path = sigma + sigma[-2::-1]
            product = steps[path[0] - 1]
            for k, i in enumerate(path[1:], start=2):
                product = product @ steps[i - 1]
                if k == d:
                    assert (dsg(sigma, pi).kernel == product).all()
            assert (symmetrized_sweep(sigma, pi).kernel == product).all()
        weights = tuple(np.arange(1.0, d + 1) / (d * (d + 1) / 2))
        mixture = np.zeros_like(steps[0])
        for w, step in zip(weights, steps):
            mixture += w * step
        assert (rsg(weights, pi).kernel == mixture).all()

    @pytest.mark.parametrize("build", [
        lambda pi, d: dsg(tuple(range(1, d + 1)), pi),
        lambda pi, d: symmetrized_sweep(tuple(range(d, 0, -1)), pi),
        lambda pi, d: rsg(RandomScan.uniform(d), pi),
    ], ids=["dsg", "symmetrized_sweep", "rsg"])
    def test_peak_memory_three_dense_kernels(self, build):
        pi = random_target(23, (4, 4, 4, 4, 4))
        n = pi.space.total_states
        assert n == 1024
        pi.conditionals  # the O(n d) table is the target's, not the sweep's
        tracemalloc.start()
        try:
            op = build(pi, pi.space.d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.n_states == n
        dense = 8 * n * n
        # the product so far, the next step and their product; the index
        # and row-sum vectors add well under a hundredth of a kernel
        assert peak <= 3 * dense + dense // 100

    def test_adjoint_of_sweep_is_reversed_sweep(self):
        pi = random_target(9, (2, 3, 2))
        fwd = dsg((1, 2, 3), pi)
        np.testing.assert_allclose(adjoint(fwd).kernel, dsg((3, 2, 1), pi).kernel, atol=1e-12)

    def test_dimension_mismatch(self, eps_pair):
        with pytest.raises(ValidationError):
            dsg((1, 2, 3), eps_pair)
        with pytest.raises(ValidationError):
            rsg((0.25,) * 4, eps_pair)


class TestSpectralQuantities:
    def test_eps_pair_frozen_values(self, eps_pair):
        # witness f(x) = x1 achieves ||DSG f - pi f|| / ||f - pi f|| = 1 - 2 eps
        op = dsg((1, 2), eps_pair)
        assert l2_norm_centered(op) == pytest.approx(0.5, abs=1e-12)
        assert spectral_radius_centered(op) == pytest.approx(0.25, abs=1e-12)

    def test_eps_pair_rsg_norm(self, eps_pair):
        op = rsg(RandomScan.uniform(2), eps_pair)
        assert l2_norm_centered(op) == pytest.approx(0.75, abs=1e-12)

    def test_eps_pair_symmetrized_norm_is_square(self, eps_pair):
        sym = symmetrized_sweep((1, 2), eps_pair)
        plain = dsg((1, 2), eps_pair)
        assert l2_norm_centered(sym) == pytest.approx(l2_norm_centered(plain) ** 2, abs=1e-12)

    def test_dsg_norm_witness(self, eps_pair):
        # direct oracle: apply the centered operator to f(x) = x1 - 1/2
        op = dsg((1, 2), eps_pair)
        f = np.array([-0.5, -0.5, 0.5, 0.5])
        g = op.kernel @ f - (eps_pair.pmf @ f)
        num = np.sqrt(eps_pair.pmf @ g ** 2)
        den = np.sqrt(eps_pair.pmf @ f ** 2)
        assert num / den == pytest.approx(0.5, abs=1e-14)

    def test_power_norm_sequence(self, eps_pair):
        seq = power_norm_sequence(dsg((1, 2), eps_pair), 4)
        np.testing.assert_allclose(seq, [0.5, 0.125, 0.03125, 0.0078125], atol=1e-12)

    def test_norm_dominates_radius(self, target_suite):
        for pi in target_suite[:15]:
            op = dsg(tuple(range(1, pi.space.d + 1)), pi)
            assert spectral_radius_centered(op) <= l2_norm_centered(op) + 1e-10

    def test_reversible_norm_equals_radius(self, target_suite):
        # a random scan is self-adjoint in L2(pi): one SVD gives both, bit for bit
        for pi in target_suite:
            d = pi.space.d
            graded = np.arange(1.0, d + 1.0)
            for scan in (RandomScan.uniform(d), RandomScan(tuple(graded / graded.sum()))):
                op = rsg(scan, pi)
                assert spectral_radius_centered(op) == l2_norm_centered(op)

    def test_norm_submultiplicative_under_powers(self, eps_pair):
        op = dsg((1, 2), eps_pair)
        r = l2_norm_centered(op)
        seq = power_norm_sequence(op, 5)
        for n, v in enumerate(seq, start=1):
            assert v <= r ** n + 1e-12

    def test_solver_failure_is_numpys_error(self, eps_pair, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        monkeypatch.setattr(np.linalg, "eigvals", fail)
        sweep, mix = dsg((1, 2), eps_pair), rsg((0.5, 0.5), eps_pair)
        # the norm's SVD; the radius's eigvals (a sweep) or SVD (a reversible mix)
        for solve, op in [(l2_norm_centered, sweep), (spectral_radius_centered, sweep),
                          (spectral_radius_centered, mix)]:
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                solve(op)


class TestSpectra:
    def test_values_equal_direct_computation(self):
        pi = random_target(4, (2, 3, 2))
        spectra = Spectra(pi)
        for sigma in ((1, 2, 3), (3, 1, 2)):
            op = dsg(sigma, pi)
            assert spectra.norm_and_radius(DeterministicScan(sigma)) == (
                l2_norm_centered(op), spectral_radius_centered(op))
        for weights in (RandomScan.uniform(3), RandomScan((0.2, 0.3, 0.5))):
            op = rsg(weights, pi)
            assert spectra.norm(weights) == l2_norm_centered(op)
            assert spectra.radius(weights) == spectral_radius_centered(op)

    def test_each_operator_built_once(self, eps_pair, monkeypatch):
        built = []
        for name in ("dsg", "rsg", "symmetrized_sweep"):
            original = getattr(operators, name)
            monkeypatch.setattr(operators, name,
                                lambda *a, _o=original, _n=name, **kw: built.append(_n) or _o(*a, **kw))
        spectra = Spectra(eps_pair)
        scans = (DeterministicScan((2, 1)), RandomScan.uniform(2))
        for _ in range(2):
            for scan in scans:
                spectra.norm_and_radius(scan)
                spectra.norm(scan)
                spectra.radius(scan)
        assert sorted(built) == ["dsg", "rsg"]

    def test_conditionals_smaller_than_one_dense_kernel(self):
        pi = random_target(5, (2, 3, 2, 2))
        n = pi.space.total_states
        Spectra(pi).norm_and_radius(DeterministicScan((4, 2, 1, 3)))
        held = 0
        for size, (cells, cond) in zip(pi.space.dims, pi.conditionals):
            assert cells.shape == cond.shape == (n // size, size)
            assert sorted(cells.reshape(-1)) == list(range(n))
            np.testing.assert_allclose(cond.sum(axis=1), 1.0, atol=1e-15)
            held += cells.nbytes + cond.nbytes
        assert held < 8 * n * n  # all d coordinates together cost less than one dense kernel

    def test_rejects_mismatched_scan(self, eps_pair):
        with pytest.raises(ValidationError):
            Spectra(eps_pair).norm(DeterministicScan((1, 2, 3)))


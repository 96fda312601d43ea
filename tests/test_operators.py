import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gibbsgap.errors import ValidationError
from gibbsgap import measure, operators
from gibbsgap.measure import ProductSpace, TargetDistribution
from gibbsgap.operators import (
    DeterministicScan,
    MarkovOperator,
    RandomScan,
    _small_step_kernel,
    adjoint,
    dsg,
    is_reversible,
    l2_norm_centered,
    rsg,
    scan_operator,
    small_step,
    spectral_radius_centered,
    sweep_spectra,
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

    def test_reversibility_does_not_shrink_with_pi(self, skewed_2x2):
        # the sweep's flows pi(x) P(x, y) are all below 1e-9: an absolute tolerance on
        # them cannot tell it from a reversible kernel
        assert is_reversible(rsg(RandomScan.uniform(2), skewed_2x2))
        assert not is_reversible(dsg((1, 2), skewed_2x2))

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
        # a random scan is self-adjoint in L2(pi): the eigen-solve of its symmetric
        # conjugate and the SVD agree to rounding (6.7e-15 over the suite)
        for pi in target_suite:
            d = pi.space.d
            graded = np.arange(1.0, d + 1.0)
            for scan in (RandomScan.uniform(d), RandomScan(tuple(graded / graded.sum()))):
                op = rsg(scan, pi)
                assert abs(spectral_radius_centered(op) - l2_norm_centered(op)) <= 1e-13

    def test_skewed_sweep_radius_is_norm_squared(self, skewed_2x2):
        # a 60-digit mpmath solve gives 0.2499999998; the norm c is 0.4999999998
        op = dsg((1, 2), skewed_2x2)
        rho = spectral_radius_centered(op)
        assert rho == pytest.approx(0.2499999998, abs=1e-12)
        assert abs(rho - l2_norm_centered(op) ** 2) <= 1e-15

    def test_two_step_sweep_radius_is_norm_squared_on_skewed_targets(self):
        # at d = 2 the centered sweep is an alternating projection: norm c, radius c^2,
        # however small some states' mass is (log-pmf N(0, sigma^2), sigma up to 30)
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(200):
            dims = tuple(int(n) for n in rng.integers(2, 5, size=2))
            log_pmf = rng.normal(0.0, rng.uniform(0.0, 30.0), size=dims[0] * dims[1])
            pmf = np.exp(log_pmf - log_pmf.max())
            pi = TargetDistribution(ProductSpace(dims), pmf / pmf.sum())
            op = dsg((1, 2), pi)
            worst = max(worst, abs(spectral_radius_centered(op) - l2_norm_centered(op) ** 2))
        assert worst <= 1e-12

    def test_sweep_radius_invariant_under_reversal_and_rotation(self, target_suite):
        # the reversed sweep is the adjoint, a rotated one is BA for AB: same spectrum
        for pi in target_suite[:20]:
            d = pi.space.d
            radius = {order: spectral_radius_centered(dsg(order, pi))
                      for order in itertools.permutations(range(1, d + 1))}
            for order, rho in radius.items():
                assert abs(radius[order[::-1]] - rho) <= 1e-12
                for k in range(1, d):
                    assert abs(radius[order[k:] + order[:k]] - rho) <= 1e-12

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
        # the norm's SVD; the radius's eigvals, for a sweep and a reversible mix alike
        for solve, op in [(l2_norm_centered, sweep), (spectral_radius_centered, sweep),
                          (spectral_radius_centered, mix)]:
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                solve(op)


def _norm_class(order):
    """The lesser of an order and its reverse: the sweeps of the pair are adjoint."""
    return min(order, order[::-1])


def _radius_class(order):
    """The least rotation or reversal of an order: its sweeps share their radius."""
    return min(_norm_class(order[k:] + order[:k]) for k in range(len(order)))


class TestSpectra:
    def test_values_equal_direct_computation(self):
        pi = random_target(4, (2, 3, 2))
        # each value is the per-scan solve of its class's representative: the norm of
        # (3, 1, 2) is that of its reverse (2, 1, 3), its radius that of (1, 2, 3)
        for sigma, norm_order, radius_order in (((1, 2, 3), (1, 2, 3), (1, 2, 3)),
                                                ((3, 1, 2), (2, 1, 3), (1, 2, 3))):
            scan = DeterministicScan(sigma)
            assert sweep_spectra(pi, [(scan, "norm"), (scan, "radius")]) == [
                l2_norm_centered(dsg(norm_order, pi)),
                spectral_radius_centered(dsg(radius_order, pi))]

    def test_each_operator_built_once(self, monkeypatch):
        stepped = []
        original = operators._small_step_kernel
        monkeypatch.setattr(operators, "_small_step_kernel",
                            lambda i, pi: stepped.append(i) or original(i, pi))
        pi = random_target(4, (2, 3, 2))
        wants = [(DeterministicScan(order), name)
                 for order in itertools.permutations((1, 2, 3)) for name in ("norm", "radius")]
        sweep_spectra(pi, wants)
        assert sorted(stepped) == [1, 2, 3]  # one call densifies each small step once
        sweep_spectra(pi, wants)  # and keeps nothing: the next call densifies them again
        assert sorted(stepped) == [1, 1, 2, 2, 3, 3]

    @pytest.mark.parametrize("chunk", [None, 1, 5],
                             ids=["budget", "one-scan-chunks", "split-orders"])
    def test_pass_equals_per_scan_values(self, monkeypatch, chunk):
        # stacked SVD and eigvals make the per-matrix LAPACK calls: equal bits to
        # the per-scan solve of each request's class representative
        for seed, dims in enumerate(((3, 2), (2, 3, 2), (2, 2, 3, 2), (2, 2, 2, 2, 2))):
            pi = random_target(seed, dims)
            d, n = pi.space.d, pi.space.total_states
            if chunk == 1:  # no small step kept: one scan per chunk, as above the budget
                monkeypatch.setattr(operators, "_STACK_BYTES", 1)
            elif chunk == 5:  # every small step kept, five scans per chunk
                monkeypatch.setattr(operators, "_STACK_BYTES", 8 * n * n * (d + 3 * chunk))
            sweeps = [DeterministicScan(p) for p in itertools.permutations(range(1, d + 1))]
            # sweeps wanting both values, only the norm, or only the radius
            wants = [(scan, name) for j, scan in enumerate(sweeps)
                     for name in (("norm", "radius"), ("norm",), ("radius",))[j % 3]]
            expected = [spectral_radius_centered(dsg(_radius_class(scan.order), pi))
                        if name == "radius" else l2_norm_centered(dsg(_norm_class(scan.order), pi))
                        for scan, name in wants]
            assert sweep_spectra(pi, wants) == expected

    def test_one_sweep_per_class(self, monkeypatch):
        # 12 reversal pairs give the 24 norms at d = 4; 12 dihedral classes the 120
        # radii at d = 5
        built = []
        original = operators._sweep
        monkeypatch.setattr(operators, "_sweep",
                            lambda path, step: built.append(tuple(path)) or original(path, step))
        for dims, name, classes in (((2, 2, 2, 2), "norm", 12), ((2, 2, 2, 2, 2), "radius", 12)):
            built.clear()
            orders = list(itertools.permutations(range(1, len(dims) + 1)))
            values = sweep_spectra(random_target(6, dims),
                                   [(DeterministicScan(order), name) for order in orders])
            key = _norm_class if name == "norm" else _radius_class
            assert sorted(built) == sorted({key(order) for order in orders})
            assert len(built) == classes
            by_class = dict(zip(map(key, orders), values))
            assert values == [by_class[key(order)] for order in orders]

    def test_class_values_equal_per_order_values(self, target_suite):
        # the representative's float stands for every order of its class
        worst = 0.0
        for pi in target_suite[:20]:
            orders = list(itertools.permutations(range(1, pi.space.d + 1)))
            values = sweep_spectra(pi, [(DeterministicScan(order), name)
                                        for order in orders for name in ("norm", "radius")])
            for order, norm, radius in zip(orders, values[::2], values[1::2]):
                op = dsg(order, pi)
                worst = max(worst, abs(norm - l2_norm_centered(op)),
                            abs(radius - spectral_radius_centered(op)))
        assert worst <= 1e-13

    def test_refuses_a_kernel_as_markov_operator_does(self, eps_pair, monkeypatch):
        original = operators._small_step_kernel

        def off_by_1e9(i, pi):
            kernel = original(i, pi)
            kernel[0, 0] += 1e-9  # row 0 sums to 1 + 1e-9
            return kernel

        monkeypatch.setattr(operators, "_small_step_kernel", off_by_1e9)
        scan = DeterministicScan((2, 1))
        with pytest.raises(ValidationError) as per_scan:
            scan_operator(eps_pair, scan)
        for name in ("norm", "radius"):
            with pytest.raises(ValidationError) as stacked:
                sweep_spectra(eps_pair, [(scan, name)])
            assert str(stacked.value) == str(per_scan.value)
            assert str(stacked.value).startswith("kernel rows sum to 1 only within")

    def test_refuses_a_random_scan_before_any_step(self, eps_pair, monkeypatch):
        stepped = []
        original = operators._small_step_kernel
        monkeypatch.setattr(operators, "_small_step_kernel",
                            lambda i, pi: stepped.append(i) or original(i, pi))
        sweep = DeterministicScan((1, 2))
        for scan in (RandomScan.uniform(2), RandomScan((0.25, 0.75))):
            for name in ("norm", "radius"):
                with pytest.raises(ValidationError, match="measures sweeps only"):
                    sweep_spectra(eps_pair, [(sweep, "norm"), (scan, name)])
        assert stepped == []

    def test_pass_above_the_budget_holds_three_dense_kernels(self):
        pi = measure.equicorrelated_binary(10, 0.25)
        n = pi.space.total_states
        pi.conditionals  # the O(n d) table is the target's, not the pass's
        identity = DeterministicScan(tuple(range(1, 11)))
        # the sweep's pass, and the uniform scan's norm as cmd_sweep measures it
        for measured in (lambda: sweep_spectra(pi, [(identity, "norm"), (identity, "radius")]),
                         lambda: l2_norm_centered(rsg(RandomScan.uniform(10), pi))):
            tracemalloc.start()
            try:
                measured()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the per-scan path held 3.01 kernels for these calls: the sweep so far, the
            # next step and their product
            assert peak <= 3.05 * 8 * n * n

    def test_conditionals_smaller_than_one_dense_kernel(self):
        pi = random_target(5, (2, 3, 2, 2))
        n = pi.space.total_states
        scan = DeterministicScan((4, 2, 1, 3))
        sweep_spectra(pi, [(scan, "norm"), (scan, "radius")])
        held = 0
        for size, (cells, cond) in zip(pi.space.dims, pi.conditionals):
            assert cells.shape == cond.shape == (n // size, size)
            assert sorted(cells.reshape(-1)) == list(range(n))
            np.testing.assert_allclose(cond.sum(axis=1), 1.0, atol=1e-15)
            held += cells.nbytes + cond.nbytes
        assert held < 8 * n * n  # all d coordinates together cost less than one dense kernel

    def test_rejects_mismatched_scan(self, eps_pair):
        with pytest.raises(ValidationError):
            sweep_spectra(eps_pair, [(DeterministicScan((1, 2, 3)), "norm")])

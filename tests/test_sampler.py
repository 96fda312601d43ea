import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsgap import sampler
from gibbsgap.errors import ValidationError
from gibbsgap.measure import equicorrelated_binary
from gibbsgap.operators import (
    DeterministicScan,
    RandomScan,
    dsg,
    l2_norm_centered,
    spectral_radius_centered,
)
from gibbsgap.sampler import (
    asymptotic_variance_estimate,
    clt_variance_bound,
    cumulative_table,
    empirical_tail,
    empirical_tails,
    hoeffding_bound,
    run_chain,
    scan_operator,
)
from oracles import bucket_table, exact_asymptotic_variance, random_target


def _reference_chain(pi, scan, n, seed):
    """The scalar np.searchsorted step loop run_chain must reproduce exactly."""
    rng = np.random.default_rng(seed)
    x = int(rng.choice(pi.space.total_states, p=pi.pmf))
    cum = np.cumsum(scan_operator(pi, scan).kernel, axis=1)
    states = np.empty(n, dtype=np.int64)
    for t in range(n):
        x = int(np.searchsorted(cum[x], rng.random(), side="right"))
        states[t] = x
    return states


def _op_rho(pi, scan):
    """The kernel a scan simulates and its rate rho, as the sample command takes them:
    a random scan's norm, a sweep's eigenvalue radius."""
    op = scan_operator(pi, scan)
    return op, (l2_norm_centered(op) if isinstance(scan, RandomScan)
                else spectral_radius_centered(op))


def _reference_tail(pi, scan, f, n, eps, replicas, seed):
    """One (n, eps) point simulated on its own, as a separate run per point."""
    op, rho = _op_rho(pi, scan)
    cum = np.cumsum(op.kernel, axis=1)
    mu = float(pi.pmf @ f)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    states = rng.choice(pi.space.total_states, size=replicas, p=pi.pmf)
    sums = np.zeros(replicas)
    for _ in range(n):
        states = (rng.random(replicas)[:, None] >= cum[states]).sum(axis=1)
        sums += f[states]
    freq = float(np.mean(sums >= n * (mu + eps) - 1e-12))
    bound = hoeffding_bound(rho, n, eps)
    se = float(np.sqrt(max(freq * (1.0 - freq), 1.0 / replicas) / replicas))
    return {"n": n, "eps": eps, "frequency": freq, "bound": bound, "std_error": se,
            "pass": freq <= bound + 3.0 * se}


class _ConstantRng:
    """Stands in for a Generator whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return np.full(size, self.u)


#: A row whose np.cumsum ends 2.2e-16 below 1, with a zero-probability trailing state.
SHORT_ROW_KERNEL = np.array([[0.5, 0.5 - 2e-16, 0.0],
                             [0.0, 1.0, 0.0],
                             [0.25, 0.25, 0.5]])
#: Dyadic rows with zero-probability columns: every cdf value is a bucket edge m/M.
DYADIC_KERNEL = np.array([[0.5, 0.25, 0.25, 0.0],
                          [0.0, 0.0, 1.0, 0.0],
                          [0.125, 0.0, 0.375, 0.5],
                          [0.0, 0.75, 0.0, 0.25]])
#: Row 0's np.cumsum passes 1 before its last positive column, so
#: cumulative_table leaves 0.5, 1 + 2^-52, 1: not sorted past 1.
LONG_ROW_KERNEL = np.array([[0.5, 0.5000000000000002, 1e-300],
                            [0.25, 0.25, 0.5],
                            [0.0, 1.0, 0.0]])


def _bisect_step(cum, states, u):
    """run_chain's rule, bisect_right(cum[x], u), that the bucket-table step
    must reproduce."""
    rows = cum.tolist()
    return [bisect_right(rows[x], v) for x, v in zip(states.tolist(), u.tolist())]


def _replica_step(cum, states, u):
    """One replica step of empirical_tails: the bucket table of cum, and each
    draw's bucket floor(u * M)."""
    thr, pick = sampler._bucket_table(cum)
    m = (u * thr.shape[1]).astype(np.intp)
    return sampler._bucket_step(sampler._rows(cum), thr, pick, states, u, m)


@pytest.fixture
def fallbacks(monkeypatch):
    """The rows _bucket_step bisects: a list of (row, u) that grows with each
    fallback."""
    calls = []

    def counted(row, u):
        calls.append((row.tolist(), u))
        return bisect_right(row, u)

    monkeypatch.setattr(sampler, "bisect_right", counted)
    return calls


def _probes(cum, buckets):
    """0, every bucket edge m/M and every cdf value below 1, each with its
    float neighbours, inside [0, 1)."""
    points = np.concatenate([np.arange(buckets) / buckets, cum[cum < 1.0]])
    probes = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
    return np.unique(probes[(probes >= 0.0) & (probes < 1.0)])


def _assert_table_equals_oracle(cum):
    """_bucket_table equals the run-length construction of the oracle, dtype
    and all."""
    for got, want in zip(sampler._bucket_table(cum), bucket_table(cum)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def _assert_bucket_step_exact(cum, u):
    """Every state of cum stepped with every draw in u: the bucket step equals
    the bisection."""
    states = np.repeat(np.arange(cum.shape[0]), u.size)
    draws = np.tile(u, cum.shape[0])
    np.testing.assert_array_equal(_replica_step(cum, states, draws),
                                  _bisect_step(cum, states, draws))


class TestRunChain:
    def test_deterministic_given_seed(self, eps_pair):
        op = scan_operator(eps_pair, RandomScan.uniform(2))
        np.testing.assert_array_equal(run_chain(op, 50, seed=7), run_chain(op, 50, seed=7))

    def test_seeds_differ(self, eps_pair):
        op = scan_operator(eps_pair, RandomScan.uniform(2))
        assert not np.array_equal(run_chain(op, 200, seed=1), run_chain(op, 200, seed=2))

    def test_rsg_moves_one_coordinate_per_step(self, eps_pair):
        states = run_chain(scan_operator(eps_pair, RandomScan.uniform(2)), 500, seed=3)
        multi = eps_pair.space.all_multi_indices()
        for prev, s in zip(states[:-1], states[1:]):
            assert (multi[prev] != multi[s]).sum() <= 1

    def test_stationary_marginals(self, eps_pair):
        states = run_chain(scan_operator(eps_pair, RandomScan.uniform(2)), 40_000, seed=11)
        freq = np.bincount(states, minlength=4) / len(states)
        np.testing.assert_allclose(freq, eps_pair.pmf, atol=0.02)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("scan", [DeterministicScan((3, 1, 2)), RandomScan.uniform(3)],
                             ids=["dsg", "rsg"])
    def test_matches_scalar_searchsorted_loop(self, scan, seed):
        pi = random_target(seed=40 + seed, dims=(3, 2, 3))
        n = 5000  # crosses a uniform-block boundary
        states = run_chain(scan_operator(pi, scan), n, seed=seed)
        np.testing.assert_array_equal(states, _reference_chain(pi, scan, n, seed))


class TestCumulativeTable:
    def test_rows_end_at_one_from_last_positive_column(self):
        cum = cumulative_table(SHORT_ROW_KERNEL)
        raw = np.cumsum(SHORT_ROW_KERNEL, axis=1)
        assert raw[0, -1] < 1.0
        assert cum[0].tolist() == [0.5, 1.0, 1.0]
        assert cum[1].tolist() == [0.0, 1.0, 1.0]
        np.testing.assert_array_equal(cum[2], raw[2])

    def test_matches_cumsum_before_last_positive_column(self, eps_pair):
        kernel = scan_operator(eps_pair, RandomScan.uniform(2)).kernel
        cum = cumulative_table(kernel)
        raw = np.cumsum(kernel, axis=1)
        for row in range(kernel.shape[0]):
            last = np.flatnonzero(kernel[row] > 0)[-1]
            np.testing.assert_array_equal(cum[row, :last], raw[row, :last])
            assert (cum[row, last:] == 1.0).all()

    def test_top_draw_stays_on_positive_state(self):
        u = np.nextafter(1.0, 0.0)
        raw = np.cumsum(SHORT_ROW_KERNEL, axis=1)
        assert np.searchsorted(raw[0], u, side="right") == 3  # out of range
        cum = cumulative_table(SHORT_ROW_KERNEL)
        assert _replica_step(cum, np.array([0, 1]), np.array([u, u])).tolist() == [1, 1]
        walk = sampler._walk(sampler._rows(cum), 0, 3, _ConstantRng(u))
        assert walk.tolist() == [1, 1, 1]


class TestGuideStep:
    @pytest.mark.parametrize("kernel", [DYADIC_KERNEL, SHORT_ROW_KERNEL], ids=["dyadic", "short-row"])
    def test_cdf_values_on_bucket_edges(self, kernel):
        cum = cumulative_table(kernel)
        u = _probes(cum, sampler._bucket_table(cum)[0].shape[1])
        assert {0.0, 0.25, 0.5, np.nextafter(0.5, 0.0)} <= set(u.tolist())
        _assert_bucket_step_exact(cum, u)

    def test_edge_value_opens_its_bucket(self):
        # row 0's cdf is 0.5, 0.75, 1, 1: 0.5 = (M/2)/M lies in bucket M/2, whose
        # draws move to 0 below it and to 1 from it on; bucket M/2 - 1 below it
        # holds no cdf value, and neither does the last bucket, which 1.0 is past
        thr, pick = sampler._bucket_table(cumulative_table(DYADIC_KERNEL))
        half = thr.shape[1] // 2
        assert pick[0, half - 1:half + 2].tolist() == [[0, 0], [0, 1], [1, 1]]
        assert thr[0, half - 1:half + 2].tolist() == [0.5, 0.5, 0.75]
        assert pick[0, -1].tolist() == [2, 2]

    def test_ties_move_past_the_cdf_value(self):
        # a replica counts cdf <= u, as run_chain's bisect_right does, so a draw
        # equal to a cdf value moves past that column
        cum = cumulative_table(DYADIC_KERNEL)
        u = np.array([0.0, np.nextafter(0.5, 0.0), 0.5, 0.75, np.nextafter(0.75, 1.0)])
        assert _replica_step(cum, np.zeros(5, dtype=np.intp), u).tolist() == [0, 0, 1, 2, 2]
        # row [0, 0, 1, 0] at u = 0.0 moves to its one positive column, never to 0
        walk = sampler._walk(sampler._rows(cum), 1, 1, _ConstantRng(0.0))
        assert walk.tolist() == _replica_step(cum, np.array([1]), np.array([0.0])).tolist() == [2]

    def test_draw_equal_to_the_bucket_threshold(self, fallbacks):
        # row 0's cdf is 0.3, 0.65, 1: each value lies alone in its bucket, whose
        # threshold it is; u == thr moves past it, the float below stays
        cum = cumulative_table(np.array([[0.3, 0.35, 0.35]]))
        thr, pick = sampler._bucket_table(cum)
        for k, value in enumerate(cum[0, :2].tolist()):
            m = int(value * thr.shape[1])
            assert thr[0, m] == value and pick[0, m].tolist() == [k, k + 1]
            u = np.array([np.nextafter(value, 0.0), value])
            assert _replica_step(cum, np.zeros(2, dtype=np.intp), u).tolist() == [k, k + 1]
        assert fallbacks == []

    def test_zero_columns_repeat_one_value(self, fallbacks):
        # cdf 0.3, 0.3, 0.3, 1: three columns give one value, so the bucket of
        # 0.3 is not split, and a draw from 0.3 on moves past all three
        kernel = np.array([[0.3, 0.0, 0.0, 0.7], [0.0, 0.0, 0.0, 1.0],
                           [0.25, 0.25, 0.5, 0.0], [0.0, 0.5, 0.0, 0.5]])
        cum = cumulative_table(kernel)
        thr, pick = sampler._bucket_table(cum)
        m = int(0.3 * thr.shape[1])
        assert thr[0, m] == 0.3 and pick[0, m].tolist() == [0, 3]
        u = np.array([np.nextafter(0.3, 0.0), 0.3, np.nextafter(0.3, 1.0)])
        assert _replica_step(cum, np.zeros(3, dtype=np.intp), u).tolist() == [0, 3, 3]
        _assert_bucket_step_exact(cum, _probes(cum, thr.shape[1]))
        assert fallbacks == []

    def test_split_bucket_bisects_the_row(self, fallbacks):
        # row 0's cdf 0.3, 0.3 + 1e-9, 1 puts two values in one bucket, which
        # is marked; only draws at or above its threshold 0.3 fall back
        cum = cumulative_table(np.array([[0.3, 1e-9, 0.7 - 1e-9], [0.5, 0.25, 0.25],
                                         [0.0, 1.0, 0.0]]))
        thr, pick = sampler._bucket_table(cum)
        m = int(0.3 * thr.shape[1])
        assert thr[0, m] == 0.3 and pick[0, m].tolist() == [0, -1]
        assert (pick[1:, :, 1] >= 0).all()
        u = np.array([np.nextafter(0.3, 0.0), 0.3, 0.3 + 5e-10, 0.3 + 1e-9, 0.3 + 2e-9])
        assert _replica_step(cum, np.zeros(5, dtype=np.intp), u).tolist() == [0, 1, 1, 2, 2]
        assert [v for _, v in fallbacks] == u[1:].tolist()
        assert all(row == cum[0].tolist() for row, _ in fallbacks)
        _assert_bucket_step_exact(cum, _probes(cum, thr.shape[1]))

    def test_dyadic_kernel_never_falls_back(self, fallbacks):
        # every cdf value of DYADIC_KERNEL is a multiple of 1/8, so no bucket of
        # width 1/M <= 1/8 holds two of them
        cum = cumulative_table(DYADIC_KERNEL)
        thr, pick = sampler._bucket_table(cum)
        assert (pick[:, :, 1] >= 0).all()
        u = np.concatenate([_probes(cum, thr.shape[1]),
                            np.random.default_rng(0).random(1000)])
        _assert_bucket_step_exact(cum, u)
        assert fallbacks == []

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=1, max_value=40),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_kernels_with_zero_entries(self, seed, n, dyadic):
        rng = np.random.default_rng(seed)
        if dyadic:
            # entries k/64 between sorted cut points: a repeated cut is a zero entry
            cuts = np.sort(rng.integers(0, 65, (n, n - 1)), axis=1)
            kernel = np.diff(cuts, axis=1, prepend=0, append=64) / 64.0
        else:
            kernel = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
            kernel[np.arange(n), rng.integers(0, n, n)] += 0.01
            kernel /= kernel.sum(axis=1, keepdims=True)
        cum = cumulative_table(kernel)
        _assert_table_equals_oracle(cum)
        u = np.concatenate([_probes(cum, sampler._bucket_table(cum)[0].shape[1]), rng.random(200)])
        _assert_bucket_step_exact(cum, u)

    @pytest.mark.parametrize("kernel", [DYADIC_KERNEL, SHORT_ROW_KERNEL], ids=["dyadic", "short-row"])
    def test_table_equals_the_run_length_oracle(self, kernel):
        _assert_table_equals_oracle(cumulative_table(kernel))

    def test_row_past_one_before_its_last_column(self):
        # 1 + 2^-52 then 1.0 is out of order, yet no edge m/M <= 1 lies above
        # either, so cum[0, k] < m/M stays monotone in k and bisection counts it
        cum = cumulative_table(LONG_ROW_KERNEL)
        assert cum[0].tolist() == [0.5, 1.0000000000000002, 1.0]
        _assert_table_equals_oracle(cum)
        _assert_bucket_step_exact(cum, _probes(cum, sampler._bucket_table(cum)[0].shape[1]))

    def test_1024_states_equal_the_run_length_oracle(self):
        op = scan_operator(equicorrelated_binary(10, 0.25), DeterministicScan(tuple(range(1, 11))))
        _assert_table_equals_oracle(cumulative_table(op.kernel))

    @pytest.mark.parametrize("n", [1, 27, 127, 128, 256, 1000, 1024])
    def test_table_size(self, n):
        cum = cumulative_table(np.full((n, n), 1.0 / n))
        _assert_table_equals_oracle(cum)
        thr, pick = sampler._bucket_table(cum)
        buckets, table = thr.shape[1], thr.nbytes + pick.nbytes
        budget = max(2 * cum.nbytes, sampler._TABLE_MIN_BYTES)
        # 2^ceil(log2(16 n)) buckets, halved only while the table is over budget
        assert buckets & (buckets - 1) == 0 and 2 * buckets > n
        assert table <= budget
        assert buckets == 1 << (16 * n - 1).bit_length() or 2 * table > budget
        if n >= 1024:
            assert table <= 2 * cum.nbytes
        if n <= 27:
            assert buckets >= 16 * n
        assert np.iinfo(pick.dtype).max >= n


class TestScanRho:
    def test_norm_for_random_radius_for_deterministic(self, eps_pair):
        # sample's rate: the norm of the self-adjoint random scan, which is its radius,
        # and the eigenvalue radius c^2 = 0.25 of the sweep (norm c = 0.5)
        rsg_op, rsg_rho = _op_rho(eps_pair, RandomScan.uniform(2))
        dsg_op, dsg_rho = _op_rho(eps_pair, DeterministicScan((1, 2)))
        assert rsg_rho == l2_norm_centered(rsg_op) == pytest.approx(0.75, abs=1e-12)
        assert abs(spectral_radius_centered(rsg_op) - rsg_rho) <= 1e-13
        assert dsg_rho == spectral_radius_centered(dsg_op) == pytest.approx(0.25, abs=1e-12)
        assert l2_norm_centered(dsg_op) == pytest.approx(0.5, abs=1e-12)


class TestCltVarianceBound:
    def test_worked_value(self, eps_pair):
        f = np.array([0.0, 0.0, 1.0, 1.0])  # Var_pi = 0.25
        assert clt_variance_bound(0.5, f, eps_pair) == pytest.approx(0.75)

    def test_rho_validation(self, eps_pair):
        with pytest.raises(ValidationError):
            clt_variance_bound(1.0, np.zeros(4), eps_pair)

    def test_estimate_below_bound(self, eps_pair):
        scan = RandomScan.uniform(2)
        op = scan_operator(eps_pair, scan)
        rho = l2_norm_centered(op)
        f = np.array([0.0, 0.0, 1.0, 1.0])
        est, se = asymptotic_variance_estimate(run_chain(op, 100_000, seed=42), f)
        assert est <= clt_variance_bound(rho, f, eps_pair) + 3.0 * se

    def test_estimator_iid_sanity(self, uniform_2x2):
        # an iid-like fast-mixing chain: asymptotic variance near Var_pi
        scan = DeterministicScan((1, 2))
        f = np.array([0.0, 1.0, 0.0, 1.0])  # depends on the freshly drawn coordinate
        states = run_chain(scan_operator(uniform_2x2, scan), 50_000, seed=9)
        est, se = asymptotic_variance_estimate(states, f)
        assert est == pytest.approx(0.25, abs=10.0 * se + 0.02)

    def test_estimator_validation(self, eps_pair):
        # floor(sqrt(n)) batches: n = 99 gives 9 (refused), n = 100 gives 10 of 10 steps
        states = run_chain(scan_operator(eps_pair, RandomScan.uniform(2)), 100, seed=0)
        with pytest.raises(ValidationError):
            asymptotic_variance_estimate(states[:99], np.zeros(4))
        assert asymptotic_variance_estimate(states, np.zeros(4)) == (0.0, 0.0)

    @pytest.mark.parametrize("n, seed", [(100, 0), (1000, 1), (99_999, 2), (100_000, 3)])
    def test_jackknife_matches_the_leave_one_out_loop(self, eps_pair, n, seed):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(4)
        states = run_chain(scan_operator(eps_pair, DeterministicScan((2, 1))), n, seed=seed)
        est, se = asymptotic_variance_estimate(states, f)
        # the batch means and the loop over left-out batches that the closed form replaces
        batches = int(np.sqrt(n))
        b = n // batches
        means = f[states][:b * batches].reshape(batches, b).mean(axis=1)
        jack = np.empty(batches)
        for k in range(batches):
            rest = np.delete(means, k)
            jack[k] = b * np.sum((rest - rest.mean()) ** 2) / (batches - 2)
        expected = np.sqrt((batches - 1) / batches * np.sum((jack - jack.mean()) ** 2))
        assert est == b * np.sum((means - means.mean()) ** 2) / (batches - 1)
        assert se == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestExactAsymptoticVariance:
    """The exact sigma^2 of a sweep against the two CLT ceilings, with C09's f."""

    @staticmethod
    def _cases(suite):
        for k, pi in enumerate(suite):
            d = pi.space.d
            f = (pi.space.all_multi_indices()[:, 0] == pi.space.dims[0] - 1).astype(float)
            for name, order in (("identity", tuple(range(1, d + 1))),
                                ("reversed", tuple(range(d, 0, -1)))):
                yield k, name, pi, dsg(order, pi), f

    def test_matches_the_truncated_autocovariance_sum(self, target_suite):
        for _, _, pi, op, f in self._cases(target_suite[:3]):
            fbar = f - pi.pmf @ f
            total, h = pi.pmf @ fbar ** 2, fbar
            for _ in range(1000):  # the terms fall below 1e-20 within 72 steps here
                h = op.kernel @ h
                total += 2.0 * (pi.pmf @ (fbar * h))
            assert exact_asymptotic_variance(op, f) == pytest.approx(total, rel=0, abs=1e-12)

    def test_norm_ceiling_holds_radius_ceiling_does_not(self, target_suite):
        # the CLT ceiling is a theorem for rho = ||DSG - Pi||; with the spectral
        # radius of the non-normal sweep in its place it fails on two targets
        # (on 13 more cases at d = 2 sigma^2 equals the radius ceiling up to
        # rounding, which the relative margin of 1e-9 leaves out)
        above_radius = {}
        for k, name, pi, op, f in self._cases(target_suite):
            sigma2 = exact_asymptotic_variance(op, f)
            assert sigma2 <= clt_variance_bound(l2_norm_centered(op), f, pi)
            by_radius = clt_variance_bound(spectral_radius_centered(op), f, pi)
            if sigma2 > by_radius * (1.0 + 1e-9):
                above_radius[k, name] = sigma2 / by_radius - 1.0
        assert set(above_radius) == {(35, "identity"), (35, "reversed"),
                                     (67, "identity"), (67, "reversed")}
        assert above_radius[35, "identity"] == pytest.approx(0.0343, abs=1e-4)
        assert above_radius[67, "identity"] == pytest.approx(0.0174, abs=1e-4)


class TestHoeffding:
    def test_worked_value(self):
        expected = float(np.exp(-10.0 / 3.0))
        assert hoeffding_bound(0.5, 1000, 0.1) == pytest.approx(expected, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            hoeffding_bound(1.0, 100, 0.1)
        with pytest.raises(ValidationError):
            hoeffding_bound(0.5, 100, 0.0)
        with pytest.raises(ValidationError):
            hoeffding_bound(0.5, 100, float("nan"))


class TestEmpiricalTail:
    def test_rsg_tail_respects_bound(self, eps_pair):
        f = np.array([0.0, 0.0, 1.0, 1.0])
        check = empirical_tail(*_op_rho(eps_pair, RandomScan.uniform(2)), f,
                               n=200, eps=0.2, replicas=4000, seed=0)
        assert check["pass"]
        assert 0.0 <= check["frequency"] <= 1.0

    def test_dsg_tail_respects_bound(self, eps_pair):
        f = np.array([0.0, 0.0, 1.0, 1.0])
        check = empirical_tail(*_op_rho(eps_pair, DeterministicScan((1, 2))), f,
                               n=100, eps=0.2, replicas=4000, seed=0)
        assert check["pass"]

    def test_rejects_unbounded_f(self, eps_pair):
        with pytest.raises(ValidationError):
            empirical_tail(*_op_rho(eps_pair, RandomScan.uniform(2)),
                           np.array([0.0, 0.0, 1.0, 2.0]), n=10, eps=0.1, replicas=10, seed=0)

    def test_rejects_impossible_threshold(self, eps_pair):
        f = np.array([0.0, 0.0, 1.0, 1.0])
        with pytest.raises(ValidationError):
            empirical_tail(*_op_rho(eps_pair, RandomScan.uniform(2)), f,
                           n=10, eps=0.9, replicas=10, seed=0)

    def test_deterministic(self, eps_pair):
        f = np.array([0.0, 0.0, 1.0, 1.0])
        a = empirical_tail(*_op_rho(eps_pair, RandomScan.uniform(2)), f, n=50, eps=0.2,
                           replicas=500, seed=4)
        b = empirical_tail(*_op_rho(eps_pair, RandomScan.uniform(2)), f, n=50, eps=0.2,
                           replicas=500, seed=4)
        assert a["frequency"] == b["frequency"]


    @pytest.mark.parametrize("n", [0, -5])
    def test_rejects_empty_horizon(self, eps_pair, n):
        f = np.array([0.0, 0.0, 1.0, 1.0])
        with pytest.raises(ValidationError):
            empirical_tail(*_op_rho(eps_pair, RandomScan.uniform(2)), f, n=n, eps=0.1,
                           replicas=10, seed=0)
        with pytest.raises(ValidationError):
            empirical_tails(*_op_rho(eps_pair, RandomScan.uniform(2)), f, [100, n], [0.1],
                            replicas=10, seed=0)

    @pytest.mark.parametrize("eps", [0.0, -0.1, 0.9, float("nan")])
    def test_rejects_bad_eps_before_simulating(self, eps_pair, eps, monkeypatch):
        def no_steps(*args):
            raise AssertionError("simulated before validating eps")

        monkeypatch.setattr(sampler, "_bucket_table", no_steps)
        monkeypatch.setattr(sampler, "_bucket_step", no_steps)
        f = np.array([0.0, 0.0, 1.0, 1.0])
        with pytest.raises(ValidationError):
            empirical_tails(*_op_rho(eps_pair, RandomScan.uniform(2)), f, [100, 1000], [0.1, eps],
                            replicas=10, seed=0)


class TestEmpiricalTails:
    @pytest.mark.parametrize("scan", [DeterministicScan((2, 3, 1)), RandomScan.uniform(3)],
                             ids=["dsg", "rsg"])
    def test_grid_equals_separate_runs(self, scan):
        pi = random_target(seed=3, dims=(3, 3, 2))
        f = (pi.space.all_multi_indices()[:, 0] == 2).astype(float)
        n_grid, eps_grid = [60, 7, 25], [0.1, 0.25]
        op, rho = _op_rho(pi, scan)
        grid = empirical_tails(op, rho, f, n_grid, eps_grid, replicas=300, seed=11)
        assert [(t["n"], t["eps"]) for t in grid] == [(n, e) for n in n_grid for e in eps_grid]
        separate = [_reference_tail(pi, scan, f, n, e, 300, 11) for n in n_grid for e in eps_grid]
        single = [empirical_tail(op, rho, f, n, e, 300, 11) for n in n_grid for e in eps_grid]
        assert grid == separate
        assert grid == single

    def test_one_step_blocks_equal_separate_runs(self, monkeypatch):
        # more replicas than _TAIL_BLOCK: one step's uniforms per rng call
        monkeypatch.setattr(sampler, "_TAIL_BLOCK", 299)
        pi, scan = random_target(seed=3, dims=(3, 3, 2)), DeterministicScan((2, 3, 1))
        f = (pi.space.all_multi_indices()[:, 0] == 2).astype(float)
        grid = empirical_tails(*_op_rho(pi, scan), f, [9, 4], [0.1], replicas=300, seed=11)
        assert grid == [_reference_tail(pi, scan, f, n, 0.1, 300, 11) for n in (9, 4)]

    @pytest.mark.parametrize("scan", [DeterministicScan(tuple(range(1, 9))), RandomScan.uniform(8)],
                             ids=["dsg", "rsg"])
    def test_256_states_equal_separate_runs(self, scan):
        pi = equicorrelated_binary(8, 0.25)
        f = (pi.space.all_multi_indices()[:, 0] == 1).astype(float)
        n_grid, eps_grid = [45, 13], [0.05, 0.2]  # horizons off the 20-step uniform blocks
        grid = empirical_tails(*_op_rho(pi, scan), f, n_grid, eps_grid, replicas=400, seed=5)
        assert grid == [_reference_tail(pi, scan, f, n, e, 400, 5) for n in n_grid for e in eps_grid]
        assert any(t["frequency"] > 0.0 for t in grid)

    @pytest.mark.parametrize("scan", [DeterministicScan((3, 1, 2)), RandomScan.uniform(3)],
                             ids=["dsg", "rsg"])
    def test_non_indicator_f_equals_separate_runs(self, scan):
        # f takes non-dyadic values in [0, 1], so the partial sums round: the grid
        # must add f along each replica in the order one run per point does
        pi = random_target(seed=8, dims=(3, 2, 3))
        f = np.random.default_rng(8).random(pi.space.total_states)
        n_grid, eps_grid = [30, 11], [0.05, 0.15]
        grid = empirical_tails(*_op_rho(pi, scan), f, n_grid, eps_grid, replicas=300, seed=2)
        assert grid == [_reference_tail(pi, scan, f, n, e, 300, 2)
                        for n in n_grid for e in eps_grid]
        assert any(0.0 < t["frequency"] < 1.0 for t in grid)

    def test_1024_states_hold_no_replica_by_state_block(self, monkeypatch):
        # beside the cumulative and bucket tables, stepping 4,000 replicas over
        # 1,024 states holds arrays of one entry per replica (1.4 MB in all,
        # with the n x n masks of cumulative_table), never a (replicas x n)
        # block of 32.8 MB, nor an eighth of one
        pi = equicorrelated_binary(10, 0.25)
        op = scan_operator(pi, DeterministicScan(tuple(range(1, 11))))
        f = (pi.space.all_multi_indices()[:, 0] == 1).astype(float)
        replicas, tables = 4000, []
        build = sampler._bucket_table

        def kept(cum):
            thr, pick = build(cum)
            tables.extend([cum, thr, pick])
            return thr, pick

        monkeypatch.setattr(sampler, "_bucket_table", kept)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            empirical_tails(op, 0.5, f, [20], [0.1], replicas, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        held = sum(t.nbytes for t in tables)
        assert held <= 3 * tables[0].nbytes
        assert peak - held < op.n_states * 8 * replicas // 8

import cmath
import functools
import importlib
import itertools
import json
import math
import pkgutil
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import gibbsgap
from gibbsgap import counterexample, operators
from gibbsgap.cli import main
from gibbsgap.counterexample import (
    LadderChainSpec,
    _bisect,
    _spider_below,
    build_ladder,
    conductance,
    ladder_conductance,
    ladder_gap,
    ladder_reversible_gap,
    ladder_stationary,
    return_time_moment,
    reversibilization_gap_sweep,
)
from gibbsgap.errors import ValidationError
from gibbsgap.operators import (
    _centered_conjugated,
    additive_reversibilization,
    adjoint,
    is_reversible,
    spectral_radius_centered,
)
from oracles import (
    ladder_adjoint_kernel,
    ladder_gap_companion,
    ladder_reversible_gap_multisection,
    renewal_roots_companion,
)


class TestLadderChainSpec:
    def test_state_count(self):
        assert LadderChainSpec(N=4).n_states == 11

    def test_index_roundtrip(self):
        spec = LadderChainSpec(N=5)
        flat = [spec.state_index(0, 0)]
        flat += [spec.state_index(n, k) for n in range(1, spec.N + 1) for k in range(1, n + 1)]
        assert flat == list(range(spec.n_states))

    def test_rung_indices(self):
        spec = LadderChainSpec(N=3)
        assert spec.rung(1) == [1]
        assert spec.rung(2) == [2, 3]
        assert spec.rung(3) == [4, 5, 6]

    def test_jump_pmf_normalized_geometric(self):
        p = LadderChainSpec(N=3, q=0.5).jump_pmf()
        assert p.sum() == pytest.approx(1.0)
        assert p[1] / p[0] == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValidationError):
            LadderChainSpec(N=0)
        with pytest.raises(ValidationError):
            LadderChainSpec(N=2, q=1.0)


class TestLadderStationary:
    def test_flat_across_rungs(self):
        spec = LadderChainSpec(N=4)
        pi = ladder_stationary(spec)
        for n in range(1, 5):
            vals = pi[spec.rung(n)]
            np.testing.assert_allclose(vals, vals[0])

    def test_normalized(self):
        pi = ladder_stationary(LadderChainSpec(N=10))
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)

    def test_origin_mass_formula(self):
        spec = LadderChainSpec(N=6, q=0.5)
        p = spec.jump_pmf()
        e_tau = float(np.sum((np.arange(7) + 1) * p))
        assert ladder_stationary(spec)[0] == pytest.approx(1.0 / e_tau, rel=1e-12)


class TestBuildLadder:
    def test_stationarity_holds(self):
        # the MarkovOperator constructor validates stationarity at 1e-10
        op = build_ladder(LadderChainSpec(N=8))
        assert op.n_states == 37

    def test_deterministic_descent(self):
        spec = LadderChainSpec(N=3)
        op = build_ladder(spec)
        assert op.kernel[spec.state_index(3, 3), spec.state_index(3, 2)] == 1.0
        assert op.kernel[spec.state_index(3, 1), 0] == 1.0

    def test_not_reversible(self):
        assert not is_reversible(build_ladder(LadderChainSpec(N=4)))

    def test_adjoint_matches_reversal_rules(self):
        spec = LadderChainSpec(N=6)
        op = build_ladder(spec)
        np.testing.assert_allclose(adjoint(op).kernel, ladder_adjoint_kernel(spec), atol=1e-12)


class TestReturnTimeMoment:
    def test_truncated_converges_to_analytic(self):
        value = return_time_moment(LadderChainSpec(N=80, q=0.5), 1.5)
        assert value == pytest.approx(3.0, abs=0.01)

    def test_truncated_always_finite(self):
        assert return_time_moment(LadderChainSpec(N=5, q=0.5), 2.0) < math.inf

    def test_rejects_b_at_most_1(self):
        with pytest.raises(ValidationError):
            return_time_moment(LadderChainSpec(N=3), 1.0)

    @pytest.mark.parametrize("b", [math.inf, math.nan])
    def test_rejects_non_finite_b(self, b):
        with pytest.raises(ValidationError):
            return_time_moment(LadderChainSpec(N=3), b)

    def test_truncated_past_the_float_range_raises(self):
        # about 4.5e397; the b^(n+1) sum used to return inf here
        with pytest.raises(ValidationError, match="b = 1e\\+10 at N = 40"):
            return_time_moment(LadderChainSpec(N=40, q=0.5), 1e10)

    @pytest.mark.parametrize("n_trunc", [1030, 1100])
    def test_truncated_where_b_power_overflows(self, n_trunc):
        # b q = 1: every term b^(n+1) p(n) is 1/(1 - 2^-(N+1)), but 2^(N+1) overflows
        value = return_time_moment(LadderChainSpec(N=n_trunc, q=0.5), 2.0)
        assert value == pytest.approx((n_trunc + 1) / (1.0 - 2.0 ** -(n_trunc + 1)), rel=1e-12)

    def test_truncated_where_the_jump_law_underflows(self):
        # p(n) underflows from n = 324 and 6^(n+1) overflows from n = 396; the
        # tail (b q)^401 = 0.6^401 is far below rounding
        value = return_time_moment(LadderChainSpec(N=400, q=0.1), 6.0)
        assert value == pytest.approx(13.5, rel=1e-12)

    def test_truncated_equals_the_exact_rational_sum(self):
        # fl(1.5 * 0.8) is one rounding off; taken to the 1000th power unscaled
        # it would move the moment by about 1e-13
        spec, b = LadderChainSpec(N=1000, q=0.8), 1.5
        q, bb = Fraction(spec.q), Fraction(b)
        x, top = bb * q, spec.N + 1
        # b (1-q)/(1 - q^(N+1)) sum_n x^n, the geometric sum in exact rationals
        exact = bb * (1 - q) / (1 - q ** top) * (x ** top - 1) / (x - 1)
        value = return_time_moment(spec, b)
        assert value == pytest.approx(float(exact), rel=2e-15)


def _gap_from_polished_roots(spec):
    """gap(P) from every root of h(mu) = sum_n p(n) mu^(n+1) - 1, mu = 1/lambda,
    each polished at 60 digits from a float companion root.  Checks
    |h| <= 1e-50 at every root, the trivial root lambda = 1 to 1e-50, and that
    the roots are N + 1 distinct ones, so they are all of them."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        q = mpmath.mpf(spec.q)
        p0 = 1 / mpmath.fsum(q ** n for n in range(spec.N + 1))

        def h(mu):  # p(n) = p0 q^n, summed as a geometric series
            return p0 * mu * (1 - (q * mu) ** (spec.N + 1)) / (1 - q * mu) - 1

        starts = renewal_roots_companion(spec) / spec.q
        roots = [mpmath.findroot(h, (mpmath.mpc(s), mpmath.mpc(s) * (1 + 1e-9)))
                 for s in starts]
        assert max(abs(h(mu)) for mu in roots) <= 1e-50
        lam = [1 / mu for mu in roots]
        trivial = min(range(len(lam)), key=lambda k: abs(lam[k] - 1))
        assert abs(lam[trivial] - 1) <= 1e-50
        oracle = 1 - float(max(abs(z) for k, z in enumerate(lam) if k != trivial))
    as_float = np.array([complex(z) for z in lam])
    apart = np.abs(as_float[:, None] - as_float[None, :]) + np.eye(spec.N + 1)
    assert apart.min() > 1e-6
    return oracle


class TestLadderGap:
    SMALL_SPECS = [LadderChainSpec(N=n, q=0.5) for n in (1, 2, 5, 10, 20)]

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: "N=%d" % s.N)
    def test_matches_dense_solve_when_small(self, spec):
        # the dense eigensolver is well-conditioned on the ladder only for small N
        gap, _ = ladder_gap(spec)
        op = build_ladder(spec)
        assert gap == pytest.approx(1.0 - spectral_radius_centered(op), abs=1e-10)
        assert gap == pytest.approx(1.0 - spectral_radius_centered(adjoint(op)), abs=1e-10)

    @pytest.mark.parametrize("n_trunc, expected", [(40, 0.500299466180), (80, 0.500038281486)])
    def test_matches_high_precision_renewal_roots(self, n_trunc, expected):
        spec = LadderChainSpec(N=n_trunc, q=0.5)
        oracle = _gap_from_polished_roots(spec)
        assert oracle == pytest.approx(expected, abs=1e-12)
        gap, residual = ladder_gap(spec)
        assert gap == pytest.approx(oracle, abs=1e-9)
        assert residual <= 1e-12

    def test_past_the_float_floor_matches_high_precision_roots(self):
        # p(N) = 0 in float64 at q = 0.1, N = 400
        spec = LadderChainSpec(N=400, q=0.1)
        gap, residual = ladder_gap(spec)
        assert gap == pytest.approx(_gap_from_polished_roots(spec), abs=1e-9)
        assert residual <= 1e-10

    @pytest.mark.parametrize("n_trunc", [1, 10, 40, 80, 120])
    def test_root_residual_small(self, n_trunc):
        _, residual = ladder_gap(LadderChainSpec(N=n_trunc, q=0.5))
        assert residual <= 1e-12


GRID_Q = [1e-300, 1e-5, 0.1, 0.2, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999]
GRID_N = [1, 2, 3, 4, 5, 7, 10, 20, 30, 40, 60, 100, 200, 400]


@functools.cache
def _companion_gap(q, n_trunc):
    return ladder_gap_companion(LadderChainSpec(N=n_trunc, q=q))[0]


def _trinomial_constant(spec):
    """c of T(nu) = nu^(N+2) - (1+c) nu + c."""
    return spec.q * counterexample._geometric_mass(spec) / (1.0 - spec.q)


class TestCertifiedRoot:
    """The one certified root of the renewal trinomial against every root of
    the companion solve."""

    @pytest.mark.parametrize("q", GRID_Q)
    def test_matches_the_companion_solve(self, q):
        errors = {n: abs(ladder_gap(LadderChainSpec(N=n, q=q))[0] - _companion_gap(q, n))
                  for n in GRID_N}
        assert max(errors.values()) <= 1e-13, errors

    @pytest.mark.parametrize("q", GRID_Q)
    def test_closed_form_at_one_rung(self, q):
        # g(nu) = nu + nu^2 - q (1 + q) has the roots q and -(1 + q)
        gap, residual = ladder_gap(LadderChainSpec(N=1, q=q))
        assert gap == pytest.approx(1.0 / (1.0 + q), rel=1e-15)
        assert residual <= 1e-15

    @pytest.mark.parametrize("q, n_trunc", [(1e-300, 4), (0.2, 7), (0.5, 10), (0.5, 400),
                                            (0.8, 40), (0.95, 200)])
    def test_certificate_refuses_the_second_root(self, q, n_trunc, monkeypatch):
        spec = LadderChainSpec(N=n_trunc, q=q)
        c = _trinomial_constant(spec)
        nu = counterexample._newton_root(cmath.exp(4j * math.pi / (n_trunc + 1)), n_trunc, c)
        # the lemma's k = 2 root: the second smallest modulus in the upper half-plane
        upper = sorted((z for z in renewal_roots_companion(spec) if z.imag > 0), key=abs)
        assert nu == pytest.approx(upper[1], abs=1e-12)
        assert round(counterexample._root_index(nu, n_trunc, c)) == 2
        assert not counterexample._is_first_root(nu, n_trunc, c)
        assert not counterexample._is_first_root(nu.conjugate(), n_trunc, c)
        assert not counterexample._is_first_root(complex(q), n_trunc, c)

        monkeypatch.setattr(counterexample, "_first_root", lambda N, c: nu)
        with pytest.raises(ArithmeticError, match="not certified"):
            ladder_gap(spec)

    def test_allocates_under_10_kb_at_a_million_rungs(self):
        spec = LadderChainSpec(N=10 ** 6, q=0.5)
        ladder_gap(spec)
        tracemalloc.start()
        try:
            gap, _ = ladder_gap(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000
        assert gap == pytest.approx(0.5, abs=1e-12)  # gap(P) -> 1 - q


class TestConductance:
    def test_requires_reversible(self):
        op = build_ladder(LadderChainSpec(N=3))
        with pytest.raises(ValidationError):
            conductance(op, [[0]])

    def test_refuses_a_sweep_whose_flows_are_tiny(self, skewed_2x2):
        # every flow pi(x) P(x, y) of this sweep is below 1e-9, yet it is not reversible
        with pytest.raises(ValidationError, match="reversible"):
            conductance(operators.dsg((1, 2), skewed_2x2), [[0]])

    def test_rung_cut_scaling(self):
        spec = LadderChainSpec(N=12, q=0.5)
        k_op = additive_reversibilization(build_ladder(spec))
        pi0 = k_op.stationary[0]
        _, per_cut = conductance(k_op, [spec.rung(n) for n in range(1, 13)])
        for n, value in enumerate(per_cut, start=1):
            assert value <= 1.05 / (n * pi0)

    def test_exhaustive_matches_family_minimum_on_tiny_chain(self):
        spec = LadderChainSpec(N=3)
        k_op = additive_reversibilization(build_ladder(spec))
        cuts = [spec.rung(n) for n in range(1, 4)] + [[s] for s in range(spec.n_states)]
        family_min, _ = conductance(k_op, cuts)
        # every nonempty proper subset of the 7 states
        subsets = [list(c) for r in range(1, spec.n_states)
                   for c in itertools.combinations(range(spec.n_states), r)]
        exhaustive_min, _ = conductance(k_op, subsets)
        assert exhaustive_min <= family_min + 1e-12
        assert exhaustive_min >= 0.5 * family_min  # rung cuts are near-optimal here

    def test_rejects_trivial_cut(self):
        spec = LadderChainSpec(N=2)
        k_op = additive_reversibilization(build_ladder(spec))
        with pytest.raises(ValidationError):
            conductance(k_op, [list(range(spec.n_states))])


def _dense_reversibilization(spec):
    return additive_reversibilization(build_ladder(spec))


def _dense_reversible_gap(spec):
    """1 - the largest |eigenvalue| of D^{1/2} (K - Pi) D^{-1/2}, symmetric since K is reversible."""
    K = _dense_reversibilization(spec)
    a = _centered_conjugated(K.kernel, K.stationary)
    return 1.0 - float(np.abs(np.linalg.eigvalsh(0.5 * (a + a.T))).max())


def _spider_couplings(spec):
    """p(0) and each even and odd leg's squared coupling to the origin."""
    p = spec.jump_pmf().tolist()
    return p[0], [x / 2.0 for x in p[2::2]], [p[1]] + [x / 2.0 for x in p[3::2]]


class TestReversibleGap:
    """The spider-and-rung reduction against the dense symmetric solve of K."""

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8, 0.95])
    @pytest.mark.parametrize("n_trunc", [1, 2, 3, 9, 12, 17, 25, 40])
    def test_matches_dense_solve(self, q, n_trunc):
        spec = LadderChainSpec(N=n_trunc, q=q)
        assert ladder_reversible_gap(spec) == pytest.approx(_dense_reversible_gap(spec), abs=1e-12)

    def test_matches_dense_solve_at_60(self):
        spec = LadderChainSpec(N=60, q=0.8)
        assert ladder_reversible_gap(spec) == pytest.approx(_dense_reversible_gap(spec), abs=1e-12)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8, 0.95])
    @pytest.mark.parametrize("n_trunc", [1, 2, 9, 17])
    def test_inertia_counts_every_symmetric_mode(self, q, n_trunc):
        couplings = _spider_couplings(LadderChainSpec(N=n_trunc, q=q))
        size = 1 + sum(math.ceil(n / 2) for n in range(1, n_trunc + 1))
        assert _spider_below(*couplings, 1.0 + 1e-12) == size
        assert _spider_below(*couplings, -1.0 - 1e-12) == 0

    @pytest.mark.parametrize(
        "q", [1e-307, 1e-300, 1e-8, 0.05, 0.2, 0.5, 0.8, 0.95, 0.99, 0.999])
    def test_matches_the_full_band_multisection(self, q):
        # rung-bounded rows and rows that still search, e.g. q = 0.5 at
        # N = 3, 5, 80, 201, 1000 and q = 1e-307 at N = 40
        truncations = list(range(1, 41)) + [60, 80, 200, 201, 500, 1000]
        mismatches = []
        for n_trunc in truncations:
            spec = LadderChainSpec(N=n_trunc, q=q)
            if ladder_reversible_gap(spec) != ladder_reversible_gap_multisection(spec):
                mismatches.append(n_trunc)
        assert mismatches == []

    @pytest.mark.parametrize("q, n_trunc, searches", [
        (0.5, 10, False), (0.5, 30, False), (0.5, 40, False), (0.5, 60, False),
        (0.5, 200, False), (0.5, 5000, False),
        (0.5, 5, True), (0.5, 201, True), (1e-307, 40, True),
    ])
    def test_searches_only_past_the_rung_shifts(self, q, n_trunc, searches, monkeypatch):
        shifts = []

        def spy(p0, even, odd, shift):
            shifts.append(shift)
            return _spider_below(p0, even, odd, shift)

        monkeypatch.setattr(counterexample, "_spider_below", spy)
        ladder_reversible_gap(LadderChainSpec(N=n_trunc, q=q))
        n_even = n_trunc - n_trunc % 2
        rung = math.cos(math.pi / (n_even + 1))
        assert shifts[:2] == [-rung, rung]
        assert (len(shifts) > 2) == searches
        edge = 1.0 + 2.0 ** -30
        for shift in shifts[2:]:
            assert -edge <= shift <= -rung or rung <= shift <= edge

    @pytest.mark.parametrize("q, n_trunc", [(0.3, 1000), (0.5, 1000), (0.8, 1000),
                                            (0.95, 1000), (0.5, 100_000)])
    def test_lambda_2_next_to_the_rung_takes_one_count(self, q, n_trunc, monkeypatch):
        # lambda_2 lies within one float above the rung here: the bracket up to the
        # next float ends the bisection at once, with the bits of the one from the band edge
        searches = []

        def spy(count, k, lo, hi):
            searches.append(hi)
            value = _bisect(count, k, lo, hi)
            assert value == _bisect(count, k, lo, 1.0 + 2.0 ** -30)
            return value

        monkeypatch.setattr(counterexample, "_bisect", spy)
        ladder_reversible_gap(LadderChainSpec(N=n_trunc, q=q))
        n_even = n_trunc - n_trunc % 2
        assert searches == [math.nextafter(math.cos(math.pi / (n_even + 1)), 2.0)]

    def test_searched_gap_allocates_under_50_kb(self):
        # both spider eigenvalues are searched here, 80 counts over 101 depths
        spec = LadderChainSpec(N=201, q=0.5)
        ladder_reversible_gap(spec)
        tracemalloc.start()
        try:
            ladder_reversible_gap(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50_000

    @pytest.mark.parametrize("n_trunc", [200, 201, 5000])
    def test_large_truncation_without_oracle(self, n_trunc):
        spec = LadderChainSpec(N=n_trunc, q=0.5)
        gap = ladder_reversible_gap(spec)
        kappa, _, _ = ladder_conductance(spec)
        assert kappa ** 2 / 2.0 <= gap <= 2.0 * kappa
        assert 4.8 <= n_trunc ** 2 * gap <= math.pi ** 2 / 2.0


class TestLadderConductance:
    @pytest.mark.parametrize("q, n_trunc", [(0.2, 1), (0.5, 12), (0.8, 17), (0.95, 9)])
    def test_closed_forms_match_dense_cuts(self, q, n_trunc):
        spec = LadderChainSpec(N=n_trunc, q=q)
        cuts = [spec.rung(n) for n in range(1, n_trunc + 1)] + [[0]]
        cuts += [[s] for n in range(1, n_trunc + 1) for s in spec.rung(n)]
        dense_kappa, dense = conductance(_dense_reversibilization(spec), cuts)
        kappa, rungs, singletons = ladder_conductance(spec)
        expected = np.concatenate([rungs, np.repeat(singletons, np.r_[1, 1:n_trunc + 1])])
        np.testing.assert_allclose(dense, expected, rtol=0, atol=1e-14)
        assert kappa == pytest.approx(dense_kappa, abs=1e-14)

    @pytest.mark.parametrize("q", [1e-20, 1e-15, 1e-300])
    @pytest.mark.parametrize("n_trunc", [2, 5, 10])
    def test_origin_singleton_without_cancellation(self, q, n_trunc):
        # 1 - p(0) and 1 - 1/E[tau] both round to 0 or to a few ulps here
        spec = LadderChainSpec(N=n_trunc, q=q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, singletons = ladder_conductance(spec)
        # exact: E[tau] sum_{n>=1} p(n) / sum_{n>=1} n p(n), p(n) proportional to q^n
        p = [Fraction(q) ** n for n in range(n_trunc + 1)]
        e_tau = sum((n + 1) * pn for n, pn in enumerate(p)) / sum(p)
        exact = e_tau * sum(p[1:]) / sum(n * pn for n, pn in enumerate(p))
        assert singletons[0] == pytest.approx(float(exact), rel=1e-15)

    def test_counterexample_at_tiny_q_exits_0_without_warning(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["counterexample", "--q", "1e-300", "--N", "5",
                         "--out-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("q, n_trunc", [(1e-307, 40), (3e-308, 5)])
    def test_counterexample_at_the_normal_floor_of_q(self, q, n_trunc, tmp_path):
        # every coefficient (1-q)/(q (1 - q^(N+1))) of the unscaled renewal
        # polynomial overflowed in its derivative here
        assert main(["counterexample", "--q", repr(q), "--N", str(n_trunc),
                     "--out-dir", str(tmp_path)]) == 0
        with open(tmp_path / "counterexample.json", encoding="utf-8") as fh:
            (row,) = json.load(fh)["report"]["rows"]
        assert row["gap_P"] == 1.0
        assert row["root_residual"] <= 1e-12

    def test_subnormal_q_exits_2_without_report(self, tmp_path):
        with pytest.raises(ValidationError):
            LadderChainSpec(N=5, q=1e-320)
        assert main(["counterexample", "--q", "1e-320", "--N", "5",
                     "--out-dir", str(tmp_path)]) == 2
        assert not (tmp_path / "counterexample.json").exists()


def test_counterexample_command_builds_no_dense_kernel(tmp_path, monkeypatch):
    dense = (counterexample.build_ladder, counterexample.conductance,
             operators.additive_reversibilization, operators.spectral_radius_centered)

    def refuse(*args, **kwargs):
        raise AssertionError("dense ladder kernel on the counterexample path")

    for info in pkgutil.iter_modules(gibbsgap.__path__):
        module = importlib.import_module("gibbsgap." + info.name)
        for attr, value in list(vars(module).items()):
            if any(value is fn for fn in dense):
                monkeypatch.setattr(module, attr, refuse)
    assert main(["counterexample", "--N", "10,30,60", "--out-dir", str(tmp_path)]) == 0


def test_sweep_row_allocates_under_a_megabyte():
    # one dense 1,831-state kernel at N = 60 is 26.8 MB
    tracemalloc.start()
    try:
        reversibilization_gap_sweep(0.5, [60])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.fixture(scope="module")
def sweep_rows():
    return reversibilization_gap_sweep(0.5, [10, 20, 40], b_list=(1.5, 2.0))


class TestGapSweep:
    def test_reversibilized_gap_collapses(self, sweep_rows):
        gaps = [r["gap_K"] for r in sweep_rows]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] <= 0.5 * gaps[0]

    def test_raw_gaps_symmetric_and_healthy(self, sweep_rows):
        for r in sweep_rows:
            assert r["gap_P"] == pytest.approx(r["gap_P_star"], abs=1e-9)
            assert r["gap_P"] >= r["gap_K"] - 1e-9

    def test_cheeger_upper_holds(self, sweep_rows):
        for r in sweep_rows:
            assert r["cheeger_upper_ok"]
            assert r["gap_K"] <= 2.0 * r["kappa_upper"] + 1e-9

    def test_moment_flags(self, sweep_rows):
        for r in sweep_rows:
            assert r["moment_b1.5_analytic_finite"]
            assert not r["moment_b2_analytic_finite"]
        # truncated moments increase toward the analytic value 3
        moments = [r["moment_b1.5"] for r in sweep_rows]
        assert moments == sorted(moments)
        assert moments[-1] == pytest.approx(3.0, abs=0.02)

    def test_conductance_decay_rate(self, sweep_rows):
        # kappa(N) ~ 1/N up to the slowly varying pi(origin) factor
        n_vals = np.array([r["N"] for r in sweep_rows], dtype=float)
        kappas = np.array([r["kappa_upper"] for r in sweep_rows])
        slope = np.polyfit(np.log(n_vals), np.log(kappas), 1)[0]
        assert -1.2 <= slope <= -0.8

    def test_rejects_unsorted_truncations(self):
        with pytest.raises(ValidationError):
            reversibilization_gap_sweep(0.5, [20, 10])

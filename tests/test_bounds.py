import math

import pytest

from gibbsgap.bounds import (
    SAMPLED_PERMS,
    SLACK_TOL,
    dsg_norm_bound_from_c,
    dsg_norm_bound_from_l,
    rapid_mixing_transfer,
    rsg_norm_bound,
    sample_permutations,
    verify_bounds,
    violations,
)
from gibbsgap.errors import ValidationError
from gibbsgap.geometry import friedrichs_angle_from_norm, inclination
from gibbsgap.measure import equicorrelated_binary
from gibbsgap.operators import DeterministicScan, RandomScan, sweep_spectra


def _orders(d):
    return [DeterministicScan(s) for s in sample_permutations(d)]


def _verify(pi, dsg_scans, rsg_scans):
    """verify_bounds as analyze calls it: random-scan norms from the inclination's
    forms, sweep norms from sweep_spectra, and the dual lower bound on the inclination."""
    incl = inclination(pi, restarts=1, scans=[RandomScan.uniform(pi.space.d), *rsg_scans])
    norms = {**incl.scan_norms,
             **dict(zip(dsg_scans, sweep_spectra(pi, [(scan, "norm") for scan in dsg_scans])))}
    return verify_bounds(norms, dsg_scans, rsg_scans, incl.lower)


class TestRsgNormBound:
    def test_worked_value(self):
        assert rsg_norm_bound(0.4, 3, (0.5, 0.25, 0.25)) == pytest.approx(0.7, abs=1e-12)

    def test_uniform_weights_sharp(self, eps_pair):
        c = friedrichs_angle_from_norm(eps_pair)
        assert rsg_norm_bound(c, 2, (0.5, 0.5)) == pytest.approx(0.75, abs=1e-10)

    def test_never_below_1_over_d(self):
        # for Gibbs projections c >= 0, so the bound stays above the floor
        for d in (2, 3, 5):
            for c in (0.0, 0.3, 1.0):
                for w in ((1.0 / d,) * d,):
                    assert rsg_norm_bound(c, d, w) >= 1.0 / d - 1e-12

    def test_rejects_out_of_range_angle(self):
        with pytest.raises(ValidationError):
            rsg_norm_bound(1.5, 2, (0.5, 0.5))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            rsg_norm_bound(0.5, 3, (0.5, 0.5))


class TestDsgNormBounds:
    def test_from_c_worked_value(self):
        expected = math.sqrt(1.0 - (1.0 / 64.0) * 0.25)
        assert dsg_norm_bound_from_c(0.5, 2) == pytest.approx(expected, abs=1e-12)

    def test_from_c_trivial_at_c_equal_1(self):
        assert dsg_norm_bound_from_c(1.0, 3) == 1.0

    def test_from_l_worked_value(self):
        expected = math.sqrt(1.0 - 0.5 / 4.0)
        assert dsg_norm_bound_from_l(1.0 / math.sqrt(2.0), 2) == pytest.approx(expected, abs=1e-12)

    def test_from_l_validation(self):
        with pytest.raises(ValidationError):
            dsg_norm_bound_from_l(1.5, 2)
        with pytest.raises(ValidationError):
            dsg_norm_bound_from_l(0.5, 1)

    def test_monotone_in_c(self):
        values = [dsg_norm_bound_from_c(c, 3) for c in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert values == sorted(values)


class TestRapidMixingTransfer:
    def test_worked_values(self):
        assert rapid_mixing_transfer(1.0, 1.0, 10) == pytest.approx(3.125e-6, abs=1e-15)
        assert rapid_mixing_transfer(1.0, 1.0, 2) == pytest.approx(1.0 / 512.0, abs=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            rapid_mixing_transfer(0.0, 1.0, 3)
        with pytest.raises(ValidationError):
            rapid_mixing_transfer(1.0, -1.0, 3)


class TestSamplePermutations:
    def test_exhaustive_small_d(self):
        perms = sample_permutations(3)
        assert len(perms) == 6
        assert (1, 2, 3) in perms and (3, 2, 1) in perms

    def test_sampled_large_d(self):
        perms = sample_permutations(8, seed=1)
        assert len(perms) == SAMPLED_PERMS
        assert tuple(range(1, 9)) in perms
        assert tuple(range(8, 0, -1)) in perms
        assert all(sorted(p) == list(range(1, 9)) for p in perms)

    def test_deterministic(self):
        assert sample_permutations(7, seed=5) == sample_permutations(7, seed=5)

    @pytest.mark.parametrize("d, seed", [(6, 0), (7, 5), (10, 3)])
    def test_sampled_as_reversal_pairs(self, d, seed):
        perms = sample_permutations(d, seed=seed)
        assert len(set(perms)) == SAMPLED_PERMS
        assert {p[::-1] for p in perms} == set(perms)


class TestVerifyBounds:
    def test_slack_sign_convention(self, eps_pair):
        _, rows = _verify(eps_pair, _orders(2), [RandomScan((0.3, 0.7))])
        for row in rows:
            assert row["slack"] == row["bound"] - row["exact"]
        floor = next(r for r in rows if r["name"] == "rsg_lower_bound_1_over_d")
        assert floor["slack"] == pytest.approx(0.75 - 0.5, abs=1e-12)

    def test_violations_rule(self):
        rows = [{"name": name, "slack": slack}
                for name, slack in (("a", 0.0), ("b", -SLACK_TOL), ("c", -2 * SLACK_TOL))]
        assert violations(rows) == [rows[2]]

    def test_no_violations_on_suite(self, target_suite):
        for pi in target_suite[:25]:
            _, rows = _verify(pi, _orders(pi.space.d), [RandomScan.uniform(pi.space.d)])
            assert violations(rows) == []

    def test_uniform_entry_is_sharp(self, eps_pair):
        _, rows = _verify(eps_pair, _orders(2), [RandomScan.uniform(2)])
        sharp = [r for r in rows if r["name"] == "rsg_uniform_sharpness"]
        assert len(sharp) == 1
        assert abs(sharp[0]["slack"]) <= 1e-10

    def test_floor_entry_present(self, eps_pair):
        _, rows = _verify(eps_pair, _orders(2), [RandomScan.uniform(2)])
        floor = [r for r in rows if r["name"] == "rsg_lower_bound_1_over_d"]
        assert len(floor) == 1
        assert floor[0]["slack"] >= -1e-10

    def test_custom_scans(self, eps_pair):
        _, rows = _verify(eps_pair, [DeterministicScan((2, 1))], [RandomScan((0.3, 0.7))])
        names = [r["name"] for r in rows]
        assert names.count("dsg_norm_bound") == 1
        assert names.count("dsg_norm_bound_via_dual_l") == 1
        assert names.count("rsg_norm_bound") == 1
        assert violations(rows) == []

    def test_near_degenerate_target(self):
        pi = equicorrelated_binary(2, 1e-6)
        c, rows = _verify(pi, _orders(2), [RandomScan.uniform(2)])
        assert violations(rows) == []
        assert c == pytest.approx(1.0 - 2e-6, abs=1e-9)

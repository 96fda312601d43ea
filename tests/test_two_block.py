"""Every scan quantity of a d = 2 target against the closed forms of its
maximal correlation (``oracles.two_block_facts``)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsgap.geometry import friedrichs_angle_bruteforce, friedrichs_angle_from_norm, inclination
from gibbsgap.measure import ProductSpace, TargetDistribution
from gibbsgap.operators import RandomScan, dsg, l2_norm_centered, rsg, spectral_radius_centered
from conftest import make_suite
from oracles import two_block_facts

TOL = 1e-12
WEIGHTS = ((0.5, 0.5), (0.3, 0.7))


def _check_closed_forms(pi):
    facts = two_block_facts(pi)
    for order in ((1, 2), (2, 1)):
        sweep = dsg(order, pi)
        assert abs(l2_norm_centered(sweep) - facts["dsg_norm"]) <= TOL
        assert abs(spectral_radius_centered(sweep) - facts["dsg_radius"]) <= TOL
    for weights in WEIGHTS:
        norm = l2_norm_centered(rsg(RandomScan(weights), pi))
        assert abs(norm - two_block_facts(pi, weights)["rsg_norm"]) <= TOL
    assert abs(friedrichs_angle_from_norm(pi) - facts["c"]) <= TOL
    assert abs(friedrichs_angle_bruteforce(pi) - facts["c"]) <= TOL
    res = inclination(pi)
    assert abs(res.lower - facts["ell"]) <= TOL
    if res.certified:  # every d = 2 suite target (test_bracket_closes_on_suite)
        assert abs(res.value - facts["ell"]) <= TOL
    else:
        # near a product (sigma about 1e-11 to 1e-5) lambda_min is nearly
        # double and the bracket stays open; ell_hat from the restarts is then
        # an upper bound that can miss the closed form by up to about 3e-10
        assert res.value >= facts["ell"] - TOL


@pytest.mark.parametrize("pi", [pi for pi in make_suite() if pi.space.d == 2],
                         ids=lambda pi: "x".join(map(str, pi.space.dims)))
def test_suite_targets(pi):
    _check_closed_forms(pi)


@given(st.integers(2, 7), st.integers(2, 7), st.data())
@settings(max_examples=40, deadline=None)
def test_random_tables(n1, n2, data):
    entries = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=n1 * n2, max_size=n1 * n2))
    pmf = np.array(entries) / sum(entries)
    _check_closed_forms(TargetDistribution(ProductSpace((n1, n2)), pmf))

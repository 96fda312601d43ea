import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsgap import measure
from gibbsgap.errors import StateCapError, ValidationError
from gibbsgap.measure import ProductSpace, TargetDistribution, equicorrelated_binary, parse_target
from oracles import conditional_mean, inner_product, random_target


class TestProductSpace:
    def test_total_states(self):
        assert ProductSpace((2, 3, 4)).total_states == 24

    def test_total_states_exact_beyond_int64(self):
        assert ProductSpace((2,) * 64).total_states == 2 ** 64
        assert ProductSpace((4611686018427387905, 4)).total_states == 4611686018427387905 * 4

    def test_rejects_single_coordinate(self):
        with pytest.raises(ValidationError):
            ProductSpace((5,))

    def test_rejects_zero_cardinality(self):
        with pytest.raises(ValidationError):
            ProductSpace((2, 0))

    def test_last_coordinate_fastest(self):
        states = ProductSpace((2, 3)).all_multi_indices()
        assert tuple(states[0]) == (0, 0)
        assert tuple(states[1]) == (0, 1)
        assert tuple(states[3]) == (1, 0)

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_index_roundtrip(self, dims):
        if np.prod(dims) < 2:
            with pytest.raises(ValidationError):
                ProductSpace(tuple(dims))
            return
        space = ProductSpace(tuple(dims))
        states = space.all_multi_indices()
        assert states.shape == (space.total_states, space.d)
        for flat, multi in enumerate(states):
            assert np.ravel_multi_index(tuple(multi), space.dims) == flat


class TestTargetDistribution:
    def test_rejects_zero_mass(self):
        with pytest.raises(ValidationError, match="full support"):
            TargetDistribution(ProductSpace((2, 2)), [0.5, 0.5, 0.0, 0.0])

    def test_renormalizes_small_drift(self):
        drift = np.full(4, 0.25) * (1 + 1e-8)
        t = TargetDistribution(ProductSpace((2, 2)), drift)
        assert abs(t.pmf.sum() - 1.0) <= 1e-12

    def test_rejects_large_drift(self):
        with pytest.raises(ValidationError, match="renormalization"):
            TargetDistribution(ProductSpace((2, 2)), np.full(4, 0.3))

    def test_conditionals_built_once_and_frozen(self):
        pi = random_target(7, (2, 3, 2))
        table = pi.conditionals
        assert pi.conditionals is table and len(table) == 3
        for cells, cond in table:
            with pytest.raises(ValueError):
                cond[0, 0] = 0.5
            with pytest.raises(ValueError):
                cells[0, 0] = 1

    def test_pmf_immutable(self, uniform_2x2):
        with pytest.raises(ValueError):
            uniform_2x2.pmf[0] = 0.5


class TestInnerProduct:
    def test_constants_give_one(self, eps_pair):
        one = np.ones(4)
        assert inner_product(one, one, eps_pair) == pytest.approx(1.0, abs=1e-15)

    def test_centered_orthogonal_to_constants(self, eps_pair):
        f = np.array([1.0, 1.0, 0.0, 0.0])
        centered = f - eps_pair.pmf @ f
        assert inner_product(centered, np.ones(4), eps_pair) == pytest.approx(0.0, abs=1e-15)

    def test_state_indicator(self, uniform_2x2):
        f = np.array([1.0, 0.0, 0.0, 0.0])
        assert inner_product(f, f, uniform_2x2) == pytest.approx(0.25)

    @given(st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_bilinear(self, seed):
        pi = random_target(7, (2, 3))
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(6)
        g = rng.standard_normal(6)
        h = rng.standard_normal(6)
        assert inner_product(f, g, pi) == pytest.approx(inner_product(g, f, pi), abs=1e-12)
        assert inner_product(2.0 * f + g, h, pi) == pytest.approx(
            2.0 * inner_product(f, h, pi) + inner_product(g, h, pi), abs=1e-10)


class TestMeanProject:
    """The mean projector Pi f = (pi . f) 1: the projection onto the constants."""

    def test_fixes_constants(self, eps_pair):
        np.testing.assert_allclose(eps_pair.pmf @ np.full(4, 3.25), 3.25)

    def test_kills_mean_zero(self, eps_pair):
        f = np.array([1.0, -3.0, -3.0, 1.0])
        np.testing.assert_allclose(eps_pair.pmf @ f, 0.0, atol=1e-15)

    def test_first_coordinate_on_uniform(self, uniform_2x2):
        f = np.array([0.0, 0.0, 1.0, 1.0])
        np.testing.assert_allclose(uniform_2x2.pmf @ f, 0.5)

    def test_idempotent_and_contractive(self):
        pi = random_target(3, (3, 2, 2))
        f = np.random.default_rng(5).standard_normal(12)
        once = np.full_like(f, pi.pmf @ f)
        twice = np.full_like(f, pi.pmf @ once)
        np.testing.assert_allclose(once, twice, atol=1e-14)
        assert inner_product(once, once, pi) <= inner_product(f, f, pi) + 1e-12


class TestConditionalMean:
    def test_fixes_functions_constant_in_i(self, eps_pair):
        f = np.array([2.0, 5.0, 2.0, 5.0])  # depends on x2 only
        np.testing.assert_allclose(conditional_mean(f, 1, eps_pair), f)

    def test_uniform_first_coordinate(self, uniform_2x2):
        f = np.array([0.0, 0.0, 1.0, 1.0])
        np.testing.assert_allclose(conditional_mean(f, 1, uniform_2x2), 0.5)

    def test_agreement_indicator_on_eps_pair(self, eps_pair):
        # E[1{x1 = x2} | x2] = 1 - eps at every state
        f = np.array([1.0, 0.0, 0.0, 1.0])
        np.testing.assert_allclose(conditional_mean(f, 1, eps_pair), 0.75, atol=1e-14)

    def test_index_out_of_range(self, eps_pair):
        f = np.zeros(4)
        with pytest.raises(ValidationError):
            conditional_mean(f, 0, eps_pair)
        with pytest.raises(ValidationError):
            conditional_mean(f, 3, eps_pair)

    def test_idempotent_self_adjoint_orthogonal(self):
        pi = random_target(11, (3, 2, 3))
        rng = np.random.default_rng(11)
        for i in range(1, 4):
            f = rng.standard_normal(18)
            g = rng.standard_normal(18)
            pf = conditional_mean(f, i, pi)
            np.testing.assert_allclose(conditional_mean(pf, i, pi), pf, atol=1e-12)
            assert inner_product(pf, g, pi) == pytest.approx(
                inner_product(f, conditional_mean(g, i, pi), pi), abs=1e-12)
            # residual is orthogonal to everything constant in coordinate i
            h = conditional_mean(g, i, pi)
            assert inner_product(f - pf, h, pi) == pytest.approx(0.0, abs=1e-12)


class TestParseTarget:
    def test_explicit_pmf(self):
        t = parse_target('{"dims": [2, 2], "pmf": [0.25, 0.25, 0.25, 0.25]}')
        np.testing.assert_allclose(t.pmf, 0.25)

    def test_model_family(self):
        t = parse_target('{"dims": [2, 2], "model": {"name": "equicorrelated_binary", "epsilon": 0.25}}')
        np.testing.assert_allclose(t.pmf, [0.375, 0.125, 0.125, 0.375])

    def test_zero_entry_rejected(self):
        with pytest.raises(ValidationError, match="full support"):
            parse_target('{"dims": [2, 2], "pmf": [0.5, 0.5, 0.0, 0.0]}')

    def test_nan_entry_rejected(self):
        with pytest.raises(ValidationError, match="full support"):
            parse_target('{"dims": [2, 2], "pmf": [NaN, 0.25, 0.25, 0.25]}')

    def test_boolean_dims_rejected(self):
        with pytest.raises(ValidationError, match="integers"):
            parse_target('{"dims": [true, 2], "pmf": [0.5, 0.5]}')

    def test_model_dimension_from_dims(self):
        spec = '{"dims": [2, 2, 2], "model": {"name": "equicorrelated_binary", "epsilon": 0.25}}'
        assert parse_target(spec).space.dims == (2, 2, 2)
        with pytest.raises(ValidationError, match="inconsistent"):
            parse_target(spec.replace("[2, 2, 2]", "[2, 3]"))

    def test_unknown_model(self):
        with pytest.raises(ValidationError, match="unknown model"):
            parse_target('{"dims": [2, 2], "model": {"name": "ising"}}')

    def test_requires_exactly_one_source(self):
        with pytest.raises(ValidationError):
            parse_target('{"dims": [2, 2]}')
        with pytest.raises(ValidationError):
            parse_target('{"dims": [2, 2], "pmf": [1, 0, 0, 0], "model": {"name": "x"}}')

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match=r"target spec has unknown keys \['extra'\]"):
            parse_target('{"dims": [2, 2], "pmf": [0.25, 0.25, 0.25, 0.25], "extra": 1}')
        with pytest.raises(ValidationError, match=r"'model' has unknown keys \['d'\]"):
            parse_target('{"dims": [2, 2], "model": '
                         '{"name": "equicorrelated_binary", "epsilon": 0.25, "d": 7}}')

    def test_bad_json(self):
        with pytest.raises(ValidationError, match="JSON"):
            parse_target("{not json")

    def test_model_checked_against_the_default_cap(self):
        spec = '{"dims": %s, "model": {"name": "equicorrelated_binary", "epsilon": 0.25}}'
        with pytest.raises(StateCapError):
            parse_target(spec % ([2] * 15))
        with pytest.raises(StateCapError):
            parse_target(spec % ([2] * 4), state_cap=15)
        assert parse_target(spec % ([2] * 4), state_cap=16).space.total_states == 16

    def test_pmf_checked_against_the_cap(self):
        spec = json.dumps({"dims": [2, 3], "pmf": [1 / 6] * 6})
        with pytest.raises(StateCapError, match="6 states, above the cap of 5"):
            parse_target(spec, state_cap=5)
        assert parse_target(spec, state_cap=6).space.total_states == 6


class TestModelTable:
    @pytest.mark.parametrize("name", sorted(measure._MODELS))
    @pytest.mark.parametrize("d", range(2, 7))
    def test_model_states_counts_the_built_target(self, name, d):
        cap = measure.DEFAULT_STATE_CAP
        assert measure.model_states(name, d) == measure.model_target(
            name, d, 0.25, cap).space.total_states

    @pytest.mark.parametrize("name", sorted(measure._MODELS))
    def test_over_cap_refused_before_the_builder(self, name, monkeypatch):
        def fail(d, epsilon):
            raise AssertionError("built the pmf of an over-cap model")

        _, values = measure._MODELS[name]
        monkeypatch.setitem(measure._MODELS, name, (fail, values))
        cap = measure.model_states(name, 6) - 1
        with pytest.raises(StateCapError):
            measure.model_target(name, 6, 0.25, cap)


class TestEquicorrelatedBinary:
    def test_d2_closed_form(self):
        t = equicorrelated_binary(2, 0.25)
        np.testing.assert_allclose(t.pmf, [0.375, 0.125, 0.125, 0.375])

    def test_epsilon_zero_keeps_full_support(self):
        t = equicorrelated_binary(2, 0.0)
        assert t.pmf.min() > 0
        np.testing.assert_allclose(t.pmf[0], 0.5, atol=1e-11)

    def test_symmetric_in_bit_flip(self):
        t = equicorrelated_binary(3, 0.1)
        np.testing.assert_allclose(t.pmf, t.pmf[::-1])

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValidationError):
            equicorrelated_binary(2, 1.5)


class TestRandomTarget:
    def test_deterministic(self):
        a = random_target(1, (2, 2))
        b = random_target(1, (2, 2))
        assert np.array_equal(a.pmf, b.pmf)

    def test_valid_pmf(self):
        t = random_target(42, (3, 3, 2))
        assert t.pmf.min() > 0
        assert abs(t.pmf.sum() - 1.0) <= 1e-12

    def test_seeds_differ(self):
        assert not np.array_equal(random_target(1, (2, 2)).pmf, random_target(2, (2, 2)).pmf)

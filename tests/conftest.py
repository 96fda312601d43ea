import numpy as np
import pytest

from gibbsgap.measure import ProductSpace, TargetDistribution, equicorrelated_binary
from oracles import random_target


@pytest.fixture
def uniform_2x2() -> TargetDistribution:
    return TargetDistribution(ProductSpace((2, 2)), np.full(4, 0.25))


@pytest.fixture
def eps_pair() -> TargetDistribution:
    # pi(0,0) = pi(1,1) = 0.375, pi(0,1) = pi(1,0) = 0.125
    return equicorrelated_binary(2, 0.25)


@pytest.fixture
def skewed_2x2() -> TargetDistribution:
    # full support, but three states of mass 2e-10: the flows pi(x) P(x, y) of its
    # sweep are all below 1e-9, while the sweep is far from reversible (radius c^2,
    # norm c = 0.4999999998)
    return TargetDistribution(ProductSpace((2, 2)), np.array([2e-10, 2e-10, 2e-10, 1.0]))


def make_suite(count: int = 100, seed: int = 12345):
    """The seeded random-target suite: d in {2,3,4}, |X_i| in {2,3}."""
    rng = np.random.default_rng(seed)
    targets = []
    for k in range(count):
        d = int(rng.integers(2, 5))
        dims = tuple(int(x) for x in rng.integers(2, 4, size=d))
        targets.append(random_target(seed=1000 + k, dims=dims))
    return targets


@pytest.fixture(scope="session")
def target_suite():
    return make_suite()

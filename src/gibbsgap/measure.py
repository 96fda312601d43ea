"""Product state spaces, target distributions, and the pi-weighted geometry.

Flat indexing convention: multi-index (x_1, ..., x_d) maps to a flat index
with the *last* coordinate varying fastest (C order), so a pmf written as a
flat list is portable across tools.  Coordinate indices in the public API are
1-based, matching the usual mathematical labelling of the coordinates.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SpaceMismatchError, StateCapError, ValidationError

#: |sum(pmf) - 1| below this is considered exactly normalized.
NORMALIZATION_TOL = 1e-12
#: |sum(pmf) - 1| up to this is silently renormalized (text round-trip noise);
#: anything worse is a hard error.
RENORMALIZE_LIMIT = 1e-6
#: Floor applied to the epsilon parameter of the equicorrelated family so the
#: resulting pmf keeps full support (epsilon = 0 would put zero mass on
#: disagreeing configurations).
EPSILON_FLOOR = 1e-12
#: Default refusal threshold for dense state spaces.
DEFAULT_STATE_CAP = 20_000


@dataclass(frozen=True)
class ProductSpace:
    """A finite product space X_1 x ... x X_d with |X_i| = dims[i]."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 2:
            raise ValidationError("product space needs d >= 2 coordinates, got d=%d" % len(dims))
        if any(n < 1 for n in dims):
            raise ValidationError("every coordinate cardinality must be >= 1, got %r" % (dims,))

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def total_states(self) -> int:
        return int(np.prod(self.dims))

    def flat_index(self, multi: Sequence[int]) -> int:
        """Flat index of a multi-index; last coordinate fastest."""
        return int(np.ravel_multi_index(tuple(multi), self.dims))

    def multi_index(self, flat: int) -> tuple[int, ...]:
        """Multi-index of a flat state."""
        return tuple(int(c) for c in np.unravel_index(flat, self.dims))

    def all_multi_indices(self) -> np.ndarray:
        """(total_states, d) array of all multi-indices in flat order."""
        grids = np.indices(self.dims).reshape(self.d, -1).T
        return grids


@dataclass(frozen=True)
class TargetDistribution:
    """A full-support pmf on a ProductSpace; defines the L2(pi) geometry."""

    space: ProductSpace
    pmf: np.ndarray

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=float).reshape(-1)
        if pmf.shape[0] != self.space.total_states:
            raise ValidationError(
                "pmf has %d entries, space has %d states" % (pmf.shape[0], self.space.total_states)
            )
        if np.any(pmf <= 0.0):
            bad = int(np.argmin(pmf))
            raise ValidationError(
                "pmf must have full support; entry %d is %g" % (bad, pmf[bad])
            )
        total = float(pmf.sum())
        if abs(total - 1.0) > RENORMALIZE_LIMIT:
            raise ValidationError("pmf sums to %.12g, beyond renormalization limit" % total)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            pmf = pmf / total
        pmf = pmf.copy()
        pmf.flags.writeable = False
        object.__setattr__(self, "pmf", pmf)

    @property
    def d(self) -> int:
        return self.space.d

    def as_tensor(self) -> np.ndarray:
        """pmf reshaped to the product-space shape."""
        return self.pmf.reshape(self.space.dims)


@dataclass(frozen=True)
class PiFunction:
    """A real function on a ProductSpace, stored by flat state."""

    space: ProductSpace
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).reshape(-1)
        if values.shape[0] != self.space.total_states:
            raise ValidationError(
                "function has %d values, space has %d states"
                % (values.shape[0], self.space.total_states)
            )
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def _check_same_space(a, b) -> None:
    if a.space != b.space:
        raise SpaceMismatchError("objects live on different spaces: %r vs %r" % (a.space, b.space))


def inner_product(f: PiFunction, g: PiFunction, pi: TargetDistribution) -> float:
    """<f, g> = sum_x f(x) g(x) pi(x)."""
    _check_same_space(f, pi)
    _check_same_space(g, pi)
    return float(np.sum(f.values * g.values * pi.pmf))


def norm(f: PiFunction, pi: TargetDistribution) -> float:
    """L2(pi) norm of f."""
    return float(np.sqrt(max(inner_product(f, f, pi), 0.0)))


def mean_project(f: PiFunction, pi: TargetDistribution) -> PiFunction:
    """Project f onto the constants: the function identically pi(f)."""
    _check_same_space(f, pi)
    mean = float(np.sum(f.values * pi.pmf))
    return PiFunction(pi.space, np.full(pi.space.total_states, mean))


def conditional_mean(f: PiFunction, i: int, pi: TargetDistribution) -> PiFunction:
    """E_pi[f | x_{-i}] as a function on the full space (1-based coordinate i).

    This is the small step applied to f: the orthogonal projection of f onto
    the subspace of functions constant in coordinate i.
    """
    _check_same_space(f, pi)
    d = pi.space.d
    if not 1 <= i <= d:
        raise ValidationError("coordinate index %d out of range 1..%d" % (i, d))
    axis = i - 1
    w = pi.as_tensor()
    fv = f.values.reshape(pi.space.dims)
    num = np.sum(fv * w, axis=axis, keepdims=True)
    den = np.sum(w, axis=axis, keepdims=True)
    cond = np.broadcast_to(num / den, pi.space.dims)
    return PiFunction(pi.space, cond.reshape(-1))


def equicorrelated_binary(d: int, epsilon: float) -> TargetDistribution:
    """The one-parameter binary family used for solidarity and scaling probes.

    pi(x) is proportional to prod_{i<j} [(1 - eps) if x_i == x_j else eps],
    so for d = 2: pi(0,0) = pi(1,1) = (1-eps)/2 and pi(0,1) = pi(1,0) = eps/2.
    As eps -> 0 the mass concentrates on the two all-equal configurations and
    every Gibbs sampler's gap tends to 0.  eps is clamped to
    [EPSILON_FLOOR, 1 - EPSILON_FLOOR] to keep the pmf full-support.
    """
    if d < 2:
        raise ValidationError("equicorrelated_binary needs d >= 2, got %d" % d)
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError("epsilon must lie in [0, 1], got %g" % epsilon)
    eps = min(max(float(epsilon), EPSILON_FLOOR), 1.0 - EPSILON_FLOOR)
    space = ProductSpace((2,) * d)
    states = space.all_multi_indices()
    # number of disagreeing unordered pairs per state
    ones = states.sum(axis=1)
    disagree = ones * (d - ones)
    total_pairs = d * (d - 1) // 2
    logw = disagree * np.log(eps) + (total_pairs - disagree) * np.log(1.0 - eps)
    w = np.exp(logw - logw.max())
    return TargetDistribution(space, w / w.sum())


_MODEL_BUILDERS = {
    "equicorrelated_binary": equicorrelated_binary,
}
#: Values per coordinate of each model family, so a model's state count is
#: known before its pmf is built.
_MODEL_VALUES = {
    "equicorrelated_binary": 2,
}


def model_builder(name: str):
    """The (d, epsilon) -> TargetDistribution builder of a named model family."""
    if name not in _MODEL_BUILDERS:
        raise ValidationError("unknown model %r; known: %s" % (name, sorted(_MODEL_BUILDERS)))
    return _MODEL_BUILDERS[name]


def model_states(name: str, d: int) -> int:
    """State count of a named model family at dimension d, without building it."""
    model_builder(name)
    return _MODEL_VALUES[name] ** d


def check_state_cap(n_states: int, state_cap: int) -> None:
    """Refuse a target of n_states states above the cap (StateCapError)."""
    if n_states > state_cap:
        raise StateCapError("target has %d states, above the cap of %d" % (n_states, state_cap))


def parse_target(spec_text: str, state_cap: int = DEFAULT_STATE_CAP) -> TargetDistribution:
    """Parse a JSON target spec with `dims` and exactly one of `pmf`/`model`.

    A `model` entry is checked against ``state_cap`` before its pmf is
    built.  Examples::

        {"dims": [2, 2], "pmf": [0.25, 0.25, 0.25, 0.25]}
        {"dims": [2, 2], "model": {"name": "equicorrelated_binary", "epsilon": 0.25}}
    """
    try:
        doc = json.loads(spec_text)
    except json.JSONDecodeError as exc:
        raise ValidationError("target spec is not valid JSON: %s" % exc) from exc
    if not isinstance(doc, dict):
        raise ValidationError("target spec must be a JSON object")
    if "dims" not in doc:
        raise ValidationError("target spec is missing 'dims'")
    dims = doc["dims"]
    if not isinstance(dims, list) or not all(isinstance(n, int) for n in dims):
        raise ValidationError("'dims' must be a list of integers")
    has_pmf = "pmf" in doc
    has_model = "model" in doc
    if has_pmf == has_model:
        raise ValidationError("target spec needs exactly one of 'pmf' or 'model'")
    space = ProductSpace(tuple(dims))
    if has_pmf:
        return TargetDistribution(space, np.asarray(doc["pmf"], dtype=float))
    model = doc["model"]
    if not isinstance(model, dict) or "name" not in model:
        raise ValidationError("'model' must be an object with a 'name'")
    name = model["name"]
    build = model_builder(name)
    if "epsilon" not in model:
        raise ValidationError("model %r needs 'epsilon'" % name)
    d = int(model.get("d", len(dims)))
    check_state_cap(model_states(name, d), state_cap)
    target = build(d, float(model["epsilon"]))
    if target.space.dims != space.dims:
        raise ValidationError("dims %r inconsistent with %s d=%d" % (dims, name, d))
    return target


def random_target(seed: int, dims: Sequence[int], concentration: float = 1.0) -> TargetDistribution:
    """Reproducible full-support pmf via a symmetric-Dirichlet-style draw.

    Identical seed gives a bit-for-bit identical pmf.
    """
    if concentration <= 0:
        raise ValidationError("concentration must be > 0, got %g" % concentration)
    space = ProductSpace(tuple(dims))
    rng = np.random.default_rng(seed)
    g = rng.gamma(shape=concentration, scale=1.0, size=space.total_states)
    # gamma draws are positive a.s.; guard against underflow to exact zero
    g = np.maximum(g, 1e-300)
    return TargetDistribution(space, g / g.sum())

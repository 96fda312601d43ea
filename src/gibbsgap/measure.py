"""Product state spaces, target distributions, and how targets are read.

Flat indexing convention: multi-index (x_1, ..., x_d) maps to a flat index
with the *last* coordinate varying fastest (C order), so a pmf written as a
flat list is portable across tools.  Coordinate indices in the public API are
1-based, matching the usual mathematical labelling of the coordinates.

A TargetDistribution carries its table of full conditionals
(``TargetDistribution.conditionals``), built once on first use: the data of
every small step P_i, which ``gibbsgap.operators`` densifies on demand.
Functions on the space are plain arrays of values by flat state.
"""
from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import StateCapError, ValidationError

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
    """A finite product space X_1 x ... x X_d with |X_i| = dims[i].

    It needs at least two states: mean-zero functions, on which every
    norm, angle and bound here is taken, exist only then.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 2:
            raise ValidationError("product space needs d >= 2 coordinates, got d=%d" % len(dims))
        if any(n < 1 for n in dims):
            raise ValidationError("every coordinate cardinality must be >= 1, got %r" % (dims,))
        if math.prod(dims) < 2:
            raise ValidationError("product space needs >= 2 states, got dims %r" % (dims,))

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def total_states(self) -> int:
        return math.prod(self.dims)

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
        if not np.all(pmf > 0.0):  # also refuses NaN entries
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

    def as_tensor(self) -> np.ndarray:
        """pmf reshaped to the product-space shape."""
        return self.pmf.reshape(self.space.dims)

    @functools.cached_property
    def conditionals(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The full conditionals, as one (cells, cond) pair per coordinate.

        For coordinate i (entry i - 1), each row of ``cells`` holds the flat
        states of one x_{-i} cell in x_i order, and the same row of ``cond``
        holds pi(x_i | x_{-i}) over them: 2 n numbers per coordinate.  Built
        once per target, on first use.
        """
        dims = self.space.dims
        w = self.as_tensor()
        flat = np.arange(self.pmf.shape[0]).reshape(dims)
        table = []
        for axis, size in enumerate(dims):
            cond = w / w.sum(axis=axis, keepdims=True)
            cells = np.moveaxis(flat, axis, -1).reshape(-1, size)
            cond = np.moveaxis(cond, axis, -1).reshape(cells.shape)
            cells.flags.writeable = cond.flags.writeable = False
            table.append((cells, cond))
        return tuple(table)


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


#: name -> ((d, epsilon) -> TargetDistribution builder, values per coordinate);
#: the values give a model's state count before its pmf is built.
_MODELS = {
    "equicorrelated_binary": (equicorrelated_binary, 2),
}


def model_states(name: str, d: int) -> int:
    """State count of a named model family at dimension d, without building it.
    An unknown name, then a d below 2, is a ValidationError."""
    if name not in _MODELS:
        raise ValidationError("unknown model %r; known: %s" % (name, sorted(_MODELS)))
    if d < 2:
        raise ValidationError("%s needs d >= 2, got %d" % (name, d))
    return _MODELS[name][1] ** d


def model_target(name: str, d: int, epsilon, state_cap: int) -> TargetDistribution:
    """The named model at (d, epsilon).  An unknown name, then an epsilon
    that is not a number, is a ValidationError; a state count above
    state_cap is a StateCapError, raised before the pmf is built."""
    n_states = model_states(name, d)
    if not _is_real(epsilon):
        raise ValidationError("model %r needs a number 'epsilon'" % name)
    check_state_cap(n_states, state_cap)
    build, _ = _MODELS[name]
    return build(d, float(epsilon))


def check_state_cap(n_states: int, state_cap: int) -> None:
    """Refuse a target of n_states states above the cap (StateCapError)."""
    if n_states > state_cap:
        raise StateCapError("target has %d states, above the cap of %d" % (n_states, state_cap))


def _is_real(value) -> bool:
    """A JSON number a float can hold: not a boolean (True is an int), and
    not an integer beyond the float range."""
    return isinstance(value, float) or (type(value) is int and abs(value) <= sys.float_info.max)


def _refuse_unknown_keys(what: str, doc: dict, known: tuple) -> None:
    if not set(doc) <= set(known):
        raise ValidationError("%s has unknown keys %s; known: %s"
                              % (what, sorted(set(doc) - set(known)), ", ".join(known)))


def parse_target(spec_text: str, state_cap: int = DEFAULT_STATE_CAP) -> TargetDistribution:
    """Parse a JSON target spec: `dims`, exactly one of `pmf`/`model`, no other key.

    The target is checked against ``state_cap``: a `model` entry before its
    pmf is built, a `pmf` entry once TargetDistribution has accepted it (so a
    malformed pmf is a ValidationError whatever its size).  Examples::

        {"dims": [2, 2], "pmf": [0.25, 0.25, 0.25, 0.25]}
        {"dims": [2, 2], "model": {"name": "equicorrelated_binary", "epsilon": 0.25}}
    """
    try:
        doc = json.loads(spec_text)
    except json.JSONDecodeError as exc:
        raise ValidationError("target spec is not valid JSON: %s" % exc) from exc
    if not isinstance(doc, dict):
        raise ValidationError("target spec must be a JSON object")
    _refuse_unknown_keys("target spec", doc, ("dims", "pmf", "model"))
    if "dims" not in doc:
        raise ValidationError("target spec is missing 'dims'")
    dims = doc["dims"]
    if not isinstance(dims, list) or not all(type(n) is int for n in dims):  # no booleans
        raise ValidationError("'dims' must be a list of integers")
    has_pmf = "pmf" in doc
    has_model = "model" in doc
    if has_pmf == has_model:
        raise ValidationError("target spec needs exactly one of 'pmf' or 'model'")
    space = ProductSpace(tuple(dims))
    if has_pmf:
        pmf = doc["pmf"]
        if not isinstance(pmf, list) or not all(_is_real(p) for p in pmf):
            raise ValidationError("'pmf' must be a list of numbers")
        target = TargetDistribution(space, np.asarray(pmf, dtype=float))
        check_state_cap(space.total_states, state_cap)
        return target
    model = doc["model"]
    if not isinstance(model, dict) or not isinstance(model.get("name"), str):
        raise ValidationError("'model' must be an object with a string 'name'")
    _refuse_unknown_keys("'model'", model, ("name", "epsilon"))
    name = model["name"]
    target = model_target(name, len(dims), model.get("epsilon"), state_cap)
    if target.space.dims != space.dims:
        raise ValidationError("dims %r inconsistent with %s d=%d" % (dims, name, len(dims)))
    return target

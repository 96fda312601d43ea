"""Markov operators on L2(pi) as dense transition tables.

Every scan is built from the small steps P_1..P_d: ``dsg`` and
``symmetrized_sweep`` multiply them along an update path, ``rsg`` mixes
them.  ``Spectra`` serves the norms and radii of all scans of one target.

Order convention: ``dsg(sigma, pi)`` returns the kernel of the chain that
updates coordinate sigma(1) *first in time* and sigma(d) last, i.e. the
kernel matrix product K_{sigma(1)} @ K_{sigma(2)} @ ... @ K_{sigma(d)}.
Acting on a test function f (matrix-vector product, kernel @ f) this applies
the sigma(d) small step to f innermost.  Because each small step is
self-adjoint in L2(pi), the adjoint of a sweep is the sweep in reversed
update order.

All norms are taken in L2(pi): for a kernel table A the operator norm equals
the largest singular value of D^{1/2} A D^{-1/2} with D = diag(pi), which is
well defined because targets have full support.

Norm vs radius: a sweep is not self-adjoint, so its norm and its spectral
radius differ.  For d = 2 the sweep P1 P2 is an alternating projection and
with c the angle between the two coordinate subspaces
||P1 P2 - Pi|| = c  while  rho(P1 P2 - Pi) = c^2  (for the equicorrelated
binary pair with epsilon = 0.25: c = 0.5, norm 0.5, radius 0.25).  The
radius of a reversible operator comes from the symmetric eigensolver; for a
non-reversible one ``spectral_radius_centered`` uses dense ``eigvals``,
which is uncertified: eigenvalues of a strongly non-normal kernel are
ill-conditioned (see ``counterexample.ladder_gap`` for the ladder chain).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np
import scipy.sparse

from .errors import NumericError, ValidationError
from .measure import DEFAULT_STATE_CAP, TargetDistribution, check_state_cap

#: Row sums and stationarity are enforced to this tolerance.
STOCHASTICITY_TOL = 1e-10
#: Kernel entries more negative than this are an error; dust above it is clamped.
NEGATIVE_DUST_TOL = 1e-14
#: Weight vectors must sum to 1 within this.
WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class MarkovOperator:
    """A dense row-stochastic kernel together with its stationary law.

    ``stationary`` is the stationary pmf over flat states.  For Gibbs
    operators it is a TargetDistribution's pmf; chains on non-product spaces
    (the ladder counterexample) supply a plain vector.
    """

    kernel: np.ndarray
    stationary: np.ndarray
    label: str = ""

    def __post_init__(self):
        kernel = np.asarray(self.kernel, dtype=float)
        pi = np.asarray(self.stationary, dtype=float).reshape(-1)
        n = pi.shape[0]
        if kernel.shape != (n, n):
            raise ValidationError(
                "kernel shape %r does not match stationary law of length %d" % (kernel.shape, n)
            )
        if np.any(pi <= 0):
            raise ValidationError("stationary law must have full support")
        low = kernel.min()
        if low < -NEGATIVE_DUST_TOL:
            raise ValidationError("kernel has entry %g below the dust tolerance" % low)
        kernel = np.clip(kernel, 0.0, None)
        row_err = np.abs(kernel.sum(axis=1) - 1.0).max()
        if row_err > STOCHASTICITY_TOL:
            raise ValidationError("kernel rows sum to 1 only within %g" % row_err)
        stat_err = np.abs(pi @ kernel - pi).max()
        if stat_err > STOCHASTICITY_TOL:
            raise ValidationError("stationarity violated: max |pi^T P - pi^T| = %g" % stat_err)
        kernel = kernel.copy()
        kernel.flags.writeable = False
        pi = pi.copy()
        pi.flags.writeable = False
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "stationary", pi)

    @property
    def n_states(self) -> int:
        return self.stationary.shape[0]


@dataclass(frozen=True)
class DeterministicScan:
    """A full sweep in a fixed update order (1-based coordinate labels)."""

    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(int(i) for i in self.order)
        object.__setattr__(self, "order", order)
        if sorted(order) != list(range(1, len(order) + 1)):
            raise ValidationError("scan order %r is not a permutation of 1..d" % (order,))

    @property
    def d(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class RandomScan:
    """One coordinate updated per step, chosen with positive weights."""

    weights: tuple[float, ...]

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        object.__setattr__(self, "weights", w)
        if any(x <= 0 for x in w):
            raise ValidationError("every scan weight must be > 0, got %r" % (w,))
        if abs(sum(w) - 1.0) > WEIGHT_TOL:
            raise ValidationError("scan weights must sum to 1, got %.17g" % sum(w))

    @property
    def d(self) -> int:
        return len(self.weights)

    @classmethod
    def uniform(cls, d: int) -> "RandomScan":
        return cls((1.0 / d,) * d)


ScanSpec = Union[DeterministicScan, RandomScan]


def pi_kernel(pi_vec: np.ndarray) -> np.ndarray:
    """The rank-one kernel with every row equal to pi (the mean projector)."""
    pi_vec = np.asarray(pi_vec, dtype=float).reshape(-1)
    return np.tile(pi_vec, (pi_vec.shape[0], 1))


def small_step(i: int, pi: TargetDistribution, state_cap: int = DEFAULT_STATE_CAP) -> MarkovOperator:
    """The kernel resampling coordinate i (1-based) from pi(.|x_{-i}).

    As an operator on L2(pi) this is the orthogonal projection onto the
    subspace of functions constant in coordinate i.
    """
    d = pi.space.d
    if not 1 <= i <= d:
        raise ValidationError("coordinate index %d out of range 1..%d" % (i, d))
    check_state_cap(pi.space.total_states, state_cap)
    return MarkovOperator(_small_step_kernel(i, pi), pi.pmf, label="P_%d" % i)


def _small_step_kernel(i: int, pi: TargetDistribution) -> np.ndarray:
    dims = pi.space.dims
    n = pi.space.total_states
    axis = i - 1
    w = pi.as_tensor()
    cond = w / w.sum(axis=axis, keepdims=True)
    # kernel(x, y) = cond(y_i | x_{-i}) if y_{-i} == x_{-i} else 0; each row
    # of `cells` holds the flat states of one x_{-i} cell, in y_i order
    cells = np.moveaxis(np.arange(n).reshape(dims), axis, -1).reshape(-1, dims[axis])
    cond_rows = np.moveaxis(cond, axis, -1).reshape(cells.shape)
    kernel = np.zeros((n, n))
    kernel[cells[:, :, None], cells[:, None, :]] = cond_rows[:, None, :]
    return kernel


def _checked_scan(spec, kind: type, pi: TargetDistribution, state_cap: int):
    """spec as a `kind` scan, after checking its length and the state cap."""
    scan = spec if isinstance(spec, kind) else kind(tuple(spec))
    if scan.d != pi.space.d:
        raise ValidationError("scan has %d coordinates, target has %d" % (scan.d, pi.space.d))
    check_state_cap(pi.space.total_states, state_cap)
    return scan


def _sweep(path: Sequence[int], step: Callable[[int], np.ndarray]) -> np.ndarray:
    """Kernel of the small steps P_path[0], ..., P_path[-1] run in time order."""
    kernel = step(path[0])
    for i in path[1:]:
        kernel = kernel @ step(i)
    return kernel


def _step_source(pi: TargetDistribution, steps) -> Callable[[int], np.ndarray]:
    """i -> the dense kernel of P_i: `steps[i - 1]` densified, else built.

    `steps` are sparse, so either way a sweep holds at most three dense
    kernels at once.
    """
    if steps is None:
        return lambda i: _small_step_kernel(i, pi)
    return lambda i: steps[i - 1].toarray()


def dsg(sigma: Sequence[int], pi: TargetDistribution,
        state_cap: int = DEFAULT_STATE_CAP, *, steps=None) -> MarkovOperator:
    """Deterministic scan: one full sweep updating sigma(1) first, sigma(d) last.

    ``steps``, the sparse kernels of P_1..P_d of pi (``Spectra.steps``),
    skips building them again.
    """
    scan = _checked_scan(sigma, DeterministicScan, pi, state_cap)
    return MarkovOperator(_sweep(scan.order, _step_source(pi, steps)), pi.pmf,
                          label="DSG sigma=%s" % (scan.order,))


def rsg(weights: Union[RandomScan, Sequence[float]], pi: TargetDistribution,
        state_cap: int = DEFAULT_STATE_CAP, *, steps=None) -> MarkovOperator:
    """Random scan: the convex combination sum_i w_i P_i; reversible w.r.t. pi."""
    scan = _checked_scan(weights, RandomScan, pi, state_cap)
    step = _step_source(pi, steps)
    kernel = np.zeros((pi.space.total_states,) * 2)
    for i, w in enumerate(scan.weights, start=1):
        kernel += w * step(i)
    return MarkovOperator(kernel, pi.pmf, label="RSG w=%s" % (scan.weights,))


def symmetrized_sweep(sigma: Sequence[int], pi: TargetDistribution,
                      state_cap: int = DEFAULT_STATE_CAP, *, steps=None) -> MarkovOperator:
    """The palindromic sweep sigma(1),...,sigma(d),sigma(d-1),...,sigma(1).

    Self-adjoint in L2(pi): it is T* T for the plain sweep T up to the
    idempotence of the middle factor.
    """
    scan = _checked_scan(sigma, DeterministicScan, pi, state_cap)
    path = scan.order + scan.order[-2::-1]
    return MarkovOperator(_sweep(path, _step_source(pi, steps)), pi.pmf,
                          label="SYM sigma=%s" % (scan.order,))


def scan_operator(pi: TargetDistribution, scan: ScanSpec, **kw) -> MarkovOperator:
    """The dense kernel a scan simulates: full sweep for DSG, one update for RSG."""
    if isinstance(scan, DeterministicScan):
        return dsg(scan, pi, **kw)
    if isinstance(scan, RandomScan):
        return rsg(scan, pi, **kw)
    raise ValidationError("unknown scan spec %r" % (scan,))


def adjoint(op: MarkovOperator) -> MarkovOperator:
    """Time reversal: P*(x, y) = pi(y) P(y, x) / pi(x); the L2(pi) adjoint."""
    pi = op.stationary
    kernel = op.kernel.T * pi[None, :] / pi[:, None]
    return MarkovOperator(kernel, pi, label="adjoint(%s)" % op.label)


def additive_reversibilization(op: MarkovOperator) -> MarkovOperator:
    """(P + P*) / 2; reversible w.r.t. the stationary law by construction."""
    rev = adjoint(op)
    return MarkovOperator(0.5 * (op.kernel + rev.kernel), op.stationary,
                          label="reversibilization(%s)" % op.label)


def is_reversible(op: MarkovOperator, tol: float = STOCHASTICITY_TOL) -> bool:
    """Detailed balance check pi(x) P(x,y) = pi(y) P(y,x) within tol."""
    flow = op.stationary[:, None] * op.kernel
    return bool(np.abs(flow - flow.T).max() <= tol)


def _centered_conjugated(op: MarkovOperator) -> np.ndarray:
    """D^{1/2} (P - Pi) D^{-1/2}; its singular values give the L2(pi) norm."""
    pi = op.stationary
    s = np.sqrt(pi)
    centered = op.kernel - pi_kernel(pi)
    return centered * s[:, None] / s[None, :]


def l2_norm_centered(op: MarkovOperator) -> float:
    """||P - Pi|| in L2(pi); always <= 1 for a stationary Markov kernel."""
    a = _centered_conjugated(op)
    try:
        svals = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError("SVD failed for %s: %s" % (op.label, exc)) from exc
    return float(svals[0]) if svals.size else 0.0


def spectral_radius_centered(op: MarkovOperator) -> float:
    """Largest eigenvalue modulus of P - Pi (complex eigenvalues allowed)."""
    pi = op.stationary
    centered = op.kernel - pi_kernel(pi)
    try:
        if is_reversible(op):
            a = _centered_conjugated(op)
            vals = np.linalg.eigvalsh(0.5 * (a + a.T))
        else:
            vals = np.linalg.eigvals(centered)
    except np.linalg.LinAlgError as exc:
        raise NumericError("eigensolver failed for %s: %s" % (op.label, exc)) from exc
    return float(np.abs(vals).max()) if vals.size else 0.0


class Spectra:
    """Centered norms and radii of the DSG, RSG and palindromic scans of pi.

    The state cap is checked once, on creation.  The d small steps are built
    once, on first use, and held sparse; every scan kernel is composed from
    them.  Values are memoized as floats (no scan kernel is kept);
    ``norm_and_radius`` takes both from one build of the operator.
    """

    def __init__(self, pi: TargetDistribution, state_cap: int = DEFAULT_STATE_CAP):
        check_state_cap(pi.space.total_states, state_cap)
        self.pi = pi
        self.state_cap = state_cap
        self._memo: dict = {}

    @functools.cached_property
    def steps(self) -> tuple[scipy.sparse.csr_array, ...]:
        """The kernels of P_1..P_d as sparse arrays (n * dims[i] nonzeros each)."""
        return tuple(scipy.sparse.csr_array(_small_step_kernel(i, self.pi))
                     for i in range(1, self.pi.space.d + 1))

    def norm(self, scan: ScanSpec) -> float:
        """||K - Pi|| for the kernel K that the scan simulates."""
        return self._measure("scan", scan, ("norm",))[0]

    def radius(self, scan: ScanSpec) -> float:
        """rho(K - Pi) for the kernel K that the scan simulates."""
        return self._measure("scan", scan, ("radius",))[0]

    def norm_and_radius(self, scan: ScanSpec) -> tuple[float, float]:
        return self._measure("scan", scan, ("norm", "radius"))

    def sym_norm(self, sigma: Sequence[int]) -> float:
        """||S - Pi|| for the palindromic sweep S of the update order sigma."""
        return self._measure("sym", DeterministicScan(tuple(sigma)), ("norm",))[0]

    def _measure(self, kind: str, scan: ScanSpec, names: tuple) -> tuple:
        missing = [name for name in names if (kind, scan, name) not in self._memo]
        if missing:
            kw = {"state_cap": self.state_cap, "steps": self.steps}
            op = (symmetrized_sweep(scan, self.pi, **kw) if kind == "sym"
                  else scan_operator(self.pi, scan, **kw))
            for name in missing:
                self._memo[kind, scan, name] = (l2_norm_centered(op) if name == "norm"
                                                else spectral_radius_centered(op))
        return tuple(self._memo[kind, scan, name] for name in names)


def power_norm_sequence(op: MarkovOperator, n_max: int) -> list[float]:
    """[||P^n - Pi|| for n = 1..n_max]; non-increasing and <= ||P - Pi||^n."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1, got %d" % n_max)
    a = _centered_conjugated(op)
    out = []
    power = np.eye(a.shape[0])
    for _ in range(n_max):
        power = power @ a
        svals = np.linalg.svd(power, compute_uv=False)
        out.append(float(svals[0]))
    return out


def operator_report(op: MarkovOperator) -> dict:
    """Structured invariant-check report for an operator."""
    flow = op.stationary[:, None] * op.kernel
    return {
        "label": op.label,
        "n_states": op.n_states,
        "row_sum_error": float(np.abs(op.kernel.sum(axis=1) - 1.0).max()),
        "stationarity_error": float(np.abs(op.stationary @ op.kernel - op.stationary).max()),
        "detailed_balance_error": float(np.abs(flow - flow.T).max()),
        "reversible": is_reversible(op),
    }

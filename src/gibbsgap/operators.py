"""Markov operators on L2(pi) as dense transition tables.

Every scan is built from the small steps P_1..P_d: ``dsg`` multiplies them
along an update path, ``rsg`` mixes them.  Each step is densified on demand
from the target's table of full conditionals (``TargetDistribution.conditionals``),
so ``dsg`` holds at most three dense kernels at once: the product so far, the
next step and their product.  ``sweep_spectra`` measures the sweeps a command
reads in one stateless pass, one sweep per symmetry class (a sweep's norm is
its reverse's, its radius that of every rotation and reversal): it stacks a
chunk of kernels, built as ``dsg`` builds them from small steps densified once
per call where they fit its byte budget, and solves the chunk by one
``eigvals`` and one SVD call.  It takes no random scan: ``analyze`` takes
their norms from the inclination's forms (``geometry.inclination``), ``sweep``
and ``sample`` from ``l2_norm_centered`` of the ``rsg`` kernel.  No command
needs the palindromic ``symmetrized_sweep``: it is D D* for the sweep D, so
its centered norm is ||D - Pi||^2.  It stays as a hook of perfbench's tracer
and as the tests' oracle.

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
binary pair with epsilon = 0.25: c = 0.5, norm 0.5, radius 0.25).  A random
scan's radius is its norm, chosen by the scan's type; any other radius is dense
``eigvals`` of D^{1/2} (P - Pi) D^{-1/2}, symmetric when P is reversible, and
uncertified: eigenvalues of a strongly non-normal kernel are ill-conditioned
(see ``counterexample.ladder_gap`` for the ladder chain).
A solver that fails raises numpy's ``LinAlgError`` unwrapped.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ValidationError
from .measure import TargetDistribution

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

    def __post_init__(self):
        kernel = np.array(self.kernel, dtype=float)  # a fresh array, safe to clamp and freeze
        pi = np.asarray(self.stationary, dtype=float).reshape(-1)
        n = pi.shape[0]
        if kernel.shape != (n, n):
            raise ValidationError(
                "kernel shape %r does not match stationary law of length %d" % (kernel.shape, n)
            )
        if not np.all(pi > 0):
            raise ValidationError("stationary law must have full support")
        _check_kernels(kernel, pi)
        kernel.flags.writeable = False
        pi = pi.copy()
        pi.flags.writeable = False
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "stationary", pi)

    @property
    def n_states(self) -> int:
        return self.stationary.shape[0]


def _check_kernels(kernels: np.ndarray, pi: np.ndarray) -> None:
    """Clamp the dust of one kernel or a (k, n, n) stack of them to 0, in place.

    Each kernel in turn must have no entry below -NEGATIVE_DUST_TOL, rows
    summing to 1 and pi stationary, both within STOCHASTICITY_TOL; the first
    kernel to fail a check raises its ValidationError.
    """
    lows = kernels.min(axis=(-2, -1))
    np.clip(kernels, 0.0, None, out=kernels)
    row_errs = np.abs(kernels.sum(axis=-1) - 1.0).max(axis=-1)
    stat_errs = np.abs(pi @ kernels - pi).max(axis=-1)
    errs = (np.ravel(e).tolist() for e in (lows, row_errs, stat_errs))
    for low, row_err, stat_err in zip(*errs):
        if low < -NEGATIVE_DUST_TOL:
            raise ValidationError("kernel has entry %g below the dust tolerance" % low)
        # "not err <= tol", so that a NaN entry fails the checks
        if not row_err <= STOCHASTICITY_TOL:
            raise ValidationError("kernel rows sum to 1 only within %g" % row_err)
        if not stat_err <= STOCHASTICITY_TOL:
            raise ValidationError("stationarity violated: max |pi^T P - pi^T| = %g" % stat_err)


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
        for i, x in enumerate(w, start=1):
            if not 0.0 < x < math.inf:  # also refuses NaN
                raise ValidationError("scan weight %d is %r; every weight must be finite "
                                      "and > 0, got %r" % (i, x, w))
        if abs(sum(w) - 1.0) > WEIGHT_TOL:
            raise ValidationError("scan weights must sum to 1, got %.17g" % sum(w))

    @property
    def d(self) -> int:
        return len(self.weights)

    @classmethod
    def uniform(cls, d: int) -> "RandomScan":
        return cls((1.0 / d,) * d)


ScanSpec = Union[DeterministicScan, RandomScan]


def small_step(i: int, pi: TargetDistribution) -> MarkovOperator:
    """The kernel resampling coordinate i (1-based) from pi(.|x_{-i}).

    As an operator on L2(pi) this is the orthogonal projection onto the
    subspace of functions constant in coordinate i.
    """
    d = pi.space.d
    if not 1 <= i <= d:
        raise ValidationError("coordinate index %d out of range 1..%d" % (i, d))
    return MarkovOperator(_small_step_kernel(i, pi), pi.pmf)


def _small_step_kernel(i: int, pi: TargetDistribution) -> np.ndarray:
    """The dense kernel of P_i, from the target's table of full conditionals."""
    # kernel(x, y) = pi(y_i | x_{-i}) if y_{-i} == x_{-i} else 0
    cells, cond = pi.conditionals[i - 1]
    kernel = np.zeros((cells.size,) * 2)
    kernel[cells[:, :, None], cells[:, None, :]] = cond[:, None, :]
    return kernel


def _checked_scan(spec, kind: type, pi: TargetDistribution):
    """spec as a `kind` scan, after checking its length against the target."""
    scan = spec if isinstance(spec, kind) else kind(tuple(spec))
    if scan.d != pi.space.d:
        raise ValidationError("scan has %d coordinates, target has %d" % (scan.d, pi.space.d))
    return scan


def _sweep(path: Sequence[int], step) -> np.ndarray:
    """Kernel of the small steps P_path[0], ..., P_path[-1] run in time order,
    with P_i = step(i)."""
    kernel = step(path[0])
    for i in path[1:]:
        kernel = kernel @ step(i)
    return kernel


def _mix(weights: Sequence[float], step) -> np.ndarray:
    """Kernel of the random scan sum_i w_i P_i, summed for i = 1..d, with P_i = step(i)."""
    kernel = weights[0] * step(1)
    for i, w in enumerate(weights[1:], start=2):
        kernel += w * step(i)
    return kernel


def dsg(sigma: Sequence[int], pi: TargetDistribution) -> MarkovOperator:
    """Deterministic scan: one full sweep updating sigma(1) first, sigma(d) last."""
    scan = _checked_scan(sigma, DeterministicScan, pi)
    return MarkovOperator(_sweep(scan.order, functools.partial(_small_step_kernel, pi=pi)),
                          pi.pmf)


def rsg(weights: Union[RandomScan, Sequence[float]], pi: TargetDistribution) -> MarkovOperator:
    """Random scan: the convex combination sum_i w_i P_i; reversible w.r.t. pi."""
    scan = _checked_scan(weights, RandomScan, pi)
    return MarkovOperator(_mix(scan.weights, functools.partial(_small_step_kernel, pi=pi)),
                          pi.pmf)


def symmetrized_sweep(sigma: Sequence[int], pi: TargetDistribution) -> MarkovOperator:
    """The palindromic sweep sigma(1),...,sigma(d),sigma(d-1),...,sigma(1).

    Self-adjoint in L2(pi): it is T* T for the plain sweep T up to the
    idempotence of the middle factor.
    """
    scan = _checked_scan(sigma, DeterministicScan, pi)
    path = scan.order + scan.order[-2::-1]
    return MarkovOperator(_sweep(path, functools.partial(_small_step_kernel, pi=pi)),
                          pi.pmf)


def scan_operator(pi: TargetDistribution, scan: ScanSpec) -> MarkovOperator:
    """The dense kernel a scan simulates: full sweep for DSG, one update for RSG."""
    if isinstance(scan, DeterministicScan):
        return dsg(scan, pi)
    if isinstance(scan, RandomScan):
        return rsg(scan, pi)
    raise ValidationError("unknown scan spec %r" % (scan,))


def adjoint(op: MarkovOperator) -> MarkovOperator:
    """Time reversal: P*(x, y) = pi(y) P(y, x) / pi(x); the L2(pi) adjoint."""
    pi = op.stationary
    kernel = op.kernel.T * pi[None, :] / pi[:, None]
    return MarkovOperator(kernel, pi)


def additive_reversibilization(op: MarkovOperator) -> MarkovOperator:
    """(P + P*) / 2; reversible w.r.t. the stationary law by construction."""
    rev = adjoint(op)
    return MarkovOperator(0.5 * (op.kernel + rev.kernel), op.stationary)


def is_reversible(op: MarkovOperator) -> bool:
    """Detailed balance pi(x) P(x,y) = pi(y) P(y,x): D^{1/2} (P - Pi) D^{-1/2} is symmetric
    within STOCHASTICITY_TOL.  Unlike the flows, its entries do not shrink with pi."""
    a = _centered_conjugated(op.kernel, op.stationary)
    return bool(np.abs(a - a.T).max() <= STOCHASTICITY_TOL)


def _centered_conjugated(kernels: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """D^{1/2} (P - Pi) D^{-1/2} for one kernel P or each of a stack; its singular
    values give the L2(pi) norm."""
    s = np.sqrt(pi)
    return (kernels - pi) * s[:, None] / s[None, :]


def _norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value of a matrix, or of each matrix of a stack in one call."""
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def _radii(a: np.ndarray) -> np.ndarray:
    """Largest eigenvalue modulus of a matrix, or of each matrix of a stack in one call."""
    return np.abs(np.linalg.eigvals(a)).max(axis=-1)


def l2_norm_centered(op: MarkovOperator) -> float:
    """||P - Pi|| in L2(pi); always <= 1 for a stationary Markov kernel."""
    return float(_norms(_centered_conjugated(op.kernel, op.stationary)))


def spectral_radius_centered(op: MarkovOperator) -> float:
    """Largest eigenvalue modulus of P - Pi (complex eigenvalues allowed), from
    the similar matrix D^{1/2} (P - Pi) D^{-1/2}, symmetric when P is reversible."""
    return float(_radii(_centered_conjugated(op.kernel, op.stationary)))


#: Bytes of dense kernels that one chunk of a ``sweep_spectra`` pass may hold.
_STACK_BYTES = 1 << 20


def _symmetry_class(scan: DeterministicScan, name: str) -> tuple[tuple[int, ...], str]:
    """The (order, name) request whose value a sweep's (scan, name) request
    shares: a sweep's norm is its reverse's, and its radius that of every
    rotation and reversal."""
    order = scan.order
    turns = [order[k:] + order[:k] for k in range(len(order))] if name == "radius" else [order]
    return min(min(turn, turn[::-1]) for turn in turns), name


def sweep_spectra(pi: TargetDistribution,
                  requests: Sequence[tuple[DeterministicScan, str]]) -> list[float]:
    """The value of each (sweep, "norm" or "radius") request, in one pass.

    pi is taken as given: the command that loaded it has already checked it
    against the state cap.  Every request is checked before any kernel is
    built; a random scan is refused.  A request is measured on its symmetry
    class's representative: a sweep's norm on the lesser of its order and the
    reversed order (the reversed sweep is its L2(pi) adjoint), a sweep's
    radius on the least of the 2d rotations and reversals of its order (AB
    and BA share their nonzero spectrum).  Each chunk of the representatives'
    kernels, built as ``dsg`` builds them, is stacked as one (k, n, n) array,
    checked as ``MarkovOperator`` checks one kernel, and solved by one
    ``eigvals`` call for its radii and one SVD call for its norms.  Stacked
    LAPACK calls give the bits of per-matrix calls, so each value equals
    ``spectral_radius_centered`` or ``l2_norm_centered`` of the
    representative's operator, and every request of a class gets that float.

    The chunks fit _STACK_BYTES, three n x n arrays per sweep.  Where all d
    small steps fit beside one sweep, each is densified once per call and
    kept for it; otherwise at each use, so a kernel above the budget is
    measured one sweep at a time with about three n x n arrays, as ``dsg``
    builds it.  Nothing is kept between calls.
    """
    for scan, _ in requests:
        if not isinstance(scan, DeterministicScan):
            raise ValidationError("sweep_spectra measures sweeps only, got %r" % (scan,))
        _checked_scan(scan, DeterministicScan, pi)
    classes = [_symmetry_class(scan, name) for scan, name in requests]
    wanted: dict = {}
    for order, name in classes:
        wanted.setdefault(order, set()).add(name)
    orders = list(wanted)
    d, n = pi.space.d, pi.space.total_states
    units = _STACK_BYTES // (8 * n * n)
    step = functools.partial(_small_step_kernel, pi=pi)
    if units >= d + 3:  # all d small steps fit beside one sweep: keep them
        step = functools.cache(step)
        units -= d
    size = max(1, units // 3)
    values = {}
    for start in range(0, len(orders), size):
        chunk = orders[start:start + size]
        kernels = np.stack([_sweep(order, step) for order in chunk])
        _check_kernels(kernels, pi.pmf)
        a = _centered_conjugated(kernels, pi.pmf)
        del kernels
        for name, solve in (("radius", _radii), ("norm", _norms)):
            rows = [j for j, order in enumerate(chunk) if name in wanted[order]]
            if rows:
                values.update(((chunk[j], name), value)
                              for j, value in zip(rows, solve(a[rows]).tolist()))
        del a  # the next chunk's stack is built without this one
    return [values[request] for request in classes]

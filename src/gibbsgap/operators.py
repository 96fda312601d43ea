"""Markov operators on L2(pi) as dense transition tables.

Every scan is built from the small steps P_1..P_d: ``dsg`` multiplies them
along an update path, ``rsg`` mixes them.  Each step is densified on demand
from the target's table of full conditionals (``TargetDistribution.conditionals``),
so a sweep holds at most three dense kernels at once.  ``Spectra`` serves the
norms and radii of all scans of one target.  No command needs the palindromic
``symmetrized_sweep``: it is D D* for the sweep D, so its centered norm is
||D - Pi||^2.  It stays as a hook of perfbench's tracer and as the tests' oracle.

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
        kernel = np.asarray(self.kernel, dtype=float)
        pi = np.asarray(self.stationary, dtype=float).reshape(-1)
        n = pi.shape[0]
        if kernel.shape != (n, n):
            raise ValidationError(
                "kernel shape %r does not match stationary law of length %d" % (kernel.shape, n)
            )
        if not np.all(pi > 0):
            raise ValidationError("stationary law must have full support")
        low = kernel.min()
        if low < -NEGATIVE_DUST_TOL:
            raise ValidationError("kernel has entry %g below the dust tolerance" % low)
        kernel = np.clip(kernel, 0.0, None)  # a fresh array, safe to freeze
        # "not err <= tol", so that a NaN entry fails the checks
        row_err = np.abs(kernel.sum(axis=1) - 1.0).max()
        if not row_err <= STOCHASTICITY_TOL:
            raise ValidationError("kernel rows sum to 1 only within %g" % row_err)
        stat_err = np.abs(pi @ kernel - pi).max()
        if not stat_err <= STOCHASTICITY_TOL:
            raise ValidationError("stationarity violated: max |pi^T P - pi^T| = %g" % stat_err)
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


def _sweep(path: Sequence[int], pi: TargetDistribution) -> np.ndarray:
    """Kernel of the small steps P_path[0], ..., P_path[-1] run in time order."""
    kernel = _small_step_kernel(path[0], pi)
    for i in path[1:]:
        kernel = kernel @ _small_step_kernel(i, pi)
    return kernel


def dsg(sigma: Sequence[int], pi: TargetDistribution) -> MarkovOperator:
    """Deterministic scan: one full sweep updating sigma(1) first, sigma(d) last."""
    scan = _checked_scan(sigma, DeterministicScan, pi)
    return MarkovOperator(_sweep(scan.order, pi), pi.pmf)


def rsg(weights: Union[RandomScan, Sequence[float]], pi: TargetDistribution) -> MarkovOperator:
    """Random scan: the convex combination sum_i w_i P_i; reversible w.r.t. pi."""
    scan = _checked_scan(weights, RandomScan, pi)
    kernel = np.zeros((pi.space.total_states,) * 2)
    for i, w in enumerate(scan.weights, start=1):
        kernel += w * _small_step_kernel(i, pi)
    return MarkovOperator(kernel, pi.pmf)


def symmetrized_sweep(sigma: Sequence[int], pi: TargetDistribution) -> MarkovOperator:
    """The palindromic sweep sigma(1),...,sigma(d),sigma(d-1),...,sigma(1).

    Self-adjoint in L2(pi): it is T* T for the plain sweep T up to the
    idempotence of the middle factor.
    """
    scan = _checked_scan(sigma, DeterministicScan, pi)
    path = scan.order + scan.order[-2::-1]
    return MarkovOperator(_sweep(path, pi), pi.pmf)


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
    a = _centered_conjugated(op)
    return bool(np.abs(a - a.T).max() <= STOCHASTICITY_TOL)


def _centered_conjugated(op: MarkovOperator) -> np.ndarray:
    """D^{1/2} (P - Pi) D^{-1/2}; its singular values give the L2(pi) norm."""
    pi = op.stationary
    s = np.sqrt(pi)
    return (op.kernel - pi) * s[:, None] / s[None, :]


def l2_norm_centered(op: MarkovOperator) -> float:
    """||P - Pi|| in L2(pi); always <= 1 for a stationary Markov kernel."""
    return float(np.linalg.svd(_centered_conjugated(op), compute_uv=False)[0])


def spectral_radius_centered(op: MarkovOperator) -> float:
    """Largest eigenvalue modulus of P - Pi (complex eigenvalues allowed), from
    the similar matrix D^{1/2} (P - Pi) D^{-1/2}, symmetric when P is reversible."""
    return float(np.abs(np.linalg.eigvals(_centered_conjugated(op))).max())


class Spectra:
    """Centered norms and radii of the DSG and RSG scans of pi.

    pi is taken as given: the command that loaded it has already checked it
    against the state cap.  Values are memoized as floats (no scan kernel is
    kept); ``norm_and_radius`` takes both from one build of the operator.  A
    random scan's radius is its norm: one build, one SVD.
    """

    def __init__(self, pi: TargetDistribution):
        self.pi = pi
        self._memo: dict = {}

    def norm(self, scan: ScanSpec) -> float:
        """||K - Pi|| for the kernel K that the scan simulates."""
        return self._measure(scan, ("norm",))[0]

    def radius(self, scan: ScanSpec) -> float:
        """rho(K - Pi) for the kernel K that the scan simulates."""
        return self._measure(scan, ("radius",))[0]

    def norm_and_radius(self, scan: ScanSpec) -> tuple[float, float]:
        return self._measure(scan, ("norm", "radius"))

    def _measure(self, scan: ScanSpec, names: tuple) -> tuple:
        if isinstance(scan, RandomScan):  # self-adjoint in L2(pi)
            names = ("norm",) * len(names)
        missing = [name for name in dict.fromkeys(names) if (scan, name) not in self._memo]
        if missing:
            op = scan_operator(self.pi, scan)
            for name in missing:
                self._memo[scan, name] = (l2_norm_centered(op) if name == "norm"
                                          else spectral_radius_centered(op))
        return tuple(self._memo[scan, name] for name in names)

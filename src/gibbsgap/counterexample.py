"""The truncated ladder chain: geometrically ergodic both ways, but with a
reversibilization whose conductance (and hence gap) collapses.

State space: the origin (0, 0) plus rungs (n, k) with 1 <= k <= n <= N,
flat-enumerated origin first, then (1,1), (2,1), (2,2), (3,1), ... with n
ascending and k ascending inside each n; 1 + N(N+1)/2 states in total.

Dynamics: from the origin jump to (n, n) with probability p(n) (n = 0 maps
back to the origin); from (n, k) walk deterministically down to (n, k-1)
and from (n, 1) back to the origin.  The jump law p is geometric with ratio
q, renormalized to {0..N}; the stationary law is flat across each rung:
pi(0,0) = 1/E[tau], pi(n, k) = p(n)/E[tau] with E[tau] = sum (n+1) p(n).

Spectrum of P: the chain is a renewal chain (return time n + 1 to the origin
with probability p(n)), so the nonzero eigenvalues of P are the roots of the
renewal polynomial  lambda^(N+1) - sum_n p(n) lambda^(N-n),  one of them
lambda = 1, and the time reversal P* has the same spectrum.  ``ladder_gap``
takes gap(P) = gap(P*) from those roots.  The kernel is strongly non-normal,
so its dense eigenvalues are ill-conditioned (off by up to 7e-2 at N = 80)
and are not used for it.

Spectrum of K = (P + P*)/2, without a matrix: under K each rung n closes
with the origin into a cycle of n + 1 states walked with weight 1/2 each way
(rung 1 steps back with weight 1), and the origin holds with p(0) and enters
rung n at either end with p(n)/2.  S = D^{1/2} K D^{-1/2} splits into two
exact families.
  - Antisymmetric rung modes (odd under k -> n+1-k, so zero at the origin):
    eigenvalues cos(2 pi k/(n+1)), k = 1..floor(n/2), n = 2..N; the largest
    modulus is cos(pi/(N_e+1)), N_e the largest even n <= N.
  - Symmetric modes: folding each rung at its middle leaves a "spider" tree
    of 1 + sum ceil(n/2) nodes.  The origin has diagonal p(0); leg n has
    ceil(n/2) nodes with zero diagonal, joined by 1/2, and is coupled to the
    origin by sqrt(p(n)/2).  The edge into an odd rung's middle state carries
    a factor sqrt(2) (so rung 1's one node is coupled by sqrt(p(1))), and an
    even rung's folded tip has diagonal 1/2.
The spider's eigenvalues below a shift are counted exactly by leaf-to-root
LDL^T elimination (Sylvester's law of inertia; Jacobs & Trevisan, "Locating
the eigenvalues of trees", LAA 434 (2011)).  A leg's pivots, taken from its
tip, depend only on the rung's parity and the depth, so one recursion per
parity serves all legs: O(N) per shift.  ``ladder_reversible_gap`` brackets
the second-largest and the smallest spider eigenvalue by multisection.

Conductance of K in closed form: the flow out of rung n is p(n)/E[tau], so
the rung cut has 1/(n (1 - n p(n)/E[tau])), the origin singleton
(1 - p(0))/(1 - 1/E[tau]), and each state of rung n 1/(1 - p(n)/E[tau]).

``build_ladder`` and ``conductance`` build and read the dense kernel; the
commands do not call them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .operators import MarkovOperator, is_reversible

# shifts per multisection round, and the pivot that stands in for an exact zero
_MULTISECTION_POINTS = 63
_PIVMIN = np.finfo(float).tiny


@dataclass(frozen=True)
class LadderChainSpec:
    """Truncated ladder chain with geometric jump distribution p on {0..N}."""

    N: int
    q: float = 0.5

    def __post_init__(self):
        if self.N < 1:
            raise ValidationError("truncation N must be >= 1, got %d" % self.N)
        if not 0.0 < self.q < 1.0:
            raise ValidationError("geometric ratio q must lie in (0, 1), got %g" % self.q)

    @property
    def n_states(self) -> int:
        return 1 + self.N * (self.N + 1) // 2

    def jump_pmf(self) -> np.ndarray:
        """p(n) proportional to q^n, renormalized to {0..N}."""
        p = (1.0 - self.q) * self.q ** np.arange(self.N + 1)
        return p / p.sum()

    def state_index(self, n: int, k: int) -> int:
        """Flat index of (n, k); (0, 0) is state 0."""
        if n == 0 and k == 0:
            return 0
        if not (1 <= k <= n <= self.N):
            raise ValidationError("invalid ladder state (%d, %d)" % (n, k))
        return 1 + n * (n - 1) // 2 + (k - 1)

    def rung(self, n: int) -> list[int]:
        """Flat indices of the cut A_n = {(n, k): k = 1..n}."""
        return [self.state_index(n, k) for k in range(1, n + 1)]


def _geometric_mass(spec: LadderChainSpec) -> float:
    """1 - q^(N+1), the normalizer of p(n) = (1 - q) q^n / (1 - q^(N+1))."""
    return -math.expm1((spec.N + 1) * math.log(spec.q))


def _expected_return_time(p: np.ndarray) -> float:
    """E[tau] = sum_n (n + 1) p(n)."""
    return float(np.sum((np.arange(p.size) + 1) * p))


def ladder_stationary(spec: LadderChainSpec) -> np.ndarray:
    """Closed-form stationary law; flat across each rung."""
    p = spec.jump_pmf()
    e_tau = _expected_return_time(p)
    pi = np.empty(spec.n_states)
    pi[0] = 1.0 / e_tau
    for n in range(1, spec.N + 1):
        pi[spec.rung(n)] = p[n] / e_tau
    return pi


def build_ladder(spec: LadderChainSpec) -> MarkovOperator:
    """The ladder kernel; stationarity of the closed-form law is validated
    by the MarkovOperator constructor."""
    p = spec.jump_pmf()
    m = spec.n_states
    kernel = np.zeros((m, m))
    kernel[0, 0] = p[0]
    for n in range(1, spec.N + 1):
        kernel[0, spec.state_index(n, n)] = p[n]
        for k in range(2, n + 1):
            kernel[spec.state_index(n, k), spec.state_index(n, k - 1)] = 1.0
        kernel[spec.state_index(n, 1), 0] = 1.0
    return MarkovOperator(kernel, ladder_stationary(spec))


def return_time_moment(spec: LadderChainSpec, b: float) -> float:
    """E[b^tau | X_0 = origin] = sum_n b^(n+1) p(n) for the truncated jump law.

    The sum is b(1-q)/(1 - q^(N+1)) sum_n (bq)^n, summed as powers of bq so
    that neither b^(n+1) overflows nor p(n) underflows on its own.  The float
    product x = fl(bq) is off by its rounding error e, which x^n would
    multiply by n, so each power is scaled back by (1 + e/x)^n.  A sum past
    the float range raises ValidationError.  (The untruncated moment is
    finite iff b q < 1.)
    """
    if not 1.0 < b < math.inf:
        raise ValidationError("b must be a finite number > 1, got %g" % b)
    x = b * spec.q
    slip = math.log1p(float(Fraction(b) * Fraction(spec.q) - Fraction(x)) / x)
    n = np.arange(spec.N + 1.0)
    with np.errstate(over="ignore"):
        terms = x ** n * np.exp(n * slip)
        value = float(b * (1.0 - spec.q) / _geometric_mass(spec) * np.sum(terms))
    if not math.isfinite(value):
        raise ValidationError("E[b^tau] for b = %g at N = %d exceeds the float range"
                              % (b, spec.N))
    return value


def ladder_gap(spec: LadderChainSpec) -> tuple[float, float]:
    """(gap, root residual) of the ladder kernel P, which is also the gap of P*.

    The roots of the renewal polynomial are found with the substitution
    lambda = q / nu: nu solves g(nu) = sum_n p(n) q^-(n+1) nu^(n+1) - 1 = 0,
    and for the geometric law every coefficient p(n) q^-(n+1) is the same
    (1-q) / (q (1 - q^(N+1))).  So the float64 companion solve is accurate
    where the one on the unscaled polynomial is not, and no coefficient
    underflows however small p(N) is.  One Newton step polishes the roots.  The
    residual is max over all roots of |1 - sum_n p(n) lambda^-(n+1)| = |g(nu)|.
    """
    q = spec.q
    coef = (1.0 - q) / (q * _geometric_mass(spec))
    g = np.append(np.full(spec.N + 1, coef), -1.0)
    nu = np.roots(g)
    nu = nu - np.polyval(g, nu) / np.polyval(np.polyder(g), nu)
    residual = float(np.abs(np.polyval(g, nu)).max())
    lam = q / nu
    others = np.delete(lam, np.argmin(np.abs(lam - 1.0)))
    return 1.0 - float(np.abs(others).max()), residual


def _spider_inertia(p: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Number of symmetric-mode eigenvalues of K below each shift.

    Leaf-to-root LDL^T of (spider - shift): ``piv[0, t]`` and ``piv[1, t]``
    are the pivots at depth t from the tip of an even and an odd leg.  The
    even leg ending at depth t is rung 2t + 2, the odd one rung 2t + 1.  A
    zero (or subnormal) pivot is replaced by -_PIVMIN, which counts the
    eigenvalues of a perturbation far below rounding.
    """
    N = p.size - 1
    s = np.asarray(shifts, dtype=float)
    depth = (N + 1) // 2
    piv = np.empty((2, depth, s.size))
    piv[:, 0] = [0.5 - s, -s]
    for t in range(depth):
        if t:
            off2 = np.array([[0.25], [0.5 if t == 1 else 0.25]])
            piv[:, t] = -s - off2 / piv[:, t - 1]
        row = piv[:, t]
        row[np.abs(row) < _PIVMIN] = -_PIVMIN
    below = np.cumsum(piv < 0.0, axis=1)
    legs = np.ones((2, depth), dtype=bool)
    legs[0, N // 2:] = False  # even rungs 2t + 2 <= N end at depths t < N // 2
    couple = np.zeros((2, depth))  # squared coupling of each leg to the origin
    couple[0, : N // 2] = p[2::2] / 2.0
    couple[1] = p[1::2] / 2.0
    couple[1, 0] = p[1]  # rung 1's one node is its middle state: the sqrt(2) fold
    root = p[0] - s - np.sum(couple[..., None] / piv, axis=(0, 1))
    return np.sum(below * legs[..., None], axis=(0, 1)) + (root < 0.0)


def ladder_reversible_gap(spec: LadderChainSpec) -> float:
    """gap(K) = 1 - max(lambda_2, -lambda_min, cos(pi/(N_e+1))) of K = (P + P*)/2.

    lambda_2 and lambda_min are the second-largest and the smallest spider
    eigenvalue, each bracketed by multisection on ``_spider_inertia`` until
    the bracket stops shrinking; cos(pi/(N_e+1)) is the largest modulus of the
    antisymmetric rung modes (none when N = 1).
    """
    p = spec.jump_pmf()
    size = 1 + sum((n + 1) // 2 for n in range(1, spec.N + 1))
    k = np.array([1, size - 1])  # 1-based ranks of lambda_min and lambda_2
    lo = np.full(2, -1.0 - 2.0 ** -30)
    hi = np.full(2, 1.0 + 2.0 ** -30)
    frac = np.arange(1, _MULTISECTION_POINTS + 1) / (_MULTISECTION_POINTS + 1.0)
    rows = np.arange(2)
    while True:
        grid = np.clip(lo[:, None] + (hi - lo)[:, None] * frac, lo[:, None], hi[:, None])
        counts = _spider_inertia(p, grid.ravel()).reshape(grid.shape)
        # keep count(lo) < k <= count(hi), so lambda_(k) lies in [lo, hi)
        reached = counts >= k[:, None]
        first = np.where(reached.any(axis=1), reached.argmax(axis=1), _MULTISECTION_POINTS)
        new_lo = np.where(first > 0, grid[rows, first - 1], lo)
        new_hi = np.where(first < _MULTISECTION_POINTS,
                          grid[rows, np.minimum(first, _MULTISECTION_POINTS - 1)], hi)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    lam_min, lam_2 = 0.5 * (lo + hi)
    n_even = spec.N - spec.N % 2
    rung = math.cos(math.pi / (n_even + 1)) if n_even else 0.0
    return 1.0 - max(lam_2, -lam_min, rung)


def ladder_conductance(spec: LadderChainSpec) -> tuple[float, np.ndarray, np.ndarray]:
    """Closed-form bottleneck ratios of K = (P + P*)/2 over the ladder cuts.

    Returns (minimum over all cuts, per-rung values for n = 1..N, singleton
    values): ``singletons[0]`` is the origin's and ``singletons[n]`` that of
    every state of rung n.  The origin's (1 - p(0))/(1 - 1/E[tau]) is taken
    as E[tau] sum_n p(n) / sum_n n p(n) over n >= 1, which does not cancel
    when p(0) is within rounding of 1.
    """
    p = spec.jump_pmf()
    e_tau = _expected_return_time(p)
    n = np.arange(1, spec.N + 1)
    rungs = 1.0 / (n * (1.0 - n * p[1:] / e_tau))
    singletons = np.empty(spec.N + 1)
    singletons[0] = e_tau * p[1:].sum() / (n @ p[1:])
    singletons[1:] = 1.0 / (1.0 - p[1:] / e_tau)
    return float(min(rungs.min(), singletons.min())), rungs, singletons


def conductance(K: MarkovOperator, cuts: Sequence[Sequence[int]]) -> tuple[float, list[float]]:
    """Bottleneck ratios of a reversible kernel over a family of cuts.

    Returns (minimum over the family, per-cut values).
    """
    if not is_reversible(K):
        raise ValidationError("conductance is defined here for reversible kernels only")
    pi = K.stationary
    m = K.n_states

    def value(idx: np.ndarray) -> float:
        mask = np.zeros(m, dtype=bool)
        mask[idx] = True
        pa = float(pi[mask].sum())
        pac = float(pi[~mask].sum())
        if pa <= 0.0 or pac <= 0.0:
            raise ValidationError("cut must have 0 < pi(A) < 1")
        flow = float((pi[mask, None] * K.kernel[np.ix_(mask, ~mask)]).sum())
        return flow / (pa * pac)

    per_cut = [value(np.asarray(c, dtype=int)) for c in cuts]
    kappa = min(per_cut) if per_cut else math.inf
    return kappa, per_cut


def reversibilization_gap_sweep(q: float, n_list: Sequence[int],
                                b_list: Sequence[float] = (1.5,)) -> list[dict]:
    """Per-truncation table: gaps of K, P, P* (with the root residual of
    ``ladder_gap``), ladder-cut conductance, and exponential return-time
    moments.  No kernel is built.

    Checks recorded per row: the reversible-side Cheeger consistency
    gap(K) <= 2 kappa, and the lower Cheeger value kappa^2/2 (reported, not
    asserted; constant conventions vary).
    """
    if any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ValidationError("truncations must be strictly increasing")
    rows = []
    for n_trunc in n_list:
        spec = LadderChainSpec(N=int(n_trunc), q=q)
        kappa, rung_values, _ = ladder_conductance(spec)
        gap_k = ladder_reversible_gap(spec)
        gap_p, residual = ladder_gap(spec)
        row = {
            "N": spec.N,
            "n_states": spec.n_states,
            "gap_K": gap_k,
            "gap_P": gap_p,
            "gap_P_star": gap_p,
            "root_residual": residual,
            "kappa_upper": kappa,
            "rung_conductance": rung_values.tolist(),
            "cheeger_upper_ok": bool(gap_k <= 2.0 * kappa + 1e-9),
            "cheeger_lower_value": kappa ** 2 / 2.0,
            "pi_origin": 1.0 / _expected_return_time(spec.jump_pmf()),
        }
        for b in b_list:
            row["moment_b%g" % b] = return_time_moment(spec, b)
            row["moment_b%g_analytic_finite" % b] = bool(b * spec.q < 1.0)
        rows.append(row)
    return rows

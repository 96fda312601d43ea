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
lambda = 1, and the time reversal P* has the same spectrum.  For the
geometric law, lambda = q/nu turns it into the monic
g(nu) = sum_{k=1}^{N+1} nu^k - c  with  c = q (1 - q^(N+1)) / (1 - q),  whose
root nu = q is lambda = 1.  Times (nu - 1) it is the trinomial
T(nu) = nu^(N+2) - (1 + c) nu + c, and one of its roots sets the gap
(Theobald & de Wolff, "Norms of roots of trinomials", Math. Ann. 366 (2016)):
  1. Only q lies inside the unit circle.  c = q + ... + q^(N+1) < N + 1, so on
     |nu| = 1 - eps, for eps small, |(1+c) nu - c| >= 1 - (1+c) eps
     > (1 - eps)^(N+2), and by Rouche T has one root inside, q.  On |nu| = 1
     only nu = 1 is a root, since |(1+c) nu - c| > 1 elsewhere.
  2. The roots lie on one curve.  For 0 <= theta <= pi the equation
     r^(N+2) = |(1+c) r e^(i theta) - c| has one solution r(theta) >= 1 (the
     r-derivative of the difference is at least (N+2) - (1+c) > 0), and
     r(theta) increases with theta.
  3. Phi(theta) = (N+2) theta - arg((1+c) r(theta) e^(i theta) - c) runs
     continuously from 0 at nu = 1 to (N+1) pi at theta = pi, and the roots
     on the curve are where Phi lies in 2 pi Z.  T is convex on the positive
     axis, so its real roots are q, 1 and, for odd N only, one negative root;
     the other floor(N/2) roots of the open upper half-plane meet the
     floor(N/2) levels 2 pi k in (0, (N+1) pi).  So Phi meets each level
     exactly once, in order, and k names the roots by increasing modulus.
  4. The k = 1 root nu_1 and its conjugate have the smallest modulus of all
     roots other than q and 1, and gap(P) = gap(P*) = 1 - q / |nu_1|.  For
     N = 1, nu_1 = -(1 + q) and gap(P) = 1 / (1 + q).
``ladder_gap`` finds nu_1 in O(1) work whatever N.  The kernel is strongly
non-normal, so its dense eigenvalues are ill-conditioned (off by up to 7e-2
at N = 80) and are not used for it.

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
parity serves all legs: O(N) float operations and no array per shift.
``ladder_reversible_gap`` counts once at -cos(pi/(N_e+1)) and once at
cos(pi/(N_e+1)).  Only a smallest or second-largest spider eigenvalue past
its shift can beat the rung modes, and only that one is found, by bisection
on the count down to adjacent floats (Barth, Martin & Wilkinson, Numer.
Math. 9 (1967)).

Conductance of K in closed form: the flow out of rung n is p(n)/E[tau], so
the rung cut has 1/(n (1 - n p(n)/E[tau])), the origin singleton
(1 - p(0))/(1 - 1/E[tau]), and each state of rung n 1/(1 - p(n)/E[tau]).

``build_ladder`` and ``conductance`` build and read the dense kernel; the
commands do not call them.
"""
from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .operators import MarkovOperator, is_reversible

# the pivot that stands in for an exact zero
_PIVMIN = np.finfo(float).tiny
# contraction and Newton steps before the renewal root counts as not found;
# the contraction hands over to Newton at a step below _CONTRACTION_RTOL |u|,
# and Newton stops at one below _ROOT_RTOL |nu|
_ROOT_STEPS = 64
_ROOT_RTOL = 1e-14
_CONTRACTION_RTOL = 1e-8


@dataclass(frozen=True)
class LadderChainSpec:
    """Truncated ladder chain with geometric jump distribution p on {0..N}."""

    N: int
    q: float = 0.5

    def __post_init__(self):
        if self.N < 1:
            raise ValidationError("truncation N must be >= 1, got %d" % self.N)
        # below the normal float floor q and the jump law p(n) ~ q^n, n >= 1,
        # carry fewer significant bits than a float
        if not sys.float_info.min <= self.q < 1.0:
            raise ValidationError("geometric ratio q must lie in [%g, 1), got %g"
                                  % (sys.float_info.min, self.q))

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


def _trinomial(nu: complex, N: int, c: float) -> tuple[complex, complex]:
    """T(nu) = nu^(N+2) - (1+c) nu + c and T'(nu), with nu^(N+1) = exp((N+1) log nu)."""
    w = cmath.exp((N + 1) * cmath.log(nu))
    return nu * w - (1.0 + c) * nu + c, (N + 2) * w - (1.0 + c)


def _newton_root(nu: complex, N: int, c: float) -> complex | None:
    """The root of T that Newton reaches from nu, or None if no step falls
    below _ROOT_RTOL |nu| within _ROOT_STEPS or an iterate overflows."""
    for _ in range(_ROOT_STEPS):
        try:
            t, dt = _trinomial(nu, N, c)
            step = t / dt
        except (OverflowError, ZeroDivisionError, ValueError):
            return None
        nu -= step
        if abs(step) <= _ROOT_RTOL * abs(nu):
            return nu
    return None


def _root_index(nu: complex, N: int, c: float) -> float:
    """Phi / (2 pi) at nu: the integer k at the k-th root of the upper half-plane."""
    return ((N + 2) * cmath.phase(nu) - cmath.phase((1.0 + c) * nu - c)) / (2.0 * math.pi)


def _is_first_root(nu: complex | None, N: int, c: float) -> bool:
    """The certificate that a converged root of T is nu_1: Im nu > 0 excludes
    the real roots q and 1, and Phi / (2 pi) names the rest."""
    return nu is not None and nu.imag > 0.0 and round(_root_index(nu, N, c)) == 1


def _first_root(N: int, c: float) -> complex | None:
    """nu_1 from the fixed point of u -> (Log((1+c) e^u - c) + 2 pi i) / (N+2),
    u = log nu, polished by Newton."""
    u = 2j * math.pi / (N + 1)
    for _ in range(_ROOT_STEPS):
        u, last = (cmath.log((1.0 + c) * cmath.exp(u) - c) + 2j * math.pi) / (N + 2), u
        if abs(u - last) <= _CONTRACTION_RTOL * abs(u):
            break
    return _newton_root(cmath.exp(u), N, c)


def ladder_gap(spec: LadderChainSpec) -> tuple[float, float]:
    """(gap, root residual) of the ladder kernel P, which is also the gap of P*.

    gap = 1 - q / |nu_1| for the root nu_1 of the module docstring's lemma.
    On u = log nu it iterates Psi(u) = (Log((1+c) e^u - c) + 2 pi i) / (N+2)
    from u = 2 pi i / (N+1).  On the convex strip Re u >= 0, 0 <= Im u <= pi,
    z = (1+c) e^u - c has |z| >= (1+c) |e^u| - c >= |e^u| >= 1 and Im z >= 0,
    so Psi maps the strip into itself with
    |Psi'| = (1+c) |e^u| / ((N+2) |z|) <= (1+c) / (N+2) < 1.  Its
    one fixed point solves T with Phi = 2 pi, which is nu_1.  Newton on T
    polishes it, and the root is taken only with a certificate: Newton's last
    step fell below 1e-14 |nu|, Im nu > 0, and
    Phi / (2 pi) = ((N+2) arg nu - arg((1+c) nu - c)) / (2 pi) rounds to 1.
    The work is O(1) whatever N.

    The residual is |g(nu_1)| = |T(nu_1) / (nu_1 - 1)|, on the scale of g's
    unit coefficients.  |g'(nu_1)| grows like N^2, so even the float nearest
    nu_1 leaves a residual near 1e-12 at N = 1,000 and 1e-5 at N = 10^6.
    """
    N, q = spec.N, spec.q
    c = q * _geometric_mass(spec) / (1.0 - q)
    if N == 1:
        nu = complex(-1.0 - q)
    else:
        nu = _first_root(N, c)
        if not _is_first_root(nu, N, c):
            raise ArithmeticError("renewal root nu_1 not certified at N = %d, q = %g" % (N, q))
    t, _ = _trinomial(nu, N, c)
    return 1.0 - q / abs(nu), abs(t / (nu - 1.0))


def _spider_below(p0: float, even: list[float], odd: list[float], shift: float) -> int:
    """Number of symmetric-mode eigenvalues of K below shift.

    Leaf-to-root LDL^T of (spider - shift), one pivot recursion per parity.
    The even leg ending at depth t is rung 2t + 2, the odd one rung 2t + 1,
    so a negative pivot at depth t counts for each of the len(even) - t or
    len(odd) - t legs that reach it; ``even[t]`` and ``odd[t]`` are their
    squared couplings to the origin.  A zero (or subnormal) pivot is
    replaced by -_PIVMIN, which counts the eigenvalues of a perturbation far
    below rounding.
    """
    below, total = 0, 0.0
    # each parity's tip pivot and squared weight of the edge from its tip: an
    # odd leg's tip is its rung's middle state, joined with the sqrt(2) fold
    for couple, piv, first in ((even, 0.5 - shift, 0.25), (odd, -shift, 0.5)):
        for t, c in enumerate(couple):
            if t:
                piv = -shift - (first if t == 1 else 0.25) / piv
            if abs(piv) < _PIVMIN:
                piv = -_PIVMIN
            if piv < 0.0:
                below += len(couple) - t
            total += c / piv
    return below + (p0 - shift - total < 0.0)


def _bisect(count, k: int, lo: float, hi: float) -> float:
    """The k-th smallest eigenvalue that ``count`` counts, to the float.

    Keeps count(lo) < k <= count(hi), which the bracket given must satisfy,
    and halves it until lo and hi are adjacent floats; returns their midpoint.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if count(mid) >= k:
            hi = mid
        else:
            lo = mid


def ladder_reversible_gap(spec: LadderChainSpec) -> float:
    """gap(K) = 1 - max(lambda_2, -lambda_min, cos(pi/(N_e+1))) of K = (P + P*)/2.

    cos(pi/(N_e+1)) is the largest modulus of the antisymmetric rung modes
    (none when N = 1).  One ``_spider_below`` count at -rung and one at rung
    decide whether lambda_min < -rung and whether lambda_2 >= rung; a spider
    eigenvalue on the near side of its rung shift cannot set the gap.  Each
    one past its shift is bisected between the shift and the band edge.
    """
    p = spec.jump_pmf()
    even = (p[2::2] / 2.0).tolist()
    odd = (p[1::2] / 2.0).tolist()
    odd[0] = float(p[1])  # rung 1's one node is its middle state: the sqrt(2) fold
    count = functools.partial(_spider_below, float(p[0]), even, odd)
    size = 1 + (spec.N + 1) ** 2 // 4  # 1 + sum of ceil(n/2) over n = 1..N
    n_even = spec.N - spec.N % 2
    rung = math.cos(math.pi / (n_even + 1)) if n_even else 0.0
    edge = 1.0 + 2.0 ** -30
    below_min, below_2 = count(-rung), count(rung)
    worst = rung
    if below_min >= 1:
        worst = max(worst, -_bisect(count, 1, -edge, -rung))
    if below_2 < size - 1:
        worst = max(worst, _bisect(count, size - 1, rung, edge))
    return 1.0 - worst


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
    specs = [LadderChainSpec(N=int(n_trunc), q=q) for n_trunc in n_list]
    # every moment before any gap, so one past the float range is refused at once
    moments = []
    for spec in specs:
        moment = {}
        for b in b_list:
            moment["moment_b%g" % b] = return_time_moment(spec, b)
            moment["moment_b%g_analytic_finite" % b] = bool(b * spec.q < 1.0)
        moments.append(moment)
    rows = []
    for spec, moment in zip(specs, moments):
        kappa, rung_values, _ = ladder_conductance(spec)
        gap_k = ladder_reversible_gap(spec)
        gap_p, residual = ladder_gap(spec)
        rows.append({
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
            **moment,
        })
    return rows

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

Spectrum: the chain is a renewal chain (return time n + 1 to the origin with
probability p(n)), so the nonzero eigenvalues of P are the roots of the
renewal polynomial  lambda^(N+1) - sum_n p(n) lambda^(N-n),  one of them
lambda = 1, and the time reversal P* has the same spectrum.  ``ladder_gap``
takes gap(P) = gap(P*) from those roots.  The kernel is strongly non-normal,
so its dense eigenvalues are ill-conditioned (off by up to 7e-2 at N = 80)
and are not used for it; the reversible gap(K) comes from the symmetric
eigensolver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .operators import (
    MarkovOperator,
    additive_reversibilization,
    is_reversible,
    spectral_radius_centered,
)


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


def ladder_stationary(spec: LadderChainSpec) -> np.ndarray:
    """Closed-form stationary law; flat across each rung."""
    p = spec.jump_pmf()
    e_tau = float(np.sum((np.arange(spec.N + 1) + 1) * p))
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
    return MarkovOperator(kernel, ladder_stationary(spec), label="ladder N=%d" % spec.N)


def return_time_moment(spec: LadderChainSpec, b: float,
                       truncated: bool = True) -> tuple[float, bool]:
    """E[b^tau | X_0 = origin] = sum_n b^(n+1) p(n); (value, finite).

    With truncated=False the untruncated geometric series is summed: finite
    iff b q < 1, with value b(1-q)/(1-bq).
    """
    if b <= 1.0:
        raise ValidationError("b must be > 1, got %g" % b)
    if truncated:
        p = spec.jump_pmf()
        value = float(np.sum(b ** (np.arange(spec.N + 1) + 1.0) * p))
        return value, True
    if b * spec.q >= 1.0:
        return math.inf, False
    return b * (1.0 - spec.q) / (1.0 - b * spec.q), True


def ladder_gap(spec: LadderChainSpec) -> tuple[float, float]:
    """(gap, root residual) of the ladder kernel P, which is also the gap of P*.

    The roots of the renewal polynomial are found with the substitution
    lambda = r / nu, r = (p(N)/p(0))^(1/N) (r = q up to rounding):
    nu solves g(nu) = sum_n p(n) r^-(n+1) nu^(n+1) - 1 = 0, whose coefficients
    are balanced, so the float64 companion solve is accurate where the one on
    the unscaled polynomial is not.  One Newton step polishes the roots.  The
    residual is max over all roots of |1 - sum_n p(n) lambda^-(n+1)| = |g(nu)|.
    """
    p = spec.jump_pmf()
    r = (p[-1] / p[0]) ** (1.0 / spec.N)
    g = np.append((p * r ** -(np.arange(spec.N + 1) + 1.0))[::-1], -1.0)
    nu = np.roots(g)
    nu = nu - np.polyval(g, nu) / np.polyval(np.polyder(g), nu)
    residual = float(np.abs(np.polyval(g, nu)).max())
    lam = r / nu
    others = np.delete(lam, np.argmin(np.abs(lam - 1.0)))
    return 1.0 - float(np.abs(others).max()), residual


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
    moments.

    Checks recorded per row: the reversible-side Cheeger consistency
    gap(K) <= 2 kappa, and the lower Cheeger value kappa^2/2 (reported, not
    asserted; constant conventions vary).
    """
    if any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ValidationError("truncations must be strictly increasing")
    rows = []
    for n_trunc in n_list:
        spec = LadderChainSpec(N=int(n_trunc), q=q)
        p_op = build_ladder(spec)
        k_op = additive_reversibilization(p_op)
        cuts = [spec.rung(n) for n in range(1, spec.N + 1)]
        cuts += [[s] for s in range(spec.n_states)]
        kappa, rung_values = conductance(k_op, cuts)
        gap_k = 1.0 - spectral_radius_centered(k_op)
        gap_p, residual = ladder_gap(spec)
        row = {
            "N": spec.N,
            "n_states": spec.n_states,
            "gap_K": gap_k,
            "gap_P": gap_p,
            "gap_P_star": gap_p,
            "root_residual": residual,
            "kappa_upper": kappa,
            "rung_conductance": rung_values[: spec.N],
            "cheeger_upper_ok": bool(gap_k <= 2.0 * kappa + 1e-9),
            "cheeger_lower_value": kappa ** 2 / 2.0,
            "pi_origin": float(p_op.stationary[0]),
        }
        for b in b_list:
            row["moment_b%g" % b] = return_time_moment(spec, b, truncated=True)[0]
            row["moment_b%g_analytic_finite" % b] = return_time_moment(spec, b, truncated=False)[1]
        rows.append(row)
    return rows

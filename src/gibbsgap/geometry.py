"""Subspace geometry of the Gibbs projections: angle and inclination.

M_i is the subspace of functions constant in coordinate i; the small step
P_i projects onto it orthogonally in L2(pi), and the intersection of all M_i
contains only the constants.  Two scalars summarize how the M_i sit relative
to each other:

* the generalized angle c: the supremum of the normalized cross-correlation
  of mean-zero functions f_i in M_i; computed here both in closed form from
  the uniform-weight random-scan norm (``angle_from_uniform_norm``) and by
  an independent brute-force generalized eigenproblem over explicit bases;
* the inclination ell: the min over unit-distance-from-constants functions
  of the max distance to the M_i.  With the quadratic forms A_i of
  dist(f, M_i)^2 on the mean-zero unit sphere, ell^2 = min_v max_i v^T A_i v.
  By weak duality ell^2 >= max_{w in simplex} lambda_min(sum_i w_i A_i), and
  sum_i w_i A_i = I - RSG_w on mean-zero functions, so the dual is the best
  random-scan gap.  ``inclination`` solves the dual by projected Newton; the
  eigenvector of the final w is a witness whose max_i v^T A_i v bounds ell^2
  from above, so [sqrt(dual), ell_hat] brackets ell.  When the bracket closes
  ell_hat is certified.  When it stays open (lambda_min multiple at the dual
  optimum, where a genuine duality gap can lie) the primal optimum is an
  eigenvector u_j of sum_i mu_i A_i with j >= 1 and equal forms over
  supp(mu); ell_hat then comes from seeded restarts of a smoothed min-max
  optimizer, each finished, where it converges, by Newton on that eigenvalue
  branch at such a first-order KKT point.  It is an upper bound, not
  certified as the global minimum.  The sandwich inequality applied to the
  exact c gives a further lower bound.

Everything here runs on numpy alone.  The restarts' annealing stages use
``_lbfgs``, a limited-memory BFGS with the stopping rules of scipy's
L-BFGS-B.  No command loads scipy.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .measure import TargetDistribution
from .operators import RandomScan, l2_norm_centered, rsg

#: Rank cut for Gram-Schmidt of the M_i cap M-perp bases.
RANK_TOL = 1e-10
#: The sandwich inequalities are checked to this tolerance.
SANDWICH_TOL = 1e-9


@dataclass(frozen=True)
class AngleResult:
    value: float
    degenerate: bool = False


#: The dual certifies ell_hat when upper - lower <= CERTIFY_TOL * max(1, upper).
CERTIFY_TOL = 1e-12
#: Newton iterations of the dual before the restarts take over.
DUAL_MAX_ITER = 50
#: lambda_1 - lambda_0 below this (relative to max(1, |lambda_0|)) counts as a
#: multiple lambda_min: the dual is not smooth there and Newton stops.
DUAL_SEPARATION_TOL = 1e-7
#: A Newton step may close at most this share of lambda_1 - lambda_0 (to first
#: order), so lambda_min stays simple over the step.  Where the optimum has a
#: multiple lambda_min, the separation then shrinks tenfold per step and the
#: stop above is reached after a few eigh calls.
DUAL_SEPARATION_SHARE = 0.9
#: An open-bracket restart is finished by ``_branch_polish`` when the KKT
#: residual falls to POLISH_KKT_TOL * max(1, lambda_j) ...
POLISH_KKT_TOL = 1e-13
#: ... at an eigenvector whose overlap |<v, w>| with the annealed iterate w is
#: at least this, so the polish keeps the KKT point the restart was heading
#: for instead of jumping to a worse one ...
POLISH_MIN_OVERLAP = 0.999
#: ... within this many Newton steps.
POLISH_MAX_ITER = 10
#: The polish is first tried after the stage of this temperature.  After the
#: beta = 4 stage the iterate is still far from the point its restart ends
#: at, and on the open targets measured every polish from there failed.
POLISH_MIN_BETA = 32.0
#: Each annealing stage's L-BFGS keeps this many curvature pairs ...
LBFGS_MEMORY = 10
#: ... and stops after this many iterations, once the relative decrease
#: (f_k - f_k+1) / max(|f_k|, |f_k+1|, 1) of a step is at most LBFGS_FTOL, or
#: once max|gradient| is at most LBFGS_GTOL.
LBFGS_MAX_ITER = 500
LBFGS_FTOL = 1e-14
LBFGS_GTOL = 1e-12


@dataclass(frozen=True)
class InclinationResult:
    value: float  # ell_hat, an upper bound on ell
    witness: np.ndarray  # function values by flat state, dist(witness, M) = 1
    restarts: int  # optimizer restarts run; 0 when the dual certified value
    lower: float  # sqrt of the dual, a lower bound on ell
    certified: bool  # value^2 - lower^2 <= CERTIFY_TOL * max(1, value^2)
    #: max_i v^T A_i v - lambda at the witness v, an eigenvector of
    #: sum_i mu_i A_i with eigenvalue lambda; None when the best restart's
    #: polish never passed
    kkt_residual: Optional[float]


def subspace_basis(i: int, pi: TargetDistribution) -> np.ndarray:
    """Basis of mean-zero functions constant in coordinate i (1-based): an
    (n_states, dim) array whose columns are orthonormal in L2(pi).

    Built by orthonormalizing the mean-centered indicators of the x_{-i}
    cells of pi.conditionals in the pi inner product, with rank tolerance
    RANK_TOL.
    """
    d = pi.space.d
    if not 1 <= i <= d:
        raise ValidationError("coordinate index %d out of range 1..%d" % (i, d))
    cells, _ = pi.conditionals[i - 1]
    span = np.zeros((pi.space.total_states, cells.shape[0]))
    span[cells, np.arange(cells.shape[0])[:, None]] = 1.0
    span -= pi.pmf @ span  # mean-center each column
    s = np.sqrt(pi.pmf)
    y = span * s[:, None]
    u, svals, _ = np.linalg.svd(y, full_matrices=False)
    rank = int(np.sum(svals > RANK_TOL))
    return u[:, :rank] / s[:, None]


def angle_from_uniform_norm(norm: float, d: int) -> float:
    """c from the exact norm of the uniform-weight random scan.

    Inverts ||(1/d) sum_i P_i - Pi|| = ((d-1)/d) (c + 1/(d-1)).
    """
    return float((d * norm - 1.0) / (d - 1.0))


def friedrichs_angle_from_norm(pi: TargetDistribution) -> AngleResult:
    """c recovered from the exact uniform-weight random-scan norm."""
    d = pi.space.d
    norm = l2_norm_centered(rsg(RandomScan.uniform(d), pi))
    return AngleResult(value=angle_from_uniform_norm(norm, d))


def friedrichs_angle_bruteforce(pi: TargetDistribution) -> AngleResult:
    """Independent oracle for c via a dense symmetric eigenproblem.

    With orthonormal bases Y_i of the M_i cap M-perp blocks (in the
    symmetrized coordinates), the numerator quadratic form over block
    coefficients u is u^T (Y^T Y - I) u and the denominator is
    (d-1) u^T u, so c is (lambda_max(Y^T Y) - 1) / (d-1).  The top
    eigenvalue is taken from the n x n matrix Y Y^T, which has the same
    nonzero spectrum and is smaller than the Gram matrix Y^T Y whenever the
    blocks hold more than n basis vectors together.
    """
    d = pi.space.d
    s = np.sqrt(pi.pmf)
    blocks = []
    for i in range(1, d + 1):
        b = subspace_basis(i, pi)
        if b.shape[1] > 0:
            blocks.append(b * s[:, None])
    if not blocks:
        # only possible when every cross-section is a single cell: the
        # supremum runs over an empty set and c is defined as 0
        return AngleResult(value=0.0, degenerate=True)
    y = np.hstack(blocks)
    top = np.linalg.eigvalsh(y @ y.T)[-1]
    return AngleResult(value=float((top - 1.0) / (d - 1.0)))


def _inclination_forms(pi: TargetDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic forms A_i on the mean-zero sphere, plus the chart Q.

    In coordinates y = D^{1/2} f restricted to the orthogonal complement of
    sqrt(pi), dist(f, M_i)^2 = v^T A_i v for y = Q v.  D^{1/2} P_i D^{-1/2}
    is C_i C_i^T, whose columns are the unit vectors sqrt(pi(x_i | x_{-i}))
    of the x_{-i} cells, so A_i = I - (Q^T C_i)(Q^T C_i)^T, exactly symmetric.
    Q holds the last n - 1 right singular vectors of the row sqrt(pi)^T
    (LAPACK gesdd), the same chart as ``scipy.linalg.null_space`` gives.  The
    chart fixes which functions the seeded restarts start from, so changing
    it changes ell_hat on open brackets.
    """
    q = np.linalg.svd(np.sqrt(pi.pmf)[None, :])[2][1:].T
    m = q.shape[1]
    forms = np.empty((pi.space.d, m, m))
    for form, (cells, cond) in zip(forms, pi.conditionals):
        qc = np.einsum("ckm,ck->mc", q[cells], np.sqrt(cond))
        np.subtract(np.eye(m), qc @ qc.T, out=form)
    return forms, q


def _max_form(forms: np.ndarray, v: np.ndarray) -> float:
    return float(max(v @ a @ v for a in forms))


def _smoothed_objective(w: np.ndarray, forms: np.ndarray, beta: float):
    nw = np.linalg.norm(w)
    v = w / nw
    q = np.einsum("i,kij,j->k", v, forms, v)
    m = q.max()
    e = np.exp(beta * (q - m))
    z = e.sum()
    val = m + np.log(z) / beta
    p = e / z
    grad_v = 2.0 * np.einsum("k,kij,j->i", p, forms, v)
    grad_w = (grad_v - (grad_v @ v) * v) / nw
    return val, grad_w


def _lbfgs(fun, x: np.ndarray, args=()) -> np.ndarray:
    """Minimize fun(x, *args) -> (value, gradient) from x by limited-memory BFGS.

    The search direction comes from the two-loop recursion over the last
    LBFGS_MEMORY curvature pairs (Nocedal, Math. Comp. 35 (1980)), scaled by
    s^T y / y^T y of the newest pair; the first step has length 1.  Steps
    are halved until they meet the Armijo condition, and a pair is kept only
    when s^T y > 0.  Stops on the LBFGS_* rules, or where rounding leaves no
    descent direction or no step that decreases fun.
    """
    f, g = fun(x, *args)
    pairs = deque(maxlen=LBFGS_MEMORY)
    for _ in range(LBFGS_MAX_ITER):
        if np.abs(g).max() <= LBFGS_GTOL:
            break
        p = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ p))
            p = p - alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            p = p * ((s @ y) / (y @ y))
        else:
            p = p / np.linalg.norm(p)
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            p = p + (alpha - rho * (y @ p)) * s
        slope = g @ p
        if slope >= 0.0:  # rounding only: the kept pairs make p descend
            break
        t = 1.0
        for _ in range(60):  # halvings
            x_t = x + t * p
            f_t, g_t = fun(x_t, *args)
            if f_t <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        s, y = x_t - x, g_t - g
        if s @ y > 0.0:
            pairs.append((s, y, 1.0 / (s @ y)))
        done = f - f_t <= LBFGS_FTOL * max(abs(f), abs(f_t), 1.0)
        x, f, g = x_t, f_t, g_t
        if done:
            break
    return x


def _simplex_newton_step(w: np.ndarray, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Ascent step p with sum(p) = 0 maximizing g^T p + p^T h p / 2.

    Weights at 0 that the step would push negative are held at 0 and the
    step is solved again on the rest.
    """
    free = np.ones(w.shape[0], dtype=bool)
    while True:
        k = int(free.sum())
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = -h[np.ix_(free, free)]
        kkt[:k, k] = kkt[k, :k] = 1.0
        sol = np.linalg.lstsq(kkt, np.append(g[free], 0.0), rcond=None)[0]
        p = np.zeros_like(w)
        p[free] = sol[:k]
        stuck = free & (w <= 0.0) & (p < 0.0)
        if not stuck.any():
            return p
        free &= ~stuck


def _bracket_closed(lower: float, upper: float) -> bool:
    return upper - lower <= CERTIFY_TOL * max(1.0, upper)


def _eigh_at(forms: np.ndarray, w: np.ndarray):
    return np.linalg.eigh(np.tensordot(w, forms, axes=1))


def inclination_dual(forms: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Bracket lower <= ell^2 <= upper from the random-scan dual, and its witness.

    Maximizes lambda_min(sum_i w_i A_i) over the simplex by projected Newton
    from uniform w: with the eigenpairs (lambda_k, u_k) and v = u_0, the
    gradient is g_i = v^T A_i v and the Hessian
    H_ij = 2 sum_{k>=1} (v^T A_i u_k)(u_k^T A_j v)/(lambda_0 - lambda_k).
    Returns (lower, upper, v) at the final w: lower = lambda_min, and
    upper = max_i v^T A_i v for its eigenvector v.  Each step
    is cut short where it would leave the simplex or, to first order, close
    more than DUAL_SEPARATION_SHARE of lambda_1 - lambda_0, then halved until
    lambda_min does not fall.  Stops when the bracket closes, when lambda_min
    turns multiple, or after DUAL_MAX_ITER steps.
    """
    d = forms.shape[0]
    w = np.full(d, 1.0 / d)
    lam, u = _eigh_at(forms, w)
    for _ in range(DUAL_MAX_ITER):
        v = u[:, 0]
        b = u.T @ (forms @ v).T  # b[k, i] = u_k^T A_i v
        g = b[0]
        scale = max(1.0, abs(lam[0]))
        if _bracket_closed(lam[0], g.max()):
            break
        sep = lam[1:] - lam[0]
        if sep.size == 0 or sep[0] <= DUAL_SEPARATION_TOL * scale:
            break
        h = 2.0 * (b[1:] / -sep[:, None]).T @ b[1:]
        p = _simplex_newton_step(w, g, h)
        shrink = p < 0.0
        step = min(1.0, float(np.min(w[shrink] / -p[shrink]))) if shrink.any() else 1.0
        closing = float(p @ ((forms @ u[:, 1]) @ u[:, 1] - g))  # d(lambda_1 - lambda_0)
        if step * closing < -DUAL_SEPARATION_SHARE * sep[0]:
            step = DUAL_SEPARATION_SHARE * sep[0] / -closing
        for _ in range(30):  # halvings
            trial = np.maximum(w + step * p, 0.0)
            trial /= trial.sum()
            lam_t, u_t = _eigh_at(forms, trial)
            if lam_t[0] >= lam[0] - 4.0 * np.finfo(float).eps * scale:
                break
            step *= 0.5
        else:
            break
        if np.array_equal(trial, w):
            break
        w, lam, u = trial, lam_t, u_t
    v = u[:, 0]
    return float(lam[0]), _max_form(forms, v), v


def _branch_polish(forms: np.ndarray, w: np.ndarray, beta: float):
    """Newton on the eigenvalue branch through an annealed iterate w.

    Starts from the softmax weights mu of the smoothed objective at w and the
    eigenvector u_j of A(mu) = sum_i mu_i A_i that overlaps w most, then
    drives mu to a critical point of lambda_j on the simplex: gradient
    g_i = u_j^T A_i u_j, Hessian 2 sum_{k != j} b_k b_k^T / (lambda_j -
    lambda_k) with b_k[i] = u_k^T A_i u_j, the branch followed by eigenvector
    overlap.  Returns (v, residual) once the KKT residual
    max_i v^T A_i v - lambda_j is at most POLISH_KKT_TOL * max(1, lambda_j),
    v overlaps w by POLISH_MIN_OVERLAP and its value is no worse than w's;
    None if that does not happen within POLISH_MAX_ITER steps.
    """
    q = np.einsum("i,kij,j->k", w, forms, w)
    mu = np.exp(beta * (q - q.max()))
    mu /= mu.sum()
    lam, u = _eigh_at(forms, mu)
    j = int(np.argmax(np.abs(u.T @ w)))
    others = np.arange(lam.shape[0]) != j
    for _ in range(POLISH_MAX_ITER):
        v = u[:, j]
        b = u.T @ (forms @ v).T  # b[k, i] = u_k^T A_i v
        g = b[j]
        t = lam[j]
        residual = float(g.max() - t)
        if residual <= POLISH_KKT_TOL * max(1.0, t):
            overlap = float(v @ w)
            if abs(overlap) >= POLISH_MIN_OVERLAP and g.max() <= _max_form(forms, w):
                return np.copysign(1.0, overlap) * v, residual
            return None
        sep = t - lam[others]
        if np.min(np.abs(sep)) <= DUAL_SEPARATION_TOL * max(1.0, abs(t)):
            return None
        p = _simplex_newton_step(mu, g, 2.0 * (b[others] / sep[:, None]).T @ b[others])
        shrink = p < 0.0
        step = min(1.0, float(np.min(mu[shrink] / -p[shrink]))) if shrink.any() else 1.0
        mu = np.maximum(mu + step * p, 0.0)
        mu /= mu.sum()
        lam, u = _eigh_at(forms, mu)
        j = int(np.argmax(np.abs(u.T @ v)))
        others = np.arange(lam.shape[0]) != j
    return None


def inclination(pi: TargetDistribution, restarts: int = 32,
                seed: int = 0) -> InclinationResult:
    """The inclination bracketed by the random-scan dual, with a witness.

    ``inclination_dual`` runs first.  If its bracket closes, ell_hat is the
    witness's value sqrt(max_i v^T A_i v), certified to CERTIFY_TOL, and no
    restart runs.  Otherwise ell_hat comes from a multi-restart minimization
    of max_i dist(f, M_i) over the unit sphere of mean-zero functions, via
    log-sum-exp smoothing with a sharpening temperature schedule.  After each
    stage from POLISH_MIN_BETA on, ``_branch_polish`` tries to finish the
    restart at a first-order KKT point of the primal (an eigenvector of
    sum_i mu_i A_i whose forms are equal over supp(mu)); the first polish
    that passes ends the restart's schedule.  A restart whose polish never
    passes runs the whole schedule and keeps its last annealed iterate.
    Restarts use seeded starts; ties resolve to the lowest restart index, so
    the result is schedule-independent.  Either way ``lower`` is sqrt of the
    dual, and ``kkt_residual`` is max_i v^T A_i v - lambda for the witness v
    and the eigenvalue lambda it was certified or polished at (None when no
    polish passed in the best restart).
    """
    if restarts < 1:
        raise ValidationError("restarts must be >= 1, got %d" % restarts)
    forms, q = _inclination_forms(pi)
    s = np.sqrt(pi.pmf)
    lower, upper, v = inclination_dual(forms)
    ell_lower = float(np.sqrt(max(lower, 0.0)))
    if _bracket_closed(lower, upper):
        return InclinationResult(value=float(np.sqrt(max(upper, 0.0))), witness=(q @ v) / s,
                                 restarts=0, lower=ell_lower, certified=True,
                                 kkt_residual=upper - lower)
    rng = np.random.default_rng(seed)
    best_val = np.inf
    best_v = None
    best_residual = None
    for _ in range(restarts):
        w = rng.standard_normal(q.shape[1])
        w /= np.linalg.norm(w)
        residual = None
        for beta in (4.0, 32.0, 256.0, 2048.0, 16384.0):
            w = _lbfgs(_smoothed_objective, w, (forms, beta))
            w /= np.linalg.norm(w)
            polished = _branch_polish(forms, w, beta) if beta >= POLISH_MIN_BETA else None
            if polished is not None:
                w, residual = polished
                break
        val = _max_form(forms, w)
        if val < best_val - 1e-15:
            best_val = val
            best_v = w.copy()
            best_residual = residual
    ell_hat = float(np.sqrt(max(best_val, 0.0)))
    witness = (q @ best_v) / s
    return InclinationResult(value=ell_hat, witness=witness, restarts=restarts,
                             lower=ell_lower, certified=False, kkt_residual=best_residual)


def inclination_lower_bound(c: float, d: int) -> float:
    """Certified lower bound ell >= (d-1)(1-c)/(2d) from the exact angle."""
    return max(0.0, (d - 1.0) * (1.0 - c) / (2.0 * d))


def check_sandwich(c: float, ell_hat: float, d: int) -> dict:
    """Check the angle/inclination sandwich with an *upper bound* ell_hat.

    The left inequality 1 - (2d/(d-1)) ell <= c remains valid when ell is
    replaced by any upper bound, so it is asserted.  The right inequality
    c <= 1 - ell^2/(d-1) can fail spuriously with ell_hat > ell and is
    reported as advisory only.
    """
    left_lhs = 1.0 - (2.0 * d / (d - 1.0)) * ell_hat
    right_rhs = 1.0 - ell_hat ** 2 / (d - 1.0)
    return {
        "left_lhs": left_lhs,
        "left_pass": bool(left_lhs <= c + SANDWICH_TOL),
        "left_slack": c - left_lhs,
        "right_rhs": right_rhs,
        "right_advisory_pass": bool(c <= right_rhs + SANDWICH_TOL),
        "right_slack": right_rhs - c,
    }

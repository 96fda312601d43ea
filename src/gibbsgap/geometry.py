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
  random-scan gap.  The same identity gives each random scan's norm,
  ||RSG_w - Pi|| = 1 - lambda_min(sum_i w_i A_i), which ``inclination``
  returns for the scans it is given while the forms exist, so ``analyze``
  builds no random-scan kernel.  ``inclination`` solves the dual by
  projected Newton, each step one matmul for sum_i w_i A_i, one ``eigh`` and
  one solve of the step's KKT system; the
  eigenvector of the final w is a witness whose max_i v^T A_i v bounds ell^2
  from above, so [sqrt(dual), ell_hat] brackets ell.  When the bracket closes
  ell_hat is certified.  When it stays open (lambda_min multiple at the dual
  optimum, where a genuine duality gap can lie) the primal optimum is an
  eigenvector u_j of sum_i mu_i A_i with j >= 1 and equal forms over
  supp(mu); ell_hat then comes from restarts of a smoothed min-max optimizer
  from fixed starts in the plane of the dual's two lowest eigenvectors, each
  finished, where it converges, by Newton on that eigenvalue branch at such
  a first-order KKT point.  It is an upper bound, not certified as the
  global minimum.  The sandwich inequality applied to the exact c gives a
  further lower bound.

Everything here runs on numpy alone.  The restarts run in lockstep: each
annealing stage is one call of ``_lbfgs``, which steps every restart still
in the schedule by its own limited-memory BFGS (the stopping rules of
scipy's L-BFGS-B), all rows at once, with directions from the compact form
of the BFGS matrix.  A restart's result does not depend on how many run
beside it.  No command loads scipy.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .measure import TargetDistribution
from .operators import _STACK_BYTES, RandomScan, _checked_scan, l2_norm_centered, rsg

#: The sandwich inequalities are checked to this tolerance.
SANDWICH_TOL = 1e-9


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
    #: ||RSG_w - Pi|| = 1 - lambda_min(sum_i w_i A_i) of each random scan given
    scan_norms: dict


def subspace_basis(i: int, pi: TargetDistribution) -> np.ndarray:
    """Basis of mean-zero functions constant in coordinate i (1-based): an
    (n_states, m - 1) array, m the number of x_{-i} cells, whose columns are
    orthonormal in L2(pi).

    In coordinates y = sqrt(pi) f the functions constant in i are spanned by
    the orthonormal cell vectors sqrt(pi) / sqrt(pi(c)), and sqrt(pi) is
    their combination with weights a = (sqrt(pi(c)))_c.  The last m - 1
    columns of the Householder reflector I - 2 v v^T / v^T v, v = a + ||a|| e_1,
    span a-perp orthonormally and combine the cell vectors into the basis;
    divided by sqrt(pi), column j is row c of the reflector over sqrt(pi(c))
    on cell c.  Reads the cells and the pmf, never the conditionals.
    """
    d = pi.space.d
    if not 1 <= i <= d:
        raise ValidationError("coordinate index %d out of range 1..%d" % (i, d))
    cells, _ = pi.conditionals[i - 1]
    a = np.sqrt(pi.pmf[cells].sum(axis=1))
    v = np.concatenate(([a[0] + np.linalg.norm(a)], a[1:]))  # positive: v^T v cannot cancel
    reflector = np.eye(a.size)[:, 1:] - np.outer(v, 2.0 * v[1:] / (v @ v))
    basis = np.empty((pi.space.total_states, a.size - 1))
    basis[cells] = (reflector / a[:, None])[:, None, :]
    return basis


def angle_from_uniform_norm(norm: float, d: int) -> float:
    """c from the exact norm of the uniform-weight random scan.

    Inverts ||(1/d) sum_i P_i - Pi|| = ((d-1)/d) (c + 1/(d-1)).
    """
    return float((d * norm - 1.0) / (d - 1.0))


def friedrichs_angle_from_norm(pi: TargetDistribution) -> float:
    """c recovered from the exact uniform-weight random-scan norm."""
    d = pi.space.d
    return angle_from_uniform_norm(l2_norm_centered(rsg(RandomScan.uniform(d), pi)), d)


def friedrichs_angle_bruteforce(pi: TargetDistribution) -> float:
    """Independent oracle for c via a dense symmetric eigenproblem.

    With orthonormal bases Y_i of the M_i cap M-perp blocks in the
    symmetrized coordinates (``subspace_basis`` times sqrt(pi)), the
    numerator quadratic form over block coefficients u is u^T (Y^T Y - I) u
    and the denominator is (d-1) u^T u for the stack Y = [Y_1, ..., Y_d], so
    c is (lambda_max(Y^T Y) - 1) / (d-1).  The top eigenvalue is taken from
    Y Y^T = sum_i Y_i Y_i^T, which has the same nonzero spectrum, summed one
    coordinate at a time into an n x n matrix.  No kernel, SVD or
    conditional enters.
    """
    d = pi.space.d
    s = np.sqrt(pi.pmf)
    gram = np.zeros((s.shape[0], s.shape[0]))
    for i in range(1, d + 1):
        y = subspace_basis(i, pi) * s[:, None]
        gram += y @ y.T
    return float((np.linalg.eigvalsh(gram)[-1] - 1.0) / (d - 1.0))


def _chart(pi: TargetDistribution) -> np.ndarray:
    """The chart Q: the last n - 1 right singular vectors of the row
    sqrt(pi)^T (LAPACK gesdd), the same chart as ``scipy.linalg.null_space``
    gives.  The chart fixes the basis that ``eigh`` picks in a nearly double
    lambda_min, and so where the open-bracket restarts start: changing it can
    change ell_hat on open brackets."""
    return np.linalg.svd(np.sqrt(pi.pmf)[None, :])[2][1:].T


def _inclination_forms(pi: TargetDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic forms A_i on the mean-zero sphere, plus the chart Q (``_chart``).

    In coordinates y = D^{1/2} f restricted to the orthogonal complement of
    sqrt(pi), dist(f, M_i)^2 = v^T A_i v for y = Q v.  D^{1/2} P_i D^{-1/2}
    is C_i C_i^T, whose columns are the unit vectors sqrt(pi(x_i | x_{-i}))
    of the x_{-i} cells, so A_i = I - (Q^T C_i)(Q^T C_i)^T, exactly symmetric.
    """
    q = _chart(pi)
    m = q.shape[1]
    forms = np.empty((pi.space.d, m, m))
    for form, (cells, cond) in zip(forms, pi.conditionals):
        qc = np.einsum("ckm,ck->mc", q[cells], np.sqrt(cond))
        np.subtract(np.eye(m), qc @ qc.T, out=form)
    return forms, q


def _max_form(forms: np.ndarray, v: np.ndarray) -> float:
    return float(max(v @ a @ v for a in forms))


def _form_sums(forms: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i w_i A_i for a weight vector w, or for each row of a (k, d) block
    of them, by one matmul.  Each row is its own vector-matrix product, so a
    row's sum does not depend on the rows beside it."""
    d, m, _ = forms.shape
    return (w[..., None, :] @ forms.reshape(d, m * m)).reshape(*w.shape[:-1], m, m)


def _scan_norms(forms: np.ndarray, scans: Sequence[RandomScan]) -> dict:
    """||RSG_w - Pi|| = 1 - lambda_min(sum_i w_i A_i) of each random scan.

    On mean-zero functions sum_i w_i A_i = I - RSG_w, and RSG_w, a mix of
    orthogonal projections, is positive semi-definite, so its centered norm
    is its top eigenvalue there.  The sums are solved by ``eigvalsh`` in
    chunks of at most _STACK_BYTES.
    """
    m = forms.shape[1]
    scans = list(dict.fromkeys(scans))
    size = max(1, _STACK_BYTES // (8 * m * m))
    norms = {}
    for start in range(0, len(scans), size):
        chunk = scans[start:start + size]
        sums = _form_sums(forms, np.array([scan.weights for scan in chunk]))
        norms.update(zip(chunk, (1.0 - np.linalg.eigvalsh(sums)[:, 0]).tolist()))
    return norms


def _row_norms(x: np.ndarray) -> np.ndarray:
    """|x[r]| of each row as a column, from the row's own BLAS dot product:
    the bits of np.linalg.norm(x[r]), whatever the number of rows."""
    return np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0]


def _smoothed_objective(w: np.ndarray, forms: np.ndarray, beta: float):
    """(1/beta) log sum_i exp(beta v^T A_i v) at v = w / |w| for each row of
    w: (rows,) values and (rows, m) gradients in w.  Each row's A_i v is its
    own BLAS matrix-vector product, so a row's result does not depend on the
    rows beside it, as it would with one matrix-matrix product."""
    d, m, _ = forms.shape
    nw = _row_norms(w)
    v = w / nw
    av = np.matmul(forms.reshape(d * m, m), v[:, :, None]).reshape(-1, d, m)  # A_i v
    q = np.sum(av * v[:, None, :], axis=2)
    top = q.max(axis=1, keepdims=True)
    e = np.exp(beta * (q - top))
    z = e.sum(axis=1, keepdims=True)
    val = top[:, 0] + np.log(z[:, 0]) / beta
    grad_v = 2.0 * np.matmul((e / z)[:, None, :], av)[:, 0]
    grad_w = (grad_v - np.sum(grad_v * v, axis=1, keepdims=True) * v) / nw
    return val, grad_w


def _pair_memory(rows: int, m: int) -> list:
    """Empty curvature-pair memories for ``_lbfgs``: (s, y, sy, rinv, gamma)
    of ``_lbfgs_direction``, every slot empty and gamma 0."""
    s = np.zeros((rows, LBFGS_MEMORY, m))
    return [s, np.zeros_like(s), np.zeros((rows, LBFGS_MEMORY)),
            np.tile(np.eye(LBFGS_MEMORY), (rows, 1, 1)), np.zeros(rows)]


def _push_pairs(mem: list, k, s: np.ndarray, y: np.ndarray, sy: np.ndarray) -> None:
    """Make (s[k], y[k]) the newest pair of the memories of rows k, in place;
    sy[k] = s^T y > 0.  Every slot moves one older and the oldest pair drops
    out, which drops the first row and column of R and of R^-1; the new pair
    borders R by the column (S^T y, sy), and R^-1 by (-R^-1 S^T y / sy, 1 / sy).
    """
    s_mem, y_mem, sy_mem, rinv, gamma = mem
    s_mem[k, :-1], y_mem[k, :-1], sy_mem[k, :-1] = s_mem[k, 1:], y_mem[k, 1:], sy_mem[k, 1:]
    s_mem[k, -1], y_mem[k, -1], sy_mem[k, -1] = s[k], y[k], sy[k]
    rinv[k, :-1, :-1] = rinv[k, 1:, 1:]
    border = rinv[k, :-1, :-1] @ (s_mem[k, :-1] @ y[k][:, :, None])  # R^-1 S^T y
    rinv[k, :-1, -1] = border[:, :, 0] / -sy[k, None]
    rinv[k, -1, -1] = 1.0 / sy[k]
    gamma[k] = sy[k] / np.sum(y[k] * y[k], axis=1)


def _lbfgs_direction(mem: list, g: np.ndarray) -> np.ndarray:
    """-H g for each row of g, H the BFGS update of gamma I by the row's
    curvature pairs s[r, i], y[r, i] in mem = (s, y, sy, rinv, gamma): pairs
    oldest first and zero in an empty slot, sy[r, i] = s_i^T y_i, rinv[r]
    the inverse of R, the upper triangle of S^T Y with a unit diagonal entry
    in an empty slot, and gamma = s^T y / y^T y of the newest pair.  A row
    without pairs (gamma 0) gets -g / |g|.

    H is taken in compact form, H = gamma I + [S gamma Y] M [S gamma Y]^T
    with M = [[R^-T (D + gamma Y^T Y) R^-1, -R^-T], [-R^-1, 0]] and D the
    diagonal of S^T Y (Byrd, Nocedal & Schnabel, Math. Programming 63 (1994),
    Thm. 2.2): the direction of the two-loop recursion, in a fixed number of
    batched products whatever the number of rows and pairs.
    """
    s, y, sy, rinv, gamma = mem
    gc = g[:, :, None]
    a = rinv @ (s @ gc)  # R^-1 S^T g
    ya = a.transpose(0, 2, 1) @ y  # (Y R^-1 S^T g)^T
    c = rinv.transpose(0, 2, 1) @ (sy[:, :, None] * a
                                   + gamma[:, None, None] * (y @ (ya.transpose(0, 2, 1) - gc)))
    p = gamma[:, None] * (ya[:, 0] - g) - (c.transpose(0, 2, 1) @ s)[:, 0]
    return np.where(gamma[:, None] > 0.0, p, -g / _row_norms(g))


def _rows_where(mask: np.ndarray, *arrays) -> list:
    """Each array's rows where mask holds."""
    return list(arrays) if mask.all() else [a[mask] for a in arrays]


def _lbfgs(fun, x: np.ndarray, args=()) -> np.ndarray:
    """Minimize fun(x, *args) -> (values, gradients) row by row from the
    (rows, m) block x: each row runs its own limited-memory BFGS, and all rows
    step in lockstep.

    Each row keeps its newest LBFGS_MEMORY curvature pairs (s, y), a pair only
    when s^T y > 0, and steps along ``_lbfgs_direction``: the direction of the
    two-loop recursion (Nocedal, Math. Comp. 35 (1980)) scaled by s^T y / y^T y
    of the newest pair, from the compact form; the first step has length 1.
    Each row halves its step until it meets the Armijo condition and stops on
    the LBFGS_* rules, or where rounding leaves it no descent direction or no
    step that decreases fun.  A row that stops keeps its iterate and leaves
    later calls of fun.  fun must compute each row alone; then a row's result
    does not depend on the rows run beside it.
    """
    out = np.array(x, dtype=float)
    live = np.arange(out.shape[0])
    x = out.copy()
    f, g = fun(x, *args)
    mem = _pair_memory(*out.shape)
    for _ in range(LBFGS_MAX_ITER):
        live, x, f, g, *mem = _rows_where(np.abs(g).max(axis=1) > LBFGS_GTOL, live, x, f, g, *mem)
        if not live.size:
            break
        p = _lbfgs_direction(mem, g)
        slope = np.sum(g * p, axis=1)
        # a non-negative slope is rounding only: the kept pairs make p descend
        live, x, f, g, p, slope, *mem = _rows_where(slope < 0.0, live, x, f, g, p, slope, *mem)
        if not live.size:
            break
        t = np.ones(live.size)
        x_t = x + p
        f_t, g_t = fun(x_t, *args)
        short = np.flatnonzero(~(f_t <= f + 1e-4 * slope))  # rows missing the Armijo condition
        for _ in range(59):  # halvings
            if not short.size:
                break
            t[short] *= 0.5
            x_t[short] = x[short] + t[short, None] * p[short]
            f_t[short], g_t[short] = fun(x_t[short], *args)
            short = short[~(f_t[short] <= f[short] + 1e-4 * t[short] * slope[short])]
        stepped = np.ones(live.size, dtype=bool)
        stepped[short] = False
        live, x, f, g, x_t, f_t, g_t, *mem = _rows_where(stepped, live, x, f, g, x_t, f_t, g_t,
                                                         *mem)
        s, y = x_t - x, g_t - g
        sy = np.sum(s * y, axis=1)
        kept = np.flatnonzero(sy > 0.0)
        # a slice moves the slots in place when every row keeps its pair
        _push_pairs(mem, slice(None) if kept.size == live.size else kept, s, y, sy)
        done = f - f_t <= LBFGS_FTOL * np.maximum(np.maximum(np.abs(f), np.abs(f_t)), 1.0)
        x, f, g = x_t, f_t, g_t
        out[live] = x
        live, x, f, g, *mem = _rows_where(~done, live, x, f, g, *mem)
    return out


def _simplex_newton_step(w: np.ndarray, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Ascent step p with sum(p) = 0 maximizing g^T p + p^T h p / 2.

    Weights at 0 that the step would push negative are held at 0 and the
    step is solved again on the rest.  The KKT system is solved by LU, and
    by least squares where its matrix is singular.
    """
    free = np.ones(w.shape[0], dtype=bool)
    while True:
        k = int(free.sum())
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = -h[free][:, free]
        kkt[:k, k] = kkt[k, :k] = 1.0
        rhs = np.append(g[free], 0.0)
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:  # a singular KKT matrix
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        p = np.zeros_like(w)
        p[free] = sol[:k]
        stuck = free & (w <= 0.0) & (p < 0.0)
        if not stuck.any():
            return p
        free &= ~stuck


def _bracket_closed(lower: float, upper: float) -> bool:
    return upper - lower <= CERTIFY_TOL * max(1.0, upper)


def _eigh_at(forms: np.ndarray, w: np.ndarray):
    return np.linalg.eigh(_form_sums(forms, w))


def inclination_dual(forms: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Bracket lower <= ell^2 <= upper from the random-scan dual, and its
    lowest eigenvectors.

    Maximizes lambda_min(sum_i w_i A_i) over the simplex by projected Newton
    from uniform w: with the eigenpairs (lambda_k, u_k) and v = u_0, the
    gradient is g_i = v^T A_i v and the Hessian
    H_ij = 2 sum_{k>=1} (v^T A_i u_k)(u_k^T A_j v)/(lambda_0 - lambda_k).
    Returns (lower, upper, plane) at the final w: lower = lambda_min,
    upper = max_i v^T A_i v for its eigenvector v = u_0, and plane the
    columns u_0, u_1 (u_0 alone when m = 1), the witness first.  Each step
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
    return float(lam[0]), _max_form(forms, u[:, 0]), u[:, :2]


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
    q = (forms @ w) @ w
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


def _witness(pi: TargetDistribution, v: np.ndarray) -> np.ndarray:
    """The function f = D^{-1/2} Q v by flat state, for v in chart coordinates."""
    return (_chart(pi) @ v) / np.sqrt(pi.pmf)


def inclination(pi: TargetDistribution, restarts: int = 32,
                scans: Sequence[RandomScan] = ()) -> InclinationResult:
    """The inclination bracketed by the random-scan dual, with a witness.

    ``inclination_dual`` runs first.  If its bracket closes, ell_hat is the
    witness's value sqrt(max_i v^T A_i v), certified to CERTIFY_TOL, and no
    restart runs.  Otherwise ell_hat comes from a multi-restart minimization
    of max_i dist(f, M_i) over the unit sphere of mean-zero functions, via
    log-sum-exp smoothing with a sharpening temperature schedule.  Restart j
    starts at cos(theta_j) u_0 + sin(theta_j) u_1, theta_j = pi j / restarts,
    in the plane of the dual's two lowest eigenvectors at its final weights:
    no seed enters, and doubling ``restarts`` keeps every start, bit for bit.
    The best witnesses measured overlap that plane by 0.98 or more, so the
    starts are near where their restarts end, and the schedule begins at
    beta = 32.  After every stage, ``_branch_polish`` tries to finish the
    restart at a first-order KKT point of the primal (an eigenvector of
    sum_i mu_i A_i whose forms are equal over supp(mu)); the first polish
    that passes ends the restart's schedule.  A restart whose polish never
    passes runs the whole schedule and keeps its last annealed iterate.
    Each stage runs the restarts still in the schedule together, and ell_hat
    is the least value of a restart, a tie going to the lowest restart index,
    so the result is schedule-independent and more restarts are never worse.
    Either way ``lower`` is sqrt of
    the dual, and ``kkt_residual`` is max_i v^T A_i v - lambda for the
    witness v and the eigenvalue lambda it was certified or polished at
    (None when no polish passed in the best restart).  ``scan_norms`` maps
    each of ``scans`` (random scans, or their weight tuples) to its centered
    norm, from the same forms (``_scan_norms``).
    """
    if restarts < 1:
        raise ValidationError("restarts must be >= 1, got %d" % restarts)
    scans = [_checked_scan(scan, RandomScan, pi) for scan in scans]
    # the n x n chart is built again for the witness, not held through the
    # eigen-solves: 2.1 MB at d = 9, 8.4 MB at d = 10
    forms = _inclination_forms(pi)[0]
    scan_norms = _scan_norms(forms, scans)
    lower, upper, plane = inclination_dual(forms)
    ell_lower = float(np.sqrt(max(lower, 0.0)))
    if _bracket_closed(lower, upper):
        return InclinationResult(value=float(np.sqrt(max(upper, 0.0))),
                                 witness=_witness(pi, plane[:, 0]), restarts=0, lower=ell_lower,
                                 certified=True, kkt_residual=upper - lower,
                                 scan_norms=scan_norms)
    theta = np.pi * np.arange(restarts) / restarts
    w = np.cos(theta)[:, None] * plane[:, 0]
    if plane.shape[1] > 1:  # with m = 1 the sphere is u_0 and -u_0
        w += np.sin(theta)[:, None] * plane[:, 1]
    residuals = [None] * restarts
    live = np.arange(restarts)
    for beta in (32.0, 256.0, 2048.0, 16384.0):
        x = _lbfgs(_smoothed_objective, w[live], (forms, beta))
        w[live] = x / _row_norms(x)
        for r in live.tolist():
            polished = _branch_polish(forms, w[r], beta)
            if polished is not None:
                w[r], residuals[r] = polished
        live = np.array([r for r in live.tolist() if residuals[r] is None], dtype=np.intp)
        if not live.size:
            break
    values = [_max_form(forms, v) for v in w]
    best = int(np.argmin(values))  # the least value; a tie goes to the lowest index
    return InclinationResult(value=float(np.sqrt(max(values[best], 0.0))),
                             witness=_witness(pi, w[best]), restarts=restarts, lower=ell_lower,
                             certified=False, kkt_residual=residuals[best],
                             scan_norms=scan_norms)


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

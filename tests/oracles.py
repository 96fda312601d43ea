"""Independent oracles the tests compare the package against.

Functions on a product space are plain arrays of values by flat state (last
coordinate fastest), as everywhere in gibbsgap.
"""
import math
from collections import deque
from typing import Sequence

import numpy as np

from gibbsgap.counterexample import _PIVMIN, LadderChainSpec, _geometric_mass
from gibbsgap.errors import ValidationError
from gibbsgap.geometry import LBFGS_FTOL, LBFGS_GTOL, LBFGS_MAX_ITER, LBFGS_MEMORY
from gibbsgap.measure import ProductSpace, TargetDistribution
from gibbsgap.operators import MarkovOperator, _centered_conjugated
from gibbsgap.sampler import _TABLE_MIN_BYTES


def random_target(seed: int, dims: Sequence[int]) -> TargetDistribution:
    """Reproducible full-support pmf drawn uniformly from the simplex
    (normalized unit-shape gamma draws, a flat Dirichlet).

    Identical seed gives a bit-for-bit identical pmf.
    """
    space = ProductSpace(tuple(dims))
    rng = np.random.default_rng(seed)
    g = rng.gamma(shape=1.0, scale=1.0, size=space.total_states)
    # gamma draws are positive a.s.; guard against underflow to exact zero
    g = np.maximum(g, 1e-300)
    return TargetDistribution(space, g / g.sum())


def two_block_facts(pi: TargetDistribution, weights=(0.5, 0.5)) -> dict:
    """Closed forms of a d = 2 target from its maximal correlation sigma.

    sigma is the second singular value of B = D_1^{-1/2} Pi_12 D_2^{-1/2},
    the pmf matrix scaled by its marginals (the first is 1); the ranges M_1,
    M_2 meet in principal angles with cosines sigma_k(B) (Halmos, Trans. AMS
    144 (1969)).  So either sweep order has norm sigma and spectral radius
    sigma^2 (Liu, Wong & Kong, Biometrika 81 (1994)), the random scan with
    these weights has norm (1 + sqrt(1 - 4 w_1 w_2 (1 - sigma^2))) / 2, the
    angle c is sigma and the inclination ell is sqrt((1 - sigma) / 2).  The
    random-scan norm is summed as (1 + sqrt((w_1 - w_2)^2 + 4 w_1 w_2
    sigma^2)) / 2, the same number without the cancellation of 1 - 4 w_1 w_2
    (1 - sigma^2) at small sigma.
    """
    joint = pi.as_tensor()
    b = joint / np.sqrt(np.outer(joint.sum(axis=1), joint.sum(axis=0)))
    singular = np.linalg.svd(b, compute_uv=False)
    sigma = float(singular[1]) if singular.size > 1 else 0.0
    w1, w2 = weights
    return {"sigma": sigma, "dsg_norm": sigma, "dsg_radius": sigma ** 2,
            "rsg_norm": (1.0 + math.sqrt((w1 - w2) ** 2 + 4.0 * w1 * w2 * sigma ** 2)) / 2.0,
            "c": sigma, "ell": math.sqrt((1.0 - sigma) / 2.0)}


def inner_product(f: np.ndarray, g: np.ndarray, pi: TargetDistribution) -> float:
    """<f, g> = sum_x f(x) g(x) pi(x)."""
    return float(np.sum(f * g * pi.pmf))


def conditional_mean(f: np.ndarray, i: int, pi: TargetDistribution) -> np.ndarray:
    """E_pi[f | x_{-i}] as a function on the full space (1-based coordinate i).

    This is the small step applied to f, computed from the pmf tensor alone:
    the orthogonal projection of f onto the functions constant in coordinate i.
    """
    d = pi.space.d
    if not 1 <= i <= d:
        raise ValidationError("coordinate index %d out of range 1..%d" % (i, d))
    axis = i - 1
    w = pi.as_tensor()
    fv = np.asarray(f, dtype=float).reshape(pi.space.dims)
    num = np.sum(fv * w, axis=axis, keepdims=True)
    den = np.sum(w, axis=axis, keepdims=True)
    return np.broadcast_to(num / den, pi.space.dims).reshape(-1)


def power_norm_sequence(op: MarkovOperator, n_max: int) -> list[float]:
    """[||P^n - Pi|| for n = 1..n_max]; non-increasing and <= ||P - Pi||^n."""
    a = _centered_conjugated(op.kernel, op.stationary)
    out = []
    power = np.eye(a.shape[0])
    for _ in range(n_max):
        power = power @ a
        out.append(float(np.linalg.svd(power, compute_uv=False)[0]))
    return out


def ladder_adjoint_kernel(spec: LadderChainSpec) -> np.ndarray:
    """Time reversal of the ladder chain written out from the reversal rules
    (oracle for ``operators.adjoint``)."""
    p = spec.jump_pmf()
    m = spec.n_states
    kernel = np.zeros((m, m))
    kernel[0, 0] = p[0]
    for n in range(1, spec.N + 1):
        kernel[0, spec.state_index(n, 1)] = p[n]
        for k in range(2, n + 1):
            kernel[spec.state_index(n, k - 1), spec.state_index(n, k)] = 1.0
        kernel[spec.state_index(n, n), 0] = 1.0
    return kernel


def _renewal_coefficients(spec: LadderChainSpec) -> np.ndarray:
    """g(nu) = sum_{k=1}^{N+1} nu^k - q (1 - q^(N+1)) / (1 - q), highest power
    first: the renewal polynomial of the ladder under lambda = q / nu, divided
    by its common coefficient."""
    q = spec.q
    return np.append(np.ones(spec.N + 1), -q * _geometric_mass(spec) / (1.0 - q))


def renewal_roots_companion(spec: LadderChainSpec) -> np.ndarray:
    """All N + 1 roots nu of g from the float64 companion solve, each polished
    by one Newton step; nu = q is the eigenvalue lambda = 1."""
    g = _renewal_coefficients(spec)
    nu = np.roots(g)
    return nu - np.polyval(g, nu) / np.polyval(np.polyder(g), nu)


def ladder_gap_companion(spec: LadderChainSpec) -> tuple[float, float]:
    """(gap, max over all roots of |g(nu)|) of the ladder kernel from every root
    of g (oracle for ``counterexample.ladder_gap``, which solves for the one
    root that sets the gap)."""
    nu = renewal_roots_companion(spec)
    residual = float(np.abs(np.polyval(_renewal_coefficients(spec), nu)).max())
    lam = spec.q / nu
    others = np.delete(lam, np.argmin(np.abs(lam - 1.0)))
    return 1.0 - float(np.abs(others).max()), residual


# shifts per multisection round
_MULTISECTION_POINTS = 63


def spider_inertia(p: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Number of symmetric-mode eigenvalues of the ladder's K below each
    shift, for all shifts at once (oracle for ``counterexample._spider_below``).

    Leaf-to-root LDL^T of (spider - shift): ``piv[0, t]`` and ``piv[1, t]``
    are the pivots at depth t from the tip of an even and an odd leg.  The
    even leg ending at depth t is rung 2t + 2, the odd one rung 2t + 1.  A
    zero (or subnormal) pivot is replaced by -_PIVMIN.
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


def ladder_reversible_gap_multisection(spec: LadderChainSpec) -> float:
    """gap(K) of the ladder's reversibilization with lambda_2 and lambda_min
    each bracketed by multisection over the whole band [-1, 1] (oracle for
    ``counterexample.ladder_reversible_gap``, which skips a search the rung
    modes make moot and starts the others at the rung shift)."""
    p = spec.jump_pmf()
    size = 1 + sum((n + 1) // 2 for n in range(1, spec.N + 1))
    k = np.array([1, size - 1])  # 1-based ranks of lambda_min and lambda_2
    lo = np.full(2, -1.0 - 2.0 ** -30)
    hi = np.full(2, 1.0 + 2.0 ** -30)
    frac = np.arange(1, _MULTISECTION_POINTS + 1) / (_MULTISECTION_POINTS + 1.0)
    rows = np.arange(2)
    while True:
        grid = np.clip(lo[:, None] + (hi - lo)[:, None] * frac, lo[:, None], hi[:, None])
        counts = spider_inertia(p, grid.ravel()).reshape(grid.shape)
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


def exact_asymptotic_variance(op: MarkovOperator, f: np.ndarray) -> float:
    """sigma^2(f) = lim Var(sum_{t<n} f(X_t)) / n for the stationary chain of op.

    With fbar = f - pi(f) and g the solution of the Poisson equation
    (I - K + 1 pi^T) g = fbar, which is sum_k K^k fbar, sigma^2 is
    <fbar, 2 g - fbar>_pi = Var_pi(f) + 2 sum_{k>=1} <fbar, K^k fbar>_pi.
    """
    pi = op.stationary
    fbar = np.asarray(f, dtype=float) - pi @ f
    n = pi.shape[0]
    g = np.linalg.solve(np.eye(n) - op.kernel + pi[None, :], fbar)
    return float(pi @ (fbar * (2.0 * g - fbar)))


def bucket_table(cum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """thr and pick of ``sampler._bucket_table``, with its choice of M and
    dtype, by run-length expansion: row x of lo = #{k : cum[x, k] < m/M},
    extended by bucket M, is a run of 0s, then of 1s, ... then of n's, which
    steps at the buckets min(floor(cum[x] * M) + 1, M + 1).  Rows go 4,096
    buckets at a time (at least one row)."""
    rows, cols = cum.shape
    dtype = next(t for t in (np.int8, np.int16, np.int32) if np.iinfo(t).max >= cols)
    budget = max(2 * cum.nbytes, _TABLE_MIN_BYTES)
    fit = budget // (rows * (cum.itemsize + 2 * np.dtype(dtype).itemsize))
    buckets = min(1 << (16 * cols - 1).bit_length(), 1 << fit.bit_length() - 1)
    thr = np.empty((rows, buckets))
    pick = np.empty((rows, buckets, 2), dtype)
    span = max(1, (1 << 12) // buckets)
    counts = np.tile(np.arange(cols + 1), span)
    for start in range(0, rows, span):
        part = cum[start:start + span]
        ends = np.minimum(np.floor(part * buckets) + 1, buckets + 1).astype(np.intp)
        runs = np.diff(ends, axis=1, prepend=0, append=buckets + 1).ravel()
        below = np.repeat(counts[:runs.size], runs).reshape(part.shape[0], buckets + 1)
        lo, hi = below[:, :-1], below[:, 1:]
        first = thr[start:start + span] = np.take_along_axis(part, lo, axis=1)
        last = np.take_along_axis(part, np.maximum(hi - 1, lo), axis=1)
        pick[start:start + span, :, 0] = lo
        pick[start:start + span, :, 1] = np.where(last == first, hi, -1)
    return thr, pick


def chart(pi: TargetDistribution) -> np.ndarray:
    """An orthonormal basis Q of the mean-zero coordinates sqrt(pi)-perp: the
    last n - 1 right singular vectors of the row sqrt(pi)^T, an (n, n - 1)
    array (the basis ``scipy.linalg.null_space`` gives)."""
    return np.linalg.svd(np.sqrt(pi.pmf)[None, :])[2][1:].T


def complement_factor_gap(pi: TargetDistribution, w) -> float:
    """1 - ||RSG_w - Pi|| as the second-smallest singular value squared of
    [sqrt(w_1) H_1, ..., sqrt(w_d) H_d], with no sum of forms (oracle for
    ``geometry._scan_norms``).

    H_i stacks, on each x_{-i} cell, an orthonormal basis of the complement of
    the cell's unit vector r = sqrt(pi(x_i | x_{-i})) (the last right singular
    vectors of the row r^T), so H_i H_i^T = I - D^{1/2} P_i D^{-1/2} and the
    stack's Gram matrix is I - RSG_w in the coordinates D^{1/2} f.  Its
    smallest singular value, 0, belongs to the constants.
    """
    n = pi.pmf.shape[0]
    blocks = []
    for weight, (cells, cond) in zip(w, pi.conditionals):
        m, k = cells.shape
        complement = np.linalg.svd(np.sqrt(cond)[:, None, :])[2][:, 1:]  # (m, k - 1, k)
        h = np.zeros((n, m, k - 1))
        h[cells, np.arange(m)[:, None], :] = complement.transpose(0, 2, 1)
        blocks.append(math.sqrt(weight) * h.reshape(n, m * (k - 1)))
    singular = np.linalg.svd(np.hstack(blocks), compute_uv=False)
    singular = np.append(singular, np.zeros(max(0, n - singular.size)))
    return float(np.sort(singular)[1] ** 2)


def smoothed_objective(w: np.ndarray, forms: np.ndarray, beta: float):
    """(1/beta) log sum_i exp(beta v^T A_i v) at v = w / |w| for one vector w,
    with its gradient in w, by einsum (oracle for one row of
    ``geometry._smoothed_objective``)."""
    nw = np.linalg.norm(w)
    v = w / nw
    q = np.einsum("i,kij,j->k", v, forms, v)
    m = q.max()
    e = np.exp(beta * (q - m))
    z = e.sum()
    p = e / z
    grad_v = 2.0 * np.einsum("k,kij,j->i", p, forms, v)
    return m + np.log(z) / beta, (grad_v - (grad_v @ v) * v) / nw


def two_loop_direction(pairs, g: np.ndarray) -> np.ndarray:
    """-H g by the two-loop recursion over the curvature pairs (s, y, 1/s^T y),
    oldest first (Nocedal, Math. Comp. 35 (1980)), H scaled by s^T y / y^T y
    of the newest pair; -g / |g| without pairs."""
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
    return p


def lbfgs(fun, x: np.ndarray, args=()) -> np.ndarray:
    """Minimize fun(x, *args) -> (value, gradient) for one vector x by
    limited-memory BFGS along ``two_loop_direction`` with the stopping rules of
    ``geometry._lbfgs`` (oracle for one of its rows): Armijo halvings, a pair
    kept only when s^T y > 0, the newest LBFGS_MEMORY pairs."""
    f, g = fun(x, *args)
    pairs = deque(maxlen=LBFGS_MEMORY)
    for _ in range(LBFGS_MAX_ITER):
        if np.abs(g).max() <= LBFGS_GTOL:
            break
        p = two_loop_direction(pairs, g)
        slope = g @ p
        if slope >= 0.0:
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

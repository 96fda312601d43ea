"""Seeded simulation of the Gibbs samplers with CLT / tail diagnostics.

Chains are simulated from the dense one-step kernel of the operator they are
given, so recorded steps match the analyzed operator exactly: one record per
full sweep for a deterministic scan (there are no records inside a sweep),
one record per single-coordinate update for a random scan.  The caller
builds that operator once (``scan_operator``, for a target whose state
count was checked against the cap when it was loaded) and passes it, with
its rate ``rho`` (a random scan's norm, a sweep's radius) and its
``cumulative_table``, to every simulation.
Every chain starts from the stationary law op.stationary, so the tail bound
carries no ||d nu/d pi|| factor.  Each call draws from one numpy Generator
seeded with its seed: a chain takes its start state and then one uniform per
recorded step, and the replicas of a tail check share one stream (start
states first, then one uniform per replica per step), so they are simulated
serially and in a fixed order.

A scan's whole tail grid comes from one simulation of ``replicas`` chains
over the longest horizon: shorter horizons are prefixes of it, and every
threshold eps is checked against the same partial sums.  The results are
identical to one run per (n, eps) point from the same seed.

Both simulations invert the cumulative table by one rule: from a uniform u
a step moves to bisect_right(cdf, u) = #{k : cdf[k] <= u}, the first column
whose cdf value exceeds u, which always has positive probability.  A chain
(run_chain) bisects its row; the replicas step through a bucket table
(indexed search: Chen & Asau, AIIE Trans. 6 (1974); Devroye, Non-Uniform
Random Variate Generation (1986), sec. III.2.4).  [0, 1) is cut into M = 2^j
buckets; a bucket of a row that holds at most one distinct cdf value has two
outcomes, the count below it and the count below its end, and one
comparison of u with that value picks between them.  Only a draw at or
above the first value of a bucket that holds more bisects the row, on the
same memoryviews run_chain bisects, so every step gives the state of a
bisection in expected O(1) work.  The uniforms are drawn a few steps at a
time, rng.random((b, replicas)), the same stream as b calls
rng.random(replicas), and each block's buckets floor(u * M) are taken in
one cast.
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .measure import TargetDistribution
from .operators import MarkovOperator
from .operators import scan_operator  # not used here: tests and the benchmark tracer import it

#: Uniforms drawn per rng call in run_chain; the stream equals one scalar
#: draw per step, and memory stays flat in n.
_UNIFORM_BLOCK = 4096
#: Uniforms empirical_tails draws per rng call: max(1, _TAIL_BLOCK // replicas)
#: steps of every replica, so a block and its buckets each hold at most
#: max(_TAIL_BLOCK, replicas) entries.
_TAIL_BLOCK = 8192
#: Bytes _bucket_table may take whatever the size of the cumulative table.
_TABLE_MIN_BYTES = 1 << 20
#: Fewest chain steps batch means accepts: 10 batches of 10 steps.
BATCH_MEANS_MIN_STEPS = 100


def cumulative_table(kernel: np.ndarray) -> np.ndarray:
    """Row-wise cumulative kernel for inverse-cdf sampling.

    np.cumsum rows can end a few ulps below 1, and a uniform draw above the
    last entry would pick state n_states (out of range) or a trailing
    zero-probability state.  Each row is therefore exactly 1.0 from its last
    positive-probability column onward; draws below that are unchanged.
    """
    kernel = np.asarray(kernel, dtype=float)
    cum = np.cumsum(kernel, axis=1)
    cols = kernel.shape[1]
    last = cols - 1 - np.argmax(kernel[:, ::-1] > 0.0, axis=1)
    cum[np.arange(cols)[None, :] >= last[:, None]] = 1.0
    return cum


def _rows(cum: np.ndarray) -> list[memoryview]:
    """The rows of a cumulative table as memoryviews, which bisect can search
    without copying them (Python-list rows would take four times the memory
    of the array)."""
    return [memoryview(row) for row in cum]


def _bucket_table(cum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bucket table of a cumulative table, for _bucket_step: thr and
    pick over n rows of M buckets, M a power of two, so that each edge m/M
    and floor(u * M) are exact.

    For state x and bucket m, lo = #{k : cum[x, k] < m/M} and
    hi = #{k : cum[x, k] < (m + 1)/M}; thr[x, m] = cum[x, lo], and
    pick[x, m] = (lo, hi), with -1 for hi where the bucket holds two or
    more distinct cdf values (cum[x, lo] != cum[x, hi - 1]).  Otherwise every u
    in it has bisect_right(cum[x], u) = hi if u >= thr[x, m] else lo.
    M is the power of two at or above 16 n, halved while the table takes
    more than twice the bytes of cum (or _TABLE_MIN_BYTES); pick has the
    smallest dtype that holds a state.  Each row's counts below the M + 1
    edges come from one searchsorted.  That is exact even where a row's
    cumsum passed 1 before its last positive column (cumulative_table
    leaves, say, 0.5, 1 + 2^-52, 1): only values >= 1 are out of order, and
    every edge is <= 1, so cum[x, k] < m/M stays monotone in k.
    """
    rows, cols = cum.shape
    dtype = next(t for t in (np.int8, np.int16, np.int32) if np.iinfo(t).max >= cols)
    budget = max(2 * cum.nbytes, _TABLE_MIN_BYTES)
    fit = budget // (rows * (cum.itemsize + 2 * np.dtype(dtype).itemsize))
    buckets = min(1 << (16 * cols - 1).bit_length(), 1 << fit.bit_length() - 1)
    edges = np.arange(buckets + 1) / buckets
    thr = np.empty((rows, buckets))
    pick = np.empty((rows, buckets, 2), dtype)
    for x, row in enumerate(cum):
        below = row.searchsorted(edges)
        lo, hi = below[:-1], below[1:]
        first = thr[x] = row[lo]
        pick[x, :, 0] = lo
        pick[x, :, 1] = np.where(row[np.maximum(hi - 1, lo)] == first, hi, -1)
    return thr, pick


def _bucket_step(rows: list[memoryview], thr: np.ndarray, pick: np.ndarray,
                 states: np.ndarray, u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Advance a vector of chains one step by inverse-cdf sampling: the new
    state is bisect_right(cum[x], u), as run_chain steps, with m =
    floor(u * M) the bucket of each draw.  One comparison per chain, against
    thr of its bucket; only a draw at or above thr in a bucket that holds two
    or more cdf values bisects its row.
    """
    at = np.multiply(states, thr.shape[1], dtype=np.intp)
    at += m
    above = u >= thr.take(at)
    at += at
    at += above  # the flat index of pick[x, m, above]
    nxt = pick.take(at)
    if nxt.min() < 0:
        for r in np.flatnonzero(nxt < 0).tolist():
            nxt[r] = bisect_right(rows[states[r]], u[r])
    return nxt


def _walk(rows: list[memoryview], x: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n inverse-cdf steps from x over the cumulative rows; one uniform per
    step, drawn in blocks."""
    states = np.empty(n, dtype=np.int64)
    for start in range(0, n, _UNIFORM_BLOCK):
        block = []
        for u in rng.random(min(_UNIFORM_BLOCK, n - start)).tolist():
            x = bisect_right(rows[x], u)
            block.append(x)
        states[start:start + len(block)] = block
    return states


def run_chain(op: MarkovOperator, n: int, seed: int, *,
              cum: np.ndarray | None = None) -> np.ndarray:
    """n steps of op's kernel from X_0 drawn from op.stationary: states[t] is
    the state after t + 1 recorded steps.  Identical inputs give identical
    states.  cum is cumulative_table(op.kernel) where the caller holds it."""
    if n < 1:
        raise ValidationError("n must be >= 1, got %d" % n)
    rng = np.random.default_rng(seed)
    x0 = int(rng.choice(op.n_states, p=op.stationary))
    return _walk(_rows(cumulative_table(op.kernel) if cum is None else cum), x0, n, rng)


def clt_variance_bound(rho: float, f: np.ndarray, pi: TargetDistribution) -> float:
    """((1 + rho)/(1 - rho)) Var_pi(f): the asymptotic-variance ceiling.

    rho must be an upper bound on the norm: for a random scan pass
    rho = ||RSG - Pi|| (exact); for a deterministic scan pass a certified
    rho >= ||DSG - Pi|| (not its spectral radius, which can lie below the
    norm).
    """
    if not 0.0 <= rho < 1.0:
        raise ValidationError("rho must lie in [0, 1) for a finite bound, got %r" % rho)
    f = np.asarray(f, dtype=float).reshape(-1)
    if f.shape[0] != pi.space.total_states:
        raise ValidationError("f has wrong length")
    mean = float(pi.pmf @ f)
    var = float(pi.pmf @ (f - mean) ** 2)
    return (1.0 + rho) / (1.0 - rho) * var


def asymptotic_variance_estimate(states: np.ndarray, f: np.ndarray) -> tuple[float, float]:
    """Nonoverlapping batch-means estimate of the asymptotic variance of f
    along a chain's states, with a jackknife standard error.  The batch count
    is floor(sqrt(n)); n must be at least BATCH_MEANS_MIN_STEPS."""
    f = np.asarray(f, dtype=float).reshape(-1)
    y = f[states]
    n = y.shape[0]
    if n < BATCH_MEANS_MIN_STEPS:
        raise ValidationError("chain of length %d too short for batch means (need >= %d)"
                              % (n, BATCH_MEANS_MIN_STEPS))
    batch_count = int(np.sqrt(n))
    b = n // batch_count
    used = b * batch_count
    means = y[:used].reshape(batch_count, b).mean(axis=1)
    grand = means.mean()
    dev2 = (means - grand) ** 2
    est = b * np.sum(dev2) / (batch_count - 1)
    # jackknife over batches: leaving batch k out moves the mean by
    # -e_k/(B-1), so its sum of squared deviations is D - e_k^2 B/(B-1)
    jack = b * (np.sum(dev2) - dev2 * (batch_count / (batch_count - 1))) / (batch_count - 2)
    se = float(np.sqrt(max((batch_count - 1) / batch_count * np.sum((jack - jack.mean()) ** 2), 0.0)))
    return float(est), se


def hoeffding_bound(rho: float, n: int, eps: float) -> float:
    """Tail bound  exp(-((1-rho)/(1+rho)) n eps^2)  for a chain started from pi."""
    if not 0.0 <= rho < 1.0:
        raise ValidationError("rho must lie in [0, 1), got %r" % rho)
    if not eps > 0:  # also refuses NaN
        raise ValidationError("eps must be > 0, got %g" % eps)
    return float(np.exp(-(1.0 - rho) / (1.0 + rho) * n * eps ** 2))


def check_tail_inputs(mu: float, n_grid: Sequence[int], eps_grid: Sequence[float],
                      replicas: int) -> None:
    """Refuse the inputs of empirical_tails for a function of mean mu valued
    in [0, 1]: a horizon below 1, an eps that is not > 0 (NaN included) or
    puts mu + eps above 1, or no replica."""
    for n in n_grid:
        if n < 1:
            raise ValidationError("tail horizon n must be >= 1, got %d" % n)
    for eps in eps_grid:
        if not eps > 0:
            raise ValidationError("eps must be > 0, got %g" % eps)
        if mu + eps > 1.0 + 1e-12:
            raise ValidationError("mu + eps = %g exceeds 1" % (mu + eps))
    if replicas < 1:
        raise ValidationError("replicas must be >= 1")


def empirical_tails(op: MarkovOperator, rho: float, f: np.ndarray,
                    n_grid: Sequence[int], eps_grid: Sequence[float],
                    replicas: int, seed: int, *,
                    cum: np.ndarray | None = None) -> list[dict]:
    """Monte Carlo frequencies of {sum_{i=1..n} f(X_i) >= n (mu + eps)} for
    chains of op, for every n in n_grid (outer) and eps in eps_grid (inner),
    in that order; each is checked against the tail bound with rate rho.
    One row per point, with the report's keys: ``n``, ``eps``, ``frequency``,
    ``bound``, ``std_error`` and ``pass``.

    f must be valued in [0, 1].  Pass criterion: frequency <=
    bound + 3 binomial standard errors.  One set of replicas runs to the
    longest horizon; its partial sums at each n serve every eps, exactly as
    separate runs from the same seed would.  cum is cumulative_table(op.kernel)
    where the caller holds it.
    """
    f = np.asarray(f, dtype=float).reshape(-1)
    if f.shape[0] != op.n_states:
        raise ValidationError("f has wrong length")
    if f.min() < 0.0 or f.max() > 1.0:
        raise ValidationError("f must be valued in [0, 1]")
    mu = float(op.stationary @ f)
    check_tail_inputs(mu, n_grid, eps_grid, replicas)
    if cum is None:
        cum = cumulative_table(op.kernel)
    rows = _rows(cum)
    thr, pick = _bucket_table(cum)
    buckets = thr.shape[1]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    states = rng.choice(op.n_states, size=replicas, p=op.stationary)
    sums = np.zeros(replicas)
    snapshots = {}
    done = 0
    steps = max(1, _TAIL_BLOCK // replicas)
    for horizon in sorted(set(n_grid)):
        for start in range(done, horizon, steps):
            draws = rng.random((min(steps, horizon - start), replicas))
            # the cast to intp truncates u * M >= 0, which is exact: floor(u * M)
            for u, m in zip(draws, (draws * buckets).astype(np.intp)):
                states = _bucket_step(rows, thr, pick, states, u, m)
                sums += f.take(states)
        done = horizon
        snapshots[horizon] = sums.copy()
    rows = []
    for n in n_grid:
        for eps in eps_grid:
            freq = float(np.mean(snapshots[n] >= n * (mu + eps) - 1e-12))
            bound = hoeffding_bound(rho, n, eps)
            se = float(np.sqrt(max(freq * (1.0 - freq), 1.0 / replicas) / replicas))
            rows.append({"n": n, "eps": eps, "frequency": freq, "bound": bound, "std_error": se,
                         "pass": freq <= bound + 3.0 * se})
    return rows


def empirical_tail(op: MarkovOperator, rho: float, f: np.ndarray,
                   n: int, eps: float, replicas: int, seed: int) -> dict:
    """The row of the single grid point (n, eps) of empirical_tails."""
    return empirical_tails(op, rho, f, [n], [eps], replicas, seed)[0]

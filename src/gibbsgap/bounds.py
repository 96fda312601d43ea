"""Closed-form spectral-norm bounds and slack reporting against exact values.

Slack convention: slack = bound - exact.  Negative slack beyond -1e-9 on an
asserted bound is a hard failure.  Bounds are evaluated from the exact
closed-form angle c (recovered from the uniform-weight random-scan norm) and
from lower bounds on the inclination (the random-scan dual, when given),
never from the inclination estimate ell_hat, whose direction as an upper
bound would flip the deterministic-scan inequality.
"""
from __future__ import annotations

import itertools
import math
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .geometry import angle_from_uniform_norm, inclination_lower_bound
from .operators import DeterministicScan, RandomScan

SLACK_TOL = 1e-9
#: Permutations are enumerated exhaustively up to this dimension, sampled beyond.
EXHAUSTIVE_PERM_DIM = 5
#: Permutations sampled above EXHAUSTIVE_PERM_DIM, as SAMPLED_PERMS / 2 reversal
#: pairs (the identity and its reverse included).
SAMPLED_PERMS = 24


def violations(rows: Sequence[dict]) -> list[dict]:
    """The bounds rows whose slack is below -SLACK_TOL."""
    return [row for row in rows if row["slack"] < -SLACK_TOL]


def _check_c(c: float, d: int) -> None:
    if not -1.0 / (d - 1.0) - 1e-9 <= c <= 1.0 + 1e-9:
        raise ValidationError("angle c=%g out of range [-1/(d-1), 1] for d=%d" % (c, d))


def rsg_norm_bound(c: float, d: int, weights: Sequence[float]) -> float:
    """Upper bound on ||RSG - Pi|| with alpha = d * min_i w_i.

    Equals the exact norm at uniform weights and never drops below the
    universal lower bound 1/d.
    """
    scan = weights if isinstance(weights, RandomScan) else RandomScan(tuple(weights))
    if scan.d != d:
        raise ValidationError("weights have length %d, expected %d" % (scan.d, d))
    _check_c(c, d)
    alpha = d * min(scan.weights)
    return ((d - 1.0) / d) * alpha * (c + 1.0 / (d - 1.0)) + 1.0 - alpha


def dsg_norm_bound_from_c(c: float, d: int) -> float:
    """Upper bound sqrt(1 - ((d-1)^2/(4 d^4)) (1-c)^2) on ||DSG - Pi||."""
    if d < 2:
        raise ValidationError("d must be >= 2, got %d" % d)
    _check_c(c, d)
    inner = 1.0 - ((d - 1.0) ** 2 / (4.0 * d ** 4)) * (1.0 - c) ** 2
    return math.sqrt(max(inner, 0.0))


def dsg_norm_bound_from_l(ell: float, d: int) -> float:
    """Upper bound sqrt(1 - ell^2/d^2); ell must be a certified lower bound
    on the true inclination (not the optimizer's upper-bound estimate)."""
    if not 0.0 <= ell <= 1.0:
        raise ValidationError("ell must lie in [0, 1], got %g" % ell)
    if d < 2:
        raise ValidationError("d must be >= 2, got %d" % d)
    return math.sqrt(max(1.0 - ell ** 2 / d ** 2, 0.0))


def rapid_mixing_transfer(beta: float, gamma: float, d: int) -> float:
    """Deterministic-scan gap floor (gamma^2/32) d^(-2 beta - 2).

    Valid whenever the random-scan gap satisfies 1 - rho_RSG(d) >= gamma *
    d^(-beta): a polynomial random-scan decay rate beta degrades to at worst
    2 beta + 2 for any deterministic scan.
    """
    if beta <= 0 or gamma <= 0:
        raise ValidationError("beta and gamma must be positive")
    if d < 2:
        raise ValidationError("d must be >= 2, got %d" % d)
    return (gamma ** 2 / 32.0) * float(d) ** (-2.0 * beta - 2.0)


def sample_permutations(d: int, seed: int = 0) -> list[tuple[int, ...]]:
    """All d! permutations for small d, a seeded sample of reversal pairs beyond.

    Each sampled order comes with its reverse, whose sweep is its adjoint, so
    the sample's norms take one sweep per pair (``operators.sweep_spectra``).
    """
    if d <= EXHAUSTIVE_PERM_DIM:
        return [tuple(p) for p in itertools.permutations(range(1, d + 1))]
    rng = np.random.default_rng(seed)
    pairs = {tuple(range(1, d + 1))}  # each pair by its lesser order
    while len(pairs) < SAMPLED_PERMS // 2:
        order = tuple(int(x) + 1 for x in rng.permutation(d))
        pairs.add(min(order, order[::-1]))
    return sorted(pairs | {order[::-1] for order in pairs})


def _row(name: str, bound: float, exact: float, inputs: dict, sharp: bool = False) -> dict:
    """One bounds row; its slack is computed here and nowhere else."""
    return {"name": name, "bound": bound, "exact": exact, "slack": bound - exact,
            "sharp": sharp, "inputs": inputs}


def verify_bounds(norms: Mapping, dsg_scans: Sequence[DeterministicScan],
                  rsg_scans: Sequence[RandomScan], ell_lower: float) -> tuple[float, list[dict]]:
    """The angle c and the report's bounds rows: each bound against the exact
    norm of a given scan, read from ``norms``, a mapping from scan to centered
    norm that holds the given scans and the uniform random scan.

    A row holds ``name``, ``bound``, ``exact``, ``slack`` = bound - exact,
    ``sharp`` and the ``inputs`` the bound was evaluated from.  Asserts
    nothing itself; callers pass the rows to ``violations``.  The rows are
    the uniform-weight sharpness row, the universal 1/d lower bound, one per
    random scan, and three per deterministic scan: from c, from the
    certified inclination floor, and from ``ell_lower``, a lower bound on
    the inclination such as ``InclinationResult.lower``.
    """
    d = next(iter(norms)).d  # every scan in norms has the target's d
    uniform = RandomScan.uniform(d)
    exact_uniform = norms[uniform]
    c = angle_from_uniform_norm(exact_uniform, d)
    rows = [
        _row("rsg_uniform_sharpness", rsg_norm_bound(c, d, uniform), exact_uniform,
             {"c": c, "d": d, "weights": uniform.weights}, sharp=True),
        # universal floor: exact norm >= 1/d, recorded as bound=exact, exact=1/d
        _row("rsg_lower_bound_1_over_d", exact_uniform, 1.0 / d, {"d": d}),
    ]
    rows += [_row("rsg_norm_bound", rsg_norm_bound(c, d, scan), norms[scan],
                  {"c": c, "d": d, "weights": scan.weights}) for scan in rsg_scans]

    cor2 = dsg_norm_bound_from_c(c, d)
    for scan in dsg_scans:
        exact = norms[scan]
        rows += [
            _row("dsg_norm_bound", cor2, exact, {"c": c, "d": d, "sigma": scan.order}),
            _row("dsg_norm_bound_via_certified_l",
                 dsg_norm_bound_from_l(inclination_lower_bound(c, d), d), exact,
                 {"c": c, "d": d, "sigma": scan.order}),
            _row("dsg_norm_bound_via_dual_l", dsg_norm_bound_from_l(ell_lower, d), exact,
                 {"ell_lower": ell_lower, "d": d, "sigma": scan.order}),
        ]
    return c, rows

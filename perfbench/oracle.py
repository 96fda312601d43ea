"""Independent dense oracle for the small targets the benchmark checks.

Builds each small step P_i as a masked, row-normalized copy of pi (the
"same x_{-i} cell" mask is a Kronecker product), which shares no code with
the package's loop construction, and computes centered norms and radii in
the symmetric L2(pi) coordinates.  Meant for targets of at most a few
hundred states.
"""
import math

import numpy as np


def small_steps(pmf, dims):
    """[P_1, ..., P_d] as dense row-stochastic tables (flat C order)."""
    pmf = np.asarray(pmf, dtype=float)
    steps = []
    for i, ni in enumerate(dims):
        before = math.prod(dims[:i])
        after = math.prod(dims[i + 1:])
        mask = np.kron(np.kron(np.eye(before), np.ones((ni, ni))), np.eye(after))
        k = mask * pmf[None, :]
        steps.append(k / k.sum(axis=1, keepdims=True))
    return steps


def sweep(steps, order):
    """Kernel of updating coordinates in ``order`` (1-based), first in time first."""
    kernel = steps[order[0] - 1]
    for i in order[1:]:
        kernel = kernel @ steps[i - 1]
    return kernel


def _centered_sym(kernel, pmf):
    s = np.sqrt(np.asarray(pmf, dtype=float))
    return kernel * s[:, None] / s[None, :] - np.outer(s, s)


def norm_centered(kernel, pmf):
    """||K - Pi|| in L2(pi)."""
    return float(np.linalg.svd(_centered_sym(kernel, pmf), compute_uv=False)[0])


def radius_centered(kernel, pmf):
    """Largest |eigenvalue| of K - Pi, taken in the pi-conjugated coordinates."""
    return float(np.abs(np.linalg.eigvals(_centered_sym(kernel, pmf))).max())


def radius_centered_raw(kernel, pmf):
    """The same radius from the raw (unconjugated) centered table."""
    pmf = np.asarray(pmf, dtype=float)
    return float(np.abs(np.linalg.eigvals(kernel - pmf[None, :])).max())


def analyze_facts(pmf, dims):
    """Angle c (from the uniform random-scan norm) and the default scans' spectra."""
    steps = small_steps(pmf, dims)
    d = len(dims)
    uniform = sum(steps) / d
    rsg_norm = norm_centered(uniform, pmf)
    identity = sweep(steps, list(range(1, d + 1)))
    return {
        "c": (d * rsg_norm - 1.0) / (d - 1.0),
        "dsg_norm": norm_centered(identity, pmf),
        "dsg_radius": radius_centered(identity, pmf),
        "rsg_norm": rsg_norm,
    }

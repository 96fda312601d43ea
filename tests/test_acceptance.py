"""Acceptance gate: one test per criterion, one pass/fail line each.

Each criterion prints ``ACCEPTANCE Cnn <name>: PASS/FAIL`` and then asserts,
so both the pytest verbose listing and the captured output carry one line
per criterion.  Criteria with a stated runtime budget assert the measured
wall time as well.
"""
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from gibbsgap.bounds import (
    dsg_norm_bound_from_c,
    rsg_norm_bound,
    sample_permutations,
)
from gibbsgap.geometry import (
    check_sandwich,
    friedrichs_angle_bruteforce,
    friedrichs_angle_from_norm,
    inclination,
)
from gibbsgap.measure import ProductSpace, TargetDistribution, equicorrelated_binary
from gibbsgap.operators import (
    RandomScan,
    _small_step_kernel,
    dsg,
    l2_norm_centered,
    rsg,
    spectral_radius_centered,
    symmetrized_sweep,
)

from conftest import make_suite
from oracles import power_norm_sequence


def _emit(cid: str, name: str, ok: bool, detail: str = "") -> None:
    line = "ACCEPTANCE %s %s: %s" % (cid, name, "PASS" if ok else "FAIL")
    if detail:
        line += "  (%s)" % detail
    print(line)
    print(line, file=sys.stderr)
    assert ok, line


@pytest.fixture(scope="module")
def suite():
    return make_suite()


def _run_cli(argv, **kw):
    return subprocess.run([sys.executable, "-m", "gibbsgap.cli"] + argv,
                          capture_output=True, text=True, **kw)


def test_c01_norm_identity(suite):
    start = time.perf_counter()
    worst = 0.0
    for pi in suite:
        d = pi.space.d
        norm = l2_norm_centered(rsg(RandomScan.uniform(d), pi))
        c_bf = friedrichs_angle_bruteforce(pi)
        predicted = ((d - 1.0) / d) * (c_bf + 1.0 / (d - 1.0))
        worst = max(worst, abs(norm - predicted))
    elapsed = time.perf_counter() - start
    _emit("C01", "uniform-random-scan norm identity", worst <= 1e-8 and elapsed <= 60.0,
          "max |norm - formula| = %.3g, %.1fs" % (worst, elapsed))


def test_c02_worked_2x2_values():
    uniform = TargetDistribution(ProductSpace((2, 2)), np.full(4, 0.25))
    checks = []
    checks.append(("uniform dsg norm",
                   l2_norm_centered(dsg((1, 2), uniform)) <= 1e-12))
    checks.append(("uniform rsg norm",
                   abs(l2_norm_centered(rsg(RandomScan.uniform(2), uniform)) - 0.5) <= 1e-10))
    checks.append(("uniform angle",
                   abs(friedrichs_angle_from_norm(uniform)) <= 1e-9))
    checks.append(("uniform inclination",
                   abs(inclination(uniform, restarts=8).value - 0.70711) <= 1e-4))
    pair = equicorrelated_binary(2, 0.25)
    # for d = 2 the sweep is an alternating projection with angle c = 0.5:
    # ||P1 P2 - Pi|| = c = 0.5 and rho(P1 P2 - Pi) = c^2 = 0.25, the worked 0.25
    pair_dsg = dsg((1, 2), pair)
    checks.append(("correlated dsg norm = 0.5, radius = 0.25",
                   abs(l2_norm_centered(pair_dsg) - 0.5) <= 1e-10
                   and abs(spectral_radius_centered(pair_dsg) - 0.25) <= 1e-10))
    checks.append(("correlated rsg norm",
                   abs(l2_norm_centered(rsg(RandomScan.uniform(2), pair)) - 0.75) <= 1e-10))
    checks.append(("correlated angle",
                   abs(friedrichs_angle_from_norm(pair) - 0.5) <= 1e-9))
    failed = [name for name, ok in checks if not ok]
    _emit("C02", "worked 2x2 values", not failed,
          "failed sub-checks: %s" % (failed or "none"))


def test_c03_bound_dominance(suite):
    rng = np.random.default_rng(2024)
    worst_slack = np.inf
    sharp_worst = 0.0
    for pi in suite:
        d = pi.space.d
        c = friedrichs_angle_from_norm(pi)
        uniform_exact = l2_norm_centered(rsg(RandomScan.uniform(d), pi))
        sharp_worst = max(sharp_worst,
                          abs(rsg_norm_bound(c, d, RandomScan.uniform(d)) - uniform_exact))
        worst_slack = min(worst_slack, uniform_exact - 1.0 / d)
        for _ in range(50):
            w = rng.dirichlet(np.ones(d))
            w = np.maximum(w, 1e-9)
            w = tuple(w / w.sum())
            exact = l2_norm_centered(rsg(RandomScan(w), pi))
            worst_slack = min(worst_slack, rsg_norm_bound(c, d, w) - exact)
        bound = dsg_norm_bound_from_c(c, d)
        for sigma in sample_permutations(d):
            exact = l2_norm_centered(dsg(sigma, pi))
            worst_slack = min(worst_slack, bound - exact)
    ok = worst_slack >= -1e-9 and sharp_worst <= 1e-9
    _emit("C03", "bound dominance and sharpness", ok,
          "min slack = %.3g, sharpness gap = %.3g" % (worst_slack, sharp_worst))


def test_c04_telescoping_and_power_norms(suite):
    rng = np.random.default_rng(7)
    worst_tel = np.inf
    worst_pow = np.inf
    worst_rev_eq = 0.0
    for pi in suite:
        d = pi.space.d
        n = pi.space.total_states
        kernels = [_small_step_kernel(i, pi) for i in range(1, d + 1)]
        f = rng.standard_normal((n, 1000))

        def pi_norm_sq(g):
            return pi.pmf @ (g * g)

        centered = f - pi.pmf @ f
        dsg_f = f.copy()
        for k in kernels:
            dsg_f = k @ dsg_f
        rhs = pi_norm_sq(centered) - pi_norm_sq(dsg_f - pi.pmf @ f)
        prev = f
        for k in kernels:
            cur = k @ prev
            worst_tel = min(worst_tel, float((rhs - pi_norm_sq(prev - cur)).min()))
            prev = cur

        for op in (dsg(tuple(range(1, d + 1)), pi), rsg(RandomScan.uniform(d), pi)):
            r = l2_norm_centered(op)
            seq = power_norm_sequence(op, 10)
            for m, v in enumerate(seq, start=1):
                worst_pow = min(worst_pow, r ** m - v)
        rev = rsg(RandomScan.uniform(d), pi)
        r = l2_norm_centered(rev)
        for m, v in enumerate(power_norm_sequence(rev, 10), start=1):
            worst_rev_eq = max(worst_rev_eq, abs(v - r ** m))
    ok = worst_tel >= -1e-10 and worst_pow >= -1e-10 and worst_rev_eq <= 1e-9
    _emit("C04", "telescoping and power-norm laws", ok,
          "min telescoping slack = %.3g, min power slack = %.3g, "
          "max reversible equality gap = %.3g" % (worst_tel, worst_pow, worst_rev_eq))


def test_c05_symmetrized_sweep_identity(suite):
    worst = 0.0
    for pi in suite:
        order = tuple(range(1, pi.space.d + 1))
        sym = l2_norm_centered(symmetrized_sweep(order, pi))
        plain = l2_norm_centered(dsg(order, pi))
        worst = max(worst, abs(sym - plain ** 2))
    _emit("C05", "symmetrized-sweep norm identity", worst <= 1e-9,
          "max |sym - dsg^2| = %.3g" % worst)


def test_c06_sandwich(suite):
    left_ok = True
    right_hits = 0
    for pi in suite:
        d = pi.space.d
        c = friedrichs_angle_from_norm(pi)
        ell_hat = inclination(pi, restarts=32).value
        out = check_sandwich(c, ell_hat, d)
        left_ok = left_ok and out["left_pass"]
        right_hits += int(out["right_advisory_pass"])
    frac = right_hits / len(suite)
    _emit("C06", "angle/inclination sandwich", left_ok and frac >= 0.95,
          "left holds everywhere = %s, right advisory rate = %.2f" % (left_ok, frac))


def test_c07_solidarity():
    agree = True
    zero_ok = True
    for eps in (0.5, 0.1, 0.01, 0.001, 0.0):
        pi = equicorrelated_binary(2, eps)
        gap_dsg = 1.0 - spectral_radius_centered(dsg((1, 2), pi))
        gap_rsg = 1.0 - spectral_radius_centered(rsg(RandomScan.uniform(2), pi))
        agree = agree and ((gap_dsg > 1e-9) == (gap_rsg > 1e-9))
        if eps == 0.0:
            zero_ok = gap_dsg <= 1e-9 and gap_rsg <= 1e-9
    _emit("C07", "solidarity of gap positivity", agree and zero_ok,
          "equivalence holds at every eps, both gaps vanish at eps=0: %s" % zero_ok)


def test_c08_rapid_mixing_transfer_cli(tmp_path):
    start = time.perf_counter()
    out = _run_cli(["sweep", "--epsilon", "0.25", "--d-list", "2,3,4,5,6",
                    "--out-dir", str(tmp_path)])
    elapsed = time.perf_counter() - start
    rows = json.loads((tmp_path / "sweep.json").read_text())["report"]["rows"]
    floors_ok = all(r["gap_dsg_worst"] >= r["floor"] - 1e-12 for r in rows)
    ok = out.returncode == 0 and floors_ok and elapsed <= 300.0
    _emit("C08", "dimension-sweep gap floor", ok,
          "exit=%d, floors ok=%s, %.1fs" % (out.returncode, floors_ok, elapsed))


def test_c09_clt_bound(suite):
    from gibbsgap.operators import DeterministicScan
    from gibbsgap.sampler import asymptotic_variance_estimate, clt_variance_bound, run_chain

    start = time.perf_counter()
    ok = True
    for pi in suite[:10]:
        d = pi.space.d
        states = pi.space.all_multi_indices()
        f = (states[:, 0] == pi.space.dims[0] - 1).astype(float)
        for scan in (DeterministicScan(tuple(range(1, d + 1))), RandomScan.uniform(d)):
            op = dsg(scan.order, pi) if isinstance(scan, DeterministicScan) else rsg(scan, pi)
            rho = (l2_norm_centered(op) if isinstance(scan, RandomScan)
                   else spectral_radius_centered(op))
            trace = run_chain(op, 100_000, seed=77)
            est, se = asymptotic_variance_estimate(trace, f)
            ok = ok and est <= clt_variance_bound(rho, f, pi) + 3.0 * se
    elapsed = time.perf_counter() - start
    _emit("C09", "batch-means variance vs ceiling", ok and elapsed <= 300.0,
          "all panels within 3 SE, %.1fs" % elapsed)


def test_c10_hoeffding_tails():
    from gibbsgap.operators import DeterministicScan
    from gibbsgap.sampler import empirical_tail, scan_operator

    start = time.perf_counter()
    pi = equicorrelated_binary(2, 0.25)
    f = pi.space.all_multi_indices()[:, 0].astype(float)
    ok = True
    for scan in (DeterministicScan((1, 2)), RandomScan.uniform(2)):
        op = scan_operator(pi, scan)
        for n in (100, 1000):
            for eps in (0.1, 0.2, 0.3):
                check = empirical_tail(op, spectral_radius_centered(op), f, n=n, eps=eps,
                                       replicas=10_000, seed=5)
                ok = ok and check["pass"]
    elapsed = time.perf_counter() - start
    _emit("C10", "empirical tails vs exponential bound", ok and elapsed <= 300.0,
          "all (n, eps) grid points within 3 SE, %.1fs" % elapsed)


def test_c11_counterexample_cli(tmp_path):
    start = time.perf_counter()
    out = _run_cli(["counterexample", "--q", "0.5", "--N", "10,20,40,80",
                    "--b", "1.5,2", "--out-dir", str(tmp_path)])
    elapsed = time.perf_counter() - start
    rows = json.loads((tmp_path / "counterexample.json").read_text())["report"]["rows"]
    gaps = [r["gap_K"] for r in rows]
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    halved = gaps[-1] <= 0.5 * gaps[0]
    cuts_ok = all(
        value <= 1.05 / ((n + 1) * r["pi_origin"])
        for r in rows for n, value in enumerate(r["rung_conductance"])
    )
    cheeger_ok = all(r["gap_K"] <= 2.0 * r["kappa_upper"] + 1e-9 for r in rows)
    last = rows[-1]
    moment_ok = abs(last["moment_b1.5"] - 3.0) <= 0.01
    divergent_ok = all(not r["moment_b2_analytic_finite"] for r in rows)
    ok = (out.returncode == 0 and decreasing and halved and cuts_ok
          and cheeger_ok and moment_ok and divergent_ok and elapsed <= 120.0)
    _emit("C11", "reversibilization gap collapse", ok,
          "gaps=%s, halved=%s, cuts=%s, cheeger=%s, moment=%s, divergent=%s, %.1fs"
          % (["%.4g" % g for g in gaps], halved, cuts_ok, cheeger_ok,
             moment_ok, divergent_ok, elapsed))


def test_c12_determinism(tmp_path):
    commands = {
        "analyze": ["analyze", "--model", "equicorrelated_binary", "--d", "2",
                    "--epsilon", "0.25", "--restarts", "4"],
        "sweep": ["sweep", "--epsilon", "0.25", "--d-list", "2,3,4"],
        "sample": ["sample", "--model", "equicorrelated_binary", "--d", "2",
                   "--epsilon", "0.25", "--n", "5000", "--replicas", "1000",
                   "--n-grid", "100", "--eps-grid", "0.2,0.3"],
        "counterexample": ["counterexample", "--q", "0.5", "--N", "5,10"],
    }
    ok = True
    detail = []
    for name, argv in commands.items():
        dirs = [tmp_path / name / "a", tmp_path / name / "b"]
        for d in dirs:
            out = _run_cli(argv + ["--out-dir", str(d)])
            assert out.returncode == 0, out.stderr
        files = sorted(p.name for p in dirs[0].iterdir())
        same = files == sorted(p.name for p in dirs[1].iterdir()) and all(
            (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes() for f in files
        )
        ok = ok and same
        detail.append("%s=%s" % (name, "identical" if same else "DIFFERS"))
    _emit("C12", "byte-identical reruns", ok, ", ".join(detail))

"""Command-line front end.

Commands::

    gibbsgap analyze         exact norms, gaps, angle, bounds for one target
    gibbsgap sweep           dimension sweep with decay-rate fit and gap floor
    gibbsgap sample          simulation diagnostics (CLT and tail panels)
    gibbsgap counterexample  ladder-chain truncation sweep

Exit status: 0 success, 1 an asserted inequality or simulation bound was
violated beyond tolerance (the report is written first), 2 usage or
validation error (no report is written; ``--out-dir`` is created before any
work, so an exit 2 or 3 may leave it empty), 3 state-count cap exceeded (checked
once, where a command loads its target, before any work on it: a ``--model``
or a ``model`` entry before its pmf is built, a ``pmf`` entry once it is valid).
A dense-solver failure is not caught: numpy's ``LinAlgError`` ends the command
with its traceback and exit 1.

Scan mini-grammar: ``dsg:i1,i2,...,id`` (update order, 1-based) and
``rsg:uniform`` or ``rsg:w1,w2,...,wd``.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import __version__, geometry, bounds as bounds_mod
from .counterexample import LadderChainSpec, reversibilization_gap_sweep
from .errors import StateCapError, ValidationError
from .measure import (DEFAULT_STATE_CAP, TargetDistribution, check_state_cap, model_states,
                      model_target, parse_target)
from .operators import (DeterministicScan, RandomScan, l2_norm_centered, rsg, scan_operator,
                        spectral_radius_centered, sweep_spectra)
from .reporting import report_document, write_csv, write_json
from .sampler import (
    BATCH_MEANS_MIN_STEPS,
    asymptotic_variance_estimate,
    check_tail_inputs,
    clt_variance_bound,
    cumulative_table,
    empirical_tails,
    run_chain,
)

GAP_POSITIVE_TOL = 1e-9
#: Seeded random weight vectors the equivalence panel checks besides the uniform scan.
WEIGHT_SAMPLES = 8


def parse_scan(text: str, d: int):
    """A scan of d coordinates from the mini-grammar; ``rsg:uniform`` is the uniform scan."""
    kind, _, rest = text.partition(":")
    if kind == "dsg":
        try:
            order = tuple(int(x) for x in rest.split(","))
        except ValueError:
            raise ValidationError("bad scan spec %r" % text)
        scan = DeterministicScan(order)
    elif kind == "rsg" and rest == "uniform":
        scan = RandomScan.uniform(d)
    elif kind == "rsg":
        try:
            weights = tuple(float(x) for x in rest.split(","))
        except ValueError:
            raise ValidationError("bad scan spec %r" % text)
        scan = RandomScan(weights)
    else:
        raise ValidationError("unknown scan kind in %r (want dsg:... or rsg:...)" % text)
    if scan.d != d:  # refused with every other scan, before any is built
        raise ValidationError("scan has %d coordinates, target has %d" % (scan.d, d))
    return scan


def _requested_scans(args, d: int) -> list:
    """The --scan options, or by default the identity sweep and the uniform random scan."""
    texts = args.scan or ["dsg:" + ",".join(map(str, range(1, d + 1))), "rsg:uniform"]
    return [parse_scan(text, d) for text in texts]


def _load_target(args) -> TargetDistribution:
    if args.target_file and args.model:
        raise ValidationError("give exactly one of --target-file and --model")
    if args.target_file and (args.d is not None or args.epsilon is not None):
        raise ValidationError("--d and --epsilon go with --model, not with --target-file")
    if args.target_file:
        try:
            with open(args.target_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError("cannot read --target-file: %s" % exc) from exc
        return parse_target(text, state_cap=args.state_cap)
    if args.model:
        if args.d is None or args.epsilon is None:
            raise ValidationError("--model %s needs --d and --epsilon" % args.model)
        return model_target(args.model, args.d, args.epsilon, args.state_cap)
    raise ValidationError("give one of --target-file and --model")


def _scan_label(scan) -> str:
    if isinstance(scan, DeterministicScan):
        return "dsg:" + ",".join(str(i) for i in scan.order)
    return "rsg:" + ",".join(repr(w) for w in scan.weights)


def cmd_analyze(args) -> int:
    pi = _load_target(args)
    d = pi.space.d
    scans = _requested_scans(args, d)
    perms = [DeterministicScan(s) for s in bounds_mod.sample_permutations(d, seed=args.seed)]
    uniform = RandomScan.uniform(d)
    rng = np.random.default_rng(args.seed)
    weighted = []
    for _ in range(WEIGHT_SAMPLES):
        w = rng.dirichlet(np.ones(d))
        w = np.maximum(w, 1e-9)
        weighted.append(RandomScan(tuple(w / w.sum())))
    sweeps = [s for s in scans if isinstance(s, DeterministicScan)]
    mixes = [s for s in scans if isinstance(s, RandomScan)]
    # every random-scan norm from the inclination's forms, which are freed before
    # the sweeps' pass: held through it, they raised max RSS by 5 MB at d = 8, 9
    incl = geometry.inclination(pi, restarts=args.restarts, scans=[uniform, *weighted, *mixes])
    norms = dict(incl.scan_norms)  # every norm the report reads, by scan
    # every sweep the report reads, one per symmetry class, in one stacked pass
    values = sweep_spectra(pi, [(s, "radius") for s in sweeps]
                           + [(s, "norm") for s in [*sweeps, *perms]])
    radii = dict(zip(sweeps, values[:len(sweeps)]))
    norms.update(zip([*sweeps, *perms], values[len(sweeps):]))

    scan_rows = []
    for scan in scans:
        norm = norms[scan]
        rho = radii.get(scan, norm)  # a random scan's radius is its norm
        scan_rows.append({
            "scan": _scan_label(scan),
            "l2_norm_centered": norm,
            "spectral_radius_centered": rho,
            "spectral_gap": 1.0 - rho,
            "reversible": isinstance(scan, RandomScan),
        })

    # the bounds cover the requested scans of each kind, else perms or the uniform scan
    c, bound_rows = bounds_mod.verify_bounds(norms, sweeps or perms, mixes or [uniform],
                                             incl.lower)
    angle_bf = geometry.friedrichs_angle_bruteforce(pi)
    sandwich = geometry.check_sandwich(c, incl.value, d)

    # numeric surrogates for the six equivalent gap conditions
    perm_norms = {",".join(map(str, s.order)): norms[s] for s in perms}
    weight_norms = [norms[s] for s in weighted]
    # each P_i is a self-adjoint projection, so the palindromic sweep is D D*
    sym_norms = {key: norm ** 2 for key, norm in perm_norms.items()}
    uniform_norm = norms[uniform]
    panel = {
        "some_rsg_norm_lt_1": bool(uniform_norm < 1.0 - GAP_POSITIVE_TOL),
        "all_rsg_norm_lt_1": bool(all(v < 1.0 - GAP_POSITIVE_TOL for v in [uniform_norm] + weight_norms)),
        "some_dsg_norm_lt_1": bool(any(v < 1.0 - GAP_POSITIVE_TOL for v in perm_norms.values())),
        "all_dsg_norm_lt_1": bool(all(v < 1.0 - GAP_POSITIVE_TOL for v in perm_norms.values())),
        "some_sym_norm_lt_1": bool(any(v < 1.0 - GAP_POSITIVE_TOL for v in sym_norms.values())),
        "all_sym_norm_lt_1": bool(all(v < 1.0 - GAP_POSITIVE_TOL for v in sym_norms.values())),
        "dsg_norms_by_permutation": perm_norms,
        "rsg_norms_sampled_weights": weight_norms,
        "sym_norms_by_permutation": sym_norms,
    }
    conditions = [panel["some_rsg_norm_lt_1"], panel["all_rsg_norm_lt_1"],
                  panel["some_dsg_norm_lt_1"], panel["all_dsg_norm_lt_1"],
                  panel["some_sym_norm_lt_1"], panel["all_sym_norm_lt_1"]]
    panel["all_conditions_agree"] = bool(len(set(conditions)) == 1)

    body = {
        "target": {"dims": pi.space.dims, "pmf": pi.pmf},
        "angle_closed_form": c,
        "angle_brute_force": angle_bf,
        "inclination_upper_bound": incl.value,
        "inclination_lower_bound_dual": incl.lower,
        "inclination_certified": incl.certified,
        "inclination_kkt_residual": incl.kkt_residual,
        "inclination_restarts": incl.restarts,
        "sandwich": sandwich,
        "scans": scan_rows,
        "bounds": bound_rows,
        "equivalence_panel": panel,
    }
    violations = bounds_mod.violations(bound_rows)
    failure = None
    if violations or not sandwich["left_pass"] or not panel["all_conditions_agree"]:
        failure = ("%d bound violations, sandwich left pass=%s, panel agree=%s"
                   % (len(violations), sandwich["left_pass"], panel["all_conditions_agree"]))
    return _report(args, "analyze", body, failure,
                   csv=("bounds.csv", body["bounds"], ["name", "bound", "exact", "slack", "sharp"]))


def cmd_sweep(args) -> int:
    d_list = args.d_list
    if len(set(d_list)) < 3:
        raise ValidationError("sweep needs at least 3 distinct dimensions to fit a rate")
    if len(set(d_list)) < len(d_list):  # a repeated d would count twice in the fit
        raise ValidationError("sweep dimensions must not repeat, got %s" % d_list)
    for d in d_list:  # an over-cap d is refused before any pmf is built
        check_state_cap(model_states(args.model, d), args.state_cap)
    rows = []
    for d in d_list:
        pi = model_target(args.model, d, args.epsilon, args.state_cap)
        gap_rsg = 1.0 - l2_norm_centered(rsg(RandomScan.uniform(d), pi))
        if gap_rsg <= GAP_POSITIVE_TOL:
            raise ValidationError("random-scan gap %.3g at d=%d is not above %g: no decay rate "
                                  "can be fitted" % (gap_rsg, d, GAP_POSITIVE_TOL))
        perms = bounds_mod.sample_permutations(d, seed=args.seed)
        radii = sweep_spectra(pi, [(DeterministicScan(s), "radius") for s in perms])
        gaps = [1.0 - rho for rho in radii]
        rows.append({
            "d": d,
            "gap_rsg": gap_rsg,
            "gap_dsg_worst": min(gaps),
            "gap_dsg_best": max(gaps),
            "permutations_checked": len(perms),
        })
    logd = np.log([r["d"] for r in rows])
    logg = np.log([r["gap_rsg"] for r in rows])
    slope, intercept = np.polyfit(logd, logg, 1)
    beta = float(max(-slope, 1e-12))
    gamma = float(min(np.exp(logg + beta * logd)))  # largest gamma with gap >= gamma d^-beta
    for r in rows:
        r["floor"] = bounds_mod.rapid_mixing_transfer(beta, gamma, r["d"])
        r["floor_ok"] = bool(r["gap_dsg_worst"] >= r["floor"] - 1e-12)
    failure = (None if all(r["floor_ok"] for r in rows)
               else "deterministic-scan gap below the transfer floor")
    return _report(args, "sweep", {"rows": rows, "beta_fit": beta, "gamma_fit": gamma}, failure,
                   csv=("sweep.csv", rows, ["d", "gap_rsg", "gap_dsg_worst", "gap_dsg_best",
                                            "permutations_checked", "floor", "floor_ok"]))


def _indicator(pi: TargetDistribution, spec_text: str) -> np.ndarray:
    kind, _, rest = spec_text.partition(":")
    if kind != "coord" or not rest.isdecimal():
        raise ValidationError("function spec must be coord:i, got %r" % spec_text)
    i = int(rest)
    if not 1 <= i <= pi.space.d:
        raise ValidationError("coordinate %d out of range" % i)
    if pi.space.dims[i - 1] == 1:
        raise ValidationError("coordinate %d has one value, so %s is constant" % (i, spec_text))
    states = pi.space.all_multi_indices()
    top = pi.space.dims[i - 1] - 1
    return (states[:, i - 1] == top).astype(float)


def _sample_panel(pi: TargetDistribution, scan, f: np.ndarray, args) -> dict:
    """One scan's panel of cmd_sample.  The scan's kernel and cumulative table
    live only in this call, so they are freed before the next scan is built."""
    op = scan_operator(pi, scan)
    rho = (l2_norm_centered(op) if isinstance(scan, RandomScan)  # self-adjoint, as in cmd_sweep
           else spectral_radius_centered(op))
    bound = clt_variance_bound(rho, f, pi)  # refuses rho = 1 before any step
    cum = cumulative_table(op.kernel)  # one table for the chain and the replicas
    est, se = asymptotic_variance_estimate(run_chain(op, args.n, seed=args.seed, cum=cum), f)
    clt_pass = bool(est <= bound + 3.0 * se)
    tails = empirical_tails(op, rho, f, args.n_grid, args.eps_grid, args.replicas,
                            seed=args.seed, cum=cum)
    return {
        "scan": _scan_label(scan), "rho": rho,
        "clt": {"estimate": est, "std_error": se, "bound": bound, "pass": clt_pass},
        "tails": tails, "pass": clt_pass and all(t["pass"] for t in tails),
    }


def cmd_sample(args) -> int:
    pi = _load_target(args)
    scans = _requested_scans(args, pi.space.d)
    f = _indicator(pi, args.function)
    if args.n < BATCH_MEANS_MIN_STEPS:
        raise ValidationError("--n must be >= %d for batch means" % BATCH_MEANS_MIN_STEPS)
    check_tail_inputs(float(pi.pmf @ f), args.n_grid, args.eps_grid, args.replicas)

    panels = [_sample_panel(pi, scan, f, args) for scan in scans]
    all_pass = all(p["pass"] for p in panels)
    body = {"function": args.function, "panels": panels, "all_pass": all_pass}
    return _report(args, "sample", body,
                   None if all_pass else "a simulation panel exceeded its bound")


def cmd_counterexample(args) -> int:
    for b in args.b:
        if not 1.0 < b < math.inf:
            raise ValidationError("b must be a finite number > 1, got %g" % b)
    for N in args.N:  # LadderChainSpec refuses a bad N or q
        check_state_cap(LadderChainSpec(N, args.q).n_states, args.state_cap)
    rows = reversibilization_gap_sweep(args.q, args.N, b_list=args.b)
    columns = ["N", "n_states", "gap_K", "gap_P", "gap_P_star", "root_residual", "kappa_upper",
               "cheeger_upper_ok"]
    columns += [name % b for b in args.b for name in ("moment_b%g", "moment_b%g_analytic_finite")]
    failure = None if all(r["cheeger_upper_ok"] for r in rows) else "gap(K) exceeded 2*conductance"
    # a repeated --b names one moment key of a row, so it gets one column
    return _report(args, "counterexample", {"rows": rows}, failure,
                   csv=("counterexample.csv", rows, list(dict.fromkeys(columns))))


def _report(args, command: str, body: dict, failure: str | None, csv=None) -> int:
    """Write ``<command>.json`` and the optional CSV to --out-dir; return the exit code.

    ``failure`` names the claim that failed (exit 1), or is None (exit 0).
    ``csv`` is a (file name, rows, columns) triple.
    """
    # out_dir is a host path, not part of the reproducible configuration
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out_dir")}
    path = os.path.join(args.out_dir, command + ".json")
    write_json(report_document(command, config, body), path)
    if csv is not None:
        name, rows, columns = csv
        write_csv(rows, os.path.join(args.out_dir, name), columns=columns)
    if failure is not None:
        print("assertion failure: " + failure, file=sys.stderr)
        return 1
    print("%s: wrote %s" % (command, path))
    return 0


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gibbsgap",
                                     description="Spectral analysis of Gibbs-sampler scan strategies.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_target(p):
        p.add_argument("--target-file", help="JSON target spec file")
        p.add_argument("--model", help="named model family (equicorrelated_binary)")
        p.add_argument("--d", type=int, help="model dimension")
        p.add_argument("--epsilon", type=float, help="model parameter")

    def add_common(p):
        p.add_argument("--out-dir", help="default: $GIBBSGAP_OUT, else the working directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)

    p = sub.add_parser("analyze", help="exact spectral report for one target")
    add_target(p)
    add_common(p)
    p.add_argument("--scan", action="append", help="dsg:1,2,... or rsg:uniform or rsg:w1,...")
    p.add_argument("--restarts", type=int, default=32)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="dimension sweep with transfer floor")
    add_common(p)
    p.add_argument("--model", default="equicorrelated_binary")
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--d-list", type=_int_list, default=[2, 3, 4, 5, 6])
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sample", help="simulation diagnostics")
    add_target(p)
    add_common(p)
    p.add_argument("--scan", action="append")
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--replicas", type=int, default=10_000)
    p.add_argument("--function", default="coord:1", help="coord:i indicator of the top label")
    p.add_argument("--n-grid", type=_int_list, default=[100, 1000])
    p.add_argument("--eps-grid", type=_float_list, default=[0.1, 0.2, 0.3])
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("counterexample", help="ladder-chain truncation sweep")
    add_common(p)
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--N", type=_int_list, default=[10, 20, 40])
    p.add_argument("--b", type=_float_list, default=[1.5])
    p.set_defaults(func=cmd_counterexample)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: rebuilding it per call grows the process RSS
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.out_dir is None:
        args.out_dir = os.environ.get("GIBBSGAP_OUT") or "."
    try:
        if args.seed < 0:  # numpy seeds only from non-negative integers
            raise ValidationError("--seed must be >= 0, got %d" % args.seed)
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:
            raise ValidationError("cannot create --out-dir: %s" % exc) from exc
        return args.func(args)
    except StateCapError as exc:
        print("state cap exceeded: %s" % exc, file=sys.stderr)
        return 3
    except ValidationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

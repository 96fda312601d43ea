"""Golden values from the package under test, kept only where an independent
check agrees with them.

* analyze-suite: for every pool target, the angle ``c`` and inclination
  estimate ``ell_hat`` from ``gibbsgap analyze`` with the workload's
  arguments (``workloads.ANALYZE_ARGS``).  ``c`` must match the independent
  oracle (perfbench/oracle.py) to 1e-9; the benchmark later rejects an
  ``ell_hat`` above the recorded one.
* sweep-dims: ``gap_rsg`` and the deterministic-scan gap per ``d`` of the
  equicorrelated binary target.  The target is exchangeable, so every scan
  order has one gap; it must agree with the radius of the raw and of the
  pi-conjugated oracle kernels, which must agree with each other to 1e-13.

Run from the repository root at the commit whose values are recorded:

    python3 perfbench/reference/make_golden.py
"""
import contextlib
import io
import json
import os
import shutil
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "2"  # as perfbench/run.py sets it for the worker
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.getcwd(), "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from gibbsgap import cli  # noqa: E402
from gibbsgap.measure import equicorrelated_binary  # noqa: E402

WORK = os.path.join(os.getcwd(), ".perfbench_work", "golden")


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit("%r exited with %d" % (argv, rc))


def analyze_pool():
    golden = {}
    for slot in range(len(workloads.ANALYZE_SHAPES)):
        for variant in range(workloads.ANALYZE_VARIANTS):
            key = "t%d-v%d" % (slot, variant)
            dims, pmf = workloads.pool_target(slot, variant)
            path = os.path.join(WORK, key + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"dims": list(dims), "pmf": pmf}, fh)
            run_cli(["analyze", "--target-file", path, *workloads.ANALYZE_ARGS, "--out-dir", WORK])
            with open(os.path.join(WORK, "analyze.json"), encoding="utf-8") as fh:
                rep = json.load(fh)["report"]
            c_ref = oracle.analyze_facts(pmf, dims)["c"]
            if abs(rep["angle_closed_form"] - c_ref) > workloads.TOL:
                raise SystemExit("%s: c %r disagrees with the oracle %r" % (key, rep["angle_closed_form"], c_ref))
            golden[key] = {"dims": list(dims), "c": rep["angle_closed_form"],
                           "ell_hat": rep["inclination_upper_bound"]}
            print(key, golden[key]["c"], golden[key]["ell_hat"], flush=True)
    return golden


def sweep_rows():
    run_cli(["sweep", "--epsilon", repr(workloads.SWEEP_EPSILON),
             "--d-list", ",".join(map(str, workloads.SWEEP_D_LIST)), "--out-dir", WORK])
    with open(os.path.join(WORK, "sweep.json"), encoding="utf-8") as fh:
        rows = json.load(fh)["report"]["rows"]
    golden = {}
    for row in rows:
        d = row["d"]
        pi = equicorrelated_binary(d, workloads.SWEEP_EPSILON)
        steps = oracle.small_steps(pi.pmf, (2,) * d)
        kernel = oracle.sweep(steps, list(range(1, d + 1)))
        raw = oracle.radius_centered_raw(kernel, pi.pmf)
        sym = oracle.radius_centered(kernel, pi.pmf)
        rsg = oracle.norm_centered(sum(steps) / d, pi.pmf)
        if abs(raw - sym) > 1e-13:
            raise SystemExit("d=%d: raw %r and conjugated %r radii disagree" % (d, raw, sym))
        for name, got, want in (("gap_rsg", row["gap_rsg"], 1 - rsg),
                                ("gap_dsg_worst", row["gap_dsg_worst"], 1 - sym),
                                ("gap_dsg_best", row["gap_dsg_best"], 1 - sym)):
            if abs(got - want) > workloads.TOL:
                raise SystemExit("d=%d: %s %r disagrees with the oracle %r" % (d, name, got, want))
        golden[str(d)] = {"gap_rsg": row["gap_rsg"], "gap_dsg": row["gap_dsg_worst"],
                          "raw_vs_conjugated_radius": abs(raw - sym)}
        print("d=%d" % d, golden[str(d)], flush=True)
    return golden


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    doc = {"sweep_epsilon": workloads.SWEEP_EPSILON, "sweep": sweep_rows(), "analyze": analyze_pool()}
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(WORK)


if __name__ == "__main__":
    main()

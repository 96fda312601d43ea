"""gibbsgap benchmark: one workload, one seed, checked outputs, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: analyze-suite, sweep-dims,
ladder-trunc, sample-panels (see perfbench/README.md).  Inputs are generated
from --seed; the commands run in-process in one worker process, after its
imports finish.

The worker runs every command once (the checks-only ones for their reports,
the timed ones as a warm-up), then times the timed commands pass after pass
until --seconds have gone by.  --trace 0 reports the end-to-end metrics:
wall_s (the sum over timed commands of each one's fastest run), setup_s
(median time from process start to the end of importing gibbsgap, numpy and
scipy, over the worker and two import-only processes) and peak_rss_mb (the
worker's max RSS).  --trace 1 alternates untraced and traced passes and
reports the per-layer metrics.  Either way every op is checked and the last
stdout line is
{"correct": ..., "attempted": ops, "failed": failed ops, "metrics": {...}}.
Everything is written under .perfbench_work/ in the working directory.
"""
import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_ONLY_SAMPLES = 2
RUN_DEADLINE_S = 170  # the whole run, set-up included, ends within this
BLAS_THREADS = 2

#: Checks known to fail at the commit that introduced this benchmark, by
#: (workload, op) and error prefix.  Their ops still count in "failed";
#: "correct" turns false on any *other* failed check.  The dense eigvals of
#: the non-normal ladder kernel misses the mpmath gap by 1.35e-9 (N=40) and
#: 1.27e-3 (N=60) against the 1e-9 tolerance.
KNOWN_BASELINE_FAILURES = {("ladder-trunc", "N=40"): ("gap_P:", "gap_P_star:"),
                           ("ladder-trunc", "N=60"): ("gap_P:", "gap_P_star:")}

#: Per-layer metrics printed on the JSON line with --trace 1; every one is
#: measured on every workload.  The full table goes to layers.json.
JSON_LAYER_METRICS = {
    "operators.self_s": "s",
    "operators.spectral_radius_centered.self_s": "s",
    "operators.spectral_radius_centered.calls": "count",
    "operators.is_reversible.calls": "count",
    "operators.kernel_builds": "count",
    "operators.distinct_kernels": "count",
    "operators.max_states": "count",
    "operators.dense_bytes": "B",
    "operators.sweep_flops": "flop",
    "geometry.optimizer_calls": "count",
    "geometry.optimizer_nit": "count",
    "geometry.optimizer_nfev": "count",
    "sampler.run_chain.calls": "count",
    "sampler.empirical_tail.calls": "count",
    "counterexample.build_ladder.calls": "count",
    "reporting.self_s": "s",
    "reporting.bytes_written": "B",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


_children = []  # every worker started, so each is stopped on any way out


def _spawn(root, args, env):
    """Start a worker and return (process, seconds until it printed ``ready``)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    _children.append(proc)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        _, err = proc.communicate()
        raise RuntimeError("worker failed to import gibbsgap:\n" + err)
    return proc, ready


def _finish(proc, deadline):
    try:
        return proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise


def worker_env():
    env = dict(os.environ)
    # The BLAS thread count changes the rounding of dense eigvals (the ladder
    # N=40 gap misses its reference by 1.35e-9 with 2 threads, 5.0e-10 with
    # 1), so it is fixed for comparable results: 2, or fewer if fewer CPUs.
    env["OPENBLAS_NUM_THREADS"] = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env.pop("PYTHONPATH", None)
    return env


def environment_record(root, env, worker_env_info):
    """Host, toolchain and BLAS facts, so runs on different hosts can be told apart."""
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(root):
            commit = out[1]
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, index, "level")) as lv, \
                    open(os.path.join(base, index, "size")) as sz, \
                    open(os.path.join(base, index, "type")) as ty:
                if ty.read().strip() != "Instruction":
                    caches["L%s" % lv.read().strip()] = sz.read().strip()
        except OSError:
            pass
    rec = dict(worker_env_info)
    rec.update({"commit": commit, "host": platform.node(), "nproc": os.cpu_count(),
                "cpus_usable": len(os.sched_getaffinity(0)),
                "OPENBLAS_NUM_THREADS": env.get("OPENBLAS_NUM_THREADS"), "caches": caches})
    return rec


def check_outputs(workload, exit_codes):
    """(ops, perturbation self-check passed or None if there was no report).

    One op per checked row."""
    ops = []
    for command, rc in zip(workload.commands, exit_codes):
        ops.extend(workload.check(command, workload.load(command), rc))
    # self-check: a report shifted by 1e-6 in one checked value must fail an op
    command = workload.commands[0]
    doc = workload.load(command)
    self_check = None
    if doc is not None:
        facts = dict(workload.layer_facts)
        shifted = json.loads(json.dumps(doc))
        try:
            workload.perturb(shifted)
        except (KeyError, IndexError, TypeError):
            pass  # the report lacks the value; its ops have already failed
        else:
            self_check = any(not op.ok for op in workload.check(command, shifted, 0))
        workload.layer_facts = facts
    expected = len(workload.commands) * workload.ops_per_command
    if len(ops) != expected:
        raise RuntimeError("checked %d ops, expected %d (one per row)" % (len(ops), expected))
    return ops, self_check


def main():
    deadline = time.monotonic() + RUN_DEADLINE_S
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gibbsgap", "cli.py")):
        print("perfbench: no gibbsgap sources at %s; run from the repository root"
              % os.path.join(root, "src"), file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench_work", "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    env = worker_env()

    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"argvs": [c.argv for c in workload.commands],
                   "timed": [c.timed for c in workload.commands],
                   "seconds": args.seconds, "spans": os.path.join(work, "spans.json")}, fh)

    setups = []
    if not args.trace:
        for _ in range(SETUP_ONLY_SAMPLES):
            proc, ready = _spawn(root, ["--setup-only"], env)
            _finish(proc, deadline)
            setups.append(ready)
    result_path = os.path.join(work, "result.json")
    proc, ready = _spawn(root, [plan_path, result_path] + (["--trace"] if args.trace else []), env)
    setups.append(ready)
    _, err = _finish(proc, deadline)
    if proc.returncode != 0:
        print(err, file=sys.stderr)
        raise RuntimeError("worker exited with %d" % proc.returncode)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if result["codes_changed"]:
        raise RuntimeError("exit codes changed between runs of commands %r" % result["codes_changed"])

    ops, self_check = check_outputs(workload, result["exit_codes"])
    if self_check is False:
        raise RuntimeError("self-check: a perturbed report was not counted as a failed op")
    for command, rc, err in zip(workload.commands, result["exit_codes"], result["stderr"]):
        if rc != 0:
            print("stderr of %s (exit %s): %s" % (command.key, rc, err.strip()[-2000:]))
    failed = [op for op in ops if not op.ok]
    unexpected = [op for op in failed if not all(
        e.startswith(KNOWN_BASELINE_FAILURES.get((workload.name, op.label), ())) for e in op.errors)]

    timed = [c.key for c in workload.commands if c.timed]
    wall = sum(min(t) for t in result["times"])
    for key, t in zip(timed, result["times"]):
        print("timed %-14s runs %3d  min %.4f  median %.4f  max %.4f s"
              % (key, len(t), min(t), statistics.median(t), max(t)))
    if args.trace:
        layers = result["layers"]
        layers["trace.traced_wall_s"] = sum(min(t) for t in result["traced_times"])
        layers["trace.overhead_s"] = layers["trace.traced_wall_s"] - wall
        layers.update(workload.layer_facts)
        with open(os.path.join(work, "layers.json"), "w", encoding="utf-8") as fh:
            json.dump(layers, fh, indent=1, sort_keys=True)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in JSON_LAYER_METRICS.items()}
        for k in sorted(layers):
            print("layer %-52s %.6g" % (k, layers[k]))
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["maxrss_mb"], "unit": "MB"},
        }
        print("setup_s samples: %s" % ", ".join("%.4f" % s for s in setups))
    print("env: " + json.dumps(environment_record(root, env, result["env"]), sort_keys=True))
    for op in ops:
        status = "ok" if op.ok else ("FAIL (known baseline failure)" if op not in unexpected else "FAIL")
        print("op %-14s %s%s" % (op.label, status, "".join("\n    " + e for e in op.errors)))
    print("failed_frac: %d/%d ops = %.4f" % (len(failed), len(ops), len(failed) / len(ops)))
    print(json.dumps({"correct": not unexpected, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def _stop_children():
    for proc in _children:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    finally:
        _stop_children()

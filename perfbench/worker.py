"""One benchmark process: import gibbsgap, then run a workload's commands over and over.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py PLAN.json RESULT.json [--trace]

Prints ``ready`` on stdout as soon as gibbsgap, numpy and scipy are imported,
so the parent can time set-up from its side.  Given a plan it then runs the
checks-only commands once, for their reports, then passes over the timed
commands, timing each command, until the plan's seconds have gone by.  With
``--trace`` every other pass runs under a fresh ``tracing.Tracer``; the
fastest traced pass gives the per-layer metrics and the spans.  Per-command
times, exit codes, peak RSS and the environment go to RESULT.json.
"""
import os
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
from gibbsgap import cli  # noqa: E402  (imports every gibbsgap module, scipy.linalg, scipy.optimize)

print("ready", flush=True)

import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402


def run_command(argv):
    """Run one command in-process; (wall seconds, exit code, stderr text)."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # an op that raises is a failed op, not a crashed benchmark
            traceback.print_exc(file=err)
            code = "exception"
    return time.perf_counter() - start, code, err.getvalue()


def environment():
    """Interpreter, numpy/scipy and BLAS facts of this process."""
    import ctypes
    import platform

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = getattr(lib, symbol)()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": threads}


def main(plan_path, result_path, trace):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    argvs, timed = plan["argvs"], [i for i, t in enumerate(plan["timed"]) if t]
    # checks-only commands run once; a timed command's first run is its
    # warm-up, which the minimum over its runs passes over
    codes = [None] * len(argvs)
    errs = [""] * len(argvs)
    for i, argv in enumerate(argvs):
        if i not in timed:
            _, codes[i], errs[i] = run_command(argv)
    changed = set()
    # times[traced][i]: every timed run of command i, untraced (0) or traced (1)
    times = [{i: [] for i in timed}, {i: [] for i in timed}]
    best = None  # (pass wall, layer metrics, tracer) of the fastest traced pass
    begin = time.perf_counter()
    for n in itertools.count():
        traced = trace and n % 2 == 1
        tracer = None
        if traced:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        wall = 0.0
        try:
            for i in timed:
                if tracer is not None:
                    tracer.op = i
                seconds, code, err = run_command(argvs[i])
                times[traced][i].append(seconds)
                wall += seconds
                if n == 0:
                    codes[i], errs[i] = code, err
                elif code != codes[i]:
                    changed.add(i)
        finally:
            if tracer is not None:
                tracer.remove()
        if traced and (best is None or wall < best[0]):
            best = (wall, tracer.layer_metrics(), tracer)
        if time.perf_counter() - begin >= plan["seconds"] and (not trace or n >= 1):
            break
    result = {"times": [times[0][i] for i in timed], "exit_codes": codes,
              "stderr": errs, "codes_changed": sorted(changed),
              "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "env": environment()}
    if trace:
        result["traced_times"] = [times[1][i] for i in timed]
        result["layers"] = best[1]
        best[2].dump(plan["spans"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--setup-only"]:
        sys.exit(0)
    if len(args) not in (2, 3) or args[2:] not in ([], ["--trace"]):
        sys.exit("usage: worker.py --setup-only | worker.py PLAN.json RESULT.json [--trace]")
    main(args[0], args[1], trace=bool(args[2:]))

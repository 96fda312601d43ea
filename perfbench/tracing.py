"""Spans and counters around gibbsgap's public functions, from outside the package.

``Tracer.install`` wraps each function listed in ``LAYERS`` and rebinds the
wrapper under *every* name any gibbsgap module holds for the original, so
``from .operators import dsg`` bindings in cli, bounds, geometry, sampler and
counterexample are traced too, as are calls inside a module through its
globals.  ``Tracer.remove`` restores every binding and verifies that no
wrapper is left behind.  Spans stay in memory until ``Tracer.dump``.
"""
import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter

import scipy.optimize

LAYERS = {
    "measure": ("parse_target", "equicorrelated_binary"),
    "operators": ("dsg", "rsg", "symmetrized_sweep", "small_step", "adjoint",
                  "additive_reversibilization", "l2_norm_centered",
                  "spectral_radius_centered", "is_reversible"),
    "geometry": ("friedrichs_angle_from_norm", "friedrichs_angle_bruteforce",
                 "subspace_basis", "inclination"),
    "bounds": ("verify_bounds", "sample_permutations"),
    "sampler": ("scan_operator", "run_chain", "empirical_tail", "asymptotic_variance_estimate"),
    "counterexample": ("reversibilization_gap_sweep", "build_ladder", "conductance"),
    "reporting": ("write_json", "write_csv"),
    "cli": ("cmd_analyze", "cmd_sweep", "cmd_sample", "cmd_counterexample"),
}
_WRAPPED = "__perfbench_wrapped__"


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.op = None
        self.counters = Counter()
        self._stack = []
        self._kernels = set()
        self._bindings = []  # (namespace, attribute, original)
        self._modules = [importlib.import_module("gibbsgap." + m) for m in LAYERS]

    # -- counters, computed from arguments and results at the wrapped call --

    def _states(self, n):
        self.counters["operators.max_states"] = max(self.counters["operators.max_states"], n)

    def _count_kernel(self, fn, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        pi = a["pi"]
        n = pi.space.total_states
        self.counters["operators.kernel_builds"] += 1
        self.counters["operators.dense_bytes"] += 8 * n * n
        self._kernels.add((pi.space.dims, hash(pi.pmf.tobytes()), a["i"]))
        self._states(n)

    def _count_sweep(self, products_per_d):
        def count(fn, args, kwargs, result):
            n = result.n_states
            d = len(_bound(fn, args, kwargs)["pi"].space.dims)
            self.counters["operators.sweep_flops"] += products_per_d(d) * 2 * n ** 3
        return count

    def _count_op_arg(self, fn, args, kwargs, result):
        self._states(_bound(fn, args, kwargs)["op"].n_states)

    def _count_chain(self, fn, args, kwargs, result):
        self.counters["sampler.chain_steps"] += _bound(fn, args, kwargs)["n"]

    def _count_tail(self, fn, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        self.counters["sampler.replica_steps"] += a["n"] * a["replicas"]

    def _count_bytes(self, fn, args, kwargs, result):
        self.counters["reporting.bytes_written"] += os.path.getsize(_bound(fn, args, kwargs)["path"])

    def _count_optimizer(self, fn, args, kwargs, result):
        self.counters["geometry.optimizer_calls"] += 1
        self.counters["geometry.optimizer_nit"] += int(result.nit)
        self.counters["geometry.optimizer_nfev"] += int(result.nfev)

    # -- wrapping --

    def _wrap(self, name, fn, count=None, span=True):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                idx = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op])
                tracer._stack.append(idx)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    tracer._stack.pop()
                    tracer.spans[idx][1:3] = [start, end]
            else:
                result = fn(*args, **kwargs)
            if count is not None:
                count(fn, args, kwargs, result)
            return result

        setattr(wrapper, _WRAPPED, True)
        return wrapper

    def _rebind(self, original, wrapper):
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._bindings.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer already installed")
        hooks = {
            "operators.dsg": self._count_sweep(lambda d: d - 1),
            "operators.symmetrized_sweep": self._count_sweep(lambda d: 2 * d - 2),
            "operators.l2_norm_centered": self._count_op_arg,
            "operators.spectral_radius_centered": self._count_op_arg,
            "sampler.run_chain": self._count_chain,
            "sampler.empirical_tail": self._count_tail,
            "reporting.write_json": self._count_bytes,
            "reporting.write_csv": self._count_bytes,
        }
        for module, layer in zip(self._modules, LAYERS):
            for fname in LAYERS[layer]:
                name = "%s.%s" % (layer, fname)
                original = getattr(module, fname)
                self._rebind(original, self._wrap(name, original, hooks.get(name)))
        operators = self._modules[list(LAYERS).index("operators")]
        kernel = operators._small_step_kernel
        self._rebind(kernel, self._wrap("operators._small_step_kernel", kernel,
                                        self._count_kernel, span=False))
        # geometry reaches the optimizer as scipy.optimize.minimize
        minimize = scipy.optimize.minimize
        self._bindings.append((scipy.optimize, "minimize", minimize))
        scipy.optimize.minimize = self._wrap("scipy.optimize.minimize", minimize,
                                             self._count_optimizer, span=False)

    def remove(self):
        for namespace, attr, original in reversed(self._bindings):
            setattr(namespace, attr, original)
        left = [(ns.__name__, attr) for ns, attr, original in self._bindings
                if getattr(ns, attr) is not original]
        left += [(m.__name__, attr) for m in self._modules + [scipy.optimize]
                 for attr, value in vars(m).items() if getattr(value, _WRAPPED, False)]
        self._bindings = []
        if left:
            raise RuntimeError("wrappers left bound after tracing: %r" % left)

    # -- summary --

    def layer_metrics(self):
        """calls, total_s and self_s per wrapped function, plus derived counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {}
        for (name, start, end, parent, op), inner in zip(self.spans, child):
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - inner
        out = {}
        for layer, fnames in LAYERS.items():
            for fname in fnames:
                calls, total, own = stats.get("%s.%s" % (layer, fname), (0, 0.0, 0.0))
                out["%s.%s.calls" % (layer, fname)] = calls
                out["%s.%s.total_s" % (layer, fname)] = total
                out["%s.%s.self_s" % (layer, fname)] = own
            out["%s.self_s" % layer] = sum(out["%s.%s.self_s" % (layer, f)] for f in fnames)
        c = self.counters
        builds = c["operators.kernel_builds"]
        out.update({
            "operators.kernel_builds": builds,
            "operators.distinct_kernels": len(self._kernels),
            "operators.kernel_reuse": len(self._kernels) / builds if builds else 0.0,
            "operators.max_states": c["operators.max_states"],
            "operators.dense_bytes": c["operators.dense_bytes"],
            "operators.sweep_flops": c["operators.sweep_flops"],
            "geometry.optimizer_calls": c["geometry.optimizer_calls"],
            "geometry.optimizer_nit": c["geometry.optimizer_nit"],
            "geometry.optimizer_nfev": c["geometry.optimizer_nfev"],
            "sampler.chain_steps_per_s": _rate(c["sampler.chain_steps"], out["sampler.run_chain.total_s"]),
            "sampler.replica_steps_per_s": _rate(c["sampler.replica_steps"],
                                                 out["sampler.empirical_tail.total_s"]),
            "reporting.bytes_written": c["reporting.bytes_written"],
        })
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0

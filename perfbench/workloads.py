"""The four benchmark workloads: seeded inputs, commands, and output checks.

A workload is a list of gibbsgap commands (argv lists, run in-process by the
worker) plus a checker that turns their reports into *ops*: one op is one
checked row (an analyze target, a sweep ``d`` row, a ladder ``N`` row or a
sample scan panel).  An op fails on a nonzero exit code or when any checked
value misses its reference.  A command is *timed* (run over and over, its
fastest run counts toward ``wall_s``) or run once for its checks only.
"""
import json
import math
import os
from typing import NamedTuple

import numpy as np

import oracle

#: The repository's own gap/slack tolerance; no check here is looser.
TOL = 1e-9
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

#: analyze-suite takes one target per shape slot from a fixed pool, so every
#: target has a golden ell_hat from the baseline commit (golden.json).  A slot's
#: variants relabel one random base pmf (states permuted within each
#: coordinate, coordinates permuted): the seed changes the pmf the program
#: sees but not the spectral problem, so the work per seed stays nearly
#: constant.  Fresh pmfs per seed moved wall_s by ~11% (IQR) from input alone.
ANALYZE_SHAPES = ((3, 3), (4, 4), (2, 2, 2, 2), (2, 3, 4), (3, 3, 3),
                  (2, 2, 2, 2, 2), (4, 4, 4), (3, 3, 3, 3))
ANALYZE_VARIANTS = 8
#: Timed commands are kept short (about 0.04-0.45 s each on an idle host): on
#: a shared host the speed of a core swings by up to 2x from one second to the
#: next, and the fastest of many short runs is far steadier than that of a few
#: long ones.  analyze-suite runs slots 0-4 of the pool (d = 2-4, 9-27 states)
#: with 4 optimizer restarts instead of the CLI's 32: 0.04-0.21 s a target
#: instead of 0.2-1.1 s (all eight slots at 32 restarts take 13 s a pass).
ANALYZE_SLOTS = (0, 1, 2, 3, 4)
ANALYZE_ARGS = ("--restarts", "4")
SWEEP_EPSILON = 0.25
#: Up to 128 states; d = 8 and 9 take about 0.9 and 4.8 s by themselves.
SWEEP_D_LIST = (2, 3, 4, 5, 6, 7)
LADDER_Q = 0.5
LADDER_N = (10, 30, 40, 60)
#: N = 40 (861 states) and 60 (1,831 states) take about 0.8 and 6.3 s and run
#: once per run, for their checks only.
LADDER_N_UNTIMED = (40, 60)
LADDER_B = (1.5, 2.0)
SAMPLE_DIMS = (3, 3, 3)
#: One command per scan, each at a tenth of the CLI defaults (100,000 steps,
#: 10,000 replicas).  The pass flags test against standard errors that grow
#: as the replicas shrink, so they hold just as well.
SAMPLE_SCANS = ("dsg:1,2,3", "rsg:uniform")
SAMPLE_N = 10000
SAMPLE_REPLICAS = 1000


class Command(NamedTuple):
    key: str
    argv: list
    out_dir: str
    timed: bool = True


class Op(NamedTuple):
    label: str
    errors: list

    @property
    def ok(self):
        return not self.errors


def load_reference(name):
    with open(os.path.join(REFERENCE_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def pool_target(slot, variant):
    """(dims, pmf) of the analyze pool's target for one (shape slot, variant)."""
    dims = ANALYZE_SHAPES[slot]
    base = np.random.default_rng([slot]).gamma(1.0, size=math.prod(dims)).reshape(dims)
    rng = np.random.default_rng([slot, variant])
    for axis, size in enumerate(dims):
        base = np.take(base, rng.permutation(size), axis=axis)
    order = rng.permutation(len(dims))
    base = np.transpose(base, order)
    return tuple(dims[i] for i in order), (base / base.sum()).reshape(-1).tolist()


def _write_target(path, dims, pmf):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dims": list(dims), "pmf": pmf}, fh)


def _close(errors, what, got, want, tol=TOL):
    err = abs(got - want)
    if not err <= tol:
        errors.append("%s: %.17g vs reference %.17g (|err| %.3g > %.0e)" % (what, got, want, err, tol))
    return err


class Workload:
    """Base: ``commands`` to run, ``check`` to turn (doc, exit code) into ops."""

    name = ""
    report = ""
    ops_per_command = 1

    def __init__(self, work):
        self.work = work
        self.commands = []
        self.layer_facts = {}  # per-layer metrics that come from the checks

    def _out(self, key):
        path = os.path.join(self.work, "out", key)
        os.makedirs(path, exist_ok=True)
        return path

    def _input(self, key):
        path = os.path.join(self.work, "in")
        os.makedirs(path, exist_ok=True)
        return os.path.join(path, key + ".json")

    def load(self, command):
        path = os.path.join(command.out_dir, self.report)
        if not os.path.isfile(path):
            return None
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def check(self, command, doc, rc):
        """Ops for one command; every op fails if the command did not exit 0."""
        ops, problem = None, "no report written"
        if doc is not None:
            try:
                ops = self.check_doc(command, doc)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                problem = "report lacks a checked value: %r" % exc
        if ops is None:
            ops = [Op("%s[%d]" % (command.key, i), [problem]) for i in range(self.ops_per_command)]
        if rc != 0:
            ops = [Op(op.label, ["exit code %s" % rc] + op.errors) for op in ops]
        return ops

    def check_doc(self, command, doc):
        raise NotImplementedError

    def perturb(self, doc):
        """Shift one checked value of a report by 1e-6 (benchmark self-check)."""
        raise NotImplementedError


class AnalyzeSuite(Workload):
    name = "analyze-suite"
    report = "analyze.json"

    def __init__(self, seed, work):
        super().__init__(work)
        golden = load_reference("golden.json")["analyze"]
        variants = np.random.default_rng(seed).integers(ANALYZE_VARIANTS, size=len(ANALYZE_SLOTS))
        self.targets = {}
        for slot, variant in zip(ANALYZE_SLOTS, variants):
            key = "t%d-v%d" % (slot, variant)
            dims, pmf = pool_target(slot, int(variant))
            path = self._input(key)
            _write_target(path, dims, pmf)
            self.targets[key] = (dims, pmf, golden[key])
            self.commands.append(Command(key, ["analyze", "--target-file", path, *ANALYZE_ARGS,
                                               "--out-dir", self._out(key)], self._out(key)))

    def check_doc(self, command, doc):
        dims, pmf, golden = self.targets[command.key]
        rep = doc["report"]
        d = len(dims)
        errors = []
        c = rep["angle_closed_form"]
        _close(errors, "angle closed form vs brute force", c, rep["angle_brute_force"])
        if not rep["sandwich"]["left_pass"]:
            errors.append("sandwich left inequality failed")
        for entry in rep["bounds"]:
            if entry["slack"] < -TOL:
                errors.append("bound %s violated (slack %g)" % (entry["name"], entry["slack"]))
        panel = rep["equivalence_panel"]
        if not panel["all_conditions_agree"]:
            errors.append("equivalence panel disagrees")
        for perm, norm in panel["dsg_norms_by_permutation"].items():
            _close(errors, "sym_norm = dsg_norm^2 for %s" % perm,
                   panel["sym_norms_by_permutation"][perm], norm ** 2)
        ell_hat = rep["inclination_upper_bound"]
        dual = math.sqrt(max((d - 1.0) * (1.0 - c) / d, 0.0))
        if ell_hat < dual - TOL:
            errors.append("ell_hat %.17g below the certified dual bound %.17g" % (ell_hat, dual))
        if ell_hat > golden["ell_hat"] + TOL:
            errors.append("ell_hat %.17g worse than the baseline's %.17g" % (ell_hat, golden["ell_hat"]))
        facts = oracle.analyze_facts(pmf, dims)
        _close(errors, "angle c vs oracle", c, facts["c"])
        dsg_row, rsg_row = rep["scans"]
        _close(errors, "dsg norm vs oracle", dsg_row["l2_norm_centered"], facts["dsg_norm"])
        _close(errors, "dsg radius vs oracle", dsg_row["spectral_radius_centered"], facts["dsg_radius"])
        _close(errors, "rsg norm vs oracle", rsg_row["l2_norm_centered"], facts["rsg_norm"])
        _close(errors, "rsg radius vs oracle", rsg_row["spectral_radius_centered"], facts["rsg_norm"])
        return [Op(command.key, errors)]

    def perturb(self, doc):
        doc["report"]["angle_closed_form"] += 1e-6


class SweepDims(Workload):
    name = "sweep-dims"
    report = "sweep.json"
    ops_per_command = len(SWEEP_D_LIST)

    def __init__(self, seed, work):
        super().__init__(work)
        self.golden = load_reference("golden.json")["sweep"]
        out = self._out("sweep")
        self.commands.append(Command("sweep", [
            "sweep", "--epsilon", repr(SWEEP_EPSILON), "--d-list", ",".join(map(str, SWEEP_D_LIST)),
            "--seed", str(seed), "--out-dir", out], out))

    def check_doc(self, command, doc):
        rows = {r["d"]: r for r in doc["report"]["rows"]}
        ops = []
        for d in SWEEP_D_LIST:
            errors = []
            row = rows.get(d)
            if row is None:
                ops.append(Op("d=%d" % d, ["row missing"]))
                continue
            ref = self.golden[str(d)]
            _close(errors, "gap_rsg", row["gap_rsg"], ref["gap_rsg"])
            # the target is exchangeable, so every scan order has the same gap
            _close(errors, "gap_dsg_worst", row["gap_dsg_worst"], ref["gap_dsg"])
            _close(errors, "gap_dsg_best", row["gap_dsg_best"], ref["gap_dsg"])
            if row["permutations_checked"] != (math.factorial(d) if d <= 5 else 24):
                errors.append("checked %d permutations" % row["permutations_checked"])
            if not row["floor_ok"]:
                errors.append("gap below the transfer floor")
            ops.append(Op("d=%d" % d, errors))
        return ops

    def perturb(self, doc):
        doc["report"]["rows"][0]["gap_rsg"] += 1e-6


class LadderTrunc(Workload):
    name = "ladder-trunc"
    report = "counterexample.json"

    def __init__(self, seed, work):
        super().__init__(work)
        ref = load_reference("ladder_ref.json")
        self.ref = {r["N"]: r for r in ref["rows"]}
        for n in LADDER_N:
            key = "N=%d" % n
            out = self._out("ladder-N%d" % n)
            self.commands.append(Command(key, [
                "counterexample", "--q", repr(LADDER_Q), "--N", str(n),
                "--b", ",".join("%g" % b for b in LADDER_B), "--seed", str(seed), "--out-dir", out],
                out, timed=n not in LADDER_N_UNTIMED))

    def check_doc(self, command, doc):
        (row,) = doc["report"]["rows"]  # one N per command
        n = int(command.key[len("N="):])
        ref = self.ref[n]
        gap = float(ref["gap"])
        errors = []
        if row["N"] != n:
            errors.append("row for N=%d" % row["N"])
        err = max(_close(errors, "gap_P", row["gap_P"], gap),
                  _close(errors, "gap_P_star", row["gap_P_star"], gap))
        key = "counterexample.gap_ref_err_max"
        self.layer_facts[key] = max(self.layer_facts.get(key, 0.0), err)
        for b in LADDER_B:
            want = float(ref["moments"]["%g" % b])
            _close(errors, "moment b=%g (relative)" % b, row["moment_b%g" % b] / want, 1.0)
        if not row["gap_K"] <= 2.0 * row["kappa_upper"] + TOL:
            errors.append("gap_K %.17g above 2 kappa %.17g" % (row["gap_K"], 2 * row["kappa_upper"]))
        if row["n_states"] != 1 + n * (n + 1) // 2:
            errors.append("n_states %d" % row["n_states"])
        return [Op(command.key, errors)]

    def perturb(self, doc):
        doc["report"]["rows"][0]["gap_P"] += 1e-6


class SamplePanels(Workload):
    name = "sample-panels"
    report = "sample.json"

    def __init__(self, seed, work):
        super().__init__(work)
        g = np.random.default_rng(seed).gamma(1.0, size=math.prod(SAMPLE_DIMS))
        self.pmf = (g / g.sum()).tolist()
        path = self._input("sample")
        _write_target(path, SAMPLE_DIMS, self.pmf)
        for scan in SAMPLE_SCANS:
            out = self._out("sample-" + scan.split(":")[0])
            self.commands.append(Command(scan, [
                "sample", "--target-file", path, "--scan", scan, "--n", str(SAMPLE_N),
                "--replicas", str(SAMPLE_REPLICAS), "--out-dir", out], out))

    def check_doc(self, command, doc):
        pmf = np.asarray(self.pmf)
        d = len(SAMPLE_DIMS)
        steps = oracle.small_steps(pmf, SAMPLE_DIMS)
        if command.key.startswith("dsg:"):
            rho_want = oracle.radius_centered(oracle.sweep(steps, list(range(1, d + 1))), pmf)
        else:
            rho_want = oracle.norm_centered(sum(steps) / d, pmf)
        states = np.indices(SAMPLE_DIMS).reshape(d, -1).T
        f = (states[:, 0] == SAMPLE_DIMS[0] - 1).astype(float)
        var = float(pmf @ (f - pmf @ f) ** 2)
        (panel,) = doc["report"]["panels"]  # one scan per command
        errors = []
        rho = panel["rho"]
        _close(errors, "rho vs oracle", rho, rho_want)
        clt = panel["clt"]
        _close(errors, "CLT bound (relative)", clt["bound"] / ((1 + rho) / (1 - rho) * var), 1.0)
        if len(panel["tails"]) != 6:
            errors.append("%d tail rows" % len(panel["tails"]))
        for t in panel["tails"]:
            want = math.exp(-(1 - rho) / (1 + rho) * t["n"] * t["eps"] ** 2)
            _close(errors, "tail bound n=%d eps=%g" % (t["n"], t["eps"]), t["bound"], want)
            if not t["pass"]:
                errors.append("tail n=%d eps=%g above its bound" % (t["n"], t["eps"]))
        if not clt["pass"] or not panel["pass"]:
            errors.append("panel did not pass")
        return [Op(command.key, errors)]

    def perturb(self, doc):
        doc["report"]["panels"][0]["rho"] += 1e-6


WORKLOADS = {w.name: w for w in (AnalyzeSuite, SweepDims, LadderTrunc, SamplePanels)}

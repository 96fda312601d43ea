import functools
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from gibbsgap import bounds, cli, counterexample, geometry, measure, operators, sampler
from gibbsgap.cli import main, parse_scan
from gibbsgap.errors import ValidationError
from gibbsgap.operators import DeterministicScan, RandomScan
from gibbsgap.reporting import write_csv, write_json
from oracles import random_target


class TestScanGrammar:
    def test_dsg(self):
        assert parse_scan("dsg:2,1,3", 3) == DeterministicScan((2, 1, 3))

    def test_rsg_weights(self):
        assert parse_scan("rsg:0.5,0.5", 2) == RandomScan((0.5, 0.5))

    def test_rsg_uniform_placeholder(self):
        assert parse_scan("rsg:uniform", 2) == RandomScan.uniform(2)

    def test_bad_specs(self):
        # the last three are valid scans of the wrong length
        for text in ("mh:1,2", "dsg:a,b", "rsg:x", "dsg:1", "dsg:1,2,3", "rsg:0.25,0.25,0.5"):
            with pytest.raises(ValidationError):
                parse_scan(text, 2)


def _patch_everywhere(monkeypatch, original, replacement):
    """Replace a function under every gibbsgap module binding that holds it."""
    for m in ("operators", "geometry", "bounds", "sampler", "cli"):
        module = importlib.import_module("gibbsgap." + m)
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def _count_calls(monkeypatch, names):
    """Count calls of the named operators functions under every module binding."""
    counts = Counter()
    for name in names:
        original = getattr(operators, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        _patch_everywhere(monkeypatch, original, counted)
    return counts


def _count_table_builds(monkeypatch):
    """The targets whose table of full conditionals gets built, once per build."""
    built = []
    build = measure.TargetDistribution.__dict__["conditionals"].func

    def counted(pi):
        built.append(pi)
        return build(pi)

    prop = functools.cached_property(counted)
    prop.__set_name__(measure.TargetDistribution, "conditionals")
    monkeypatch.setattr(measure.TargetDistribution, "conditionals", prop)
    return built


def _open_target_file(tmp_path):
    """A random 2x2x2x2 pmf whose dual bracket stays open, as a target file."""
    g = np.random.default_rng([2]).gamma(1.0, size=16)
    spec = tmp_path / "open.json"
    spec.write_text(json.dumps({"dims": [2] * 4, "pmf": (g / g.sum()).tolist()}))
    return spec


class TestAnalyzeCommand:
    def test_end_to_end(self, tmp_path):
        code = main(["analyze", "--model", "equicorrelated_binary", "--d", "2",
                     "--epsilon", "0.25", "--out-dir", str(tmp_path),
                     "--restarts", "4"])
        assert code == 0
        doc = json.loads((tmp_path / "analyze.json").read_text())
        assert doc["tool"] == "gibbsgap"
        rep = doc["report"]
        assert rep["angle_closed_form"] == pytest.approx(0.5, abs=1e-9)
        assert rep["angle_brute_force"] == pytest.approx(0.5, abs=1e-9)
        assert rep["equivalence_panel"]["all_conditions_agree"]
        by_scan = {r["scan"]: r for r in rep["scans"]}
        assert by_scan["dsg:1,2"]["l2_norm_centered"] == pytest.approx(0.5, abs=1e-9)
        assert by_scan["dsg:1,2"]["spectral_radius_centered"] == pytest.approx(0.25, abs=1e-9)
        assert (tmp_path / "bounds.csv").exists()

    def test_skewed_sweep_publishes_its_radius(self, tmp_path, skewed_2x2):
        # the sweep's flows pi(x) P(x, y) are all below 1e-9, yet its radius is
        # c^2 = 0.2499999998 (a 60-digit mpmath solve), not its norm c = 0.4999999998
        spec = tmp_path / "skewed.json"
        spec.write_text(json.dumps({"dims": [2, 2], "pmf": [2e-10, 2e-10, 2e-10, 1]}))
        code = main(["analyze", "--target-file", str(spec), "--restarts", "4",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "analyze.json").read_text())["report"]
        row = {r["scan"]: r for r in rep["scans"]}["dsg:1,2"]
        assert row["spectral_radius_centered"] == pytest.approx(0.2499999998, abs=1e-12)
        assert row["spectral_gap"] == pytest.approx(0.7500000002, abs=1e-12)
        assert row["spectral_radius_centered"] == pytest.approx(
            operators.spectral_radius_centered(operators.dsg((1, 2), skewed_2x2)), abs=1e-15)
        assert not row["reversible"]

    def test_byte_identical_rerun(self, tmp_path):
        argv = ["analyze", "--model", "equicorrelated_binary", "--d", "2",
                "--epsilon", "0.1", "--restarts", "2"]
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        assert main(argv + ["--out-dir", str(a_dir)]) == 0
        assert main(argv + ["--out-dir", str(b_dir)]) == 0
        assert (a_dir / "analyze.json").read_bytes() == (b_dir / "analyze.json").read_bytes()
        assert (a_dir / "bounds.csv").read_bytes() == (b_dir / "bounds.csv").read_bytes()

    def test_inclination_bracket_published(self, tmp_path):
        code = main(["analyze", "--model", "equicorrelated_binary", "--d", "3",
                     "--epsilon", "0.25", "--out-dir", str(tmp_path), "--restarts", "4"])
        assert code == 0
        doc = json.loads((tmp_path / "analyze.json").read_text())
        rep = doc["report"]
        assert doc["config"]["restarts"] == 4
        assert rep["inclination_certified"]
        assert rep["inclination_restarts"] == 0
        lower, upper = rep["inclination_lower_bound_dual"], rep["inclination_upper_bound"]
        assert upper ** 2 - lower ** 2 <= 1e-12
        via_dual = [e for e in rep["bounds"] if e["name"] == "dsg_norm_bound_via_dual_l"]
        via_c = [e for e in rep["bounds"] if e["name"] == "dsg_norm_bound_via_certified_l"]
        assert len(via_dual) == len(via_c) == 1
        for dual_entry, c_entry in zip(via_dual, via_c):
            assert dual_entry["inputs"]["ell_lower"] == lower
            assert 0.0 <= dual_entry["slack"] <= c_entry["slack"]

    def test_kkt_residual_published(self, tmp_path, monkeypatch):
        certified = tmp_path / "certified"
        assert main(["analyze", "--model", "equicorrelated_binary", "--d", "3", "--epsilon",
                     "0.25", "--out-dir", str(certified), "--restarts", "1"]) == 0
        rep = json.loads((certified / "analyze.json").read_text())["report"]
        lower, upper = rep["inclination_lower_bound_dual"], rep["inclination_upper_bound"]
        assert rep["inclination_kkt_residual"] == pytest.approx(upper ** 2 - lower ** 2, abs=1e-15)
        # a random 2x2x2x2 pmf whose dual bracket stays open
        g = np.random.default_rng([2]).gamma(1.0, size=16)
        spec = tmp_path / "open.json"
        spec.write_text(json.dumps({"dims": [2] * 4, "pmf": (g / g.sum()).tolist()}))
        args = ["analyze", "--target-file", str(spec), "--restarts", "2", "--out-dir"]
        for polish_fails in (False, True):
            if polish_fails:
                monkeypatch.setattr(geometry, "_branch_polish", lambda forms, w, beta: None)
            out = tmp_path / str(polish_fails)
            assert main(args + [str(out)]) == 0
            rep = json.loads((out / "analyze.json").read_text())["report"]
            assert not rep["inclination_certified"]
            if polish_fails:
                assert rep["inclination_kkt_residual"] is None
            else:
                assert abs(rep["inclination_kkt_residual"]) <= 1e-12

    def test_wrong_length_scan_refused_before_the_geometry(self, tmp_path, monkeypatch):
        for name in ("inclination", "friedrichs_angle_bruteforce"):
            monkeypatch.setattr(geometry, name, lambda *a, **kw: pytest.fail("geometry ran"))
        code = main(["analyze", "--model", "equicorrelated_binary", "--d", "3", "--epsilon",
                     "0.25", "--scan", "dsg:1,2", "--out-dir", str(tmp_path)])
        assert code == 2

    def test_target_file_model_entry(self, tmp_path):
        spec = tmp_path / "model.json"
        spec.write_text(json.dumps({"dims": [2, 2, 2],
                                    "model": {"name": "equicorrelated_binary", "epsilon": 0.25}}))
        code = main(["analyze", "--target-file", str(spec), "--restarts", "4",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        target = json.loads((tmp_path / "analyze.json").read_text())["report"]["target"]
        assert target == {"dims": [2, 2, 2],
                          "pmf": measure.equicorrelated_binary(3, 0.25).pmf.tolist()}

    def test_default_restarts_no_worse_on_an_open_target(self, tmp_path):
        spec = _open_target_file(tmp_path)
        reports = []
        for restarts in (["--restarts", "4"], []):
            out = tmp_path / str(len(reports))
            assert main(["analyze", "--target-file", str(spec), *restarts,
                         "--out-dir", str(out)]) == 0
            reports.append(json.loads((out / "analyze.json").read_text())["report"])
        r4, r32 = reports
        assert not r4["inclination_certified"] and r4["inclination_restarts"] == 4
        assert r32["inclination_restarts"] == 32
        assert r32["inclination_upper_bound"] <= r4["inclination_upper_bound"]
        assert abs(r32["inclination_kkt_residual"]) <= 1e-12

    def test_seed_does_not_move_an_open_inclination(self, tmp_path):
        # --seed picks the sampled orders and weight vectors, not the restarts' starts
        spec = _open_target_file(tmp_path)
        reports = []
        for seed in ("0", "5"):
            out = tmp_path / seed
            assert main(["analyze", "--target-file", str(spec), "--restarts", "4", "--seed", seed,
                         "--out-dir", str(out)]) == 0
            report = json.loads((out / "analyze.json").read_text())["report"]
            reports.append({k: v for k, v in report.items() if k.startswith("inclination_")})
        assert not reports[0]["inclination_certified"]
        assert len(reports[0]) == 5 and reports[0] == reports[1]

    def test_open_bracket_reports_do_not_depend_on_blas_threads(self, tmp_path):
        spec = _open_target_file(tmp_path)
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            run = subprocess.run([sys.executable, "-m", "gibbsgap.cli", "analyze", "--target-file",
                                  str(spec), "--restarts", "4", "--out-dir", str(out)],
                                 capture_output=True, text=True,
                                 env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            assert run.returncode == 0, run.stderr
            outs.append(out)
        assert not json.loads((outs[0] / "analyze.json").read_text())["report"][
            "inclination_certified"]
        for name in ("analyze.json", "bounds.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_target_file_input(self, tmp_path):
        spec_file = tmp_path / "target.json"
        spec_file.write_text('{"dims": [2, 2], "pmf": [0.25, 0.25, 0.25, 0.25]}')
        code = main(["analyze", "--target-file", str(spec_file),
                     "--out-dir", str(tmp_path), "--restarts", "2"])
        assert code == 0

    def test_usage_error_exit_2(self, tmp_path):
        code = main(["analyze", "--model", "equicorrelated_binary",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        code = main(["analyze", "--model", "nonsense", "--d", "2",
                     "--epsilon", "0.1", "--out-dir", str(tmp_path)])
        assert code == 2

    def test_state_cap_exit_3(self, tmp_path):
        code = main(["analyze", "--model", "equicorrelated_binary", "--d", "2",
                     "--epsilon", "0.25", "--out-dir", str(tmp_path),
                     "--state-cap", "3"])
        assert code == 3

    def test_state_cap_refused_before_geometry(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("geometry ran on an over-cap target")

        monkeypatch.setattr(geometry, "inclination", fail)
        monkeypatch.setattr(geometry, "friedrichs_angle_bruteforce", fail)
        code = main(["analyze", "--model", "equicorrelated_binary", "--d", "2",
                     "--epsilon", "0.25", "--out-dir", str(tmp_path),
                     "--state-cap", "3"])
        assert code == 3
        assert not (tmp_path / "analyze.json").exists()

    def test_each_scan_operator_built_once(self, tmp_path, monkeypatch):
        counts = _count_calls(monkeypatch, ("dsg", "rsg", "symmetrized_sweep", "is_reversible",
                                            "l2_norm_centered", "spectral_radius_centered"))
        stepped = Counter()
        original = operators._small_step_kernel
        _patch_everywhere(monkeypatch, original,
                          lambda i, pi: stepped.update([i]) or original(i, pi))
        stacked = []
        for name in ("svd", "eigvals", "eigvalsh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, *args, _n=name, _s=solver, **kw:
                                (np.ndim(a) == 3 and stacked.append((_n, np.shape(a))))
                                or _s(a, *args, **kw))
        code = main(["analyze", "--model", "equicorrelated_binary", "--d", "3",
                     "--epsilon", "0.25", "--out-dir", str(tmp_path)])
        assert code == 0
        # the uniform and 8 sampled random scans' norms from the inclination's 7 x 7
        # forms in one eigvalsh call; then one pass: each small step densified once, the
        # 3! sweep orders' norms (squared, the SYM panel) from the SVD of one order per
        # reversal pair; only the identity sweep's radius needs an eigen-solve, a random
        # scan's radius is its norm by its type, with no reversibility probe and no
        # per-scan operator
        assert stepped == Counter({1: 1, 2: 1, 3: 1})
        assert stacked == [("eigvalsh", (9, 7, 7)), ("eigvals", (1, 8, 8)), ("svd", (3, 8, 8))]
        assert counts == Counter()

    @pytest.mark.parametrize("target", ["model_d3", "pmf_2x3x2"])
    def test_sym_norms_are_the_palindromic_norms(self, tmp_path, target):
        if target == "model_d3":
            pi = measure.equicorrelated_binary(3, 0.25)
            run = ["--model", "equicorrelated_binary", "--d", "3", "--epsilon", "0.25"]
        else:
            pi = random_target(7, (2, 3, 2))
            spec = tmp_path / "target.json"
            spec.write_text(json.dumps({"dims": [2, 3, 2], "pmf": pi.pmf.tolist()}))
            run = ["--target-file", str(spec)]
        code = main(["analyze", *run, "--restarts", "4", "--out-dir", str(tmp_path)])
        assert code == 0
        panel = json.loads((tmp_path / "analyze.json").read_text())["report"]["equivalence_panel"]
        sym, plain = panel["sym_norms_by_permutation"], panel["dsg_norms_by_permutation"]
        assert sorted(sym) == sorted(plain) and len(sym) == 6
        for key, value in sym.items():
            order = tuple(int(i) for i in key.split(","))
            palindrome = operators.l2_norm_centered(operators.symmetrized_sweep(order, pi))
            assert abs(value - palindrome) <= 1e-12
            assert value == plain[key] ** 2

    def test_restarts_below_one_refused_before_any_step(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("worked on the target before checking --restarts")

        _patch_everywhere(monkeypatch, operators._small_step_kernel, fail)
        code = main(["analyze", "--model", "equicorrelated_binary", "--d", "3",
                     "--epsilon", "0.25", "--restarts", "0", "--out-dir", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "analyze.json").exists()
        assert "restarts must be >= 1, got 0" in capsys.readouterr().err

    def test_conditionals_built_once_per_target(self, tmp_path, monkeypatch):
        built = _count_table_builds(monkeypatch)
        stepped = []
        original = operators._small_step_kernel
        _patch_everywhere(monkeypatch, original,
                          lambda i, pi: stepped.append(pi) or original(i, pi))
        code = main(["analyze", "--model", "equicorrelated_binary", "--d", "3",
                     "--epsilon", "0.25", "--out-dir", str(tmp_path)])
        assert code == 0
        # the forms, every sweep and every random scan read one table
        assert len(built) == 1
        assert len(stepped) == 3 and all(pi is built[0] for pi in stepped)
        code = main(["sweep", "--d-list", "2,3,4", "--out-dir", str(tmp_path)])
        assert code == 0
        assert [pi.space.d for pi in built[1:]] == [2, 3, 4]
        # two passes per target, each densifying every small step once: the random-scan
        # gap is checked before any radius is built
        assert [pi.space.d for pi in stepped[3:]] == [2] * 4 + [3] * 6 + [4] * 8

    @pytest.mark.parametrize("command", ["analyze", "sample"])
    @pytest.mark.parametrize("model_args", [["--d", "5"], ["--epsilon", "0.3"]],
                             ids=["d", "epsilon"])
    def test_model_options_with_target_file_exit_2(self, tmp_path, monkeypatch, capsys,
                                                   command, model_args):
        monkeypatch.setattr(cli, "parse_target", lambda *a, **kw: pytest.fail("target read"))
        spec = tmp_path / "target.json"
        spec.write_text(json.dumps({"dims": [2, 2, 2], "pmf": [0.125] * 8}))
        code = main([command, "--target-file", str(spec), *model_args,
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / (command + ".json")).exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: --d and --epsilon go with --model, not with --target-file"]

    @pytest.mark.parametrize("command", ["analyze", "sample"])
    def test_wrong_length_scan_refused_before_any_step(self, tmp_path, monkeypatch, capsys,
                                                       command):
        def fail(*args, **kwargs):
            raise AssertionError("built a scan before checking every scan's length")

        _patch_everywhere(monkeypatch, operators._small_step_kernel, fail)
        code = main([command, "--model", "equicorrelated_binary", "--d", "3", "--epsilon",
                     "0.25", "--scan", "dsg:1,2,3", "--scan", "dsg:1,2",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / (command + ".json")).exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: scan has 2 coordinates, target has 3"]

    @pytest.mark.parametrize("command", ["analyze", "sample"])
    def test_missing_target_file_exit_2(self, tmp_path, command):
        code = main([command, "--target-file", str(tmp_path / "missing.json"),
                     "--out-dir", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("command", ["analyze", "sample"])
    @pytest.mark.parametrize("text", [
        # json.loads accepts NaN, and NaN fails no "<= 0" test
        '{"dims": [2, 2], "pmf": [NaN, 0.25, 0.25, 0.25]}',
        # True is an int to isinstance
        '{"dims": [true, 2], "pmf": [0.5, 0.5]}',
        '{"dims": [2, 2], "pmf": {"0": 0.25, "1": 0.25, "2": 0.25, "3": 0.25}}',
        '{"dims": [2, 2], "pmf": ["0.25", "0.25", "0.25", "0.25"]}',
        '{"dims": [2, 2], "model": {"name": "equicorrelated_binary", "epsilon": "abc"}}',
        '{"dims": [2, 2], "model": {"name": "equicorrelated_binary", "epsilon": true}}',
        '{"dims": [2, 2], "model": {"name": ["x"], "epsilon": 0.25}}',
        '{"dims": [2, 2], "pmf": [1%s, 0.25, 0.25, 0.25]}' % ("0" * 400),
        # no mean-zero function exists on one state
        '{"dims": [1, 1], "pmf": [1.0]}',
        # unknown keys: a d in the model entry would be overridden by dims
        '{"dims": [2, 2], "model": {"name": "equicorrelated_binary", "epsilon": 0.25, "d": 7}}',
        '{"dims": [2, 2], "pmf": [0.25, 0.25, 0.25, 0.25], "extra": 1}',
    ], ids=["nan_pmf", "bool_dims", "object_pmf", "string_pmf", "string_epsilon",
            "bool_epsilon", "list_name", "huge_int_pmf", "single_state", "model_d", "extra_key"])
    def test_invalid_target_file_exit_2_without_report(self, tmp_path, command, text):
        spec = tmp_path / "target.json"
        spec.write_text(text)
        out = tmp_path / "out"
        code = main([command, "--target-file", str(spec), "--out-dir", str(out)])
        assert code == 2
        assert not (out / (command + ".json")).exists()

    def test_weight_samples_is_not_an_option(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--model", "equicorrelated_binary", "--d", "2", "--epsilon",
                  "0.25", "--weight-samples", "3", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("weights, bad", [("nan,nan", "weight 1 is nan"),
                                              ("0.5,nan", "weight 2 is nan")])
    def test_non_finite_scan_weight_exit_2(self, tmp_path, capsys, weights, bad):
        code = main(["analyze", "--model", "equicorrelated_binary", "--d", "2",
                     "--epsilon", "0.25", "--scan", "rsg:" + weights, "--out-dir", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "analyze.json").exists()
        assert bad in capsys.readouterr().err

    def test_state_count_beyond_int64_exit_2(self, tmp_path, capsys):
        # 4611686018427387905 * 4 wraps to 4 in int64
        spec = tmp_path / "target.json"
        spec.write_text(json.dumps({"dims": [4611686018427387905, 4], "pmf": [0.25] * 4}))
        code = main(["analyze", "--target-file", str(spec), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "pmf has 4 entries, space has 18446744073709551620 states" in capsys.readouterr().err


def _model_builder_fails(monkeypatch):
    def fail(d, epsilon):
        raise AssertionError("built the pmf of an over-cap model")

    _, values = measure._MODELS["equicorrelated_binary"]
    monkeypatch.setitem(measure._MODELS, "equicorrelated_binary", (fail, values))


class TestTargetFileStateCap:
    """A pmf --target-file is checked against the cap where it is loaded, before any step."""

    @pytest.fixture
    def target_2x3(self, tmp_path):
        path = tmp_path / "target.json"
        path.write_text(json.dumps({"dims": [2, 3], "pmf": random_target(2, (2, 3)).pmf.tolist()}))
        return str(path)

    _RUNS = {"analyze": ["--restarts", "2"],
             "sample": ["--n", "1000", "--replicas", "10", "--n-grid", "100", "--eps-grid", "0.05"]}

    @pytest.mark.parametrize("command", ["analyze", "sample"])
    def test_one_below_exit_3_before_any_step(self, tmp_path, monkeypatch, target_2x3, command):
        def fail(*args, **kwargs):
            raise AssertionError("worked on an over-cap target")

        _patch_everywhere(monkeypatch, operators._small_step_kernel, fail)
        monkeypatch.setattr(geometry, "inclination", fail)
        out = tmp_path / "out"
        code = main([command, "--target-file", target_2x3, *self._RUNS[command],
                     "--state-cap", "5", "--out-dir", str(out)])
        assert code == 3
        assert not (out / (command + ".json")).exists()

    @pytest.mark.parametrize("command", ["analyze", "sample"])
    def test_at_the_cap_runs(self, tmp_path, target_2x3, command):
        code = main([command, "--target-file", target_2x3, *self._RUNS[command],
                     "--state-cap", "6", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / (command + ".json")).exists()

    def test_over_cap_refused_before_the_replicas(self, tmp_path, target_2x3):
        # as for a --model target: the cap is checked first
        code = main(["sample", "--target-file", target_2x3, "--replicas", "0",
                     "--state-cap", "5", "--out-dir", str(tmp_path)])
        assert code == 3


class TestModelStateCap:
    @pytest.mark.parametrize("command", ["analyze", "sample"])
    def test_refused_before_the_pmf_is_built(self, tmp_path, monkeypatch, command):
        _model_builder_fails(monkeypatch)
        code = main([command, "--model", "equicorrelated_binary", "--d", "20",
                     "--epsilon", "0.25", "--state-cap", "100", "--out-dir", str(tmp_path)])
        assert code == 3

    def test_target_file_model_refused_before_the_pmf_is_built(self, tmp_path, monkeypatch):
        _model_builder_fails(monkeypatch)
        spec = tmp_path / "target.json"
        spec.write_text(json.dumps({"dims": [2] * 20, "model": {
            "name": "equicorrelated_binary", "epsilon": 0.25}}))
        code = main(["sample", "--target-file", str(spec), "--state-cap", "100",
                     "--out-dir", str(tmp_path)])
        assert code == 3

    def test_sweep_refused_before_any_pmf_is_built(self, tmp_path, monkeypatch):
        _model_builder_fails(monkeypatch)
        code = main(["sweep", "--d-list", "2,3,20", "--state-cap", "100",
                     "--out-dir", str(tmp_path)])
        assert code == 3
        assert not (tmp_path / "sweep.json").exists()

    def test_model_states(self):
        assert measure.model_states("equicorrelated_binary", 20) == 2 ** 20
        with pytest.raises(ValidationError):
            measure.model_states("nonsense", 2)
        for d in (1, 0, -2):  # 2 ** -2 would be a state count of 0.25
            with pytest.raises(ValidationError, match="needs d >= 2, got %d" % d):
                measure.model_states("equicorrelated_binary", d)

    @pytest.mark.parametrize("run", [["sweep", "--d-list", "4,5,1"],
                                     ["analyze", "--model", "equicorrelated_binary", "--d", "1",
                                      "--epsilon", "0.25"]], ids=["sweep", "analyze"])
    def test_dimension_below_two_refused_before_any_step(self, tmp_path, monkeypatch, capsys,
                                                         run):
        def fail(*args, **kwargs):
            raise AssertionError("a small step was built before every d was checked")

        _model_builder_fails(monkeypatch)
        _patch_everywhere(monkeypatch, operators._small_step_kernel, fail)
        code = main([*run, "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: equicorrelated_binary needs d >= 2, got 1\n"
        assert list(tmp_path.iterdir()) == []


class TestParser:
    def test_option_strings(self):
        # every option a command takes; a new knob shows up here
        (sub,) = [a for a in cli.build_parser()._actions if a.choices and a.dest == "command"]
        options = {name: [s for a in p._actions for s in a.option_strings]
                   for name, p in sub.choices.items()}
        target = ["--target-file", "--model", "--d", "--epsilon"]
        common = ["--out-dir", "--seed", "--state-cap"]
        assert options == {
            "analyze": ["-h", "--help", *target, *common, "--scan", "--restarts"],
            "sweep": ["-h", "--help", *common, "--model", "--epsilon", "--d-list"],
            "sample": ["-h", "--help", *target, *common, "--scan", "--n", "--replicas",
                       "--function", "--n-grid", "--eps-grid"],
            "counterexample": ["-h", "--help", *common, "--q", "--N", "--b"],
        }

    def test_built_once_per_process(self, tmp_path, monkeypatch):
        cli._parser.cache_clear()
        calls = []
        original = cli.build_parser

        def counted():
            calls.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counted)
        for _ in range(3):
            assert main(["counterexample", "--N", "3", "--out-dir", str(tmp_path)]) == 0
        assert len(calls) == 1
        cli._parser.cache_clear()

    def test_out_dir_default_read_at_call_time(self, tmp_path, monkeypatch):
        assert main(["counterexample", "--N", "3", "--out-dir", str(tmp_path / "first")]) == 0
        monkeypatch.setenv("GIBBSGAP_OUT", str(tmp_path / "env"))
        assert main(["counterexample", "--N", "3"]) == 0
        assert (tmp_path / "env" / "counterexample.json").exists()
        # an empty GIBBSGAP_OUT is unset: the working directory
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIBBSGAP_OUT", "")
        assert main(["counterexample", "--N", "3"]) == 0
        assert (tmp_path / "counterexample.json").exists()


class TestSweepCommand:
    def test_end_to_end(self, tmp_path):
        code = main(["sweep", "--epsilon", "0.25", "--d-list", "2,3,4",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "sweep.json").read_text())
        rows = doc["report"]["rows"]
        assert [r["d"] for r in rows] == [2, 3, 4]
        assert all(r["floor_ok"] for r in rows)
        assert all(r["gap_dsg_worst"] >= r["floor"] for r in rows)
        assert (tmp_path / "sweep.csv").exists()

    def test_too_few_points_exit_2(self, tmp_path):
        code = main(["sweep", "--d-list", "2,3", "--out-dir", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("d_list", ["3,3,3", "2,3,3"])
    def test_too_few_distinct_dimensions_exit_2(self, tmp_path, d_list):
        code = main(["sweep", "--d-list", d_list, "--out-dir", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "sweep.json").exists()

    def test_repeated_dimension_exit_2_before_any_pmf(self, tmp_path, monkeypatch, capsys):
        # 2,3,3,4 would count d = 3 twice in the fit
        _model_builder_fails(monkeypatch)
        code = main(["sweep", "--d-list", "2,3,3,4", "--out-dir", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "sweep.json").exists()
        assert "must not repeat" in capsys.readouterr().err

    def test_unknown_model_exit_2(self, tmp_path):
        code = main(["sweep", "--model", "nonsense", "--d-list", "2,3,4",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "sweep.json").exists()

    @pytest.mark.parametrize("epsilon", ["0", "1e-6"])
    def test_gap_too_small_to_fit_exit_2(self, tmp_path, epsilon):
        # random-scan gaps down to 1e-16: no decay rate can be fitted through them
        code = main(["sweep", "--epsilon", epsilon, "--d-list", "2,3,4",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "sweep.json").exists()

    def test_gap_refused_before_any_radius(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("a radius was solved before the random-scan gap was checked")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        # at epsilon = 0 the random-scan gap is 0 from d = 2 on
        code = main(["sweep", "--epsilon", "0", "--d-list", "2,3,4", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "random-scan gap" in capsys.readouterr().err


class TestSampleCommand:
    def test_end_to_end(self, tmp_path):
        code = main(["sample", "--model", "equicorrelated_binary", "--d", "2",
                     "--epsilon", "0.25", "--out-dir", str(tmp_path),
                     "--n", "20000", "--replicas", "2000",
                     "--n-grid", "100", "--eps-grid", "0.2,0.3"])
        assert code == 0
        doc = json.loads((tmp_path / "sample.json").read_text())
        rep = doc["report"]
        assert rep["all_pass"]
        for panel in rep["panels"]:
            assert panel["clt"]["estimate"] <= (panel["clt"]["bound"]
                                                + 3.0 * panel["clt"]["std_error"])
            for tail in panel["tails"]:
                assert tail["pass"]

    @pytest.mark.parametrize("grid_args", [["--n-grid", "0"], ["--n-grid", "100,-5"],
                                           ["--eps-grid", "0.2,0"], ["--eps-grid", "0.9"],
                                           ["--eps-grid", "nan"], ["--n", "50"]])
    def test_empty_horizon_or_bad_eps_exit_2(self, tmp_path, monkeypatch, capsys, grid_args):
        def fail(*args, **kwargs):
            raise AssertionError("built an operator before checking the sample inputs")

        for original in (operators.scan_operator, operators._small_step_kernel):
            _patch_everywhere(monkeypatch, original, fail)
        code = main(["sample", "--model", "equicorrelated_binary", "--d", "2",
                     "--epsilon", "0.25", "--out-dir", str(tmp_path),
                     "--n", "1000", "--replicas", "10"] + grid_args)
        assert code == 2
        assert not (tmp_path / "sample.json").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.fixture
    def target_3x3x3(self, tmp_path):
        pi = random_target(seed=5, dims=(3, 3, 3))
        path = tmp_path / "target.json"
        path.write_text(json.dumps({"dims": [3, 3, 3], "pmf": pi.pmf.tolist()}))
        return str(path)

    def _sample(self, tmp_path, target_file, scan, *extra):
        return main(["sample", "--target-file", target_file, "--scan", scan,
                     "--n", "5000", "--replicas", "200", "--n-grid", "100",
                     "--out-dir", str(tmp_path / "out"), *extra])

    @pytest.mark.parametrize("scan", ["dsg:2,3,1", "rsg:uniform"])
    def test_scan_operator_built_once_under_state_cap(self, tmp_path, monkeypatch,
                                                      target_3x3x3, scan):
        # the kernel the scan simulates is built once, for the chain and the tail replicas
        built = []
        original = operators.scan_operator
        _patch_everywhere(monkeypatch, original,
                          lambda pi, spec: built.append(spec) or original(pi, spec))
        assert self._sample(tmp_path, target_3x3x3, scan, "--state-cap", "25000") == 0
        assert built == [parse_scan(scan, 3)]

    def test_cumulative_table_built_once_per_scan(self, tmp_path, monkeypatch, target_3x3x3):
        # the chain and the tail replicas step through one table of each scan's kernel
        built = []
        original = sampler.cumulative_table

        def counted(kernel):
            built.append(kernel)
            return original(kernel)

        _patch_everywhere(monkeypatch, original, counted)
        assert self._sample(tmp_path, target_3x3x3, "dsg:2,3,1", "--scan", "rsg:uniform") == 0
        panels = json.loads((tmp_path / "out" / "sample.json").read_text())["report"]["panels"]
        assert len(panels) == 2
        assert len(built) == 2 and not np.array_equal(built[0], built[1])

    def test_first_scan_freed_before_the_second_is_built(self, tmp_path, monkeypatch):
        # at 256 states one kernel is 512 KB; the first scan's kernel and
        # cumulative table (about 1 MB) must be gone when the second is built
        n = 256
        held = []
        original = operators.scan_operator

        def traced(pi, spec):
            if tracemalloc.is_tracing():
                held.append(tracemalloc.get_traced_memory()[0] - base)
            return original(pi, spec)

        def sample(d, *extra):
            return main(["sample", "--model", "equicorrelated_binary", "--d", str(d),
                         "--epsilon", "0.25", "--n", "1000", "--replicas", "50",
                         "--n-grid", "100", "--out-dir", str(tmp_path), *extra])

        _patch_everywhere(monkeypatch, original, traced)
        # a first sample in the process imports modules it keeps (about 0.8 MB)
        assert sample(2) == 0
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            code = sample(8, "--scan", "dsg:1,2,3,4,5,6,7,8", "--scan", "rsg:uniform")
        finally:
            tracemalloc.stop()
        assert code == 0 and len(held) == 2
        assert held[1] < n * n * 8, held

    def test_scan_order_leaves_each_panel_unchanged(self, tmp_path, target_3x3x3):
        panels = []
        for first, second in (("dsg:2,3,1", "rsg:uniform"), ("rsg:uniform", "dsg:2,3,1")):
            assert self._sample(tmp_path, target_3x3x3, first, "--scan", second) == 0
            doc = json.loads((tmp_path / "out" / "sample.json").read_text())
            panels.append({p["scan"]: p for p in doc["report"]["panels"]})
        assert list(panels[0]) == list(panels[1])[::-1]
        assert panels[0] == panels[1]

    @pytest.mark.parametrize("scan, solver", [("dsg:2,3,1", "spectral_radius_centered"),
                                              ("rsg:uniform", "l2_norm_centered")])
    def test_rho_solved_once_per_scan(self, tmp_path, monkeypatch, target_3x3x3, scan, solver):
        counts = _count_calls(monkeypatch, ("spectral_radius_centered", "l2_norm_centered",
                                            "is_reversible"))
        assert self._sample(tmp_path, target_3x3x3, scan) == 0
        # one solve by the scan's type: a sweep's radius, the self-adjoint random scan's
        # norm; no reversibility probe
        assert counts == {solver: 1}
        assert counts["is_reversible"] == 0
        (panel,) = json.loads((tmp_path / "out" / "sample.json").read_text())["report"]["panels"]
        op = operators.scan_operator(random_target(seed=5, dims=(3, 3, 3)), parse_scan(scan, 3))
        assert panel["rho"] == getattr(operators, solver)(op)

    def test_state_cap_refused_before_any_step(self, tmp_path, monkeypatch):
        def fail(*args):
            raise AssertionError("simulated an over-cap target")

        monkeypatch.setattr(sampler, "_walk", fail)
        monkeypatch.setattr(sampler, "_bucket_table", fail)
        monkeypatch.setattr(sampler, "_bucket_step", fail)
        code = main(["sample", "--model", "equicorrelated_binary", "--d", "2",
                     "--epsilon", "0.25", "--out-dir", str(tmp_path),
                     "--n", "1000", "--replicas", "10", "--state-cap", "3"])
        assert code == 3
        assert not (tmp_path / "sample.json").exists()

    def test_unresolvable_rate_refused_before_any_step(self, tmp_path, monkeypatch, capsys):
        # at epsilon = 1e-9 the gap is ~1e-18: both scans' rho round to exactly 1.0
        def fail(*args, **kwargs):
            raise AssertionError("simulated with a rate that gives no finite bound")

        monkeypatch.setattr(cli, "run_chain", fail)
        monkeypatch.setattr(cli, "empirical_tails", fail)
        code = main(["sample", "--model", "equicorrelated_binary", "--d", "3",
                     "--epsilon", "1e-9", "--out-dir", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "sample.json").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "got 1.0" in err[0]

    def test_bad_function_exit_2(self, tmp_path):
        code = main(["sample", "--model", "equicorrelated_binary", "--d", "2",
                     "--epsilon", "0.25", "--out-dir", str(tmp_path),
                     "--function", "coord:9", "--n", "1000", "--replicas", "10"])
        assert code == 2

    @pytest.mark.parametrize("function", ["coord:x", "coord"])
    def test_malformed_function_exit_2(self, tmp_path, function):
        code = main(["sample", "--model", "equicorrelated_binary", "--d", "2",
                     "--epsilon", "0.25", "--out-dir", str(tmp_path),
                     "--function", function, "--n", "1000", "--replicas", "10"])
        assert code == 2
        assert not (tmp_path / "sample.json").exists()

    def test_constant_function_exit_2_before_any_kernel(self, tmp_path, monkeypatch, capsys):
        # coordinate 1 takes one value, so coord:1 is identically 1, whatever eps is
        def fail(*args, **kwargs):
            raise AssertionError("built a kernel for a constant function")

        monkeypatch.setattr(operators, "_small_step_kernel", fail)
        path = tmp_path / "target.json"
        path.write_text(json.dumps({"dims": [1, 2], "pmf": [0.5, 0.5]}))
        code = main(["sample", "--target-file", str(path), "--n", "200", "--replicas", "10",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "sample.json").exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: coordinate 1 has one value, so coord:1 is constant"]


class TestReportRows:
    """The bounds and tail rows of a report are the rows the library returns."""

    BOUND_KEYS = {"name", "bound", "exact", "slack", "sharp", "inputs"}
    TAIL_KEYS = {"n", "eps", "frequency", "bound", "std_error", "pass"}

    @staticmethod
    def _target(tmp_path, dims, seed):
        path = tmp_path / "target.json"
        path.write_text(json.dumps({"dims": list(dims),
                                    "pmf": random_target(seed, dims).pmf.tolist()}))
        return str(path), measure.parse_target(path.read_text())

    def test_analyze_bounds_are_verify_bounds_rows(self, tmp_path):
        path, pi = self._target(tmp_path, (2, 3, 2), seed=4)
        scans = ["dsg:3,1,2", "rsg:0.5,0.25,0.25"]
        code = main(["analyze", "--target-file", path, "--scan", scans[0], "--scan", scans[1],
                     "--restarts", "2", "--seed", "3", "--out-dir", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "analyze.json").read_text())["report"]
        sweep, mix = parse_scan(scans[0], 3), parse_scan(scans[1], 3)
        # the random-scan norms from the inclination's forms, the sweep's from Spectra
        incl = geometry.inclination(pi, restarts=2, scans=[RandomScan.uniform(3), mix])
        norms = {**incl.scan_norms, sweep: operators.Spectra(pi).norm(sweep)}
        c, rows = bounds.verify_bounds(norms, [sweep], [mix], incl.lower)
        assert rep["angle_closed_form"] == c
        assert rep["bounds"] == json.loads(json.dumps(rows))  # tuples read back as lists
        assert [r["name"] for r in rows] == [
            "rsg_uniform_sharpness", "rsg_lower_bound_1_over_d", "rsg_norm_bound",
            "dsg_norm_bound", "dsg_norm_bound_via_certified_l", "dsg_norm_bound_via_dual_l"]
        for row in rep["bounds"]:
            assert set(row) == self.BOUND_KEYS
            assert row["slack"] == row["bound"] - row["exact"]
        header = (tmp_path / "bounds.csv").read_text().splitlines()[0]
        assert header == "name,bound,exact,slack,sharp"

    def test_sample_tails_are_empirical_tails_rows(self, tmp_path):
        path, pi = self._target(tmp_path, (3, 2, 3), seed=6)
        scans = ["dsg:2,3,1", "rsg:uniform"]
        code = main(["sample", "--target-file", path, "--scan", scans[0], "--scan", scans[1],
                     "--n", "1000", "--replicas", "200", "--n-grid", "40,90",
                     "--eps-grid", "0.05,0.15", "--seed", "7", "--out-dir", str(tmp_path)])
        assert code == 0
        panels = json.loads((tmp_path / "sample.json").read_text())["report"]["panels"]
        f = (pi.space.all_multi_indices()[:, 0] == 2).astype(float)
        for panel, text in zip(panels, scans, strict=True):
            scan = parse_scan(text, 3)
            op = operators.scan_operator(pi, scan)
            rho = (operators.l2_norm_centered(op) if isinstance(scan, RandomScan)
                   else operators.spectral_radius_centered(op))
            rows = sampler.empirical_tails(op, rho, f, [40, 90], [0.05, 0.15], 200, seed=7)
            assert panel["rho"] == rho
            assert panel["tails"] == rows
            assert all(set(row) == self.TAIL_KEYS for row in panel["tails"])


class TestCounterexampleCommand:
    def test_end_to_end(self, tmp_path):
        code = main(["counterexample", "--q", "0.5", "--N", "5,10,20",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "counterexample.json").read_text())
        rows = doc["report"]["rows"]
        gaps = [r["gap_K"] for r in rows]
        assert gaps == sorted(gaps, reverse=True)
        assert (tmp_path / "counterexample.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["--q", "0.5", "--N", "200,201", "--state-cap", "25000"],  # no dense kernel
        ["--q", "0.1", "--N", "400", "--b", "6,1.5", "--state-cap", "100000"],  # p(N) underflows
        ["--q", "1e-307", "--N", "40"],  # at the normal floor of q
    ], ids=["N200-201", "q0.1-N400", "q1e-307"])
    def test_large_n_and_extreme_q_exit_0(self, tmp_path, argv):
        assert main(["counterexample", *argv, "--out-dir", str(tmp_path)]) == 0

    def test_bad_q_exit_2(self, tmp_path):
        assert main(["counterexample", "--q", "1.5", "--out-dir", str(tmp_path)]) == 2

    def test_bad_b_exit_2(self, tmp_path):
        assert main(["counterexample", "--b", "0.9", "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("b, message", [("1e10", "b = 1e+10 at N = 40 exceeds"),
                                            ("inf", "got inf"), ("nan", "got nan")])
    def test_non_finite_moment_exit_2(self, tmp_path, capsys, b, message):
        # E[b^tau] at b = 1e10, N = 40 is about 4.5e397; it used to be written
        # as the non-JSON token Infinity
        code = main(["counterexample", "--N", "10,40", "--b", "1.5," + b,
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "counterexample.json").exists()
        assert not (tmp_path / "counterexample.csv").exists()
        assert message in capsys.readouterr().err

    def test_moment_past_the_float_range_refused_before_any_gap(self, tmp_path, capsys,
                                                                 monkeypatch):
        def refuse(spec):
            raise AssertionError("solved a gap before every moment was checked")

        monkeypatch.setattr(counterexample, "ladder_reversible_gap", refuse)
        monkeypatch.setattr(counterexample, "ladder_gap", refuse)
        # (b q)^2500 = 1.425^2500 is past the float range; N = 40 and 300 are not
        code = main(["counterexample", "--q", "0.95", "--N", "40,300,2500", "--b", "1.5",
                     "--state-cap", "4000000", "--out-dir", str(tmp_path)])
        assert code == 2
        assert ("E[b^tau] for b = 1.5 at N = 2500 exceeds the float range"
                in capsys.readouterr().err)
        assert not (tmp_path / "counterexample.json").exists()
        assert not (tmp_path / "counterexample.csv").exists()

    def test_repeated_truncations_exit_2(self, tmp_path):
        assert main(["counterexample", "--N", "10,10", "--out-dir", str(tmp_path)]) == 2
        assert not (tmp_path / "counterexample.json").exists()

    def test_state_cap_exit_3_before_any_row(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("built a row with an over-cap truncation requested")

        monkeypatch.setattr(cli, "reversibilization_gap_sweep", fail)
        # N = 5 has 16 states, N = 10 has 56
        code = main(["counterexample", "--N", "5,10", "--state-cap", "50",
                     "--out-dir", str(tmp_path)])
        assert code == 3
        assert not (tmp_path / "counterexample.json").exists()

    def test_state_cap_at_the_limit_runs(self, tmp_path):
        # N = 9 has 1 + 9 * 10 / 2 = 46 states
        code = main(["counterexample", "--N", "9", "--state-cap", "46",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "counterexample.json").exists()


def _tampered(monkeypatch, module, name, tamper):
    """Make module.name return tamper(what the original returns)."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: tamper(original(*a, **kw)))


_SMALL_RUNS = {
    "analyze": ["--model", "equicorrelated_binary", "--d", "2", "--epsilon", "0.25",
                "--restarts", "2"],
    "sweep": ["--d-list", "2,3,4"],
    "sample": ["--model", "equicorrelated_binary", "--d", "2", "--epsilon", "0.25",
               "--n", "2000", "--replicas", "50", "--n-grid", "100"],
    "counterexample": ["--N", "3,5", "--b", "1.5,2"],
}


class TestReportContract:
    """Every command writes its report, then exits 1 on a failed claim, else 0."""

    @pytest.mark.parametrize("command, module, name, tamper", [
        ("analyze", geometry, "check_sandwich", lambda s: {**s, "left_pass": False}),
        ("analyze", bounds, "verify_bounds", lambda r: (
            r[0], [{**row, "exact": row["bound"] + 1.0, "slack": -1.0} for row in r[1]])),
        ("sweep", bounds, "rapid_mixing_transfer", lambda floor: 1.0),
        ("sample", cli, "clt_variance_bound", lambda bound: -1.0),
        ("counterexample", cli, "reversibilization_gap_sweep",
         lambda rows: [{**r, "cheeger_upper_ok": False} for r in rows]),
    ])
    def test_failed_claim_exit_1_after_the_report(self, tmp_path, monkeypatch, capsys,
                                                 command, module, name, tamper):
        _tampered(monkeypatch, module, name, tamper)
        code = main([command, *_SMALL_RUNS[command], "--out-dir", str(tmp_path)])
        assert (tmp_path / (command + ".json")).exists()
        err = capsys.readouterr().err.splitlines()
        assert len([line for line in err if line.startswith("assertion failure:")]) == 1
        assert code == 1

    @pytest.mark.parametrize("command", list(_SMALL_RUNS))
    def test_negative_seed_exit_2_without_report(self, tmp_path, capsys, command):
        code = main([command, *_SMALL_RUNS[command], "--seed", "-1", "--out-dir", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / (command + ".json")).exists()
        assert capsys.readouterr().err.splitlines() == ["error: --seed must be >= 0, got -1"]

    @pytest.mark.parametrize("command", list(_SMALL_RUNS))
    def test_no_reversibility_probe(self, tmp_path, monkeypatch, command):
        # a random scan is self-adjoint by its type; no command tests a kernel for it
        counts = _count_calls(monkeypatch, ("is_reversible",))
        main([command, *_SMALL_RUNS[command], "--out-dir", str(tmp_path)])
        assert (tmp_path / (command + ".json")).exists()
        assert counts["is_reversible"] == 0

    @pytest.mark.parametrize("command", list(_SMALL_RUNS))
    @pytest.mark.parametrize("under_a_file", [False, True], ids=["a_file", "under_a_file"])
    def test_unusable_out_dir_exit_2_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                     request, command, under_a_file):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out_dir = blocker / "out" if under_a_file else blocker

        def refuse(args):
            raise AssertionError("a command ran with an unusable --out-dir")

        for name in ("cmd_analyze", "cmd_sweep", "cmd_sample", "cmd_counterexample"):
            monkeypatch.setattr(cli, name, refuse)
        # the cached parser holds the commands it was built with
        cli._parser.cache_clear()
        request.addfinalizer(cli._parser.cache_clear)
        code = main([command, *_SMALL_RUNS[command], "--out-dir", str(out_dir)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: cannot create --out-dir: ")

    def test_csv_headers(self, tmp_path):
        for command in ("analyze", "sweep", "counterexample"):
            assert main([command, *_SMALL_RUNS[command], "--out-dir", str(tmp_path)]) == 0
        headers = {name: (tmp_path / name).read_text().splitlines()[0]
                   for name in ("bounds.csv", "sweep.csv", "counterexample.csv")}
        assert headers == {
            "bounds.csv": "name,bound,exact,slack,sharp",
            "sweep.csv": "d,gap_rsg,gap_dsg_worst,gap_dsg_best,permutations_checked,"
                         "floor,floor_ok",
            "counterexample.csv": "N,n_states,gap_K,gap_P,gap_P_star,root_residual,"
                                  "kappa_upper,cheeger_upper_ok,moment_b1.5,"
                                  "moment_b1.5_analytic_finite,moment_b2,"
                                  "moment_b2_analytic_finite",
        }


_RUN_AND_LIST_SCIPY = """
import json, sys
from gibbsgap.cli import main

out, runs = sys.argv[1], json.loads(sys.argv[2])
seen = []
for argv in runs:
    code = main(argv + ["--out-dir", out])
    seen.append((code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
print(json.dumps(seen))
"""


class TestEntryPoint:
    def test_console_script_version(self):
        out = subprocess.run([sys.executable, "-m", "gibbsgap.cli", "--version"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert out.stdout.strip()

    def test_no_command_loads_scipy(self, tmp_path, target_suite):
        """A fresh process runs the four commands, an open-bracket analyze with
        restarts among them, without loading any scipy module."""
        open_target = target_suite[8]
        spec = tmp_path / "open.json"
        spec.write_text(json.dumps({"dims": list(open_target.space.dims),
                                    "pmf": open_target.pmf.tolist()}))
        runs = [["counterexample", *_SMALL_RUNS["counterexample"]],
                ["sample", *_SMALL_RUNS["sample"]],
                ["sweep", *_SMALL_RUNS["sweep"]],
                ["analyze", *_SMALL_RUNS["analyze"]],
                ["analyze", "--target-file", str(spec), "--restarts", "2"]]
        out = subprocess.run([sys.executable, "-c", _RUN_AND_LIST_SCIPY, str(tmp_path),
                              json.dumps(runs)], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        seen = json.loads(out.stdout.splitlines()[-1])
        assert seen == [[0, []]] * 5
        rep = json.loads((tmp_path / "analyze.json").read_text())["report"]
        assert not rep["inclination_certified"]
        assert rep["inclination_restarts"] > 0


class TestReporting:
    def test_json_sorted_and_newline_terminated(self, tmp_path):
        path = tmp_path / "x.json"
        write_json({"b": 1, "a": [1.5, 2]}, str(path))
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_json_refuses_non_finite_floats(self, tmp_path, value):
        path = tmp_path / "x.json"
        with pytest.raises(ValueError):
            write_json({"a": [1.5, value]}, str(path))
        assert not path.exists()

    def test_csv_repr_floats(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv([{"v": 0.1, "w": None, "n": 3}], str(path), columns=["v", "w", "n"])
        lines = path.read_text().splitlines()
        assert lines[0] == "v,w,n"
        assert lines[1] == "0.1,,3"

    def test_json_numpy_values_write_as_python_values(self, tmp_path):
        numpy_doc = {"f": np.float64(0.1), "i": np.int64(3), "b": np.bool_(True),
                     "a": np.array([[0.5, 1e-300], [2.0 / 3.0, 1e16]]),
                     "t": (1, (np.float64(2.5), "x")), "m": {"k": np.float64(1e-05)}}
        plain_doc = {"f": 0.1, "i": 3, "b": True, "a": [[0.5, 1e-300], [2.0 / 3.0, 1e16]],
                     "t": [1, [2.5, "x"]], "m": {"k": 1e-05}}
        write_json(numpy_doc, str(tmp_path / "numpy.json"))
        write_json(plain_doc, str(tmp_path / "plain.json"))
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    @pytest.mark.parametrize("value", [object(), {1.5}, b"bytes"])
    def test_json_refuses_unencodable_values(self, tmp_path, value):
        path = tmp_path / "x.json"
        with pytest.raises(TypeError):
            write_json({"a": [1, value]}, str(path))
        assert not path.exists()

    def test_csv_numpy_cells_equal_python_cells(self, tmp_path):
        columns = ["f", "small", "large", "none", "flag"]
        numpy_row = {"f": np.float64(0.1), "small": np.float64(1e-05),
                     "large": np.float64(1e16), "none": None, "flag": np.True_}
        plain_row = {"f": 0.1, "small": 1e-05, "large": 1e16, "none": None, "flag": True}
        write_csv([numpy_row, plain_row], str(tmp_path / "x.csv"), columns=columns)
        lines = (tmp_path / "x.csv").read_text().splitlines()
        assert lines[1:] == ["0.1,1e-05,1e+16,,True"] * 2

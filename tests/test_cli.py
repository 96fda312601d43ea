import dataclasses
import functools
import importlib
import json
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from gibbsgap import bounds, cli, geometry, measure, operators, sampler
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
        for text in ("mh:1,2", "dsg:a,b", "rsg:x"):
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
        counts = _count_calls(monkeypatch, ("dsg", "rsg", "symmetrized_sweep",
                                            "l2_norm_centered", "spectral_radius_centered"))
        code = main(["analyze", "--model", "equicorrelated_binary", "--d", "3",
                     "--epsilon", "0.25", "--out-dir", str(tmp_path)])
        assert code == 0
        # 3! sweep orders, whose squared norms are the SYM panel; uniform plus 8 sampled
        # random scans; only the sweep's radius needs an eigen-solve, a random scan's
        # radius is its norm
        assert counts == Counter({"dsg": 6, "rsg": 9, "symmetrized_sweep": 0,
                                  "l2_norm_centered": 15, "spectral_radius_centered": 1})

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
        assert len(stepped) > 3 and all(pi is built[0] for pi in stepped)
        code = main(["sweep", "--d-list", "2,3,4", "--out-dir", str(tmp_path)])
        assert code == 0
        assert [pi.space.d for pi in built[1:]] == [2, 3, 4]

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

    @pytest.mark.parametrize("scan, solver", [("dsg:2,3,1", "spectral_radius_centered"),
                                              ("rsg:uniform", "l2_norm_centered")])
    def test_rho_solved_once_per_scan(self, tmp_path, monkeypatch, target_3x3x3, scan, solver):
        counts = _count_calls(monkeypatch, ("spectral_radius_centered", "l2_norm_centered"))
        assert self._sample(tmp_path, target_3x3x3, scan) == 0
        # sample asks for the radius once; for the reversible random scan that is one norm
        assert counts == {"spectral_radius_centered": 1, solver: 1}

    def test_state_cap_refused_before_any_step(self, tmp_path, monkeypatch):
        def fail(*args):
            raise AssertionError("simulated an over-cap target")

        monkeypatch.setattr(sampler, "_walk", fail)
        monkeypatch.setattr(sampler, "_guide_table", fail)
        monkeypatch.setattr(sampler, "_step_many", fail)
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
        ("analyze", bounds, "verify_bounds", lambda r: dataclasses.replace(
            r, entries=tuple(dataclasses.replace(e, exact=e.bound + 1.0) for e in r.entries))),
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

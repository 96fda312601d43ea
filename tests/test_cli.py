import importlib
import json
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from gibbsgap import cli, geometry, measure, operators, sampler
from gibbsgap.cli import main, parse_scan
from gibbsgap.errors import ValidationError
from gibbsgap.measure import random_target
from gibbsgap.operators import DeterministicScan, RandomScan
from gibbsgap.reporting import write_csv, write_json


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
        # 3! sweep orders and 3! palindromes; uniform plus 8 sampled random scans
        assert counts == {"dsg": 6, "rsg": 9, "symmetrized_sweep": 6,
                          "l2_norm_centered": 21, "spectral_radius_centered": 2}


def _model_builder_fails(monkeypatch):
    def fail(d, epsilon):
        raise AssertionError("built the pmf of an over-cap model")

    monkeypatch.setitem(measure._MODEL_BUILDERS, "equicorrelated_binary", fail)


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

    def test_unknown_model_exit_2(self, tmp_path):
        code = main(["sweep", "--model", "nonsense", "--d-list", "2,3,4",
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
                                           ["--eps-grid", "0.2,0"]])
    def test_empty_horizon_or_bad_eps_exit_2(self, tmp_path, grid_args):
        code = main(["sample", "--model", "equicorrelated_binary", "--d", "2",
                     "--epsilon", "0.25", "--out-dir", str(tmp_path),
                     "--n", "1000", "--replicas", "10"] + grid_args)
        assert code == 2
        assert not (tmp_path / "sample.json").exists()

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
        caps = []
        original = operators.scan_operator

        def recorded(pi, spec, **kwargs):
            caps.append(kwargs.get("state_cap", operators.DEFAULT_STATE_CAP))
            return original(pi, spec, **kwargs)

        _patch_everywhere(monkeypatch, original, recorded)
        assert self._sample(tmp_path, target_3x3x3, scan, "--state-cap", "25000") == 0
        assert caps == [25000]

    @pytest.mark.parametrize("scan, solver", [("dsg:2,3,1", "spectral_radius_centered"),
                                              ("rsg:uniform", "l2_norm_centered")])
    def test_rho_solved_once_per_scan(self, tmp_path, monkeypatch, target_3x3x3, scan, solver):
        counts = _count_calls(monkeypatch, ("spectral_radius_centered", "l2_norm_centered"))
        assert self._sample(tmp_path, target_3x3x3, scan) == 0
        assert counts == {solver: 1}

    def test_state_cap_refused_before_any_step(self, tmp_path, monkeypatch):
        def fail(*args):
            raise AssertionError("simulated an over-cap target")

        monkeypatch.setattr(sampler, "_walk", fail)
        monkeypatch.setattr(sampler, "_step_many", fail)
        code = main(["sample", "--model", "equicorrelated_binary", "--d", "2",
                     "--epsilon", "0.25", "--out-dir", str(tmp_path),
                     "--n", "1000", "--replicas", "10", "--state-cap", "3"])
        assert code == 3
        assert not (tmp_path / "sample.json").exists()

    def test_bad_function_exit_2(self, tmp_path):
        code = main(["sample", "--model", "equicorrelated_binary", "--d", "2",
                     "--epsilon", "0.25", "--out-dir", str(tmp_path),
                     "--function", "coord:9", "--n", "1000", "--replicas", "10"])
        assert code == 2


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


class TestEntryPoint:
    def test_console_script_version(self):
        out = subprocess.run([sys.executable, "-m", "gibbsgap.cli", "--version"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert out.stdout.strip()


class TestReporting:
    def test_json_sorted_and_newline_terminated(self, tmp_path):
        path = tmp_path / "x.json"
        write_json({"b": 1, "a": [1.5, 2]}, str(path))
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_csv_repr_floats(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv([{"v": 0.1, "w": None, "n": 3}], str(path), columns=["v", "w", "n"])
        lines = path.read_text().splitlines()
        assert lines[0] == "v,w,n"
        assert lines[1] == "0.1,,3"

"""The benchmark tracer (perfbench/tracing.py) still finds every function and
hook parameter it wraps: one traced run of three commands reaches each layer."""
import importlib.util
from pathlib import Path

import pytest

from gibbsgap.cli import main

# the tracer imports scipy.optimize to wrap it, though no command loads scipy
pytest.importorskip("scipy.optimize")

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_commands_reach_every_layer(tmp_path):
    tracer = _load_tracing().Tracer()
    model = ["--model", "equicorrelated_binary", "--d", "2", "--epsilon", "0.25"]
    out = ["--out-dir", str(tmp_path)]
    tracer.install()
    try:
        assert main(["analyze", *model, "--restarts", "1", *out]) == 0
        assert main(["sample", *model, "--n", "2000", "--replicas", "100", *out]) == 0
        assert main(["counterexample", "--N", "5", *out]) == 0
    finally:
        tracer.remove()
    metrics = tracer.layer_metrics()
    for name in ("sampler.run_chain.calls", "operators.kernel_builds",
                 "geometry.inclination.calls",
                 "counterexample.reversibilization_gap_sweep.calls"):
        assert metrics[name] > 0, name

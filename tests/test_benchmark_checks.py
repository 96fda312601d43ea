"""The benchmark's own output checks (perfbench/workloads.py) hold on the
reports of the commands it runs, so a slip in a report's schema or values
fails here, not only as a benchmark verdict."""
from pathlib import Path

import pytest

from gibbsgap.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["AnalyzeSuite", "LadderTrunc", "SamplePanels"])
def test_every_op_ok(tmp_path, monkeypatch, workload, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    suite = getattr(workloads, workload)(seed, str(tmp_path))
    for command in suite.commands:
        rc = main(command.argv)
        ops = suite.check(command, suite.load(command), rc)
        assert ops and all(op.ok for op in ops), [op for op in ops if not op.ok]

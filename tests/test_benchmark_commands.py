"""The benchmark's workloads run, and pass their own output checks.

perfbench/workloads.py builds the cli_fixture commands itself; a command
that the CLI turned into a usage error would fail every op of that
workload without failing any other test. The library workloads check
their weights and standard errors against perfbench/oracle.py at the
tolerances the benchmark judges them by, so a change that moves those
outputs fails here first.
"""

import contextlib
import importlib
import io
import pathlib

import pytest

import portinf

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("seed", [1, 2])
def test_every_cli_fixture_command_exits_zero(workloads, tmp_path, seed):
    fixture = workloads.CliFixture(portinf, seed, str(ROOT), str(tmp_path))
    fixture.setup()
    assert len(fixture.commands) == 6
    for argv in fixture.commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = portinf.cli.main(argv)
        assert code == 0, (argv, err.getvalue())
        assert out.getvalue()


@pytest.mark.parametrize("name, ops", [("WideHac", 4), ("RollingSmall", 16), ("MonteCarlo", 1)])
def test_library_workloads_pass_their_output_checks(workloads, name, ops):
    workload = getattr(workloads, name)(portinf, 3, tiny=True)
    workload.setup()
    workload.warm_up()
    outputs = [workload.op(i) for i in range(ops)]
    assert workload.check(outputs) == [True] * ops

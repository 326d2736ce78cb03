"""One pass of every benchmark workload, as the benchmark runs it.

Each workload of perfbench/run.py runs once (seed 1) through
perfbench/worker.py in a fresh process, the way the benchmark spawns its
passes.  A worker that dies or never prints "ready" (an import- or
registration-time error, say), an operation that raises, or an output
that the benchmark's own check fails shows up here instead of as a failed
benchmark run.
"""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

_spec = importlib.util.spec_from_file_location("perfbench_run",
                                               PERFBENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_pass_runs_clean(name):
    wl = run.Workload(name, 1)
    if wl.spec["kind"] == "compute":
        assert wl.cfg["requests"] == run.mix_requests(1)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"),
         json.dumps(dict(wl.cfg, root=run.ROOT))],
        cwd=run.ROOT, stdin=subprocess.DEVNULL, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    ready, line = proc.stdout.splitlines()
    assert ready == "ready"
    result = json.loads(line)
    assert [op["error"] for op in result["ops"]
            if op.get("error")] == []
    # run.py's check: a failed row lowers ok_frac, a wrong one
    # trusted_frac; on the catalog workloads a failed row is an entry
    # that did not pass
    rows = wl.judge(result)
    assert rows and [r for r in rows if r[1] or r[2]] == []

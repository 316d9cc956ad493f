"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: counts (not times) that must repeat exactly from run to run
EXACT_PREFIXES = ("ledger.", "cache.", "krylov.iterations")

for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)


def _bench(workload: str, trace: int, *, cwd: Path = ROOT, seed: int = 3
           ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs() -> dict:
    """Per workload: one untraced run and two traced runs."""
    return {w: {"e2e": _result(_bench(w, 0)),
                "traced": [_result(_bench(w, 1)) for _ in range(2)]}
            for w in WORKLOADS}


def _assert_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_with_its_unit(runs, workload):
    _assert_metrics(runs[workload]["e2e"], SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert runs[workload]["e2e"]["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_with_its_unit(runs, workload):
    for result in runs[workload]["traced"]:
        _assert_metrics(result, SPEC["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(runs, workload):
    first, second = (r["metrics"] for r in runs[workload]["traced"])
    exact = [k for k in first
             if k.startswith(EXACT_PREFIXES) and first[k]["unit"] != "s"]
    assert len(exact) >= 10
    for key in exact:
        assert first[key]["value"] == second[key]["value"], key


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_traced_solve(runs, workload):
    import layers

    for result in runs[workload]["traced"]:
        m = result["metrics"]
        total = sum(m[name]["value"]
                    for name in layers.SELF_TIME_METRICS.values())
        assert total == pytest.approx(m["trace.solve_s"]["value"],
                                      rel=1e-9, abs=1e-12)


def test_layers_each_workload_exercises_or_bypasses(runs):
    def metric(workload: str, name: str) -> float:
        return runs[workload]["traced"][0]["metrics"][name]["value"]

    def share(workload: str, names: list[str]) -> float:
        return (sum(metric(workload, n) for n in names)
                / metric(workload, "trace.solve_s"))

    direct = ["precond.apply_self_s", "direct.factor_s", "direct.trisolve_s"]
    assert share("heat_ensemble", direct) == 0.0
    assert share("maxwell_oras", direct) > 0.5
    assert share("maxwell_oras", ["service.self_s", "perfmodel.self_s"]) \
        == 0.0
    assert metric("heat_ensemble", "cache.adoptions") > 0
    assert metric("service_traffic", "direct.factors") > 0
    assert metric("service_traffic", "cache.evictions") > 0
    assert metric("service_traffic", "perfmodel.calls") > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_refuses_numpy_imported_under_other_threads():
    code = ("import os; os.environ['OPENBLAS_NUM_THREADS'] = '4'; "
            "import numpy, run; run.pin_environment()")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "thread pin" in proc.stderr


def test_patches_are_restored():
    import importlib

    import layers
    from tracing import SpanRecorder, install

    api = importlib.import_module("repro.api")
    gcrodr = importlib.import_module("repro.krylov.gcrodr")
    tri = importlib.import_module("repro.direct.triangular")

    def bound():
        return (api.solve, api.gcrodr, vars(tri.TriangularFactor)["solve"],
                gcrodr.block_arnoldi_cycle)

    before = bound()
    patches = install(SpanRecorder(), *layers.targets())
    assert len(patches) > 40
    assert all(a is not b for a, b in zip(before, bound()))
    patches.restore()
    assert all(a is b for a, b in zip(before, bound()))


class _Hangs:
    """A workload whose pass never returns, like a solve that spins."""

    name = "hangs"

    def setup(self):
        return {}

    def new_outcome(self, state):
        from workloads import PassOutcome
        return PassOutcome(planned_cols=7)

    def run(self, state, out):
        while True:
            pass

    def evaluate(self, state, out):
        from workloads import PassReport
        return PassReport(attempted=out.planned_cols,
                          failed=out.planned_cols, worst_residual=0.0,
                          modeled_s=0.0, latencies_s=[], ledger=None)


def test_a_hung_pass_is_cut_and_counted_failed():
    import time

    import run

    runner = run.Runner(_Hangs(), deadline=time.perf_counter() + 1.0)
    times = runner.passes(1.0, setups_before=1)
    assert runner.timed_out and len(times) == 1 and times[0] < 5.0
    assert runner.attempted == 7 and runner.failed == 7

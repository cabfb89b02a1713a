"""Smoke test of the benchmark itself at tiny sizes: every workload runs traced
and untraced, every metric BENCHMARK.json names is measured, and every check
passes. It asserts no timing bound.

    python3 -m pytest -q perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fallcascade import cascade, perfmodel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_workload_measures_every_metric(workload, trace, tmp_path):
    result = measure.run(workload, 0, 0, trace, ROOT, tmp_path, {},
                         sizes=workloads.TINY)
    assert result["failures"] == []
    assert result["failed"] == 0 and result["attempted"] >= 2
    wanted = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert wanted <= set(result["metrics"])


def test_changed_outcome_fails_the_pass(tmp_path):
    pins = {"route": {"0": {"total": -1}}}
    result = measure.run("route", 0, 0, 0, ROOT, tmp_path, pins,
                         sizes=workloads.TINY)
    assert result["failed"] == result["attempted"]
    assert any("pinned" in f for f in result["failures"])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_program_that_raises_ends_the_run(workload, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("routing broke")
    monkeypatch.setattr(cascade, "run_sample", broken)
    with pytest.raises(RuntimeError, match="every timed pass raised"):
        measure.run(workload, 0, 0.2, 0, ROOT, tmp_path, {},
                    sizes=workloads.TINY)


@pytest.mark.parametrize("workload", ("escalate", "default"))
def test_pipeline_pass_times_every_routed_window_itself(workload, tmp_path):
    w = workloads.make(workload, workloads.TINY)
    state = w.setup(0, str(tmp_path / "setup"))
    p = measure.checked_pass(w, state, str(tmp_path / "out"), None, None)
    assert p.failures == []
    assert p.routed > 0 and len(p.decide_s) == p.routed


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "route", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""


def test_boundary_that_never_fires_fails_the_traced_run(tmp_path, monkeypatch):
    monkeypatch.setitem(tracing.BOUNDARIES, "perfmodel.flops_conv",
                        ([(perfmodel, "flops_conv")], None, None))
    result = measure.run("route", 0, 0, 1, ROOT, tmp_path, {},
                         sizes=workloads.TINY)
    assert result["failed"] == result["attempted"]
    assert "traced boundary perfmodel.flops_conv recorded no call" in result["failures"]

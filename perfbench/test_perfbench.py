"""The benchmark's own test: tiny inputs, every metric present, exact counts.

    python3 -m pytest perfbench/test_perfbench.py

Runs perfbench/run.py at --size tiny for each workload, traced and
untraced, and checks the output contract against BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# unbounded end-to-end figures each workload prints besides the bounded set;
# ml-sweep runs by hand but is not in BENCHMARK.json (see README.md)
FIGURES = {
    "ml-sweep": {"failed_frac", "ml_err_ppm_median", "li_err_ppm_median"},
    "plausible-region": {"failed_frac", "ml_err_ppm_median",
                         "lr_evals_per_s", "scaling_eff_untraced"},
    "li-requests": {"failed_frac", "requests_per_s", "li_err_ppm_median",
                    "latency_p99_ms", "documented_error_frac"},
}

WORKLOADS = sorted(FIGURES)

EXACT_COUNTS = ("estimate.ml.evaluations", "plausible.lr_evals",
                "qstate.moment_features.rows")


def bench(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result(workload, trace, seed=3):
    proc = bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0, proc.stdout
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    return res


def test_declared_workloads_are_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def check_metrics(res, spec):
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = res["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    res = result(workload, 0)
    check_metrics(res, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in res["metrics"].values())
    report = json.loads((ROOT / ".perfbench_out" /
                         f"report-{workload}-seed3-trace0.json").read_text())
    assert FIGURES[workload] <= set(report["figures"])
    assert report["environment"]["nproc"] >= 1
    assert report["metrics"]["latency_p50_ms"]["samples"] >= 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_exact_counts(workload):
    first = result(workload, 1)
    check_metrics(first, SPEC["per_layer"])
    second = result(workload, 1)
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["trace.coverage"]["value"] >= 0.9
    if workload != "li-requests":
        assert first["metrics"]["estimate.ml.evaluations"]["value"] > 0
        assert first["metrics"]["qstate.moment_features.rows"]["value"] > 0
    if workload == "plausible-region":
        assert first["metrics"]["plausible.lr_evals"]["value"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

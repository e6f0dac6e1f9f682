"""Smoke test of the benchmark itself, at a tiny size (one case per workload).

    python3 -m pytest bench/test_bench.py -q

Checks that every metric BENCHMARK.json names is emitted in both modes, that
the output checks run and catch a wrong answer, and that the benchmark
refuses to run without the library source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", "--smoke", "--seconds", "0.2", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(next(ln for ln in lines if ln.startswith("REPORT "))[len("REPORT "):])
    return result, report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "7", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result, report = parse(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    checks = report["workloads"][workload]["checks"]
    assert checks["run"] >= result["attempted"] and checks["wrong"] == 0
    machine = report["machine"]
    assert machine["seed"] == 7 and set(machine["blas_thread_caps"].values()) == {"1"}


def test_traced_run_emits_every_per_layer_metric():
    proc = run_bench("--workload", "all", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result, report = parse(proc)
    for workload in WORKLOADS:
        for m in SPEC["per_layer"]:
            got = result["metrics"][f"{workload}.{m['name']}"]
            assert got["unit"] == m["unit"]
        assert result["metrics"][f"{workload}.legendre.calls"]["value"] > 0
        # each workload ran in a process of its own
        child = report["processes"][workload]
        assert list(child["workloads"]) == [workload]
        assert child["workloads"][workload]["trace"]["passes"] >= 1


def test_output_checks_catch_a_wrong_answer(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    seg = workloads.build_segment_family(3, smoke=True)
    cert = seg.ops[0].run()
    assert seg.ops[0].check(cert).status == "ok"
    cert.center = cert.center + 1e-3
    assert seg.ops[0].check(cert).status == "wrong"

    rnd = workloads.build_random_sets(3, smoke=True)
    cert = rnd.ops[0].run()
    assert rnd.ops[0].check(cert).status == "ok"
    cert.weights = np.eye(len(cert.weights))[0]
    assert rnd.ops[0].check(cert).status == "wrong"

    proj_op = next(op for op in rnd.ops if op.cls == "aux")
    proj = proj_op.run()
    assert proj_op.check(proj).status == "ok"
    proj.point = proj.point + 0.3
    assert proj_op.check(proj).status == "wrong"


def test_solver_settings_match_repro(monkeypatch):
    """segment_family times the solvers with the settings repro passes them;
    a change to repro's settings must fail here, not drift silently."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    from bregcheb import repro

    seen = {}

    def fake_fixed_point(F, C, **kwargs):
        seen["fixed_point"] = kwargs

    def fake_subgradient(F, C, **kwargs):
        seen["subgradient"] = kwargs

    monkeypatch.setattr(repro, "solve_fixed_point", fake_fixed_point)
    monkeypatch.setattr(repro, "solve_subgradient", fake_subgradient)
    for gen in ("euclidean", "kl", "itakura_saito"):
        F, C, _ = repro.solved_centers(gen, 8.0)
        assert seen["fixed_point"] == {"tol": workloads.fixed_point_tol(F, C),
                                       "max_iter": workloads.FIXED_POINT_MAX_ITER}
        assert seen["subgradient"] == {"max_iter": workloads.SUBGRADIENT_MAX_ITER}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "BENCH_*.json"))
    proc = run_bench("--workload", "segment_family", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""Tests of the benchmark itself, at tiny scale.

Run from the repository root::

    python -m pytest perfbench/tests -q

They are not part of the program's own suite (``tests/``): each builds
real fixtures and spawns real request processes, about two minutes in
all.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from traced import Tracer  # noqa: E402

WORKLOADS = ["splice-solve", "install-http", "install-shared-store"]
TINY = ["--seconds", "1", "--public-specs", "10"]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_units(key):
    """The metrics BENCHMARK.json declares under ``key``, name -> unit."""
    return {m["name"]: m["unit"] for m in DECLARED[key]}


def bench(out, workload, trace, seed=1, root=ROOT):
    """Run the benchmark command; returns (process, result or None)."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--out", str(out), *TINY],
        capture_output=True, text=True, timeout=600, cwd=root,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def last_run(out):
    return json.loads((out / "runs.jsonl").read_text().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One tiny traced run per workload, shared by the tests below."""
    runs = {}
    for workload in WORKLOADS:
        out = tmp_path_factory.mktemp("traced")
        proc, result = bench(out, workload, trace=1)
        runs[workload] = (proc, result, out)
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(tmp_path, workload):
    proc, result = bench(tmp_path, workload, trace=0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared_units("end_to_end")
    assert result["metrics"]["success_share"]["value"] == 1.0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    probe = last_run(tmp_path)["host_probe_ms"]
    assert probe["before"] > 0 and probe["after"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_emits_every_layer_metric(traced_runs, workload):
    proc, result, out = traced_runs[workload]
    assert proc.returncode == 0, proc.stdout + proc.stderr
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared_units("per_layer")
    assert result["metrics"]["failure_share"]["value"] == 0
    # the rows file is what `repro obs bench-diff` compares
    rows_path = out / f"perfbench-{workload}.json"
    diff = subprocess.run(
        [sys.executable, "-m", "repro", "obs", "bench-diff",
         str(rows_path), str(rows_path)],
        capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert diff.returncode == 0, diff.stdout + diff.stderr
    assert f"{workload}/asp.ground_s" in diff.stdout


def test_layer_work_lands_on_the_expected_workloads(traced_runs):
    metric = {w: traced_runs[w][1]["metrics"] for w in WORKLOADS}

    def value(workload, name):
        return metric[workload][name]["value"]

    assert value("splice-solve", "asp.ground_s") > 0
    assert value("splice-solve", "buildcache.all_specs_s") > 0
    assert value("install-http", "asp.atoms") == 0
    assert value("install-http", "buildcache.http_requests") > 0
    assert value("install-http", "buildcache.fetches") > 0
    assert value("install-shared-store", "buildcache.fetches") == 0
    assert value("install-shared-store", "buildcache.http_requests") == 0
    for workload in ("install-http", "install-shared-store"):
        assert value(workload, "installer.nodes_built") == 1
        assert value(workload, "installer.nodes_rewired") == 21


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_and_unattributed_add_up_to_wall(traced_runs, workload):
    _proc, _result, out = traced_runs[workload]
    rows = last_run(out)["layer_rows"]
    assert rows
    for row in rows:
        accounted = sum(row[m] for m in layers.SELF_TIME_METRICS)
        assert accounted + row["cli.unattributed_s"] == pytest.approx(
            row["wall_s"], abs=1e-9
        )
        assert 0 < row["cli.unattributed_s"] < row["wall_s"]


@pytest.mark.parametrize("workload", ["splice-solve", "install-http"])
def test_counts_repeat_exactly_across_traced_runs(
    traced_runs, tmp_path_factory, workload
):
    _proc, first, _out = traced_runs[workload]
    proc, second = bench(tmp_path_factory.mktemp("traced"), workload, trace=1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    counts = [
        {n: m["value"] for n, m in result["metrics"].items() if m["unit"] != "s"}
        for result in (first, second)
    ]
    assert counts[0] == counts[1]


def test_a_wrong_expectation_fails_the_run(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    monkeypatch.setitem(
        run.EXPECT, "install-shared-store",
        {"built": 1, "extracted": 0, "rewired": 20},
    )
    monkeypatch.setattr(run, "SETUPS", 1)
    code = run.main(["--workload", "install-shared-store", "--seed", "1",
                     "--out", str(tmp_path), *TINY])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["success_share"]["value"] == 0


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc, result = bench(tmp_path / "out", "install-http", trace=0, root=tmp_path)
    assert proc.returncode != 0
    assert result is None


def test_tracer_subtracts_nested_calls():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_inner = tracer.wrap("inner_s", inner, "inner_calls", None)
    traced_outer = tracer.wrap("outer_s", outer, None, None)
    traced_outer()
    traced_inner()
    assert tracer.counts == {"inner_calls": 2}
    assert tracer.self_s["outer_s"] == pytest.approx(0.01, abs=0.008)
    assert tracer.self_s["inner_s"] == pytest.approx(0.04, abs=0.016)
    assert tracer.top_s == pytest.approx(sum(tracer.self_s.values()), abs=1e-12)

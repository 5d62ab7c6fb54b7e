"""Environment-scale concretization: batch solve and ground cache.

An environment's roots used to be solved one ``spack spec`` at a time;
``Concretizer.solve_all`` puts every root in ONE ASP program, so the
repository encoding, the reuse facts, and every shared ground rule are
paid for once.  This bench measures the two new paths against the
sequential baseline over the full RADIUSS root set:

* **seq**    — one fresh Concretizer per root (the historical cost of
  ``repro env concretize`` as N single-root solves);
* **batch**  — one ``solve_all`` over every root (headline: speedup);
* **warm**   — the identical batch re-solved through an enabled
  ground-program cache (headline: setup_s and ground_s must be 0.0 —
  neither span even opens on the cached path).

Run:   pytest benchmarks/bench_env_solve.py
Scale: REPRO_ENV_SOLVE_ROOTS (default: all 32 RADIUSS roots)
"""

import os
import time

import pytest

from repro.bench import FigureReport, local_cache_specs, write_results
from repro.bench.runner import PHASE_SPANS, ConfigTiming, TimingSample
from repro.bench.scenarios import bench_repo
from repro.concretize import Concretizer, GroundProgramCache
from repro.obs import metrics, trace
from repro.repos.radiuss import RADIUSS_ROOTS

ROOT_COUNT = int(os.environ.get("REPRO_ENV_SOLVE_ROOTS", str(len(RADIUSS_ROOTS))))
ROOTS = list(RADIUSS_ROOTS)[:ROOT_COUNT]

_results = {}
_headlines = {}


def _sample(fn):
    """Run ``fn`` once; return (TimingSample, its return value)."""
    before = trace.phase_times()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    after = trace.phase_times()
    phases = {
        phase: after.get(span, 0.0) - before.get(span, 0.0)
        for phase, span in PHASE_SPANS.items()
    }
    return (
        TimingSample(
            seconds=elapsed,
            built=len(result.built),
            spliced=len(result.spliced),
            reused=len(result.reused),
            phases=phases,
        ),
        result,
    )


def _record(label, sample):
    timing = ConfigTiming(label=label, spec=f"radiuss-{len(ROOTS)}")
    timing.samples.append(sample)
    _results[label] = timing
    return timing


@pytest.fixture(scope="module", autouse=True)
def report_at_end():
    yield
    report = FigureReport(
        "env_solve",
        f"environment-scale concretization over {len(ROOTS)} RADIUSS roots",
    )
    for label in ("seq", "batch", "warm"):
        if label in _results:
            report.add_timing(_results[label])
    for key, value in sorted(_headlines.items()):
        report.headline(key, value)
    write_results(report)


def test_sequential_baseline():
    """N fresh single-root solves: what an env concretize used to cost."""
    repo = bench_repo()
    reusable = local_cache_specs()
    total, phases = 0.0, {p: 0.0 for p in PHASE_SPANS}
    built = spliced = reused = 0
    for root in ROOTS:
        concretizer = Concretizer(repo, reusable_specs=reusable)
        sample, _ = _sample(lambda: concretizer.solve([root]))
        total += sample.seconds
        built += sample.built
        spliced += sample.spliced
        reused += sample.reused
        for p in phases:
            phases[p] += sample.phases[p]
    _record(
        "seq",
        TimingSample(
            seconds=total, built=built, spliced=spliced, reused=reused,
            phases=phases,
        ),
    )


def test_batch_solve():
    """All roots in one ASP program; shared deps unify into one node."""
    repo = bench_repo()
    concretizer = Concretizer(repo, reusable_specs=local_cache_specs())
    sample, result = _sample(lambda: concretizer.solve_all(ROOTS))
    assert len(result.roots) == len(ROOTS)
    _record("batch", sample)
    if "seq" in _results:
        speedup = _results["seq"].mean / sample.seconds
        _headlines["batch_speedup_vs_sequential"] = speedup
        assert sample.seconds < _results["seq"].mean
    # CI budget knob: the env-solve smoke job pins a fixed wall-clock
    # budget for the whole batch at its reduced root count
    budget_ms = os.environ.get("REPRO_ENV_SOLVE_BUDGET_MS")
    if budget_ms is not None:
        assert sample.seconds * 1000 <= float(budget_ms), (
            f"batch solve of {len(ROOTS)} roots took "
            f"{sample.seconds * 1e3:.1f} ms (budget {budget_ms} ms)"
        )


def test_warm_ground_cache():
    """Cached re-solve: neither concretize.setup nor asp.ground opens."""
    repo = bench_repo()
    reusable = local_cache_specs()
    cache = GroundProgramCache()
    Concretizer(
        repo, reusable_specs=reusable, ground_cache=cache
    ).solve_all(ROOTS)  # cold: populates the cache
    hits_before = metrics.snapshot()["counters"].get(
        "concretize.ground_cache_hits", 0
    )
    warm = Concretizer(repo, reusable_specs=reusable, ground_cache=cache)
    sample, result = _sample(lambda: warm.solve_all(ROOTS))
    assert len(result.roots) == len(ROOTS)
    hits = metrics.snapshot()["counters"].get("concretize.ground_cache_hits", 0)
    assert hits >= hits_before + 1
    # the whole point: the cached path provably spends ZERO time in
    # setup and grounding (the spans never open, so the deltas are 0.0)
    assert sample.phases["setup"] == 0.0
    assert sample.phases["ground"] == 0.0
    _record("warm", sample)
    _headlines["warm_setup_s (must be 0)"] = sample.phases["setup"]
    _headlines["warm_ground_s (must be 0)"] = sample.phases["ground"]
    if "batch" in _results:
        _headlines["warm_speedup_vs_batch"] = _results["batch"].mean / sample.seconds


"""Buildcache index operations at public-mirror scale (~20k specs).

Spack's public binary cache indexes tens of thousands of specs; a
monolithic ``index.json`` makes every open parse the world and every
push rewrite it.  This bench fabricates a synthetic index at that
scale and measures the three hot operations:

* **open + single lookup** — v1 parses every spec; v2 reads the
  manifest and exactly one shard;
* **push + save** — the sharded index appends to the journal and
  folds one dirty shard;
* **single-pass relocation** — one combined-alternation scan vs the
  legacy per-prefix loop at a many-dependency prefix map.

Run:   pytest benchmarks/bench_cache_scale.py
       (plain run: the push/save and span-count tests are not
       pytest-benchmark fixtures and would be skipped by
       ``--benchmark-only``)
Scale: REPRO_CACHE_SCALE_SPECS (default 20000; CI smoke uses less)
"""

import hashlib
import json
import os
import shutil
import time

import pytest

import repro.obs as obs
from repro.bench import FigureReport, write_results
from repro.binary.relocate import PrefixRewriter, _replace_prefix
from repro.buildcache import ShardedIndex
from repro.obs import trace

SPEC_COUNT = int(os.environ.get("REPRO_CACHE_SCALE_SPECS", "20000"))

_results = {}


def fake_entry(i: int):
    """A fabricated spec document with a realistically-spread hash."""
    h = hashlib.sha256(f"cache-scale-{i}".encode()).hexdigest()[:32]
    doc = {
        "root": h,
        "nodes": [
            {"name": f"pkg{i}", "version": "1.0.0", "hash": h,
             "prefix": f"/opt/store/pkg{i}-1.0.0-{h[:7]}"},
        ],
    }
    return h, doc


def v1_document(count: int) -> dict:
    specs = dict(fake_entry(i) for i in range(count))
    return {
        "version": 1,
        "specs": specs,
        "build_specs": {},
        "external_prefixes": {},
    }


@pytest.fixture(scope="module")
def layouts(tmp_path_factory):
    """Side-by-side v1 (monolithic) and v2 (sharded) copies of the same
    synthetic ``SPEC_COUNT``-spec index."""
    ws = tmp_path_factory.mktemp("cache-scale")
    doc = v1_document(SPEC_COUNT)
    v1 = ws / "v1"
    v1.mkdir()
    (v1 / "index.json").write_text(json.dumps(doc))
    v2 = ws / "v2"
    v2.mkdir()
    (v2 / "index.json").write_text(json.dumps(doc))
    migrate_start = time.perf_counter()
    ShardedIndex(v2).save()  # transparent v1 read + sharded write
    _results["migrate_s"] = time.perf_counter() - migrate_start
    some_hash = fake_entry(SPEC_COUNT // 2)[0]
    return ws, v1, v2, some_hash


@pytest.fixture(scope="module", autouse=True)
def report_at_end(layouts):
    yield
    report = FigureReport(
        "cache_scale", f"index operations at {SPEC_COUNT} cached specs"
    )
    for key in ("open_v1_s", "open_v2_s", "push_save_v2_s",
                "relocate_legacy_s", "relocate_single_pass_s"):
        if key in _results:
            report.rows.append({"op": key, "seconds": round(_results[key], 5)})
    report.headline("spec_count", SPEC_COUNT)
    report.headline("migrate_s", round(_results.get("migrate_s", 0.0), 3))
    if "open_v1_s" in _results and "open_v2_s" in _results:
        report.headline(
            "open_speedup", _results["open_v1_s"] / max(_results["open_v2_s"], 1e-9)
        )
    if "relocate_legacy_s" in _results and "relocate_single_pass_s" in _results:
        report.headline(
            "relocate_speedup",
            _results["relocate_legacy_s"]
            / max(_results["relocate_single_pass_s"], 1e-9),
        )
    write_results(report)


class TestOpenAndLookup:
    def test_open_v1_monolithic(self, benchmark, layouts):
        ws, v1, v2, some_hash = layouts
        benchmark.group = "open+lookup"

        def open_and_lookup():
            index = ShardedIndex(v1)
            assert index.get_spec(some_hash) is not None
            return index

        benchmark.pedantic(open_and_lookup, rounds=3, iterations=1)
        _results["open_v1_s"] = benchmark.stats.stats.mean

    def test_open_v2_sharded(self, benchmark, layouts):
        ws, v1, v2, some_hash = layouts
        benchmark.group = "open+lookup"

        def open_and_lookup():
            index = ShardedIndex(v2)
            assert index.get_spec(some_hash) is not None
            return index

        benchmark.pedantic(open_and_lookup, rounds=3, iterations=1)
        _results["open_v2_s"] = benchmark.stats.stats.mean

    def test_lookup_parses_exactly_one_shard(self, layouts):
        """The structural claim behind the speedup, asserted via span
        counts: one lookup at 20k-spec scale loads one shard."""
        ws, v1, v2, some_hash = layouts
        obs.reset()
        index = ShardedIndex(v2)
        assert index.get_spec(some_hash) is not None
        assert trace.phase_stats()["buildcache.shard_load"]["count"] == 1

    def test_count_without_any_shard_parse(self, layouts):
        ws, v1, v2, some_hash = layouts
        obs.reset()
        assert ShardedIndex(v2).spec_count() == SPEC_COUNT
        assert "buildcache.shard_load" not in trace.phase_stats()


class TestPushAndSave:
    def test_push_save_v2_folds_one_shard(self, layouts):
        ws, v1, v2, some_hash = layouts
        root = ws / "push-v2"
        shutil.copytree(v2, root)
        h, doc = fake_entry(SPEC_COUNT + 1)
        index = ShardedIndex(root)
        start = time.perf_counter()
        index.record_push({h: doc}, {}, {})
        index.save()
        _results["push_save_v2_s"] = time.perf_counter() - start
        assert ShardedIndex(root).get_spec(h) == doc


class TestRelocationScaling:
    #: a deep stack's worth of dependency prefixes in one relocation map
    PREFIXES = 64
    STRINGS = 2000

    @pytest.fixture(scope="class")
    def workload(self):
        prefix_map = {
            f"/opt/build/store/dep{i:03d}-{hashlib.sha256(str(i).encode()).hexdigest()[:7]}":
                f"/srv/site/store/dep{i:03d}"
            for i in range(self.PREFIXES)
        }
        olds = list(prefix_map)
        strings = [
            f"{olds[i % len(olds)]}/lib:{olds[(i * 7) % len(olds)]}/lib64:/usr/lib"
            for i in range(self.STRINGS)
        ]
        return prefix_map, strings

    def test_legacy_per_prefix_loop(self, benchmark, workload):
        prefix_map, strings = workload
        benchmark.group = "relocation"
        ordered = sorted(prefix_map, key=lambda o: (-len(o), o))

        def legacy():
            out = []
            for text in strings:
                for old in ordered:
                    text, _ = _replace_prefix(text, old, prefix_map[old])
                out.append(text)
            return out

        benchmark.pedantic(legacy, rounds=3, iterations=1)
        _results["relocate_legacy_s"] = benchmark.stats.stats.mean
        self._expected = legacy()

    def test_single_pass_rewriter(self, benchmark, workload):
        prefix_map, strings = workload
        benchmark.group = "relocation"
        rewriter = PrefixRewriter(prefix_map)

        def single_pass():
            return [rewriter.rewrite(text)[0] for text in strings]

        result = benchmark.pedantic(single_pass, rounds=3, iterations=1)
        _results["relocate_single_pass_s"] = benchmark.stats.stats.mean
        # byte-identical output, not just faster
        ordered = sorted(prefix_map, key=lambda o: (-len(o), o))
        for before, after in zip(strings, result):
            expected = before
            for old in ordered:
                expected, _ = _replace_prefix(expected, old, prefix_map[old])
            assert after == expected

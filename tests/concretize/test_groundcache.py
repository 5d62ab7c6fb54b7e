"""Ground-program cache: keys, hits, disk round-trips, corruption.

The cache's contract is *accelerate, never lie*: an exact key hit must
reproduce the classic solve bit-for-bit while spending zero time in
setup and grounding (neither span even opens), and every invalid disk
state — truncated, stale, foreign, unpicklable — must be ignored,
counted (``concretize.ground_cache_stale``), and fall back to a fresh
ground.  Mirrors the PR-6 summary-sidecar tests one layer down.
"""

import json

import pytest

from repro.concretize import Concretizer, GroundProgramCache
from repro.concretize import groundcache
from repro.obs import metrics, trace
from repro.repos.mock import make_mock_repo
from repro.spec import parse_one


@pytest.fixture()
def repo():
    return make_mock_repo()


@pytest.fixture(autouse=True)
def clean_registries():
    groundcache.reset_ground_caches()
    yield
    groundcache.reset_ground_caches()


def counter(name):
    return metrics.snapshot()["counters"].get(name, 0)


def canon(result):
    return sorted(
        (node.name, node.dag_hash())
        for root in result.roots
        for node in root.traverse()
    )


def solve_phases(concretizer, specs):
    """(result, {span: delta-seconds}) for one solve."""
    before = trace.phase_times()
    result = concretizer.solve(specs)
    after = trace.phase_times()
    deltas = {
        span: after.get(span, 0.0) - before.get(span, 0.0)
        for span in ("concretize.setup", "asp.ground")
    }
    return result, deltas


class TestDigests:
    def test_request_digest_stable(self):
        roots = [parse_one("app ^zlib")]
        a = groundcache.request_digest(roots, [], "centos8", "skylake", "new", False)
        b = groundcache.request_digest(
            [parse_one("app ^zlib")], [], "centos8", "skylake", "new", False
        )
        assert a == b

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"roots": [parse_one("zlib")]},
            {"forbidden": ["mpich"]},
            {"default_os": "ubuntu20"},
            {"default_target": "zen2"},
            {"encoding": "old"},
            {"splicing": True},
        ],
    )
    def test_request_digest_sensitive(self, kwargs):
        base = dict(
            roots=[parse_one("app")], forbidden=[],
            default_os="centos8", default_target="skylake",
            encoding="new", splicing=False,
        )
        a = groundcache.request_digest(**base)
        b = groundcache.request_digest(**{**base, **kwargs})
        assert a != b

    def test_repo_digest_stable_across_instances(self):
        assert groundcache.repo_digest(make_mock_repo()) == groundcache.repo_digest(
            make_mock_repo()
        )

    def test_repo_digest_tracks_mutation(self, repo):
        before = groundcache.repo_digest(repo)
        repo.provider_preferences["mpi"] = ["zmpi"]
        assert groundcache.repo_digest(repo) != before

    def test_reuse_digest_order_independent(self):
        assert groundcache.reuse_digest(["b", "a"]) == groundcache.reuse_digest(
            ["a", "b"]
        )


class TestExactHit:
    def test_warm_solve_skips_setup_and_ground(self, repo):
        cache = GroundProgramCache()
        cold = Concretizer(repo, ground_cache=cache)
        cold_result, _ = solve_phases(cold, ["app"])

        hits_before = counter("concretize.ground_cache_hits")
        warm = Concretizer(repo, ground_cache=cache)
        warm_result, deltas = solve_phases(warm, ["app"])

        assert canon(warm_result) == canon(cold_result)
        assert counter("concretize.ground_cache_hits") == hits_before + 1
        # the spans never open on the cached path
        assert deltas["concretize.setup"] == 0.0
        assert deltas["asp.ground"] == 0.0

    def test_different_request_misses(self, repo):
        cache = GroundProgramCache()
        Concretizer(repo, ground_cache=cache).solve(["app"])
        misses_before = counter("concretize.ground_cache_misses")
        Concretizer(repo, ground_cache=cache).solve(["example"])
        assert counter("concretize.ground_cache_misses") == misses_before + 1

    def test_repo_mutation_invalidates(self, repo):
        cache = GroundProgramCache()
        Concretizer(repo, ground_cache=cache).solve(["zlib"])
        repo.provider_preferences["mpi"] = ["zmpi"]
        misses_before = counter("concretize.ground_cache_misses")
        Concretizer(repo, ground_cache=cache).solve(["zlib"])
        assert counter("concretize.ground_cache_misses") == misses_before + 1

    def test_lru_bound(self, repo):
        cache = GroundProgramCache(max_memory_entries=1)
        Concretizer(repo, ground_cache=cache).solve(["zlib"])
        Concretizer(repo, ground_cache=cache).solve(["example"])
        assert len(cache._mem) == 1


class TestDiskLayer:
    def test_round_trip_via_fresh_instance(self, repo, tmp_path):
        Concretizer(
            repo, ground_cache=GroundProgramCache(tmp_path)
        ).solve(["app"])
        assert list(tmp_path.glob("ground-*.pkl"))
        assert list(tmp_path.glob("ground-*.json"))

        # a different process would build a brand-new cache object
        warm = Concretizer(repo, ground_cache=GroundProgramCache(tmp_path))
        hits_before = counter("concretize.ground_cache_hits")
        result, deltas = solve_phases(warm, ["app"])
        assert counter("concretize.ground_cache_hits") == hits_before + 1
        assert deltas["concretize.setup"] == 0.0
        assert deltas["asp.ground"] == 0.0
        assert result.roots[0].name == "app"

    def _populated(self, repo, tmp_path):
        Concretizer(
            repo, ground_cache=GroundProgramCache(tmp_path)
        ).solve(["app"])
        (payload,) = tmp_path.glob("ground-*.pkl")
        (sidecar,) = tmp_path.glob("ground-*.json")
        return payload, sidecar

    def _resolve_ignoring(self, repo, tmp_path):
        """Fresh-instance solve; returns (stale_delta, hit_delta)."""
        stale_before = counter("concretize.ground_cache_stale")
        hits_before = counter("concretize.ground_cache_hits")
        result = Concretizer(
            repo, ground_cache=GroundProgramCache(tmp_path)
        ).solve(["app"])
        assert result.roots[0].name == "app"  # fell back, still solved
        return (
            counter("concretize.ground_cache_stale") - stale_before,
            counter("concretize.ground_cache_hits") - hits_before,
        )

    def test_truncated_payload_ignored(self, repo, tmp_path):
        payload, _ = self._populated(repo, tmp_path)
        payload.write_bytes(payload.read_bytes()[:16])
        assert self._resolve_ignoring(repo, tmp_path) == (1, 0)

    def test_missing_sidecar_ignored(self, repo, tmp_path):
        _, sidecar = self._populated(repo, tmp_path)
        sidecar.unlink()
        assert self._resolve_ignoring(repo, tmp_path) == (1, 0)

    def test_missing_payload_ignored(self, repo, tmp_path):
        payload, _ = self._populated(repo, tmp_path)
        payload.unlink()
        assert self._resolve_ignoring(repo, tmp_path) == (1, 0)

    def test_foreign_key_sidecar_ignored(self, repo, tmp_path):
        _, sidecar = self._populated(repo, tmp_path)
        doc = json.loads(sidecar.read_text())
        doc["key"] = "f" * 64
        sidecar.write_text(json.dumps(doc))
        assert self._resolve_ignoring(repo, tmp_path) == (1, 0)

    def test_future_format_ignored(self, repo, tmp_path):
        _, sidecar = self._populated(repo, tmp_path)
        doc = json.loads(sidecar.read_text())
        doc["format"] = groundcache.CACHE_FORMAT + 1
        sidecar.write_text(json.dumps(doc))
        assert self._resolve_ignoring(repo, tmp_path) == (1, 0)

    def test_garbage_sidecar_ignored(self, repo, tmp_path):
        _, sidecar = self._populated(repo, tmp_path)
        sidecar.write_text("{not json")
        assert self._resolve_ignoring(repo, tmp_path) == (1, 0)

    def test_absent_pair_is_plain_miss(self, repo, tmp_path):
        payload, sidecar = self._populated(repo, tmp_path)
        payload.unlink()
        sidecar.unlink()
        assert self._resolve_ignoring(repo, tmp_path) == (0, 0)


class TestCrossProcess:
    """The disk cache must be consumable by a *different* process.

    str hashes are salted per process (PYTHONHASHSEED), so a pickled
    atom carrying its producer's memoized hash poisons dict/set lookups
    in the consumer — the historical symptom was a warm ``env
    concretize`` extracting a model with missing attributes.
    """

    def test_pickle_drops_memoized_hashes(self):
        import pickle

        from repro.asp.syntax import Atom, Function

        atom = Atom("attr", (Function("node", ()),))
        hash(atom), hash(atom.args[0])  # memoize both levels
        clone = pickle.loads(pickle.dumps(atom))
        assert clone._hash is None
        assert clone.args[0]._hash is None
        assert clone == atom and hash(clone) == hash(atom)

    def test_warm_hit_under_foreign_hash_seed(self, tmp_path):
        import os
        import subprocess
        import sys

        script = (
            "from pathlib import Path\n"
            "from repro.concretize import Concretizer, GroundProgramCache\n"
            "from repro.repos.mock import make_mock_repo\n"
            "import sys\n"
            "cache = GroundProgramCache(Path(sys.argv[1]))\n"
            "result = Concretizer(make_mock_repo(), ground_cache=cache)"
            ".solve(['app'])\n"
            "assert result.roots[0].name == 'app'\n"
            "from repro.obs import metrics\n"
            "print(metrics.snapshot()['counters']"
            ".get('concretize.ground_cache_hits', 0))\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        outs = []
        for seed in ("0", "1"):
            env["PYTHONHASHSEED"] = seed
            proc = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(int(proc.stdout.strip()))
        assert outs == [0, 1]  # producer missed, foreign-seed consumer hit


class TestDefaults:
    def test_cache_off_by_default(self, repo, monkeypatch):
        monkeypatch.delenv(groundcache.ENV_CACHE_DIR, raising=False)
        concretizer = Concretizer(repo)
        assert concretizer.ground_cache is None

    def test_env_enables_disk_cache(self, repo, monkeypatch, tmp_path):
        monkeypatch.setenv(groundcache.ENV_CACHE_DIR, str(tmp_path))
        a = Concretizer(repo)
        b = Concretizer(repo)
        assert a.ground_cache is b.ground_cache  # shared per directory
        assert a.ground_cache.directory == tmp_path

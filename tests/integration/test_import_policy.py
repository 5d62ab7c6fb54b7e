"""The import policy: a ``python -m repro`` request loads only the code
its verb runs.

Package ``__init__`` modules resolve their re-exports on first access
and each verb imports its subsystems inside its own function (see
DESIGN.md).  Each test runs one verb in a fresh interpreter, lists the
modules it loaded, and rejects any module on that verb's deny-list: a
module-level import that slips back in fails here, not in a benchmark.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.buildcache.cache import BuildCache
from repro.concretize import Concretizer
from repro.environment import Environment
from repro.installer import Installer
from repro.repos.mock import make_mock_repo

SRC = Path(__file__).resolve().parents[2] / "src"
REQUEST = "example@1.1.0 ^mpich@3.4.3"

#: runs ``python -m repro <args>`` in-process, then writes the sorted
#: names of every loaded module to the file named by the first argument
PROBE = """
import json, runpy, sys
out, sys.argv = sys.argv[1], ["repro"] + sys.argv[2:]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as e:
    code = e.code
else:
    code = 0
with open(out, "w") as fh:
    json.dump({"exit": code, "modules": sorted(sys.modules)}, fh)
"""


def loaded_modules(tmp_path, *args):
    """Run one request; returns (exit code, stdout, loaded module names)."""
    out = tmp_path / "modules.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(out), *map(str, args)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.exists(), proc.stderr
    record = json.loads(out.read_text())
    return record["exit"], proc.stdout, record["modules"]


def denied(modules, deny):
    """The loaded modules that are, or live under, a denied name."""
    return sorted(
        m for m in modules
        if any(m == d or m.startswith(d + ".") for d in deny)
    )


@pytest.fixture(scope="module")
def populated(tmp_path_factory):
    """A local buildcache holding one mock DAG, and a locked environment
    over it."""
    root = tmp_path_factory.mktemp("policy")
    repo = make_mock_repo()
    spec = Concretizer(repo).solve([REQUEST]).roots[0]
    installer = Installer(root / "seed", repo)
    installer.install(spec)
    cache = BuildCache(root / "cache")
    for record in installer.database:
        installer.push_to_cache(cache, record.spec)
    cache.save_index()
    env = Environment(root / "env", repo)
    env.add(REQUEST)
    env.concretize(reusable_specs=cache.all_specs())
    env.write()
    return root


class TestImportPolicy:
    def test_spec_loads_no_installer_http_or_telemetry(self, populated, tmp_path):
        code, out, modules = loaded_modules(
            tmp_path, "--repo", "mock", "spec", REQUEST,
            "--mirror", populated / "cache",
        )
        assert code == 0 and "to build: nothing" in out, out
        assert "repro.concretize.concretizer" in modules
        assert denied(modules, [
            "http.client", "http.server", "ssl",
            "repro.installer", "repro.binary", "repro.analysis",
            "repro.obs.session", "repro.obs.regress",
            "repro.buildcache.httpbackend", "repro.buildcache.server",
            "repro.buildcache.generate",
        ]) == []

    def test_env_install_loads_no_solver(self, populated, tmp_path):
        code, out, modules = loaded_modules(
            tmp_path, "--repo", "mock", "env", "install",
            "--env", populated / "env", "--store", tmp_path / "store",
            "--mirror", populated / "cache",
        )
        assert code == 0 and "extracted=4" in out, out
        assert "repro.installer.installer" in modules
        # one install worker runs inline: no pool, no thread machinery
        assert denied(modules, [
            "repro.asp", "repro.concretize", "http.server",
            "repro.installer.parallel", "concurrent.futures",
        ]) == []

    def test_help_loads_no_subsystem(self, tmp_path):
        code, out, modules = loaded_modules(tmp_path, "--help")
        assert code == 0 and "usage: repro" in out, out
        assert denied(modules, [
            "repro.asp", "repro.concretize", "repro.buildcache",
            "repro.installer",
        ]) == []

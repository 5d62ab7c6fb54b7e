"""CLI tests (python -m repro ...)."""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestSpecCommand:
    def test_basic_spec(self, capsys):
        assert main(["--repo", "mock", "spec", "zlib"]) == 0
        out = capsys.readouterr().out
        assert "zlib@1.3" in out
        assert "to build" in out

    def test_dependency_tree_printed(self, capsys):
        main(["--repo", "mock", "spec", "example@1.0.0"])
        out = capsys.readouterr().out
        assert "zlib@1.2.11" in out and "mpich" in out

    def test_unsatisfiable_is_error_exit(self, capsys):
        assert main(["--repo", "mock", "spec", "zlib@=99"]) == 1
        assert "error" in capsys.readouterr().err

    def test_forbid(self, capsys):
        main(["--repo", "mock", "spec", "example", "--forbid", "mpich"])
        out = capsys.readouterr().out
        assert "mpich" not in out.split("to build")[0]

    def test_time_flag(self, capsys):
        main(["--repo", "mock", "spec", "zlib", "--time"])
        assert "concretization time" in capsys.readouterr().out


class TestInstallAndFind:
    def test_install_then_find(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["--repo", "mock", "install", "zlib", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "built=1" in out
        assert main(["find", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "zlib@1.3" in out

    def test_reuse_from_store(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        main(["--repo", "mock", "install", "zlib", "--store", store])
        capsys.readouterr()
        main(["--repo", "mock", "spec", "zlib", "--store", store])
        out = capsys.readouterr().out
        assert "to build: nothing" in out

    def test_find_empty_store(self, capsys, tmp_path):
        assert main(["find", "--store", str(tmp_path)]) == 0
        assert "no installed specs" in capsys.readouterr().out


class TestBuildcacheAndSplice:
    def test_full_splice_workflow(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        cache = str(tmp_path / "cache")
        # build against the splice target and cache it
        main(["--repo", "mock", "install",
              "example@1.1.0 ^mpich@3.4.3", "--store", store])
        main(["--repo", "mock", "buildcache", "create", "example",
              "--cache", cache, "--store", store])
        out = capsys.readouterr().out
        assert "pushed" in out
        main(["--repo", "mock", "buildcache", "list", "--cache", cache])
        assert "example@1.1.0" in capsys.readouterr().out
        # spliced concretization against the cache
        main(["--repo", "mock", "spec", "example@1.1.0 ^mpiabi",
              "--cache", cache, "--splice"])
        out = capsys.readouterr().out
        assert "to splice (relink, no rebuild): ['example']" in out
        assert "to build: ['mpiabi']" in out
        # spliced install: rewires rather than rebuilds
        store2 = str(tmp_path / "store2")
        main(["--repo", "mock", "install", "example@1.1.0 ^mpiabi",
              "--cache", cache, "--splice", "--store", store2])
        out = capsys.readouterr().out
        assert "rewired=1" in out
        main(["find", "--store", store2])
        assert "[spliced]" in capsys.readouterr().out


class TestSuggestSplices:
    def test_report(self, capsys):
        assert main(["suggest-splices", "--virtual", "mpi", "--all"]) == 0
        out = capsys.readouterr().out
        assert 'can_splice("mpich@' in out

    def test_unknown_repo(self):
        with pytest.raises(SystemExit):
            main(["--repo", "bogus", "spec", "zlib"])


class TestDiffCommand:
    def test_diff_versions(self, capsys):
        assert main(["--repo", "mock", "diff", "example@1.0.0", "example@1.1.0"]) == 0
        out = capsys.readouterr().out
        assert "1.0.0 -> 1.1.0" in out
        assert "1.2.11 -> 1.3" in out

    def test_diff_identical(self, capsys):
        main(["--repo", "mock", "diff", "zlib", "zlib"])
        assert "identical" in capsys.readouterr().out

    def test_diff_unsat_errors(self, capsys):
        assert main(["--repo", "mock", "diff", "zlib@=9", "zlib"]) == 1


class TestStoreManagement:
    def test_uninstall_and_gc(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        main(["--repo", "mock", "install",
              "example@1.1.0 ^mpich@3.4.3", "--store", store])
        capsys.readouterr()
        assert main(["--repo", "mock", "uninstall", "example",
                     "--store", store]) == 0
        assert main(["--repo", "mock", "gc", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "removed:" in out
        main(["find", "--store", store])
        assert "no installed specs" in capsys.readouterr().out

    def test_uninstall_dependency_refused(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        main(["--repo", "mock", "install",
              "example@1.1.0 ^mpich@3.4.3", "--store", store])
        capsys.readouterr()
        assert main(["--repo", "mock", "uninstall", "zlib",
                     "--store", store]) == 1
        assert "required by" in capsys.readouterr().err

    def test_verify_healthy_and_broken(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        main(["--repo", "mock", "install", "zlib", "--store", store])
        capsys.readouterr()
        assert main(["--repo", "mock", "verify", "--store", store]) == 0
        assert "healthy" in capsys.readouterr().out
        # break the store behind the database's back
        import shutil
        from repro.installer.database import Database
        from pathlib import Path

        db = Database(Path(store))
        shutil.rmtree(db.query("zlib")[0].prefix)
        assert main(["--repo", "mock", "verify", "--store", store]) == 1


class TestEnvCommand:
    def test_env_lifecycle(self, capsys, tmp_path):
        env_dir = str(tmp_path / "env")
        store = str(tmp_path / "store")
        assert main(["--repo", "mock", "env", "create", "zlib",
                     "--env", env_dir]) == 0
        assert main(["--repo", "mock", "env", "add", "bzip2",
                     "--env", env_dir]) == 0
        assert main(["--repo", "mock", "env", "concretize",
                     "--env", env_dir]) == 0
        out = capsys.readouterr().out
        assert "zlib@1.3" in out and "bzip2@1.0.8" in out
        assert main(["--repo", "mock", "env", "install",
                     "--env", env_dir, "--store", store, "--jobs", "2"]) == 0
        assert "built=2" in capsys.readouterr().out
        assert main(["--repo", "mock", "env", "status", "--env", env_dir]) == 0
        assert "concretized" in capsys.readouterr().out

    def test_env_missing_errors(self, capsys, tmp_path):
        assert main(["--repo", "mock", "env", "status",
                     "--env", str(tmp_path / "ghost")]) == 1


def readme_commands():
    """The ``python -m repro`` command lines of README.md, each cut at
    its first comment, ``;``, pipe or redirection."""
    readme = Path(__file__).resolve().parents[2] / "README.md"
    commands = []
    for line in readme.read_text().splitlines():
        _, found, rest = line.partition("python -m repro")
        if found:
            commands.append(re.split(r"[#;|>]", rest)[0].strip())
    return commands


class TestReadme:
    @pytest.mark.parametrize("command", readme_commands())
    def test_cli_example_parses(self, command):
        build_parser().parse_args(shlex.split(command))

    def test_readme_has_cli_examples(self):
        assert len(readme_commands()) >= 10

"""Environments: named collections of root specs with a lockfile.

The analogue of ``spack.yaml`` + ``spack.lock``: an environment declares
abstract roots and configuration (splicing on/off, forbidden packages);
``concretize()`` resolves all roots *jointly* (one consistent DAG, one
implementation per interface); the result persists as a lockfile so the
exact concrete specs — including splice provenance — can be reinstalled
bit-for-bit later or on another machine.

::

    env = Environment(path, repo)
    env.add("mfem")
    env.add("sundials +mpi")
    env.splicing = True
    env.concretize(reusable_specs=cache.all_specs())
    env.write()                      # manifest + lockfile
    ...
    again = Environment.read(path, repo)
    installer.install_all(again.concrete_roots)
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from .package.repository import Repository
from .spec import Spec, parse_one

__all__ = ["Environment", "EnvironmentError"]

MANIFEST_NAME = "repro.yaml.json"
LOCKFILE_NAME = "repro.lock.json"


class EnvironmentError(RuntimeError):
    """Raised for malformed environment directories or stale lockfiles."""


class Environment:
    """A directory-backed environment (manifest + lockfile)."""

    def __init__(self, path: Path, repo: Repository):
        self.path = Path(path)
        self.repo = repo
        #: abstract root requests, in insertion order
        self.roots: List[str] = []
        self.splicing: bool = False
        self.forbidden: List[str] = []
        self.default_os: str = "centos8"
        self.default_target: str = "skylake"
        #: concrete roots, parallel to ``roots`` after concretize()
        self.concrete_roots: List[Spec] = []

    # ------------------------------------------------------------------
    # manifest editing
    # ------------------------------------------------------------------
    def add(self, spec: str) -> None:
        """Add an abstract root request (idempotent)."""
        parse_one(spec)  # validate eagerly
        if spec not in self.roots:
            self.roots.append(spec)
            self.concrete_roots = []  # invalidate the lock

    def remove(self, spec: str) -> None:
        """Drop a root request (invalidates any lock)."""
        if spec in self.roots:
            self.roots.remove(spec)
            self.concrete_roots = []

    # ------------------------------------------------------------------
    # concretization
    # ------------------------------------------------------------------
    def concretize(
        self, reusable_specs: Sequence[Spec] = (), encoding: str = "new"
    ) -> List[Spec]:
        """Jointly concretize every root; returns the concrete roots."""
        from .concretize import Concretizer

        if not self.roots:
            raise EnvironmentError("environment has no roots to concretize")
        concretizer = Concretizer(
            self.repo,
            reusable_specs=reusable_specs,
            encoding=encoding,
            splicing=self.splicing,
            default_os=self.default_os,
            default_target=self.default_target,
        )
        result = concretizer.solve_all(self.roots, forbidden=self.forbidden)
        self.concrete_roots = result.roots
        return self.concrete_roots

    @property
    def concretized(self) -> bool:
        """True when concrete roots are available (solved or locked)."""
        return bool(self.concrete_roots)

    def all_specs(self) -> List[Spec]:
        """Every distinct node across the environment's DAGs."""
        seen: Dict[str, Spec] = {}
        for root in self.concrete_roots:
            for node in root.traverse():
                seen.setdefault(node.dag_hash(), node)
        return [seen[h] for h in sorted(seen)]

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def write(self) -> None:
        """Write the manifest, and the lockfile when concretized."""
        self.path.mkdir(parents=True, exist_ok=True)
        manifest = {
            "roots": self.roots,
            "splicing": self.splicing,
            "forbidden": self.forbidden,
            "default_os": self.default_os,
            "default_target": self.default_target,
        }
        (self.path / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=1, sort_keys=True)
        )
        if self.concrete_roots:
            build_specs = {}
            for root in self.concrete_roots:
                for node in root.traverse():
                    if node.build_spec is not None:
                        bs = node.build_spec
                        build_specs[bs.dag_hash()] = bs.to_dict()
            lock = {
                "version": 1,
                "roots": [
                    {"request": request, "spec": spec.to_dict()}
                    for request, spec in zip(self.roots, self.concrete_roots)
                ],
                "build_specs": build_specs,
            }
            (self.path / LOCKFILE_NAME).write_text(
                json.dumps(lock, indent=1, sort_keys=True)
            )

    @classmethod
    def read(cls, path: Path, repo: Repository) -> "Environment":
        """Load an environment; restores the lock if still current."""
        path = Path(path)
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.exists():
            raise EnvironmentError(f"no environment at {path}")
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as e:
            raise EnvironmentError(f"corrupt manifest: {e}") from e
        env = cls(path, repo)
        env.roots = list(manifest.get("roots", []))
        env.splicing = manifest.get("splicing", False)
        env.forbidden = list(manifest.get("forbidden", []))
        env.default_os = manifest.get("default_os", "centos8")
        env.default_target = manifest.get("default_target", "skylake")

        lock_path = path / LOCKFILE_NAME
        if lock_path.exists():
            try:
                lock = json.loads(lock_path.read_text())
            except json.JSONDecodeError as e:
                raise EnvironmentError(f"corrupt lockfile: {e}") from e
            if lock.get("version") != 1:
                raise EnvironmentError("unsupported lockfile version")
            build_specs = {
                h: Spec.from_dict(doc)
                for h, doc in lock.get("build_specs", {}).items()
            }
            locked_requests = [entry["request"] for entry in lock["roots"]]
            if locked_requests == env.roots:
                env.concrete_roots = [
                    Spec.from_dict(entry["spec"], build_specs.get)
                    for entry in lock["roots"]
                ]
            # else: the manifest changed after locking → stale lock,
            # leave unconcretized so the caller re-concretizes
        return env

    def __repr__(self):
        state = "concretized" if self.concretized else "abstract"
        return f"<Environment {self.path.name}: {len(self.roots)} roots, {state}>"

"""Directory-backed package repositories: ``package.py`` files on disk.

Real Spack repositories are directories of ``<name>/package.py`` files
executed in a namespace where the directives are in scope.  This module
loads the same layout::

    my-repo/
      repo.json                 {"name": "my-repo", "preferences": {...}}
      zlib/package.py           class Zlib(Package): version("1.3") ...
      hdf5/package.py

and also writes one back out (``dump_repository``), which the tests use
to round-trip the built-in repos through the on-disk format.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Type

from . import directives
from .package import Package, PackageBase
from .repository import Repository, RepositoryError

__all__ = ["load_repository", "dump_repository", "RepoLayoutError"]

REPO_CONFIG = "repo.json"


class RepoLayoutError(RepositoryError):
    """Raised for malformed on-disk repositories."""


def _directive_namespace() -> dict:
    """The execution namespace for a package.py: Package + directives."""
    names = [
        "version", "variant", "depends_on", "provides", "conflicts",
        "requires", "can_splice", "maintainers", "license",
    ]
    namespace = {"Package": Package, "PackageBase": PackageBase}
    for name in names:
        namespace[name] = getattr(directives, name)
    return namespace


def load_repository(path: Path) -> Repository:
    """Load a directory of ``<name>/package.py`` files into a Repository.

    Each package.py must define exactly one Package subclass whose
    derived (or explicit) name matches its directory.  ``repo.json`` is
    optional and may set the repo name and provider preferences.
    """
    path = Path(path)
    if not path.is_dir():
        raise RepoLayoutError(f"not a repository directory: {path}")

    name = path.name
    preferences: Dict[str, list] = {}
    config_path = path / REPO_CONFIG
    if config_path.exists():
        try:
            config = json.loads(config_path.read_text())
        except json.JSONDecodeError as e:
            raise RepoLayoutError(f"corrupt {REPO_CONFIG}: {e}") from e
        name = config.get("name", name)
        preferences = config.get("preferences", {})

    repo = Repository(name)
    for package_file in sorted(path.glob("*/package.py")):
        directory = package_file.parent.name
        namespace = _directive_namespace()
        source = package_file.read_text()
        try:
            exec(compile(source, str(package_file), "exec"), namespace)
        except directives.DirectiveError:
            raise
        except SyntaxError as e:
            raise RepoLayoutError(f"{package_file}: {e}") from e
        classes = [
            obj
            for obj in namespace.values()
            if isinstance(obj, type)
            and issubclass(obj, PackageBase)
            and obj not in (Package, PackageBase)
        ]
        if len(classes) != 1:
            raise RepoLayoutError(
                f"{package_file}: expected exactly one Package subclass, "
                f"found {len(classes)}"
            )
        pkg_cls = classes[0]
        if pkg_cls.name != directory:
            raise RepoLayoutError(
                f"{package_file}: package {pkg_cls.name!r} does not match "
                f"its directory {directory!r}"
            )
        repo.add(pkg_cls)
    repo.provider_preferences.update(preferences)
    return repo


def dump_repository(repo: Repository, path: Path) -> Path:
    """Write a Repository out as ``<name>/package.py`` files.

    Directive calls are regenerated from the collected declarations —
    the output is loadable by :func:`load_repository` and diffs cleanly.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    (path / REPO_CONFIG).write_text(
        json.dumps(
            {"name": repo.name, "preferences": repo.provider_preferences},
            indent=1,
            sort_keys=True,
        )
    )
    for pkg_cls in repo:
        package_dir = path / pkg_cls.name
        package_dir.mkdir(exist_ok=True)
        (package_dir / "package.py").write_text(_render_package(pkg_cls))
    return path


def _class_name(package_name: str) -> str:
    return "".join(part.capitalize() for part in package_name.split("-"))


def _render_package(pkg_cls: Type[PackageBase]) -> str:
    lines = [f"class {_class_name(pkg_cls.name)}(Package):"]
    doc = (pkg_cls.__doc__ or "").strip()
    if doc:
        first_line = doc.splitlines()[0]
        lines.append(f'    """{first_line}"""')
        lines.append("")
    if pkg_cls.name != _kebab(pkg_cls.name, pkg_cls):
        lines.append(f'    name = "{pkg_cls.name}"')
    for decl in pkg_cls.version_decls:
        extra = ", preferred=True" if decl.preferred else ""
        extra += ", deprecated=True" if decl.deprecated else ""
        when = f', when="{decl.when}"' if decl.when is not None else ""
        lines.append(f'    version("{decl.version}"{when}{extra})')
    for decl in pkg_cls.variant_decls:
        if decl.is_bool:
            default = "True" if decl.default else "False"
            lines.append(f'    variant("{decl.name}", default={default})')
        else:
            values = ", ".join(f'"{v}"' for v in decl.allowed_values())
            lines.append(
                f'    variant("{decl.name}", default="{decl.default}", '
                f"values=({values},))"
            )
    for decl in pkg_cls.dependency_decls:
        when = f', when="{decl.when}"' if decl.when is not None else ""
        deptype = (
            f', type="{decl.deptypes[0]}"'
            if decl.deptypes != ("link-run",)
            else ""
        )
        lines.append(
            f'    depends_on("{decl.spec.format(deps=True)}"{when}{deptype})'
        )
    for decl in pkg_cls.provides_decls:
        when = f', when="{decl.when}"' if decl.when is not None else ""
        lines.append(f'    provides("{decl.virtual.format(deps=False)}"{when})')
    for decl in pkg_cls.conflict_decls:
        when = f', when="{decl.when}"' if decl.when is not None else ""
        msg = f', msg="{decl.msg}"' if decl.msg else ""
        lines.append(
            f'    conflicts("{decl.spec.format(deps=True)}"{when}{msg})'
        )
    for decl in pkg_cls.requires_decls:
        when = f', when="{decl.when}"' if decl.when is not None else ""
        lines.append(f'    requires("{decl.spec.format(deps=True)}"{when})')
    for decl in pkg_cls.can_splice_decls:
        when = f', when="{decl.when}"' if decl.when is not None else ""
        lines.append(
            f'    can_splice("{decl.target.format(deps=True)}"{when})'
        )
    if not pkg_cls.buildable:
        lines.append("    buildable = False")
    if pkg_cls.build_time != PackageBase.build_time:
        lines.append(f"    build_time = {pkg_cls.build_time}")
    if pkg_cls.provides_symbols:
        symbols = ", ".join(f'"{s}"' for s in pkg_cls.provides_symbols)
        lines.append(f"    provides_symbols = ({symbols},)")
    if pkg_cls.type_layouts:
        layouts = ", ".join(
            f'"{k}": "{v}"' for k, v in sorted(pkg_cls.type_layouts.items())
        )
        lines.append(f"    type_layouts = {{{layouts}}}")
    if len(lines) == 1:
        lines.append("    pass")
    return "\n".join(lines) + "\n"


def _kebab(name: str, pkg_cls) -> str:
    from .package import name_from_class

    return name_from_class(_class_name(name))

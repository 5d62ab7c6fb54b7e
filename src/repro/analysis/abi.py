"""ABI splice-soundness checks over declarations and real artifacts.

``can_splice`` declarations are *trusted* by the solver: an unsound one
(the classic ``MPI_Comm`` int-vs-struct layout mismatch) only surfaces
as a load-time failure after install and rewire.  These checkers close
that gap statically, in the spirit of Zakaria et al.'s artifact-level
ABI verification: every declaration is cross-checked against the actual
binaries a cache or store holds, and installed spliced specs are
re-resolved through the :class:`~repro.binary.loader.Loader`.

Codes:

* ABI001 (error) — a declared-compatible (replacement, original) pair
  whose artifacts disagree: the replacement is missing defined symbols
  of the original, or an opaque-type layout differs.
* ABI002 (warning) — a ``can_splice`` declaration no cached artifact
  can ever satisfy: nothing in the cache matches the target constraint,
  so the declaration is dead weight (or a typo).
* ABI003 (note) — an undeclared-but-ABI-identical splice opportunity
  between providers of the same virtual, both present in the cache.
* ABI004 (error) — an installed spliced spec whose rewired
  NEEDED/RPATH entries do not resolve through the loader to the spliced
  dependency's install prefix.

Artifact resolution order per spec: the cache entry's primary library
(``lib/...`` in ``blobs/<hash>.bundle``), then the installed prefix, then —
for index-only mirrors that carry no payloads — the package class's
declared ABI surface (the same data the simulated builds bake into
binaries, so verdicts agree).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..binary.abi import check_abi_compatibility
from ..binary.mockelf import BinaryFormatError, MockBinary
from ..spec import Spec
from ..spec.spec import DEPTYPE_LINK_RUN
from .diagnostics import Diagnostic, Severity
from .registry import checker

__all__ = []


def _loc(index: int) -> str:
    return f"can_splice[{index}]"


def _universe(ctx) -> Dict[str, List[Spec]]:
    """Distinct concrete nodes of the artifact universe, by package name.

    The universe is every node of every spec the cache indexes plus
    everything the install database records, deduplicated by
    ``dag_hash`` — the set of artifacts a splice could actually touch.
    """
    cached = getattr(ctx, "_abi_universe", None)
    if cached is not None:
        return cached
    seen: Set[str] = set()
    by_name: Dict[str, List[Spec]] = {}
    roots: List[Spec] = []
    if ctx.concrete_specs is not None:
        roots.extend(ctx.concrete_specs)
    else:
        if ctx.cache is not None:
            try:
                roots.extend(ctx.cache.all_specs())
            except Exception:
                pass  # index corruption is the storage checkers' finding
        if ctx.database is not None:
            roots.extend(ctx.database.all_specs())
    for root in roots:
        for node in root.traverse():
            if node.name is None:
                continue
            h = node.dag_hash()
            if h in seen:
                continue
            seen.add(h)
            by_name.setdefault(node.name, []).append(node)
    ctx._abi_universe = by_name
    return by_name


def _surface_of(ctx, spec: Spec) -> Optional[MockBinary]:
    """The package class's declared ABI surface as a pseudo-binary."""
    if ctx.repo is None or spec.name not in ctx.repo:
        return None
    pkg_cls = ctx.repo.get(spec.name)
    return MockBinary(
        soname=pkg_cls.libraries()[0] if pkg_cls.libraries() else f"lib{spec.name}.so",
        defined_symbols=list(pkg_cls.exported_symbols(spec)),
        type_layouts=dict(pkg_cls.exported_type_layouts(spec)),
    )


def _artifact_of(ctx, spec: Spec) -> Tuple[Optional[MockBinary], str]:
    """The real primary-library binary of ``spec``, or its repo surface.

    Returns ``(binary, source)`` where source is ``"cache"``,
    ``"store"``, ``"surface"``, or ``""`` when nothing is available.
    Memoized per context (the same mpich artifact anchors many pairs).
    """
    h = spec.dag_hash()
    memo = ctx.artifact_memo
    if h in memo:
        return memo[h]
    libname = f"lib{spec.name}.so"
    if ctx.repo is not None and spec.name in ctx.repo:
        libs = ctx.repo.get(spec.name).libraries()
        if libs:
            libname = libs[0]
    result: Tuple[Optional[MockBinary], str] = (None, "")
    if ctx.cache is not None:
        try:
            data = ctx.cache.fetch(h).files[f"lib/{libname}"]
            result = (MockBinary.from_bytes(data), "cache")
        except Exception:
            result = (None, "")
    if result[0] is None and ctx.database is not None:
        record = ctx.database.get(h)
        if record is not None:
            path = Path(record.prefix) / "lib" / libname
            if path.is_file():
                try:
                    result = (MockBinary.read(path), "store")
                except (BinaryFormatError, OSError):
                    result = (None, "")
    if result[0] is None:
        surface = _surface_of(ctx, spec)
        if surface is not None:
            result = (surface, "surface")
    memo[h] = result
    return result


def _content_key(binary: MockBinary) -> Tuple:
    return (
        binary.soname,
        tuple(binary.defined_symbols),
        tuple(sorted(binary.type_layouts.items())),
    )


def _compat(ctx, replacement_bin: MockBinary, original_bin: MockBinary):
    """ABI verdict memoized by artifact *content*: a 4k-spec cache holds
    thousands of rebuilds of a handful of distinct ABI surfaces, and the
    verdict only depends on the surfaces."""
    memo = getattr(ctx, "_abi_compat_memo", None)
    if memo is None:
        memo = ctx._abi_compat_memo = {}
    key = (_content_key(replacement_bin), _content_key(original_bin))
    report = memo.get(key)
    if report is None:
        report = memo[key] = check_abi_compatibility(
            replacement_bin, original_bin
        )
    return report


@checker(
    "abi.declarations",
    codes=("ABI001", "ABI002"),
    requires=("repo", "cache"),
    description="can_splice declarations hold against actual artifacts",
)
def check_declarations(ctx) -> Iterable[Diagnostic]:
    universe = _universe(ctx)
    for name in ctx.repo.names():
        pkg_cls = ctx.repo.get(name)
        for index, decl in enumerate(pkg_cls.can_splice_decls):
            target = decl.target
            originals = [
                node
                for node in universe.get(target.name or "", [])
                if node.satisfies(target)
            ]
            if not originals:
                yield Diagnostic(
                    "ABI002",
                    Severity.WARNING,
                    f"declaration can_splice({str(target)!r}) matches no "
                    "artifact in the cache — nothing can ever be spliced "
                    "out by it",
                    package=name,
                    directive=_loc(index),
                )
                continue
            replacements = [
                node
                for node in universe.get(name, [])
                if decl.when is None or node.satisfies(decl.when)
            ]
            reported: Set[Tuple[str, str, str]] = set()
            for replacement in replacements:
                replacement_bin, _ = _artifact_of(ctx, replacement)
                if replacement_bin is None:
                    continue
                for original in originals:
                    original_bin, _ = _artifact_of(ctx, original)
                    if original_bin is None:
                        continue
                    report = _compat(ctx, replacement_bin, original_bin)
                    if report.compatible:
                        continue
                    # one diagnostic per distinct version pair, not per
                    # hash pair: a 4k-spec cache holds many rebuilds of
                    # the same incompatible configuration
                    key = (
                        str(replacement.version),
                        str(original.version),
                        report.explain(),
                    )
                    if key in reported:
                        continue
                    reported.add(key)
                    yield Diagnostic(
                        "ABI001",
                        Severity.ERROR,
                        f"declared splice {name}@{replacement.version} -> "
                        f"{original.name}@{original.version} is unsound: "
                        f"{report.explain()}",
                        package=name,
                        directive=_loc(index),
                    )


@checker(
    "abi.opportunities",
    codes=("ABI003",),
    requires=("repo", "cache"),
    description="undeclared but ABI-identical splice opportunities",
)
def check_opportunities(ctx) -> Iterable[Diagnostic]:
    from ..binary.discovery import _already_declared

    universe = _universe(ctx)
    for virtual in ctx.repo.virtual_names():
        providers = [p for p in ctx.repo.providers(virtual) if p in universe]
        for replacement_name in providers:
            replacement_cls = ctx.repo.get(replacement_name)
            # newest cached configuration represents the replacement
            replacement = max(
                universe[replacement_name], key=lambda s: s.version
            )
            replacement_bin, _ = _artifact_of(ctx, replacement)
            if replacement_bin is None:
                continue
            for target_name in providers:
                if target_name == replacement_name:
                    continue
                seen_versions: Set[str] = set()
                for target in universe[target_name]:
                    version = str(target.version)
                    if version in seen_versions:
                        continue
                    seen_versions.add(version)
                    target_bin, _ = _artifact_of(ctx, target)
                    if target_bin is None:
                        continue
                    if not _compat(ctx, replacement_bin, target_bin).compatible:
                        continue
                    target_text = f"{target_name}@{version}"
                    if _already_declared(replacement_cls, target_text):
                        continue
                    yield Diagnostic(
                        "ABI003",
                        Severity.NOTE,
                        f"cached artifacts show {replacement_name}"
                        f"@{replacement.version} is ABI-compatible with "
                        f"{target_text} but no can_splice declares it",
                        package=replacement_name,
                    )


@checker(
    "abi.splice_links",
    codes=("ABI004",),
    requires=("database",),
    description="installed spliced specs resolve to the spliced prefixes",
)
def check_splice_links(ctx) -> Iterable[Diagnostic]:
    loader = ctx.loader
    for record in ctx.database:
        spec = record.spec
        if spec.build_spec is None:
            continue  # only rewired nodes carry provenance
        prefix = Path(record.prefix)
        deps = {
            f"lib{dep.name}.so": dep
            for dep in spec.dependencies(DEPTYPE_LINK_RUN)
        }
        binaries: List[Path] = []
        for sub in ("lib", "bin"):
            if (prefix / sub).is_dir():
                binaries.extend(sorted((prefix / sub).iterdir()))
        for path in binaries:
            if not path.is_file():
                continue
            try:
                binary = MockBinary.read(path)
            except (BinaryFormatError, OSError):
                continue
            for soname in binary.needed:
                resolved = loader.resolve(soname, binary.rpaths)
                if resolved is None:
                    yield Diagnostic(
                        "ABI004",
                        Severity.ERROR,
                        f"rewired binary {path.name} of "
                        f"{spec.short_str()} needs {soname} but no RPATH "
                        "entry provides it",
                        package=spec.name,
                    )
                    continue
                dep = deps.get(soname)
                if dep is None:
                    continue
                dep_record = ctx.database.get(dep.dag_hash())
                if dep_record is None:
                    yield Diagnostic(
                        "ABI004",
                        Severity.ERROR,
                        f"spliced dependency {dep.short_str()} of "
                        f"{spec.short_str()} is not in the install "
                        "database",
                        package=spec.name,
                    )
                    continue
                dep_prefix = Path(dep_record.prefix).resolve()
                resolved_path = Path(resolved).resolve()
                if dep_prefix != resolved_path and (
                    dep_prefix not in resolved_path.parents
                ):
                    yield Diagnostic(
                        "ABI004",
                        Severity.ERROR,
                        f"rewired binary {path.name} of {spec.short_str()} "
                        f"resolves {soname} to {resolved}, outside the "
                        f"spliced dependency's prefix {dep_record.prefix}",
                        package=spec.name,
                    )

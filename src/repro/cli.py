"""Command-line interface — a miniature ``spack``.

Run as ``python -m repro <command>``::

    python -m repro spec "hdf5 ^mpich"            # concretize + print tree
    python -m repro spec --splice "hdf5 ^mpiabi"  # allow spliced solutions
    python -m repro install --store /tmp/store "hdf5"
    python -m repro find --store /tmp/store       # list installed specs
    python -m repro buildcache create --store /tmp/store --cache /tmp/bc hdf5
    python -m repro suggest-splices               # ABI discovery report

Packages come from the built-in RADIUSS repository by default
(``--repo mock`` switches to the paper's Figure-1 toy packages).
A ``--cache DIR`` buildcache and the ``--store DIR`` install database
both contribute reusable specs to the concretizer.

Multiple binary mirrors (the local + public two-cache setup of the
paper's Section 6) compose with ``--mirror [NAME=]DIR[:ro]``
(repeatable; ``:ro`` marks a mirror read-only) or ``--mirrors-file
FILE`` (one mirror per line, ``#`` comments).  A mirror may also be an
``http://host:port/path`` URL pointing at a ``repro buildcache serve``
process — the networked cache pair.  Mirrors are consulted in order,
first-hit-wins, with ``--cache`` as the primary write target; see
docs/buildcache.md.

Observability flags (every subcommand, see docs/observability.md):

* ``--trace FILE`` — write a Chrome trace-event JSON of all spans
  (open in ``chrome://tracing`` or https://ui.perfetto.dev);
* ``--profile``    — print a per-phase time table after the command;
* ``-v`` / ``-vv`` — INFO / DEBUG logging to stderr;
* ``--telemetry-dir DIR`` (or ``REPRO_TELEMETRY_DIR``) — append one
  session record per invocation to ``DIR/sessions.jsonl`` and land
  crash reports there; analyzed with the ``repro obs`` verbs::

      python -m repro obs report               # fleet rollup
      python -m repro obs show last            # one session
      python -m repro obs diff -2 last         # per-phase delta
      python -m repro obs bench-diff a.json b.json --budget-pct 20
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from .obs import (
    configure_logging,
    crash_report,
    metrics,
    metrics_table,
    phase_table,
    telemetry_dir,
    trace,
    write_chrome_trace,
    write_crash_report,
)

if TYPE_CHECKING:
    from .package.repository import Repository

__all__ = ["main"]


class CLIError(Exception):
    """A user-input problem: reported as one line on stderr, exit 2 —
    never a traceback (tracebacks are for bugs, not for a typo'd
    mirror path)."""


def _load_repo(name: str) -> Repository:
    if name == "mock":
        from .repos.mock import make_mock_repo

        return make_mock_repo()
    if name == "radiuss":
        from .repos.radiuss import make_radiuss_repo

        return make_radiuss_repo()
    path = Path(name)
    if path.is_dir():
        from .package.repo_dir import load_repository

        return load_repository(path)
    raise SystemExit(
        f"unknown repository {name!r} (use 'radiuss', 'mock', or a directory)"
    )


def _parse_mirror(entry: str):
    """``[NAME=]PATH-or-URL[:ro]`` -> ``(name_or_None, path, read_only)``.

    Parsing is scheme-aware: a ``scheme://`` before the first ``=``
    means the whole entry is a URL, so ``http://h/p?a=b`` keeps its
    query string instead of being split into a bogus label (and only a
    *trailing* ``:ro`` is a read-only marker — ``http://h:8080/p`` keeps
    its port).  Empty labels (``NAME=`` / ``=path``) are user mistakes,
    rejected with the exit-2 :class:`CLIError` taxonomy rather than
    colliding later in the duplicate-label check.
    """
    original = entry.strip()
    entry = original
    name = None
    eq = entry.find("=")
    scheme = entry.find("://")
    if eq != -1 and (scheme == -1 or eq < scheme):
        name, entry = entry[:eq].strip(), entry[eq + 1:].strip()
        if not name:
            raise CLIError(
                f"invalid mirror entry {original!r}: empty label before '='"
            )
    read_only = False
    if entry.endswith(":ro"):
        read_only = True
        entry = entry[: -len(":ro")].strip()
    if not entry:
        raise CLIError(
            f"invalid mirror entry {original!r}: no path or URL"
        )
    return name, entry, read_only


def _is_url(path: str) -> bool:
    return path.startswith(("http://", "https://"))


def _mirror_label(path: str) -> str:
    """A human label for an unnamed mirror: directory basename for
    paths, ``host:port[/last-segment]`` for URLs."""
    if _is_url(path):
        from urllib.parse import urlsplit

        parsed = urlsplit(path)
        tail = parsed.path.strip("/").rsplit("/", 1)[-1]
        return tail or parsed.netloc or path
    return Path(path).name or str(path)


def _open_caches(args) -> list:
    """Open ``--cache`` plus every ``--mirror``/``--mirrors-file`` entry.

    One source -> ``[BuildCache]``; several -> a single-element list
    holding a :class:`MirrorGroup` (first entry = primary write
    target), so the installer and concretizer see one cache object
    either way.

    User mistakes — an unreadable mirrors file, two mirrors explicitly
    given the same name, a corrupt index manifest — raise
    :class:`CLIError` (one line, exit 2).  Labels *derived* from
    directory basenames are uniquified with ``-2``-style suffixes
    instead: ``--mirror a/cache --mirror b/cache`` is legitimate.
    """
    from .buildcache.backend import LocalFSBackend
    from .buildcache.cache import BuildCache, BuildCacheError

    entries = []
    if getattr(args, "cache", None):
        entries.append((None, str(args.cache), False))
    for raw in getattr(args, "mirror", None) or []:
        entries.append(_parse_mirror(raw))
    mirrors_file = getattr(args, "mirrors_file", None)
    if mirrors_file:
        try:
            listing = Path(mirrors_file).read_text()
        except OSError as e:
            raise CLIError(f"cannot read mirrors file {mirrors_file}: {e}")
        for line in listing.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            entries.append(_parse_mirror(line))
    caches = []
    used: set = set()
    explicit: set = set()
    for name, path, read_only in entries:
        if name is not None:
            if name in explicit:
                raise CLIError(
                    f"duplicate mirror label {name!r} (every NAME= label "
                    "must be unique)"
                )
            explicit.add(name)
        label = name or _mirror_label(path)
        base, n = label, 2
        while label in used:  # keep MirrorGroup labels unique
            label, n = f"{base}-{n}", n + 1
        used.add(label)
        if _is_url(path):
            from .buildcache.httpbackend import HTTPBackend

            try:
                backend = HTTPBackend(path, name=label, writable=not read_only)
            except BuildCacheError as e:
                raise CLIError(f"invalid mirror URL {path}: {e}")
        else:
            backend = LocalFSBackend(
                Path(path), name=label, writable=not read_only
            )
        try:
            caches.append(BuildCache(backend=backend, name=label))
        except BuildCacheError as e:
            raise CLIError(f"cannot open mirror {label} at {path}: {e}")
    if len(caches) > 1:
        from .buildcache.mirror import MirrorGroup

        return [MirrorGroup(caches)]
    return caches


def _reusable(args, caches=None) -> list:
    specs = []
    if caches is None:
        caches = _open_caches(args)
    for cache in caches:
        specs.extend(cache.all_specs())
    if getattr(args, "store", None):
        store = Path(args.store)
        if (store / "db.json").exists():
            from .installer.database import Database

            specs.extend(Database(store).all_specs())
    return specs


def _reuse_digest(args, caches):
    """O(1) digest of the reuse set, when one cache is its only source.

    The ground-program cache keys on the reuse set; a single
    ``BuildCache`` can answer in O(1) via its index manifest digest.
    When an install store also contributes reusable specs (or several
    mirrors do), return None so the concretizer falls back to hashing
    the spec list itself — slower but always correct.
    """
    if len(caches) != 1 or not hasattr(caches[0], "content_digest"):
        return None
    if getattr(args, "store", None):
        store = Path(args.store)
        if (store / "db.json").exists():
            return None
    return caches[0].content_digest()


def cmd_spec(args) -> int:
    """`repro spec`: concretize and print trees, builds, and splices."""
    from .concretize import Concretizer, UnsatisfiableError
    from .spec import tree

    repo = _load_repo(args.repo)
    caches = _open_caches(args)
    concretizer = Concretizer(
        repo,
        reusable_specs=_reusable(args, caches),
        splicing=args.splice,
        reuse_digest=_reuse_digest(args, caches),
    )
    try:
        result = concretizer.solve_all(args.specs, forbidden=args.forbid or [])
    except UnsatisfiableError as e:
        print(f"error: {e}", file=sys.stderr)
        diagnosis = concretizer.explain(args.specs, forbidden=args.forbid or [])
        print(diagnosis.explain(), file=sys.stderr)
        return 1
    for root in result.roots:
        print(tree(root))
        print()
    built = sorted(s.name for s in result.built)
    spliced = sorted(s.name for s in result.spliced)
    print(f"to build: {built or 'nothing'}")
    if spliced:
        print(f"to splice (relink, no rebuild): {spliced}")
    if args.time:
        print(f"concretization time: {result.stats['total_time']:.3f}s")
    return 0


def cmd_install(args) -> int:
    """`repro install`: concretize then build/extract/rewire into a store."""
    from .buildcache.backend import BuildCacheError
    from .concretize import Concretizer, UnsatisfiableError
    from .installer import InstallError, Installer

    repo = _load_repo(args.repo)
    caches = _open_caches(args)
    concretizer = Concretizer(
        repo,
        reusable_specs=_reusable(args, caches),
        splicing=args.splice,
        reuse_digest=_reuse_digest(args, caches),
    )
    try:
        result = concretizer.solve_all(args.specs, forbidden=args.forbid or [])
    except UnsatisfiableError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    installer = Installer(
        Path(args.store), repo, caches=caches, fetch_jobs=args.fetch_jobs
    )
    try:
        for root in result.roots:
            report = installer.install(root)
            print(f"{root.name}: {report.summary()}")
            print(f"  prefix: {installer.database.prefix_of(root)}")
    except (BuildCacheError, InstallError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def cmd_find(args) -> int:
    """`repro find`: list installed specs (explicit ones starred)."""
    from .installer.database import Database

    db = Database(Path(args.store))
    if not len(db):
        print("no installed specs")
        return 0
    for record in db:
        spec = record.spec
        marker = " [spliced]" if spec.spliced else ""
        explicit = "*" if record.explicit else " "
        print(f"{explicit} {spec.dag_hash(7)}  {spec.short_str()}{marker}")
    return 0


def cmd_buildcache(args) -> int:
    """`repro buildcache create|list|serve`: push/show/serve a cache."""
    if args.action == "serve":
        return _cmd_buildcache_serve(args)
    if not args.cache:
        raise CLIError(f"buildcache {args.action} needs --cache DIR")
    from .buildcache.cache import BuildCache
    from .installer import Installer

    repo = _load_repo(args.repo)
    cache = BuildCache(Path(args.cache))
    if args.action == "list":
        for spec in cache.all_specs():
            print(f"{spec.dag_hash(7)}  {spec.short_str()}")
        return 0
    # create: push installed specs matching the given names
    installer = Installer(Path(args.store), repo)
    pushed = 0
    for name in args.specs:
        for record in installer.database.query(name):
            installer.push_to_cache(cache, record.spec)
            pushed += 1
    cache.save_index()
    print(f"pushed {pushed} spec(s); cache now holds {len(cache)}")
    return 0


def _cmd_buildcache_serve(args) -> int:
    """`repro buildcache serve DIR`: run the HTTP cache server until
    interrupted (the networked half of an ``http://`` mirror)."""
    from .buildcache.server import BuildCacheHTTPServer

    directory = (args.specs[0] if args.specs else None) or args.cache
    if not directory:
        raise CLIError("buildcache serve needs a cache directory "
                       "(repro buildcache serve DIR)")
    path = Path(directory)
    if not path.is_dir():
        raise CLIError(f"buildcache {path} does not exist")
    try:
        server = BuildCacheHTTPServer(
            path, host=args.host, port=args.port, read_only=args.read_only
        )
    except OSError as e:
        raise CLIError(f"cannot bind {args.host}:{args.port}: {e}")
    mode = " (read-only)" if args.read_only else ""
    print(f"serving buildcache {path} at {server.url}{mode}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def cmd_uninstall(args) -> int:
    """`repro uninstall`: remove installs (refuses with dependents)."""
    from .installer import InstallError, Installer

    repo = _load_repo(args.repo)
    installer = Installer(Path(args.store), repo)
    matches = installer.database.query(args.spec)
    if not matches:
        print(f"error: {args.spec} is not installed", file=sys.stderr)
        return 1
    try:
        for record in matches:
            installer.uninstall(record.spec, force=args.force)
            print(f"uninstalled {record.spec.short_str()}")
    except InstallError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def cmd_gc(args) -> int:
    """`repro gc`: drop installs unreachable from explicit roots."""
    from .installer import Installer

    repo = _load_repo(args.repo)
    installer = Installer(Path(args.store), repo)
    removed = installer.gc()
    if removed:
        print(f"removed: {', '.join(removed)}")
    else:
        print("nothing to remove")
    return 0


def cmd_verify(args) -> int:
    """`repro verify`: loader-check every installed binary."""
    from .installer import Installer

    repo = _load_repo(args.repo)
    installer = Installer(Path(args.store), repo)
    problems = installer.verify()
    if not problems:
        print("store is healthy")
        return 0
    for name, issues in sorted(problems.items()):
        print(f"{name}:")
        for issue in issues:
            print(f"  {issue}")
    return 1


def cmd_env(args) -> int:
    """`repro env create|add|concretize|install|status`."""
    from .environment import Environment, EnvironmentError

    repo = _load_repo(args.repo)
    path = Path(args.env)
    if args.action == "create":
        env = Environment(path, repo)
        for spec in args.specs:
            env.add(spec)
        env.splicing = args.splice
        env.write()
        print(f"created environment at {path} with {len(env.roots)} root(s)")
        return 0
    try:
        env = Environment.read(path, repo)
    except EnvironmentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.action == "add":
        for spec in args.specs:
            env.add(spec)
        env.write()
        print(f"roots: {env.roots}")
        return 0
    if args.action == "concretize":
        from .spec import tree

        env.concretize(reusable_specs=_reusable(args, _open_caches(args)))
        env.write()
        for root in env.concrete_roots:
            print(tree(root))
            print()
        return 0
    if args.action == "install":
        from .buildcache.backend import BuildCacheError
        from .installer import InstallError, Installer

        caches = _open_caches(args)
        if not env.concretized:
            env.concretize(reusable_specs=_reusable(args, caches))
            env.write()
        installer = Installer(
            Path(args.store), repo, caches=caches,
            fetch_jobs=getattr(args, "fetch_jobs", 1),
        )
        try:
            report = installer.install_all(env.concrete_roots, jobs=args.jobs)
        except (BuildCacheError, InstallError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        print(report.summary())
        return 0
    if args.action == "status":
        state = "concretized" if env.concretized else "abstract"
        print(f"{len(env.roots)} root(s), {state}, splicing={'on' if env.splicing else 'off'}")
        for root in env.roots:
            print(f"  {root}")
        return 0
    raise SystemExit(f"unknown env action {args.action!r}")


def cmd_diff(args) -> int:
    """`repro diff`: concretize two specs and show what differs."""
    from .concretize import Concretizer, UnsatisfiableError
    from .spec.diff import diff_specs

    repo = _load_repo(args.repo)
    concretizer = Concretizer(repo, reusable_specs=_reusable(args))
    try:
        left = concretizer.solve([args.left]).roots[0]
        right = concretizer.solve([args.right]).roots[0]
    except UnsatisfiableError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(diff_specs(left, right).summary())
    return 0


def cmd_audit(args) -> int:
    """`repro audit`: static-analysis of the repo, encoding, and stores."""
    from .analysis import AnalysisError, Analyzer, AuditContext, all_checkers
    from .buildcache.cache import BuildCache, BuildCacheError

    if args.list_checks:
        for chk in all_checkers():
            codes = ",".join(chk.codes)
            print(f"{chk.name:<26} {codes:<24} {chk.description}")
        return 0
    repo = _load_repo(args.repo)
    concrete: list = []
    cache = None
    database = None
    if args.cache:
        cache_path = Path(args.cache)
        if not cache_path.is_dir():
            raise CLIError(f"buildcache {cache_path} does not exist")
        try:
            cache = BuildCache(cache_path)
        except BuildCacheError as e:
            raise CLIError(f"cannot open buildcache {cache_path}: {e}")
        try:
            concrete.extend(cache.all_specs())
        except BuildCacheError:
            # a partially-unreadable index: the cache.* checkers report
            # the corruption as diagnostics instead of aborting the run
            pass
    if args.store:
        store = Path(args.store)
        if not store.is_dir():
            raise CLIError(f"install store {store} does not exist")
        if (store / "db.json").exists():
            from .installer.database import Database, DatabaseError

            try:
                database = Database(store)
                concrete.extend(database.all_specs())
            except (DatabaseError, ValueError) as e:
                raise CLIError(f"cannot open install database in {store}: {e}")
    ground_cache_dir = args.ground_cache or os.environ.get(
        "REPRO_GROUND_CACHE_DIR"
    )
    if ground_cache_dir and not Path(ground_cache_dir).is_dir():
        raise CLIError(f"ground cache {ground_cache_dir} does not exist")
    auditing_specs = bool(args.cache or args.store)
    context = AuditContext(
        repo=repo,
        concrete_specs=concrete if auditing_specs else None,
        reusable_specs=concrete if auditing_specs else None,
        cache=cache,
        database=database,
        store_root=Path(args.store) if args.store else None,
        ground_cache_dir=ground_cache_dir,
    )
    try:
        analyzer = Analyzer(args.checks)
    except AnalysisError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report = analyzer.run(context)
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    failing = report.has_errors or (args.strict and report.warnings)
    return 1 if failing else 0


def _require_telemetry_dir(args) -> Path:
    directory = telemetry_dir(getattr(args, "telemetry_dir", None))
    if directory is None:
        raise CLIError(
            "no telemetry directory configured (set REPRO_TELEMETRY_DIR "
            "or pass --telemetry-dir DIR)"
        )
    return directory


def cmd_obs(args) -> int:
    """`repro obs report|show|diff|bench-diff`: the telemetry verbs."""
    action = args.obs_action
    if action == "bench-diff":
        from .obs.regress import BenchDiffError, bench_diff, load_bench

        try:
            new_doc = load_bench(args.new)
            if args.old is not None:
                old_doc = load_bench(args.old)
            elif args.baseline_dir:
                # resolve the baseline by figure name: a CI job can point
                # --baseline-dir at a checked-out bench_results/ and
                # compare whatever figure the candidate file claims to be
                figure = str(new_doc.get("figure") or "")
                if not figure:
                    raise CLIError(
                        f"{args.new} has no 'figure' name; pass the "
                        "baseline file explicitly"
                    )
                old_doc = load_bench(Path(args.baseline_dir) / f"{figure}.json")
            else:
                raise CLIError(
                    "bench-diff needs a baseline: pass OLD or --baseline-dir DIR"
                )
            diff = bench_diff(
                old_doc,
                new_doc,
                budget_pct=args.budget_pct,
                min_seconds=args.min_seconds,
                columns=args.columns,
            )
        except BenchDiffError as e:
            raise CLIError(str(e))
        print(diff.render())
        return 0 if diff.ok else 1
    from .obs.session import (
        aggregate_sessions,
        diff_text,
        read_sessions,
        report_text,
        resolve_session,
        session_text,
    )

    sessions = read_sessions(_require_telemetry_dir(args))
    if action == "report":
        if args.json:
            print(json.dumps(aggregate_sessions(sessions), indent=1, sort_keys=True))
        else:
            print(report_text(sessions))
        return 0
    try:
        if action == "show":
            print(session_text(resolve_session(sessions, args.session)))
            return 0
        if action == "diff":
            print(
                diff_text(
                    resolve_session(sessions, args.a),
                    resolve_session(sessions, args.b),
                )
            )
            return 0
    except LookupError as e:
        raise CLIError(str(e))
    raise SystemExit(f"unknown obs action {action!r}")


def cmd_suggest_splices(args) -> int:
    """`repro suggest-splices`: the automatic ABI-discovery report."""
    from .binary.discovery import discover_provider_splices

    repo = _load_repo(args.repo)
    suggestions = discover_provider_splices(
        repo, args.virtual, include_existing=args.all
    )
    if not suggestions:
        print("no new ABI-compatible splices discovered")
        return 0
    for s in sorted(suggestions, key=lambda s: (s.splicer, s.target)):
        print(f"{s.splicer}: {s.directive_source()}")
        print(f"    # {s.reason}")
    return 0


def _add_mirror_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mirror", action="append", metavar="[NAME=]DIR|URL[:ro]",
        help="additional binary mirror — a directory or an "
             "http(s):// buildcache server — consulted after --cache "
             "in first-hit-wins order (repeatable; ':ro' = read-only)",
    )
    parser.add_argument(
        "--mirrors-file", metavar="FILE",
        help="file listing one mirror per line (same syntax as --mirror; "
             "blank lines and # comments ignored)",
    )


def _obs_parent() -> argparse.ArgumentParser:
    """Observability flags shared by every subcommand.

    Defaults are SUPPRESS so a flag given *before* the subcommand (on
    the top-level parser) is not clobbered when the subparser runs.
    """
    parent = argparse.ArgumentParser(add_help=False)
    _add_obs_arguments(parent, argparse.SUPPRESS)
    return parent


def _add_obs_arguments(parser: argparse.ArgumentParser, default) -> None:
    parser.add_argument(
        "--trace", metavar="FILE", default=default,
        help="write a Chrome trace-event JSON of all spans to FILE",
    )
    parser.add_argument(
        "--profile", action="store_true",
        default=False if default is None else default,
        help="print per-phase time and metrics tables when the command "
             "finishes",
    )
    parser.add_argument(
        "-v", "--verbose", action="count",
        default=0 if default is None else default,
        help="-v shows INFO progress, -vv shows DEBUG detail",
    )
    parser.add_argument(
        "--telemetry-dir", metavar="DIR", default=default,
        help="append one session record per invocation to DIR/sessions.jsonl "
             "and land crash reports there (REPRO_TELEMETRY_DIR does the "
             "same; unset = telemetry off)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="miniature Spack with splicing (SC'25 reproduction)",
    )
    parser.add_argument(
        "--repo", default="radiuss", help="package repository (radiuss|mock)"
    )
    _add_obs_arguments(parser, None)
    obs = _obs_parent()
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spec", help="concretize specs and print the DAG",
                            parents=[obs])
    p_spec.add_argument("specs", nargs="+")
    p_spec.add_argument("--splice", action="store_true", help="enable splicing")
    p_spec.add_argument("--forbid", action="append", help="forbid a package")
    p_spec.add_argument("--cache", help="buildcache directory to reuse from")
    _add_mirror_arguments(p_spec)
    p_spec.add_argument("--store", help="install store to reuse from")
    p_spec.add_argument("--time", action="store_true", help="print solve time")
    p_spec.set_defaults(func=cmd_spec)

    p_install = sub.add_parser("install", help="concretize and install",
                               parents=[obs])
    p_install.add_argument("specs", nargs="+")
    p_install.add_argument("--store", required=True, help="install store root")
    p_install.add_argument("--cache", help="buildcache to extract from")
    _add_mirror_arguments(p_install)
    p_install.add_argument("--splice", action="store_true")
    p_install.add_argument("--forbid", action="append")
    p_install.add_argument(
        "--fetch-jobs", type=int, default=1, metavar="N",
        help="pipeline cache fetch/verify/extract with N workers "
             "(overlaps independent DAG nodes; default 1 = serial)",
    )
    p_install.set_defaults(func=cmd_install)

    p_find = sub.add_parser("find", help="list installed specs", parents=[obs])
    p_find.add_argument("--store", required=True)
    p_find.set_defaults(func=cmd_find)

    p_cache = sub.add_parser("buildcache", help="manage a binary cache",
                             parents=[obs])
    p_cache.add_argument("action", choices=["create", "list", "serve"])
    p_cache.add_argument(
        "specs", nargs="*", metavar="SPEC|DIR",
        help="specs to push (create) or the cache directory to serve",
    )
    p_cache.add_argument("--cache", help="cache directory (create/list)")
    p_cache.add_argument("--store", help="store to read binaries from")
    p_cache.add_argument(
        "--host", default="127.0.0.1",
        help="bind address for serve (default 127.0.0.1)",
    )
    p_cache.add_argument(
        "--port", type=int, default=8080,
        help="port for serve (default 8080; 0 = ephemeral)",
    )
    p_cache.add_argument(
        "--read-only", action="store_true",
        help="serve rejects every mutating request with 403",
    )
    p_cache.set_defaults(func=cmd_buildcache)

    p_uninstall = sub.add_parser("uninstall", help="remove an installed spec",
                                 parents=[obs])
    p_uninstall.add_argument("spec", help="package name to uninstall")
    p_uninstall.add_argument("--store", required=True)
    p_uninstall.add_argument("--force", action="store_true",
                             help="remove even with installed dependents")
    p_uninstall.set_defaults(func=cmd_uninstall)

    p_gc = sub.add_parser("gc", help="remove installs unreachable from roots",
                          parents=[obs])
    p_gc.add_argument("--store", required=True)
    p_gc.set_defaults(func=cmd_gc)

    p_verify = sub.add_parser("verify", help="integrity-check the store",
                              parents=[obs])
    p_verify.add_argument("--store", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_env = sub.add_parser("env", help="manage environments", parents=[obs])
    p_env.add_argument("action",
                       choices=["create", "add", "concretize", "install", "status"])
    p_env.add_argument("--env", required=True, help="environment directory")
    p_env.add_argument("specs", nargs="*")
    p_env.add_argument("--splice", action="store_true")
    p_env.add_argument("--cache")
    _add_mirror_arguments(p_env)
    p_env.add_argument("--store", help="install store (for env install)")
    p_env.add_argument("--jobs", type=int, default=1)
    p_env.add_argument(
        "--fetch-jobs", type=int, default=1, metavar="N",
        help="pipeline cache fetch/verify/extract with N workers",
    )
    p_env.set_defaults(func=cmd_env)

    p_diff = sub.add_parser("diff", help="compare two concretized specs",
                            parents=[obs])
    p_diff.add_argument("left")
    p_diff.add_argument("right")
    p_diff.add_argument("--cache")
    p_diff.add_argument("--store")
    p_diff.set_defaults(func=cmd_diff)

    p_audit = sub.add_parser(
        "audit", help="static-analysis of repo, encoding, and stores",
        parents=[obs],
    )
    p_audit.add_argument("--json", action="store_true",
                         help="emit a machine-readable JSON report")
    p_audit.add_argument("--cache", help="buildcache whose specs to audit")
    p_audit.add_argument("--store", help="install store to audit")
    p_audit.add_argument(
        "--ground-cache", metavar="DIR",
        help="ground-program cache directory to audit "
             "(default: $REPRO_GROUND_CACHE_DIR)",
    )
    p_audit.add_argument(
        "--check", action="append", dest="checks", metavar="NAME",
        help="run only this checker, family, or code (repeatable)",
    )
    p_audit.add_argument("--strict", action="store_true",
                         help="exit nonzero on warnings, not just errors")
    p_audit.add_argument("--list-checks", action="store_true",
                         help="list registered checkers and exit")
    p_audit.set_defaults(func=cmd_audit)

    p_suggest = sub.add_parser(
        "suggest-splices", help="automatic ABI discovery report", parents=[obs]
    )
    p_suggest.add_argument("--virtual", default=None)
    p_suggest.add_argument(
        "--all", action="store_true", help="include already-declared splices"
    )
    p_suggest.set_defaults(func=cmd_suggest_splices)

    p_obs = sub.add_parser(
        "obs", help="session telemetry: report, inspect, diff, and the "
                    "bench regression gate",
        parents=[obs],
    )
    obs_sub = p_obs.add_subparsers(dest="obs_action", required=True)
    o_report = obs_sub.add_parser(
        "report", help="aggregate recorded sessions: per-command phase "
                       "p50/p95, cache hit/fallback rates, error taxonomy",
        parents=[obs],
    )
    o_report.add_argument("--json", action="store_true",
                          help="emit the aggregate as JSON")
    o_show = obs_sub.add_parser(
        "show", help="print one recorded session", parents=[obs]
    )
    o_show.add_argument(
        "session", nargs="?", default="last",
        help="session id prefix, index (-1, 0, ...), or 'last' (default)",
    )
    o_diff = obs_sub.add_parser(
        "diff", help="per-phase delta table between two sessions",
        parents=[obs],
    )
    o_diff.add_argument("a", help="session id prefix, index, or 'last'")
    o_diff.add_argument("b", help="session id prefix, index, or 'last'")
    o_bench = obs_sub.add_parser(
        "bench-diff", help="compare two bench_results JSON files "
                           "phase-by-phase; exit 1 on regressions",
        parents=[obs],
    )
    o_bench.add_argument(
        "old", nargs="?", default=None,
        help="baseline bench JSON (omit when using --baseline-dir)",
    )
    o_bench.add_argument("new", help="candidate bench JSON")
    o_bench.add_argument(
        "--baseline-dir", metavar="DIR",
        help="directory holding baseline JSONs; the file named after the "
             "candidate's figure (<figure>.json) becomes the baseline",
    )
    o_bench.add_argument(
        "--budget-pct", type=float, default=25.0, metavar="N",
        help="flag a phase slower than the baseline by more than N%% "
             "(default 25)",
    )
    o_bench.add_argument(
        "--min-seconds", type=float, default=1e-3, metavar="S",
        help="noise floor: baseline phases under S seconds are compared "
             "but never flagged (default 0.001)",
    )
    o_bench.add_argument(
        "--column", action="append", dest="columns", metavar="NAME",
        help="compare only this timing column, e.g. mean_s or solve_s "
             "(repeatable; default: every shared timing column)",
    )
    p_obs.set_defaults(func=cmd_obs)
    return parser


def _command_label(args) -> str:
    command = getattr(args, "command", None) or "?"
    obs_action = getattr(args, "obs_action", None)
    return f"{command} {obs_action}" if obs_action else command


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Besides dispatching, this is where the observability tier hooks
    every invocation: ``--trace``/``--profile`` output, the session
    telemetry sink (one JSONL record per run when a telemetry dir is
    configured), and the crash path — any uncaught exception becomes a
    one-line stderr message with exit 2 plus a crash report (traceback,
    the flight recorder's recent spans, metrics) dumped to the
    telemetry dir; ``-vv`` also prints the traceback.
    """
    argv_list = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    args = build_parser().parse_args(argv_list)
    verbosity = getattr(args, "verbose", 0)
    configure_logging(verbosity)
    trace_path = getattr(args, "trace", None)
    if trace_path:
        trace.enable()
    tdir = telemetry_dir(getattr(args, "telemetry_dir", None))
    phases_before = trace.phase_stats() if tdir else {}
    metrics_before = metrics.snapshot() if tdir else {}
    start = time.perf_counter()
    exit_code = 0
    outcome = "ok"
    error_label = None
    try:
        exit_code = args.func(args) or 0
        if exit_code:
            outcome = "error"
        return exit_code
    except CLIError as e:
        print(f"error: {e}", file=sys.stderr)
        exit_code, outcome, error_label = 2, "usage-error", type(e).__name__
        return 2
    except KeyboardInterrupt:
        exit_code, outcome, error_label = 130, "interrupted", "KeyboardInterrupt"
        raise
    except SystemExit as e:
        exit_code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
        if exit_code:
            outcome, error_label = "error", "SystemExit"
        raise
    except BrokenPipeError:
        # downstream closed the pipe (`repro obs report | head`): a
        # normal event, not a crash — mute stdout so the interpreter's
        # exit-time flush stays quiet, and skip the crash report
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):
            pass  # stdout already gone or not a real fd (test capture)
        exit_code, outcome, error_label = 1, "interrupted", "BrokenPipeError"
        return 1
    except Exception as e:
        # a bug, not a usage problem: route through the crash-report
        # path (flight recorder + traceback + metrics), keep stderr to
        # one line, exit 2 — same taxonomy as CLIError
        exit_code, outcome, error_label = 2, "crash", type(e).__name__
        crash_path = None
        if tdir is not None:
            try:
                crash_path = write_crash_report(
                    tdir,
                    crash_report(e, command=_command_label(args), argv=argv_list),
                )
            except OSError:
                pass  # a full disk must not mask the real failure
        if verbosity >= 2:
            traceback.print_exc()
        where = (
            f" (crash report: {crash_path})" if crash_path
            else "" if verbosity >= 2 else " (rerun with -vv for the traceback)"
        )
        print(
            f"error: internal error: {type(e).__name__}: {e}{where}",
            file=sys.stderr,
        )
        return 2
    finally:
        wall_s = time.perf_counter() - start
        if trace_path:
            write_chrome_trace(trace_path)
            trace.disable()
            print(f"trace written to {trace_path}", file=sys.stderr)
        if getattr(args, "profile", False):
            print()
            print(phase_table())
            print()
            print(metrics_table())
        if tdir is not None:
            from .obs.session import (
                append_session,
                metrics_delta,
                phase_delta,
                session_record,
            )

            try:
                append_session(
                    tdir,
                    session_record(
                        command=_command_label(args),
                        argv=argv_list,
                        exit_code=exit_code,
                        wall_s=wall_s,
                        outcome=outcome,
                        error=error_label,
                        phases=phase_delta(phases_before, trace.phase_stats()),
                        metrics_snapshot=metrics_delta(
                            metrics_before, metrics.snapshot()
                        ),
                    ),
                )
            except OSError as e:
                # telemetry must never take the command down with it
                print(f"warning: telemetry append failed: {e}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())

"""Session telemetry: one JSONL record per CLI invocation, plus analysis.

A site operator running thousands of ``repro install`` jobs needs a
fleet-level view — cache hit rates, mirror fallbacks, per-phase time,
failure taxonomy — that outlives any single process.  This module is
the persistence tier on top of :mod:`repro.obs`:

* **sink** — when a telemetry directory is configured (the
  ``REPRO_TELEMETRY_DIR`` environment variable or the CLI's
  ``--telemetry-dir`` flag; off otherwise), every CLI invocation
  appends one JSON line to ``<dir>/sessions.jsonl`` describing the
  command, its outcome, wall time, the tracer's per-phase aggregates,
  and a metrics snapshot.  Appends are single atomic ``O_APPEND``
  writes; the file rotates to ``sessions.jsonl.1`` once it crosses
  ``REPRO_TELEMETRY_MAX_BYTES`` (default 4 MiB), so the sink is
  size-capped, not append-forever.
* **analysis** — :func:`read_sessions` / :func:`aggregate_sessions`
  and the renderers behind the ``repro obs report|show|diff`` verbs
  (see :mod:`repro.cli` and docs/observability.md).

Corrupt lines (a crash mid-append, a truncated rotation) are skipped
and counted under ``obs.session_corrupt_lines`` — telemetry must never
take the CLI down.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from . import telemetry_dir  # noqa: F401  (re-exported)
from .metrics import metrics
from .trace import trace

__all__ = [
    "SESSIONS_FILE",
    "DEFAULT_MAX_BYTES",
    "telemetry_dir",
    "phase_delta",
    "metrics_delta",
    "session_record",
    "append_session",
    "read_sessions",
    "resolve_session",
    "aggregate_sessions",
    "report_text",
    "session_text",
    "diff_text",
]

SESSIONS_FILE = "sessions.jsonl"
#: rotation threshold for sessions.jsonl (``REPRO_TELEMETRY_MAX_BYTES``)
DEFAULT_MAX_BYTES = 4 * 1024 * 1024


def _max_bytes() -> int:
    raw = os.environ.get("REPRO_TELEMETRY_MAX_BYTES", "")
    try:
        return max(4096, int(raw)) if raw else DEFAULT_MAX_BYTES
    except ValueError:
        return DEFAULT_MAX_BYTES


def phase_delta(
    before: Dict[str, Dict[str, float]], after: Dict[str, Dict[str, float]]
) -> Dict[str, Dict[str, float]]:
    """Per-phase aggregates accumulated *between* two ``phase_stats``
    snapshots — what one invocation did, even when several invocations
    share a process (tests, library embedding).  ``min_s``/``max_s``
    are carried from the later snapshot (extrema don't subtract)."""
    out: Dict[str, Dict[str, float]] = {}
    for name, stats in after.items():
        prev = before.get(name)
        count = stats["count"] - (prev["count"] if prev else 0)
        total = stats["total_s"] - (prev["total_s"] if prev else 0.0)
        if count <= 0:
            continue
        out[name] = {
            "count": count,
            "total_s": total,
            "mean_s": total / count,
            "min_s": stats["min_s"],
            "max_s": stats["max_s"],
        }
    return out


def metrics_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """Counters accumulated between two ``metrics.snapshot()`` calls
    (gauges and histograms pass through: they don't subtract)."""
    counters_before = before.get("counters") or {}
    counters = {
        name: value - counters_before.get(name, 0)
        for name, value in (after.get("counters") or {}).items()
        if value - counters_before.get(name, 0) > 0
    }
    return {
        "counters": counters,
        "gauges": after.get("gauges") or {},
        "histograms": after.get("histograms") or {},
    }


#: per-process record sequence, mixed into session ids (GIL-atomic)
_SEQUENCE = itertools.count(1)


def session_record(
    command: str,
    argv: Sequence[str],
    exit_code: int,
    wall_s: float,
    outcome: str,
    error: Optional[str] = None,
    phases: Optional[Dict[str, Any]] = None,
    metrics_snapshot: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build the one-line session document for a finished invocation.

    By default the per-phase aggregates and metrics snapshot are read
    from the process-global tracer/registry (what ``--profile`` would
    have printed); the CLI passes :func:`phase_delta` /
    :func:`metrics_delta` results instead so each record covers one
    invocation even in a shared process.
    """
    from . import SCHEMA_VERSION  # late: avoid import cycle
    from .. import __version__

    now = time.time()
    argv = [str(a) for a in argv]
    digest = hashlib.sha256(" ".join(argv).encode()).hexdigest()
    record = {
        "schema_version": SCHEMA_VERSION,
        "kind": "session",
        # the sequence number keeps ids distinct even when two records
        # for the same argv land in the same clock microsecond
        "id": hashlib.sha256(
            f"{now:.6f}:{os.getpid()}:{next(_SEQUENCE)}:{digest}".encode()
        ).hexdigest()[:12],
        "ts": now,
        "iso_time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(now)),
        "host": platform.node(),
        "pid": os.getpid(),
        "version": __version__,
        "command": command,
        "argv": argv,
        "argv_digest": digest[:12],
        "exit_code": exit_code,
        "outcome": outcome,
        "wall_s": round(wall_s, 6),
        "phases": trace.phase_stats() if phases is None else phases,
        "metrics": metrics.snapshot() if metrics_snapshot is None else metrics_snapshot,
    }
    if error:
        record["error"] = error
    return record


def append_session(
    directory, record: Dict[str, Any], max_bytes: Optional[int] = None
) -> Path:
    """Atomically append one session line, rotating past the size cap.

    The line is written with a single ``O_APPEND`` ``os.write`` (atomic
    offset under POSIX, so concurrent CLI processes sharing one
    telemetry dir interleave whole lines, never halves) and fsynced —
    one fsync per process exit is cheap.  Rotation renames the full
    file to ``sessions.jsonl.1`` (replacing any previous rotation)
    before the append, capping total disk use at ~2× the threshold.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / SESSIONS_FILE
    cap = _max_bytes() if max_bytes is None else max_bytes
    line = (json.dumps(record, sort_keys=True) + "\n").encode()
    with trace.span("obs.session_append", bytes=len(line)):
        try:
            if path.stat().st_size + len(line) > cap:
                os.replace(path, path.with_name(SESSIONS_FILE + ".1"))
                metrics.inc("obs.session_rotations")
        except OSError:
            pass  # no file yet: nothing to rotate
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line)
            os.fsync(fd)
        finally:
            os.close(fd)
    metrics.inc("obs.sessions_written")
    return path


def read_sessions(directory, include_rotated: bool = True) -> List[Dict[str, Any]]:
    """All decodable session records, oldest first (rotated file first)."""
    directory = Path(directory)
    names = [SESSIONS_FILE + ".1", SESSIONS_FILE] if include_rotated else [SESSIONS_FILE]
    sessions: List[Dict[str, Any]] = []
    for name in names:
        path = directory / name
        if not path.is_file():
            continue
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                metrics.inc("obs.session_corrupt_lines")
                continue
            if isinstance(record, dict) and record.get("kind") == "session":
                sessions.append(record)
    return sessions


def resolve_session(
    sessions: Sequence[Dict[str, Any]], key: str
) -> Dict[str, Any]:
    """Find one session by ``last``, an index (``-1``, ``0``, ...), or
    an id prefix.  A number in range is an index; one out of range is
    tried as an id prefix, since ids are hex and may start with digits.
    Raises ``LookupError`` with a one-line reason."""
    if not sessions:
        raise LookupError("no recorded sessions")
    if key == "last":
        return sessions[-1]
    try:
        index: Optional[int] = int(key)
    except ValueError:
        index = None
    if index is not None and -len(sessions) <= index < len(sessions):
        return sessions[index]
    matches = [s for s in sessions if str(s.get("id", "")).startswith(key)]
    if not matches:
        if index is not None:
            raise LookupError(
                f"session index {key} out of range (have {len(sessions)})"
            )
        raise LookupError(f"no session with id prefix {key!r}")
    if len(matches) > 1:
        ids = ", ".join(str(s["id"]) for s in matches[:5])
        raise LookupError(f"session id prefix {key!r} is ambiguous ({ids})")
    return matches[0]


def _percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile (same rule as obs histograms)."""
    if not values:
        return 0.0
    values = sorted(values)
    rank = max(1, -(-len(values) * p // 100))
    return values[int(rank) - 1]


#: counter names whose fleet-wide sums become the report's rate lines
_RATE_SPECS = [
    ("cache_hit_rate", "buildcache.hits", "buildcache.misses"),
    ("mirror_hit_rate", "buildcache.mirror_hits", "buildcache.mirror_misses"),
]


def aggregate_sessions(sessions: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fleet rollup: per-command wall/phase percentiles, outcome
    taxonomy, and summed counters with derived hit/fallback rates."""
    commands: Dict[str, Dict[str, Any]] = {}
    errors: Dict[str, int] = {}
    counters: Dict[str, float] = {}
    for s in sessions:
        cmd = s.get("command") or "?"
        entry = commands.setdefault(
            cmd, {"runs": 0, "outcomes": {}, "walls": [], "phases": {}}
        )
        entry["runs"] += 1
        outcome = s.get("outcome", "?")
        entry["outcomes"][outcome] = entry["outcomes"].get(outcome, 0) + 1
        entry["walls"].append(float(s.get("wall_s", 0.0)))
        for phase, stats in (s.get("phases") or {}).items():
            entry["phases"].setdefault(phase, []).append(
                float(stats.get("total_s", 0.0))
            )
        if outcome not in ("ok",):
            label = s.get("error") or outcome
            errors[label] = errors.get(label, 0) + 1
        for name, value in ((s.get("metrics") or {}).get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
    for entry in commands.values():
        walls = entry.pop("walls")
        entry["wall"] = {
            "p50_s": _percentile(walls, 50),
            "p95_s": _percentile(walls, 95),
            "mean_s": sum(walls) / len(walls) if walls else 0.0,
        }
        entry["phases"] = {
            phase: {
                "runs": len(totals),
                "p50_s": _percentile(totals, 50),
                "p95_s": _percentile(totals, 95),
                "total_s": sum(totals),
            }
            for phase, totals in entry["phases"].items()
        }
    rates: Dict[str, float] = {}
    for label, hit_name, miss_name in _RATE_SPECS:
        hits, misses = counters.get(hit_name, 0), counters.get(miss_name, 0)
        if hits + misses:
            rates[label] = hits / (hits + misses)
    lookups = counters.get("buildcache.mirror_hits", 0) + counters.get(
        "buildcache.mirror_misses", 0
    )
    if lookups:
        rates["mirror_fallback_rate"] = (
            counters.get("buildcache.mirror_fallbacks", 0) / lookups
        )
    return {
        "sessions": len(sessions),
        "commands": commands,
        "errors": errors,
        "counters": counters,
        "rates": rates,
    }


def _table(rows: List[Dict[str, Any]], columns: List[str]) -> str:
    if not rows:
        return "(no rows)"
    widths = {
        c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in columns
    }
    lines = [
        "  ".join(c.ljust(widths[c]) for c in columns),
        "  ".join("-" * widths[c] for c in columns),
    ]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns)
        )
    return "\n".join(lines)


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f}"


def report_text(sessions: Sequence[Dict[str, Any]], top_phases: int = 12) -> str:
    """The ``repro obs report`` rendering: commands, phases, rates, errors."""
    if not sessions:
        return "(no recorded sessions)"
    agg = aggregate_sessions(sessions)
    parts = [f"== telemetry report: {agg['sessions']} session(s) =="]
    cmd_rows = []
    for cmd in sorted(agg["commands"]):
        entry = agg["commands"][cmd]
        outcomes = entry["outcomes"]
        cmd_rows.append(
            {
                "command": cmd,
                "runs": entry["runs"],
                "ok": outcomes.get("ok", 0),
                "failed": entry["runs"] - outcomes.get("ok", 0),
                "wall_p50_ms": _ms(entry["wall"]["p50_s"]),
                "wall_p95_ms": _ms(entry["wall"]["p95_s"]),
            }
        )
    parts.append(_table(cmd_rows, ["command", "runs", "ok", "failed",
                                   "wall_p50_ms", "wall_p95_ms"]))
    phase_rows = []
    for cmd in sorted(agg["commands"]):
        phases = agg["commands"][cmd]["phases"]
        ranked = sorted(
            phases.items(), key=lambda kv: (-kv[1]["total_s"], kv[0])
        )[:top_phases]
        for phase, stats in ranked:
            phase_rows.append(
                {
                    "command": cmd,
                    "phase": phase,
                    "runs": stats["runs"],
                    "p50_ms": _ms(stats["p50_s"]),
                    "p95_ms": _ms(stats["p95_s"]),
                    "total_s": f"{stats['total_s']:.4f}",
                }
            )
    if phase_rows:
        parts.append("")
        parts.append("== phases (p50/p95 of per-session totals) ==")
        parts.append(_table(phase_rows, ["command", "phase", "runs",
                                         "p50_ms", "p95_ms", "total_s"]))
    if agg["rates"] or agg["counters"]:
        parts.append("")
        parts.append("== cache ==")
        cache_rows = [
            {"metric": name, "value": f"{int(value):d}"}
            for name, value in sorted(agg["counters"].items())
            if name.startswith("buildcache.")
            and name.count(".") == 1  # fold out per-mirror .<label> variants
        ]
        for label in sorted(agg["rates"]):
            cache_rows.append(
                {"metric": label, "value": f"{agg['rates'][label]:.3f}"}
            )
        parts.append(_table(cache_rows, ["metric", "value"]))
    parts.append("")
    parts.append("== errors ==")
    if agg["errors"]:
        error_rows = [
            {"error": name, "count": count}
            for name, count in sorted(
                agg["errors"].items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        parts.append(_table(error_rows, ["error", "count"]))
    else:
        parts.append("(none)")
    return "\n".join(parts)


def session_text(record: Dict[str, Any], top_phases: int = 20) -> str:
    """The ``repro obs show`` rendering of one session record."""
    head = [
        f"session {record.get('id', '?')}  ({record.get('iso_time', '?')})",
        f"  command: {record.get('command', '?')}  "
        f"argv: {' '.join(record.get('argv') or [])}",
        f"  outcome: {record.get('outcome', '?')}  "
        f"exit: {record.get('exit_code', '?')}  "
        f"wall: {_ms(float(record.get('wall_s', 0.0)))} ms  "
        f"host: {record.get('host', '?')}  "
        f"version: {record.get('version', '?')}",
    ]
    if record.get("error"):
        head.append(f"  error: {record['error']}")
    phases = record.get("phases") or {}
    rows = []
    for phase in sorted(
        phases, key=lambda p: (-phases[p].get("total_s", 0.0), p)
    )[:top_phases]:
        stats = phases[phase]
        rows.append(
            {
                "phase": phase,
                "count": stats.get("count", 0),
                "total_ms": _ms(stats.get("total_s", 0.0)),
                "mean_ms": _ms(stats.get("mean_s", 0.0)),
                "max_ms": _ms(stats.get("max_s", 0.0)),
            }
        )
    body = _table(rows, ["phase", "count", "total_ms", "mean_ms", "max_ms"])
    counters = (record.get("metrics") or {}).get("counters") or {}
    tail = [
        f"  {name} = {value}"
        for name, value in sorted(counters.items())
        if name.startswith(("buildcache.", "install", "obs."))
    ]
    parts = head + ["", body]
    if tail:
        parts += ["", "counters:"] + tail
    return "\n".join(parts)


def diff_text(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """The ``repro obs diff`` rendering: per-phase delta table A → B."""
    phases_a = a.get("phases") or {}
    phases_b = b.get("phases") or {}
    names = sorted(set(phases_a) | set(phases_b))
    rows = []
    for name in names:
        ta = float(phases_a.get(name, {}).get("total_s", 0.0))
        tb = float(phases_b.get(name, {}).get("total_s", 0.0))
        delta = tb - ta
        pct = (delta / ta * 100.0) if ta else (float("inf") if tb else 0.0)
        rows.append(
            {
                "_sort": abs(delta),
                "phase": name,
                "a_ms": _ms(ta),
                "b_ms": _ms(tb),
                "delta_ms": f"{delta * 1e3:+.1f}",
                "delta_pct": "n/a" if pct == float("inf") else f"{pct:+.1f}",
            }
        )
    rows.sort(key=lambda r: (-r["_sort"], r["phase"]))
    head = [
        f"A: session {a.get('id', '?')} ({a.get('command', '?')}, "
        f"{a.get('iso_time', '?')})",
        f"B: session {b.get('id', '?')} ({b.get('command', '?')}, "
        f"{b.get('iso_time', '?')})",
        f"wall: {_ms(float(a.get('wall_s', 0.0)))} ms -> "
        f"{_ms(float(b.get('wall_s', 0.0)))} ms",
        "",
    ]
    return "\n".join(
        head + [_table(rows, ["phase", "a_ms", "b_ms", "delta_ms", "delta_pct"])]
    )

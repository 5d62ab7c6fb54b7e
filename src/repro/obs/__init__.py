"""repro.obs — structured tracing, metrics, and logging for every layer.

The paper's evaluation is a timing story (encoding overhead, grounding
vs. solving, scaling in splice candidates); this package is the shared
substrate those numbers flow through.  Three pieces:

* :mod:`repro.obs.trace` — thread-safe nested spans
  (``with trace.span("asp.solve", atoms=n):``), with always-on
  per-phase aggregates and opt-in full event retention;
* :mod:`repro.obs.metrics` — counters / gauges / histograms
  (``metrics.inc("buildcache.hits")``);
* :mod:`repro.obs.export` — Chrome trace-event JSON (open in
  ``chrome://tracing`` or Perfetto) and a plain-text phase table;
* :mod:`repro.obs.recorder` — always-on flight recorder (bounded ring
  of recent spans) and crash-report dumps for uncaught CLI errors;
* :mod:`repro.obs.session` — persistent per-invocation telemetry
  (``sessions.jsonl``) behind ``REPRO_TELEMETRY_DIR``/``--telemetry-dir``
  plus the aggregation feeding ``repro obs report|show|diff``;
* :mod:`repro.obs.regress` — bench-JSON comparison backing
  ``repro obs bench-diff`` and the CI perf-regression gate.

Naming convention for spans and metrics: ``<subsystem>.<operation>``,
e.g. ``concretize.setup``, ``asp.ground``, ``buildcache.extract``,
``install.build``, ``relocate.prefixes_replaced``.

CLI integration: every subcommand accepts ``--trace FILE`` (write a
Chrome trace), ``--profile`` (print the phase table), and ``-v/-vv``
(INFO/DEBUG logging).  See :mod:`repro.cli` and docs/observability.md.
"""

from __future__ import annotations

import logging
import os
import sys
from pathlib import Path
from typing import Any, Dict, Optional

from .trace import PhaseStat, Span, Tracer, trace
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, metrics
from .export import (
    SCHEMA_VERSION,
    chrome_trace,
    metrics_table,
    phase_table,
    write_chrome_trace,
)
from .recorder import (
    FlightRecorder,
    crash_report,
    flight_recorder,
    write_crash_report,
)

#: the flight recorder is the always-on tier: importing repro.obs is
#: enough to start retaining the last-N spans for crash diagnosis
trace.set_recorder(flight_recorder.record_span)

__all__ = [
    "SCHEMA_VERSION",
    "Span",
    "PhaseStat",
    "Tracer",
    "trace",
    "span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics",
    "chrome_trace",
    "write_chrome_trace",
    "phase_table",
    "metrics_table",
    "FlightRecorder",
    "flight_recorder",
    "crash_report",
    "write_crash_report",
    "snapshot",
    "reset",
    "configure_logging",
    "SpanContextFilter",
    "telemetry_dir",
]


def span(name: str, /, **attributes: Any) -> Span:
    """Shorthand for ``trace.span(...)`` on the global tracer."""
    return trace.span(name, **attributes)


def snapshot() -> Dict[str, Any]:
    """One JSON-serializable view of everything observed so far."""
    return {
        "schema_version": SCHEMA_VERSION,
        "phases": trace.phase_stats(),
        "metrics": metrics.snapshot(),
    }


def reset() -> None:
    """Drop all recorded spans and metrics (tests, bench isolation)."""
    trace.clear()
    metrics.reset()


def telemetry_dir(flag: Optional[str] = None) -> Optional[Path]:
    """Resolve the telemetry directory: CLI flag wins, then the
    ``REPRO_TELEMETRY_DIR`` environment variable; ``None`` = disabled.
    It lives here, not in :mod:`repro.obs.session`, so a request with
    telemetry off never imports the session module."""
    if flag:
        return Path(flag)
    env = os.environ.get("REPRO_TELEMETRY_DIR", "").strip()
    return Path(env) if env else None


#: marker attribute so repeated configure_logging calls don't stack handlers
_HANDLER_FLAG = "_repro_obs_handler"


class SpanContextFilter(logging.Filter):
    """Stamp every log record with the active span (``name#id``).

    This is the log/trace correlation layer: a ``-vv`` DEBUG line
    emitted inside ``buildcache.fetch`` renders as
    ``... [buildcache.fetch#42] ...``, and span 42 is findable in the
    flight recorder's ring, the Chrome trace, and crash reports.
    Records logged outside any span get ``-``.
    """

    def filter(self, record: logging.LogRecord) -> bool:
        current = trace.current_span()
        record.span = f"{current.name}#{current.id}" if current else "-"
        return True


def configure_logging(verbosity: int = 0, stream=None) -> logging.Logger:
    """Wire the package's stdlib loggers to stderr.

    ``verbosity`` 0 keeps the default (WARNING — silent in normal
    operation), 1 (``-v``) shows INFO progress lines, 2+ (``-vv``)
    shows DEBUG detail.  Idempotent: re-configuring adjusts the level
    on the existing handler instead of adding another.  Every record
    carries the active span as ``%(span)s`` (see
    :class:`SpanContextFilter`) so verbose output lines up with traces.
    """
    level = (
        logging.WARNING if verbosity <= 0
        else logging.INFO if verbosity == 1
        else logging.DEBUG
    )
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    handler: Optional[logging.Handler] = None
    for existing in logger.handlers:
        if getattr(existing, _HANDLER_FLAG, False):
            handler = existing
            break
    if handler is None:
        handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s [%(span)s]: %(message)s")
        )
        handler.addFilter(SpanContextFilter())
        setattr(handler, _HANDLER_FLAG, True)
        logger.addHandler(handler)
    handler.setLevel(level)
    return logger

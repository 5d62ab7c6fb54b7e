"""Run one ``python -m repro`` request with its layer calls timed.

Usage::

    python perfbench/traced.py RECORD.json -- spec --splice "mfem ^mpiabi" ...

The request behaves exactly like ``python -m repro <args>`` (same
arguments, output and exit code).  Around it, this wrapper times
``import repro.cli`` and every call listed in ``layers.TIMED_CALLS``
from the outside — no span is added inside the program — and writes one
JSON record to ``RECORD.json`` at exit:

* ``self_s``: per layer metric, the summed self time of its calls (a
  call's duration minus the calls nested inside it), so the values add
  up to ``top_s``;
* ``top_s``: the summed duration of the outermost timed calls (the
  import included); the client subtracts it from the request's wall
  time to get ``cli.unattributed_s``;
* ``counts``: call counts and the counters read from return values;
* ``built``: the names of the specs built from source.
"""

import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import IMPORT_METRIC, TIMED_CALLS  # noqa: E402


class Tracer:
    """Self-time bookkeeping for the calls of one thread.

    Each open call keeps a one-element list accumulating the time of
    the calls nested inside it; on return, the call's duration minus
    that nested time is its self time.
    """

    def __init__(self):
        self.thread = threading.get_ident()
        self.open_calls = []
        self.self_s = {}
        self.counts = {}
        self.top_s = 0.0
        self.built = []

    def add(self, metric, self_time, duration):
        self.self_s[metric] = self.self_s.get(metric, 0.0) + self_time
        if self.open_calls:
            self.open_calls[-1][0] += duration
        else:
            self.top_s += duration

    def count(self, metric, amount=1):
        self.counts[metric] = self.counts.get(metric, 0) + amount

    def wrap(self, metric, fn, call_count, on_return):
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if threading.get_ident() != tracer.thread:
                return fn(*args, **kwargs)
            nested = [0.0]
            tracer.open_calls.append(nested)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if metric == "buildcache.http_s":
                    tracer.count("buildcache.http_errors")
                raise
            finally:
                duration = time.perf_counter() - start
                tracer.open_calls.pop()
                tracer.add(metric, duration - nested[0], duration)
                if call_count:
                    tracer.count(call_count)
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        return timed

    def record(self):
        return {
            "self_s": self.self_s,
            "top_s": self.top_s,
            "counts": self.counts,
            "built": self.built,
        }


def _fetched(tracer, args, payload):
    tracer.count("buildcache.fetched_bytes", payload.size)


def _solved(tracer, args, result):
    stats = result.stats
    tracer.counts["concretize.reusable_nodes"] = int(stats["reusable_nodes"])
    tracer.counts["asp.atoms"] = int(stats["atoms"])
    tracer.counts["asp.ground_rules"] = int(stats["ground_rules"])
    tracer.counts["asp.sat_conflicts"] = int(stats["sat_conflicts"])
    tracer.counts["asp.sat_decisions"] = int(stats["sat_decisions"])
    tracer.counts["asp.models_seen"] = int(stats["models_seen"])


def _built(tracer, args, artifacts):
    tracer.built.append(args[1].name)  # Builder.build(self, spec, ...)


def _saved(tracer, args, _result):
    tracer.counts["installer.db_records"] = len(args[0])  # Database.save(self)


def _installed(tracer, args, report):
    tracer.count("installer.nodes_extracted", len(report.extracted))
    tracer.count("installer.nodes_rewired", len(report.rewired))


#: counters read from a timed call's arguments or return value
ON_RETURN = {
    "BuildCache.fetch": _fetched,
    "Concretizer.solve_all": _solved,
    "Builder.build": _built,
    "Database.save": _saved,
    "Installer.install_all": _installed,
}


def install(tracer):
    """Wrap every call in ``TIMED_CALLS``.

    A method is replaced on its class.  A module-level function is
    replaced in every loaded ``repro`` module that imported it by name.
    """
    for metric, module_name, attribute, call_count in TIMED_CALLS:
        module = importlib.import_module(module_name)
        hook = ON_RETURN.get(attribute)
        if "." in attribute:
            class_name, method_name = attribute.split(".")
            cls = getattr(module, class_name)
            original = cls.__dict__[method_name]
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    tracer.wrap(metric, original.__func__, call_count, hook)
                )
            else:
                wrapped = tracer.wrap(metric, original, call_count, hook)
            setattr(cls, method_name, wrapped)
            continue
        original = getattr(module, attribute)
        wrapped = tracer.wrap(metric, original, call_count, hook)
        for name, loaded in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and getattr(loaded, attribute, None) is original:
                setattr(loaded, attribute, wrapped)


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: traced.py RECORD.json -- <repro arguments>\n")
        return 2
    record_path, repro_args = Path(argv[0]), argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - start
    tracer.add(IMPORT_METRIC, import_s, import_s)
    install(tracer)
    try:
        return repro.cli.main(repro_args)
    finally:
        record_path.write_text(json.dumps(tracer.record(), sort_keys=True))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

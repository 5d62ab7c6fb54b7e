#!/usr/bin/env python3
"""Per-invocation CLI benchmark of the ``repro`` package manager.

Run from the repository root::

    python3 perfbench/run.py --workload splice-solve --seed 1 --seconds 45 --trace 0

One closed-loop client sends one request at a time.  Every request is a
fresh ``python -m repro ...`` process, timed from spawn to exit, so each
starts from the same import and GC state, and pinned to the next vCPU
in turn.  Each run builds its fixture with the code under test
(``fixture.py``, several times: ``setup_s`` is the median), sends one
untimed warm-up request, then the measured requests, and checks every
request's output against hand-written expectations.  The fixture is the
same for every seed; ``--seed`` sets the order of the splice-solve
requests.  With ``--trace 1`` half as many requests are planned and each
runs twice, once plain and once under ``traced.py``, which times the
layer calls from the outside; the per-layer metrics are medians over the
traced copies.  ``README.md`` describes the workloads and the metrics.

The last line of standard output is the result JSON; run records (with
the host probe) are appended to ``<out>/runs.jsonl`` and a traced run
writes ``<out>/perfbench-<workload>.json``, which ``repro obs
bench-diff`` compares layer by layer.
"""

import argparse
import ast
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import SELF_TIME_METRICS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"


def declared_metrics():
    """The end-to-end (``--trace 0``) and per-layer (``--trace 1``)
    metrics, each a dict of name to unit in report order, as
    ``BENCHMARK.json`` declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [{m["name"]: m["unit"] for m in doc[key]}
            for key in ("end_to_end", "per_layer")]


END_TO_END, PER_LAYER = declared_metrics()

WORKLOADS = ("splice-solve", "install-http", "install-shared-store")

#: measured cost of one request at the default scale on the reference
#: host (2-vCPU Xeon VM).  It converts --seconds into a request count,
#: so the count, and with it the tail percentile, depends on --seconds
#: alone and never on how fast the host happens to be.
NOMINAL_REQUEST_S = {
    "splice-solve": 1.25,
    "install-http": 0.8,
    "install-shared-store": 0.48,
}

#: the vCPUs request processes are pinned to, in turn.  Left alone, the
#: kernel runs every request on the same vCPU, and each vCPU's speed
#: drifts on its own, so a run would sample the drift of one vCPU only.
CPUS = sorted(os.sched_getaffinity(0))

#: public-cache configurations (``vary_configurations`` count)
DEFAULT_PUBLIC_SPECS = 100
#: fixture builds per run; ``setup_s`` is their median
SETUPS = 3
#: length of the work directory's absolute path.  Payloads embed the
#: fixture's paths, so byte counts repeat across checkouts only if those
#: paths keep their length; the directory name is padded to reach it.
WORK_PATH_LENGTH = 160

REQUEST_TIMEOUT_S = 60.0
FIXTURE_TIMEOUT_S = 150.0
SERVER_START_TIMEOUT_S = 30.0
#: the tail is the highest percentile with this many requests above it
TAIL_BEYOND = 10

#: hand-written output expectations; never values read back from the
#: program under test.  The install counts hold for the 32-root lock at
#: any seed: 31 public nodes extracted, the 21 nodes depending on MPI
#: rewired onto mpiabi, and mpiabi alone built from source.
EXPECT = {
    "splice-solve": {"to_build": ["mpiabi"]},
    "install-http": {"built": 1, "extracted": 31, "rewired": 21},
    "install-shared-store": {"built": 1, "extracted": 0, "rewired": 21},
}

SUMMARY = re.compile(r"built=(\d+) extracted=(\d+) rewired=(\d+)")
SPLICE_LINE = "to splice (relink, no rebuild): "


class BenchError(RuntimeError):
    """The benchmark could not set up or run a workload."""


def request_env():
    """The environment of every process the benchmark starts: no
    ``REPRO_*`` variable, so the program runs its defaults whatever the
    caller's shell holds, and a fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def host_probe():
    """Median time in ms of a fixed pure-Python loop over ~0.5 s: a
    diagnostic that tells host drift from a program change."""
    samples = []
    end = time.perf_counter() + 0.5
    while time.perf_counter() < end:
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def src_digest():
    """sha256 over the program's source files: which code was measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def stop(proc):
    """Terminate a child process and wait until it has ended."""
    if proc is None or proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def build_fixture(workload, public_specs, directory, env):
    cmd = [
        sys.executable, str(HERE / "fixture.py"), "--workload", workload,
        "--public-specs", str(public_specs), "--dir", str(directory),
    ]
    try:
        result = subprocess.run(
            cmd, capture_output=True, text=True, env=env, cwd=directory.parent,
            stdin=subprocess.DEVNULL, timeout=FIXTURE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"fixture build exceeded {FIXTURE_TIMEOUT_S}s") from None
    if result.returncode != 0:
        raise BenchError(f"fixture build failed: {result.stderr.strip()[-2000:]}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def start_server(cache, directory, env):
    """``repro buildcache serve --read-only`` on an ephemeral loopback
    port; returns the process and the URL it printed."""
    log = directory / "serve.out"
    with open(log, "wb") as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "buildcache", "serve", cache,
             "--port", "0", "--read-only"],
            stdout=out, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            env=env, cwd=directory,
        )
    deadline = time.perf_counter() + SERVER_START_TIMEOUT_S
    while True:
        text = log.read_text(errors="replace")
        match = re.search(r" at (http://\S+)", text)
        if match:
            return proc, match.group(1)
        if proc.poll() is not None or time.perf_counter() > deadline:
            stop(proc)
            raise BenchError(f"buildcache server did not start: {text.strip()}")
        time.sleep(0.01)


def spawn(cmd, output, cwd, env, cpu):
    """Run one request process on vCPU ``cpu``; return (wall seconds,
    exit code, max-RSS in MB), the RSS from the child's own rusage."""
    with open(output, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=out, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            cwd=cwd, env=env,
        )
        try:
            os.sched_setaffinity(proc.pid, {cpu})
        except ProcessLookupError:
            pass  # it has already ended
        timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def request_plan(workload, fixture, seed, seconds):
    """The measured requests, in order.  A splice-solve run is whole
    cycles over the MPI roots, each cycle a seeded permutation, so every
    run sends the same mix; install requests are all the same lock."""
    rng = random.Random(seed)
    if workload == "splice-solve":
        roots = list(fixture["mpi_roots"])
        cycle_s = NOMINAL_REQUEST_S[workload] * len(roots)
        order = []
        for _ in range(max(1, round(seconds / cycle_s))):
            rng.shuffle(roots)
            order.extend(roots)
        return order
    return [None] * max(2, round(seconds / NOMINAL_REQUEST_S[workload]))


class Client:
    """Sends one workload's requests, checks and resets around them."""

    def __init__(self, workload, fixture, work, env):
        self.workload = workload
        self.fixture = fixture
        self.work = work
        self.env = env
        self.seed_bytes = fixture["seed_store"].encode()
        self.sent = 0
        if workload == "install-http":
            self.store = work / "store"
        elif workload == "install-shared-store":
            self.store = Path(fixture["store"])
            self.baseline = set(os.listdir(self.store))
            self.baseline_db = (self.store / "db.json").read_bytes()
        else:
            self.store = None

    def repro_args(self, item):
        if self.workload == "splice-solve":
            return ["spec", "--splice", f"{item} ^mpiabi",
                    "--mirror", self.fixture["cache"]]
        mirror = (self.fixture["url"] if self.workload == "install-http"
                  else self.fixture["cache"])
        return ["env", "install", "--env", self.fixture["env"],
                "--store", str(self.store), "--mirror", mirror]

    def send(self, item, traced):
        """One request: reset, timed run, output check (only the run is
        timed).  Returns the request's result dict."""
        self.sent += 1
        output = self.work / f"request-{self.sent}.out"
        record_path = self.work / f"request-{self.sent}.json"
        if self.workload == "install-http":
            shutil.rmtree(self.store, ignore_errors=True)
        # flush earlier writes (resets, checks) so their writeback does
        # not land inside the timed request
        os.sync()
        if traced:
            cmd = [sys.executable, str(HERE / "traced.py"), str(record_path), "--"]
        else:
            cmd = [sys.executable, "-m", "repro"]
        wall, code, rss_mb = spawn(
            cmd + self.repro_args(item), output, self.work, self.env,
            CPUS[self.sent % len(CPUS)],
        )
        text = output.read_text(errors="replace")
        record = None
        if traced and record_path.is_file():
            try:
                record = json.loads(record_path.read_text())
            except ValueError:
                pass  # a request killed mid-write: reported below
        problems = [] if code == 0 else [f"exit code {code}"]
        if traced and record is None:
            problems.append("no trace record")
        problems += self.check(item, text, record)
        if self.workload == "install-shared-store":
            self.restore()
        output.unlink()
        if record is not None:
            record_path.unlink()
        return {"item": item, "traced": traced, "wall": wall, "exit": code,
                "rss_mb": rss_mb, "problems": problems, "record": record}

    def check(self, item, text, record):
        expect = EXPECT[self.workload]
        lines = text.splitlines()
        if self.workload == "splice-solve":
            problems = []
            if f"to build: {expect['to_build']!r}" not in lines:
                problems.append(f"to build is not {expect['to_build']}")
            spliced = []
            for line in lines:
                if line.startswith(SPLICE_LINE):
                    try:
                        spliced = ast.literal_eval(line[len(SPLICE_LINE):])
                    except (ValueError, SyntaxError):
                        pass  # reported as a missing splice below
            if item not in spliced:
                problems.append(f"{item} is not in the splice list")
            return problems
        match = SUMMARY.search(text)
        if match is None:
            return ["no install summary"]
        found = dict(zip(("built", "extracted", "rewired"), map(int, match.groups())))
        problems = [f"{key}={found[key]}, expected {value}"
                    for key, value in expect.items() if found[key] != value]
        installed = self.installed_prefixes()
        if not any(name.startswith("mpiabi-") for name in installed):
            problems.append("mpiabi was not installed")
        if record is not None and record["built"] != ["mpiabi"]:
            problems.append(f"built from source: {record['built']}")
        problems += self.unrelocated(installed)
        return problems

    def installed_prefixes(self):
        """The prefixes this request created."""
        names = set(os.listdir(self.store)) - {"db.json"}
        if self.workload == "install-shared-store":
            names -= self.baseline
        return sorted(names)

    def unrelocated(self, prefixes):
        """Files still naming the set-up's seed store: relocation left
        a reference behind."""
        leaks = []
        for name in prefixes:
            for path in sorted((self.store / name).rglob("*")):
                if path.is_file() and self.seed_bytes in path.read_bytes():
                    leaks.append(str(path.relative_to(self.store)))
        return [f"seed-store path left in {', '.join(leaks[:5])}"] if leaks else []

    def restore(self):
        """Return the shared store to its set-up state."""
        for name in set(os.listdir(self.store)) - self.baseline:
            path = self.store / name
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()
        (self.store / "db.json").write_bytes(self.baseline_db)


def tail(values):
    """(value, percentile) of the highest percentile with at least
    ``TAIL_BEYOND`` values above it; the maximum for short runs."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(results, setup_times):
    """The end-to-end metrics of an untraced run.  A failed request
    counts as missing any latency limit: its latency is the timeout."""
    latencies = [REQUEST_TIMEOUT_S if r["problems"] else r["wall"] for r in results]
    failed = sum(1 for r in results if r["problems"])
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "success_share": (len(results) - failed) / len(results),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
        "setup_s": statistics.median(setup_times),
    }
    return metrics, {"tail_percentile": tail_pct}


def layer_values(result):
    """One traced request's per-layer values: self times, the wall time
    no timed call covers, and counts."""
    record = result["record"]
    values = {"wall_s": result["wall"]}
    values.update((m, record["self_s"].get(m, 0.0)) for m in SELF_TIME_METRICS)
    values["cli.unattributed_s"] = result["wall"] - record["top_s"]
    for metric, unit in PER_LAYER.items():
        if unit != "s" and metric != "failure_share":
            values[metric] = record["counts"].get(metric, 0)
    return values


def per_layer(results):
    """The per-layer metrics of a traced run: medians over the traced
    requests, plus tracing overhead and the failure share."""
    traced = [r for r in results if r["traced"] and r["record"] is not None]
    plain = [r["wall"] for r in results if not r["traced"]]
    rows = [layer_values(r) for r in traced]
    metrics = {}
    for metric, unit in PER_LAYER.items():
        if not rows or metric not in rows[0]:
            metrics[metric] = 0.0
        elif unit == "s":
            metrics[metric] = statistics.median(row[metric] for row in rows)
        else:  # a count: report one that was observed
            metrics[metric] = statistics.median_low(row[metric] for row in rows)
    if traced and plain:
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall"] for r in traced) - statistics.median(plain)
        )
    failed = sum(1 for r in results if r["problems"])
    metrics["failure_share"] = failed / len(results)
    return metrics, rows


def bench_rows(workload, metrics, provenance, requests):
    """``repro obs bench-diff`` rows: label = workload, phase = metric;
    seconds in ``median_s``, counts in ``count``."""
    rows = []
    for metric, unit in PER_LAYER.items():
        if unit == "s":
            rows.append({"label": workload, "phase": metric,
                         "median_s": metrics[metric], "requests": requests})
        else:
            rows.append({"label": workload, "phase": metric,
                         "count": metrics[metric], "unit": unit})
    return {
        "figure": f"perfbench-{workload}",
        "title": f"perfbench per-layer medians, {workload}",
        "provenance": provenance,
        "rows": rows,
    }


def measure(args, work, env):
    """Set up, warm up and send the measured requests; returns the
    result dict and the run record."""
    probe_before = host_probe()
    setup_times, setup_phases, fixture, server = [], [], None, None
    try:
        for i in range(SETUPS):
            directory = work / f"setup-{i}"
            directory.mkdir(parents=True)
            os.sync()
            start = time.perf_counter()
            fixture = build_fixture(args.workload, args.public_specs, directory, env)
            if args.workload == "install-http":
                server, fixture["url"] = start_server(fixture["cache"], directory, env)
            setup_times.append(time.perf_counter() - start)
            setup_phases.append(fixture["phases"])
            if i < SETUPS - 1:
                stop(server)
                server = None
                shutil.rmtree(directory)
        requests_dir = work / "requests"
        requests_dir.mkdir()
        client = Client(args.workload, fixture, requests_dir, env)
        # a traced run sends every item twice, so it plans half as many
        order = request_plan(args.workload, fixture, args.seed,
                             args.seconds / 2 if args.trace else args.seconds)
        warmup = client.send(order[0], traced=False)
        results = []
        start = time.perf_counter()
        for index, item in enumerate(order):
            # a traced run alternates which copy goes first
            copies = [False] if not args.trace else (
                [False, True] if index % 2 == 0 else [True, False])
            for traced in copies:
                results.append(client.send(item, traced))
        measured_s = time.perf_counter() - start
    finally:
        stop(server)
    probe_after = host_probe()
    if args.trace:
        metrics, rows = per_layer(results)
        extra = {}
    else:
        metrics, extra = end_to_end(results, setup_times)
    failed = [r for r in results if r["problems"]]
    run = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "public_specs": args.public_specs,
        "public_roots": fixture["public_roots"],
        "cache_entries": fixture["cache_entries"],
        "requests": len(results),
        "measured_s": measured_s,
        "walls_s": [r["wall"] for r in results],
        "setup_times_s": setup_times,
        "setup_phases_s": setup_phases,
        "warmup_problems": warmup["problems"],
        "failures": [(r["item"], r["problems"]) for r in failed[:5]],
        "host_probe_ms": {"before": probe_before, "after": probe_after},
        "metrics": metrics,
        **extra,
    }
    result = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in (PER_LAYER if args.trace else END_TO_END).items()
        },
    }
    if args.trace:
        run["layer_rows"] = rows
    return result, run


def provenance(args):
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "hostname": platform.node(),
        "python": platform.python_version(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "public_specs": args.public_specs,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--public-specs", type=int, default=DEFAULT_PUBLIC_SPECS,
        help="public-cache configurations (default %(default)s)",
    )
    parser.add_argument(
        "--out", type=Path, default=ROOT / ".bench_out",
        help="directory for run records, trace rows and scratch space "
             "(default .bench_out)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.public_specs < 0:
        parser.error("--seconds must be positive, --public-specs not negative")
    return args


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    out = args.out.resolve()
    work = out / f"work-{os.getpid():07d}-"
    work = work.with_name(work.name + "x" * (WORK_PATH_LENGTH - len(str(work))))
    work.mkdir(parents=True, exist_ok=True)
    try:
        result, run = measure(args, work, request_env())
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    prov = provenance(args)
    run["provenance"] = prov
    with open(out / "runs.jsonl", "a") as runs:
        runs.write(json.dumps(run, sort_keys=True) + "\n")
    if args.trace:
        rows_path = out / f"perfbench-{args.workload}.json"
        rows_path.write_text(json.dumps(
            bench_rows(args.workload, run["metrics"], prov, run["requests"]),
            indent=1, sort_keys=True,
        ))
    for name, metric in result["metrics"].items():
        print(f"{name:28s} {metric['value']:>14.6g} {metric['unit']}")
    probe = run["host_probe_ms"]
    print(f"host probe: {probe['before']:.2f} ms before, {probe['after']:.2f} ms "
          f"after; {run['requests']} requests in {run['measured_s']:.1f}s")
    for item, problems in run["failures"]:
        print(f"failed {item}: {'; '.join(problems)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

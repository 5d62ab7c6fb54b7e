"""Session-sink tests: append/rotate/read, resolution, aggregation."""

import json
import os

import pytest

from repro.obs.session import (
    SESSIONS_FILE,
    aggregate_sessions,
    append_session,
    diff_text,
    metrics_delta,
    phase_delta,
    read_sessions,
    report_text,
    resolve_session,
    session_record,
    session_text,
    telemetry_dir,
)


def make_record(command="spec", outcome="ok", wall_s=0.5, phases=None,
                counters=None, error=None, exit_code=0):
    return session_record(
        command=command,
        argv=[command, "zlib"],
        exit_code=exit_code,
        wall_s=wall_s,
        outcome=outcome,
        error=error,
        phases=phases if phases is not None else {},
        metrics_snapshot={
            "counters": counters or {}, "gauges": {}, "histograms": {}
        },
    )


class TestTelemetryDir:
    def test_flag_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "env"))
        assert telemetry_dir(str(tmp_path / "flag")).name == "flag"

    def test_env_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "env"))
        assert telemetry_dir(None).name == "env"

    def test_unset_means_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY_DIR", raising=False)
        assert telemetry_dir(None) is None


class TestRecord:
    def test_shape_and_serializability(self):
        record = make_record(phases={"asp.solve": {
            "count": 1, "total_s": 0.2, "mean_s": 0.2, "min_s": 0.2, "max_s": 0.2}})
        for key in ("schema_version", "id", "ts", "iso_time", "host",
                    "command", "argv", "argv_digest", "exit_code",
                    "outcome", "wall_s", "phases", "metrics"):
            assert key in record, key
        assert record["kind"] == "session"
        json.dumps(record)

    def test_error_field_only_when_set(self):
        assert "error" not in make_record()
        assert make_record(error="RuntimeError", outcome="crash")["error"] == \
            "RuntimeError"

    def test_ids_are_distinct(self):
        assert make_record()["id"] != make_record()["id"]


class TestAppendAndRead:
    def test_append_creates_jsonl(self, tmp_path):
        path = append_session(tmp_path, make_record())
        assert path.name == SESSIONS_FILE
        [session] = read_sessions(tmp_path)
        assert session["command"] == "spec"

    def test_appends_accumulate_in_order(self, tmp_path):
        for i in range(5):
            append_session(tmp_path, make_record(wall_s=float(i)))
        walls = [s["wall_s"] for s in read_sessions(tmp_path)]
        assert walls == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_rotation_at_cap(self, tmp_path):
        # a tiny cap: the third append must rotate the first two out
        line_size = len(json.dumps(make_record(), sort_keys=True)) + 1
        cap = int(line_size * 2.5)
        for _ in range(3):
            append_session(tmp_path, make_record(), max_bytes=cap)
        assert (tmp_path / (SESSIONS_FILE + ".1")).exists()
        live = (tmp_path / SESSIONS_FILE).read_text().splitlines()
        assert len(live) == 1
        # rotated records still readable, oldest first
        assert len(read_sessions(tmp_path)) == 3
        assert len(read_sessions(tmp_path, include_rotated=False)) == 1

    def test_rotation_caps_total_disk(self, tmp_path):
        cap = 4096
        record = make_record()
        for _ in range(50):
            append_session(tmp_path, record, max_bytes=cap)
        total = sum(
            p.stat().st_size for p in tmp_path.iterdir() if p.is_file()
        )
        line = len(json.dumps(record, sort_keys=True)) + 1
        assert total <= 2 * cap + line

    def test_corrupt_lines_skipped(self, tmp_path):
        append_session(tmp_path, make_record())
        with open(tmp_path / SESSIONS_FILE, "a") as fh:
            fh.write('{"torn": \n')
        append_session(tmp_path, make_record())
        assert len(read_sessions(tmp_path)) == 2

    def test_non_session_documents_ignored(self, tmp_path):
        with open(tmp_path / SESSIONS_FILE, "w") as fh:
            fh.write(json.dumps({"kind": "other"}) + "\n")
            fh.write(json.dumps(["not", "a", "dict"]) + "\n")
        assert read_sessions(tmp_path) == []

    def test_missing_dir_reads_empty(self, tmp_path):
        assert read_sessions(tmp_path / "ghost") == []

    def test_line_is_single_json_document(self, tmp_path):
        append_session(tmp_path, make_record())
        [line] = (tmp_path / SESSIONS_FILE).read_text().splitlines()
        json.loads(line)


class TestResolve:
    #: pinned ids: the third starts with eight digits (as about 2.3 % of
    #: real ids do), the first with an in-range index, none with "99"
    IDS = ("3f0c2a9e1d7b", "a41be07f9c2d", "90612361c0fe", "e5d4c3b2a190")

    def _sessions(self):
        sessions = [make_record(wall_s=float(i)) for i in range(len(self.IDS))]
        for record, session_id in zip(sessions, self.IDS):
            record["id"] = session_id
        return sessions

    def test_last_and_index(self):
        sessions = self._sessions()
        assert resolve_session(sessions, "last") is sessions[-1]
        assert resolve_session(sessions, "0") is sessions[0]
        assert resolve_session(sessions, "-2") is sessions[-2]

    def test_id_prefix(self):
        sessions = self._sessions()
        target = sessions[1]
        assert resolve_session(sessions, target["id"][:8]) is target

    def test_all_digit_id_prefix(self):
        sessions = self._sessions()
        assert resolve_session(sessions, "90612361") is sessions[2]

    def test_in_range_index_is_not_an_id_prefix(self):
        sessions = self._sessions()
        assert resolve_session(sessions, "3") is sessions[3]

    def test_errors_are_lookup_errors(self):
        sessions = self._sessions()
        with pytest.raises(LookupError):
            resolve_session(sessions, "zzzzzz")
        with pytest.raises(LookupError):
            resolve_session(sessions, "99")
        with pytest.raises(LookupError):
            resolve_session([], "last")


class TestDeltas:
    def test_phase_delta_subtracts(self):
        before = {"asp.solve": {"count": 2, "total_s": 1.0, "mean_s": 0.5,
                                "min_s": 0.4, "max_s": 0.6}}
        after = {
            "asp.solve": {"count": 5, "total_s": 4.0, "mean_s": 0.8,
                          "min_s": 0.4, "max_s": 1.2},
            "asp.ground": {"count": 1, "total_s": 0.5, "mean_s": 0.5,
                           "min_s": 0.5, "max_s": 0.5},
        }
        delta = phase_delta(before, after)
        assert delta["asp.solve"]["count"] == 3
        assert delta["asp.solve"]["total_s"] == pytest.approx(3.0)
        assert delta["asp.solve"]["mean_s"] == pytest.approx(1.0)
        assert delta["asp.ground"]["count"] == 1

    def test_phase_delta_drops_untouched(self):
        stats = {"count": 1, "total_s": 0.1, "mean_s": 0.1,
                 "min_s": 0.1, "max_s": 0.1}
        assert phase_delta({"old.op": stats}, {"old.op": stats}) == {}

    def test_metrics_delta_counters_only(self):
        before = {"counters": {"buildcache.hits": 3}, "gauges": {},
                  "histograms": {}}
        after = {"counters": {"buildcache.hits": 5, "buildcache.misses": 2},
                 "gauges": {"g": 1.0}, "histograms": {}}
        delta = metrics_delta(before, after)
        assert delta["counters"] == {"buildcache.hits": 2,
                                     "buildcache.misses": 2}
        assert delta["gauges"] == {"g": 1.0}


class TestAggregation:
    def _fleet(self):
        solve = lambda t: {"asp.solve": {"count": 1, "total_s": t,
                                         "mean_s": t, "min_s": t, "max_s": t}}
        return [
            make_record("install", wall_s=1.0, phases=solve(0.5),
                        counters={"buildcache.hits": 8,
                                  "buildcache.misses": 2}),
            make_record("install", wall_s=2.0, phases=solve(1.5),
                        counters={"buildcache.hits": 2,
                                  "buildcache.misses": 8,
                                  "buildcache.mirror_hits": 5,
                                  "buildcache.mirror_misses": 5,
                                  "buildcache.mirror_fallbacks": 1}),
            make_record("install", wall_s=3.0, phases=solve(2.5)),
            make_record("spec", wall_s=0.5, outcome="crash",
                        error="RuntimeError", exit_code=2),
        ]

    def test_per_command_percentiles(self):
        agg = aggregate_sessions(self._fleet())
        install = agg["commands"]["install"]
        assert install["runs"] == 3
        assert install["wall"]["p50_s"] == pytest.approx(2.0)
        assert install["wall"]["p95_s"] == pytest.approx(3.0)
        solve = install["phases"]["asp.solve"]
        assert solve["p50_s"] == pytest.approx(1.5)
        assert solve["p95_s"] == pytest.approx(2.5)

    def test_rates(self):
        agg = aggregate_sessions(self._fleet())
        assert agg["rates"]["cache_hit_rate"] == pytest.approx(0.5)
        assert agg["rates"]["mirror_hit_rate"] == pytest.approx(0.5)
        assert agg["rates"]["mirror_fallback_rate"] == pytest.approx(0.1)

    def test_error_taxonomy(self):
        agg = aggregate_sessions(self._fleet())
        assert agg["errors"] == {"RuntimeError": 1}

    def test_report_text_contains_everything(self):
        text = report_text(self._fleet())
        assert "install" in text and "spec" in text
        assert "wall_p50_ms" in text and "wall_p95_ms" in text
        assert "asp.solve" in text
        assert "cache_hit_rate" in text
        assert "RuntimeError" in text

    def test_report_text_empty(self):
        assert "no recorded sessions" in report_text([])


class TestRenderers:
    def test_session_text(self):
        record = make_record(phases={"asp.solve": {
            "count": 2, "total_s": 0.4, "mean_s": 0.2, "min_s": 0.1,
            "max_s": 0.3}})
        text = session_text(record)
        assert record["id"] in text
        assert "asp.solve" in text and "total_ms" in text

    def test_diff_text_deltas(self):
        mk = lambda t: make_record(phases={"asp.solve": {
            "count": 1, "total_s": t, "mean_s": t, "min_s": t, "max_s": t}})
        text = diff_text(mk(0.1), mk(0.3))
        assert "asp.solve" in text
        assert "+200.0" in text

    def test_diff_text_phase_only_on_one_side(self):
        a = make_record(phases={"only.a": {"count": 1, "total_s": 0.1,
                                           "mean_s": 0.1, "min_s": 0.1,
                                           "max_s": 0.1}})
        b = make_record(phases={})
        text = diff_text(a, b)
        assert "only.a" in text and "-100.0" in text

"""The networked cache pair: ``HTTPBackend`` against a live
``repro buildcache serve`` process.

Covers the wire protocol (ETag/304, ranges, read-only refusal, the
transient-fault taxonomy), the warm-refresh efficiency criterion (an
unchanged served mirror costs exactly one conditional GET per
``refresh()``), mirror-entry parsing, and end-to-end parity: installs
through ``http://`` mirrors must be byte-identical to local-cache
installs, including under concurrent clients and injected faults.
"""

import hashlib
import http.client
import json
import socket
import threading

import pytest

import repro.obs as obs
from repro.buildcache import (
    BuildCache,
    HTTPBackend,
    MissingBlobError,
    ReadOnlyBackendError,
    TransientBackendError,
    MirrorGroup,
)
from repro.buildcache.server import start_server
from repro.cli import CLIError, _parse_mirror, main
from repro.concretize import Concretizer
from repro.installer import Installer
from repro.obs import metrics
from repro.repos.mock import make_mock_repo

from .test_mirrors import make_cache, tree_digest


@pytest.fixture()
def repo():
    return make_mock_repo()


@pytest.fixture()
def spec(repo):
    return Concretizer(repo).solve(["example@1.1.0 ^mpich@3.4.3"]).roots[0]


@pytest.fixture()
def served(repo, spec, tmp_path):
    """A populated buildcache directory behind a live HTTP server."""
    make_cache(repo, spec, tmp_path / "pub", "pub", tmp_path / "seed")
    server = start_server(tmp_path / "pub")
    yield server
    server.shutdown()
    server.server_close()


def raw_get(server, path, headers=None):
    """One plain-stdlib request, bypassing HTTPBackend entirely."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


class TestParseMirror:
    def test_plain_path(self):
        assert _parse_mirror("/some/dir") == (None, "/some/dir", False)

    def test_labeled_path_read_only(self):
        assert _parse_mirror("pub=/some/dir:ro") == ("pub", "/some/dir", True)

    def test_url_with_query_is_not_split_on_equals(self):
        """The scheme-awareness regression: the '=' inside the query
        string must not become a label split."""
        assert _parse_mirror("http://h/p?a=b") == (None, "http://h/p?a=b", False)

    def test_url_keeps_its_port(self):
        assert _parse_mirror("http://h:8080/p") == (
            None, "http://h:8080/p", False,
        )

    def test_url_trailing_ro_with_port(self):
        assert _parse_mirror("http://h:8080/p:ro") == (
            None, "http://h:8080/p", True,
        )

    def test_labeled_url(self):
        assert _parse_mirror("pub=http://h/p:ro") == ("pub", "http://h/p", True)

    def test_empty_label_rejected(self):
        with pytest.raises(CLIError, match="empty label"):
            _parse_mirror("=/some/dir")

    def test_label_without_target_rejected(self):
        with pytest.raises(CLIError, match="no path or URL"):
            _parse_mirror("pub=")

    def test_cli_exit_2_on_empty_label(self, tmp_path, capsys):
        rc = main([
            "--repo", "mock", "install", "example",
            "--store", str(tmp_path / "store"),
            "--mirror", f"={tmp_path / 'a'}",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: invalid mirror entry" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_cli_exit_2_on_label_without_target(self, tmp_path, capsys):
        rc = main([
            "--repo", "mock", "install", "example",
            "--store", str(tmp_path / "store"),
            "--mirror", "pub=",
        ])
        assert rc == 2
        assert "error: invalid mirror entry" in capsys.readouterr().err

    def test_cli_exit_2_on_invalid_url(self, tmp_path, capsys):
        rc = main([
            "--repo", "mock", "install", "example",
            "--store", str(tmp_path / "store"),
            "--mirror", "http://",
        ])
        assert rc == 2
        assert "error: invalid mirror URL" in capsys.readouterr().err


class TestServerProtocol:
    def test_index_etag_is_the_manifest_digest(self, served, tmp_path):
        digest = json.loads(
            (tmp_path / "pub" / "index.json").read_text()
        )["digest"]
        status, headers, _body = raw_get(served, "/index.json")
        assert status == 200
        assert headers["ETag"] == f'"{digest}"'

    def test_if_none_match_yields_304_with_empty_body(self, served):
        _status, headers, body = raw_get(served, "/index.json")
        status, _headers, body = raw_get(
            served, "/index.json", {"If-None-Match": headers["ETag"]}
        )
        assert status == 304
        assert body == b""

    def test_blob_etag_is_content_sha256(self, served, tmp_path):
        (tmp_path / "pub" / "blob.bin").write_bytes(b"payload")
        status, headers, _body = raw_get(served, "/blob.bin")
        assert status == 200
        assert headers["ETag"] == (
            f'"{hashlib.sha256(b"payload").hexdigest()}"'
        )

    def test_range_request_returns_206_with_content_range(
        self, served, tmp_path
    ):
        (tmp_path / "pub" / "blob.bin").write_bytes(b"0123456789")
        status, headers, body = raw_get(
            served, "/blob.bin", {"Range": "bytes=2-5"}
        )
        assert status == 206
        assert body == b"2345"
        assert headers["Content-Range"] == "bytes 2-5/10"
        assert metrics.counter(
            "buildcache.http_server_range_requests"
        ).value >= 1

    def test_suffix_range(self, served, tmp_path):
        (tmp_path / "pub" / "blob.bin").write_bytes(b"0123456789")
        status, _headers, body = raw_get(
            served, "/blob.bin", {"Range": "bytes=-3"}
        )
        assert status == 206
        assert body == b"789"

    def test_range_past_eof_is_416(self, served, tmp_path):
        (tmp_path / "pub" / "blob.bin").write_bytes(b"0123456789")
        status, headers, _body = raw_get(
            served, "/blob.bin", {"Range": "bytes=50-60"}
        )
        assert status == 416
        assert headers["Content-Range"] == "bytes */10"

    def test_read_only_server_maps_to_read_only_error(self, tmp_path):
        (tmp_path / "pub").mkdir()
        server = start_server(tmp_path / "pub", read_only=True)
        try:
            backend = HTTPBackend(server.url)
            with pytest.raises(ReadOnlyBackendError, match="read-only"):
                backend.put("k", b"v")
            with pytest.raises(ReadOnlyBackendError, match="read-only"):
                backend.append_line("journal.jsonl", b"v\n")
        finally:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize(
        "path", ["/../pub2/secret", "/%2e%2e/pub2/secret"]
    )
    def test_sibling_escape_is_400_without_bytes(self, tmp_path, path):
        """A raw request naming a sibling directory that shares the
        served root's string prefix gets a 400 and none of its bytes."""
        (tmp_path / "pub").mkdir()
        (tmp_path / "pub2").mkdir()
        (tmp_path / "pub2" / "secret").write_bytes(b"sibling-secret")
        server = start_server(tmp_path / "pub", read_only=True)
        try:
            with socket.create_connection((server.host, server.port), 10) as sock:
                sock.sendall(
                    f"GET {path} HTTP/1.1\r\nHost: {server.host}\r\n"
                    "Connection: close\r\n\r\n".encode()
                )
                response = b""
                while chunk := sock.recv(65536):
                    response += chunk
        finally:
            server.shutdown()
            server.server_close()
        assert response.startswith(b"HTTP/1.1 400 "), response[:80]
        assert b"sibling-secret" not in response

    @staticmethod
    def _send_truncated(server, request_line, declared, body):
        """Send a request whose body stops short of its declared
        ``Content-Length``, half-close, and return the raw response."""
        with socket.create_connection((server.host, server.port), 10) as sock:
            sock.sendall(
                f"{request_line} HTTP/1.1\r\nHost: {server.host}\r\n"
                f"Content-Length: {declared}\r\n\r\n".encode() + body
            )
            sock.shutdown(socket.SHUT_WR)
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
        return response

    def test_truncated_put_stores_nothing(self, tmp_path):
        """A client dying mid-upload must not publish a torn object:
        a new key stays absent, an existing one keeps its bytes."""
        (tmp_path / "pub" / "index.d").mkdir(parents=True)
        (tmp_path / "pub" / "index.d" / "cd.json").write_bytes(b'{"old": 1}')
        server = start_server(tmp_path / "pub")
        try:
            for key in ("index.d/ab.json", "index.d/cd.json"):
                response = self._send_truncated(
                    server, f"PUT /{key}", 100, b'{"torn": 1'
                )
                assert response.startswith(b"HTTP/1.1 400 "), response[:80]
        finally:
            server.shutdown()
            server.server_close()
        assert not (tmp_path / "pub" / "index.d" / "ab.json").exists()
        assert (tmp_path / "pub" / "index.d" / "cd.json").read_bytes() == (
            b'{"old": 1}'
        )
        assert sorted(p.name for p in (tmp_path / "pub" / "index.d").iterdir()) == [
            "cd.json"
        ]

    def test_truncated_append_stores_nothing(self, tmp_path):
        (tmp_path / "pub").mkdir()
        (tmp_path / "pub" / "journal.jsonl").write_bytes(b'{"a": 1}\n')
        server = start_server(tmp_path / "pub")
        try:
            response = self._send_truncated(
                server, "POST /journal.jsonl?op=append", 50, b'{"b": '
            )
            assert response.startswith(b"HTTP/1.1 400 "), response[:80]
            response = self._send_truncated(
                server, "POST /fresh.jsonl?op=append", 50, b'{"b": '
            )
            assert response.startswith(b"HTTP/1.1 400 "), response[:80]
        finally:
            server.shutdown()
            server.server_close()
        assert (tmp_path / "pub" / "journal.jsonl").read_bytes() == b'{"a": 1}\n'
        assert not (tmp_path / "pub" / "fresh.jsonl").exists()

    def test_5xx_maps_to_transient_error(self, served):
        backend = HTTPBackend(served.url)
        backend.put("k", b"v")
        served.fail_next(1)
        with pytest.raises(TransientBackendError):
            backend.get("k")
        assert backend.get("k") == b"v"  # fault exhausted: recovers

    def test_connection_refused_maps_to_transient_error(self, served):
        served.shutdown()
        served.server_close()
        backend = HTTPBackend(served.url)
        with pytest.raises(TransientBackendError):
            backend.get("index.json")

    def test_pool_reuses_connections(self, served):
        obs.reset()
        backend = HTTPBackend(served.url)
        backend.put("k", b"v")
        for _ in range(3):
            assert backend.get("k") == b"v"
        assert metrics.counter("buildcache.http_pool_reuse").value >= 3
        backend.close()


class TestWarmRefresh:
    def test_unchanged_mirror_costs_one_conditional_get(self, served, spec):
        """The acceptance criterion: after the cold open, every
        ``refresh()`` against an unchanged served mirror is exactly one
        request, and that request is a 304 — zero shard re-downloads."""
        cache = BuildCache(backend=HTTPBackend(served.url), name="http")
        assert spec.dag_hash() in cache  # cold: loads manifest + shard
        obs.reset()
        for round_no in range(3):
            before = len(served.request_log)
            assert cache.refresh_index() == 0
            new = served.request_log[before:]
            assert len(new) == 1, new
            method, path, status = new[0]
            assert (method, path, status) == ("GET", "/index.json", 304)
        assert metrics.counter("buildcache.http_304s").value == 3

    def test_changed_mirror_invalidates_and_refetches(
        self, served, repo, spec, tmp_path
    ):
        cache = BuildCache(backend=HTTPBackend(served.url), name="http")
        assert spec.dag_hash() in cache
        # another writer pushes a new spec into the served directory
        extra = Concretizer(repo).solve(["example@1.1.0 ^openmpi"]).roots[0]
        seed2 = Installer(tmp_path / "seed2", repo)
        seed2.install(extra)
        writer = BuildCache(tmp_path / "pub", name="writer")
        seed2.push_to_cache(writer, extra)
        writer.save_index()

        assert cache.refresh_index() > 0
        assert extra.dag_hash() in cache


class TestHTTPInstall:
    def test_install_byte_identical_to_local(self, served, repo, spec,
                                             tmp_path):
        # equal-length store names keep padding-relocation comparable
        local = Installer(tmp_path / "s1", repo,
                          caches=[BuildCache(tmp_path / "pub", name="L")])
        local.install(spec)
        http_cache = BuildCache(backend=HTTPBackend(served.url, name="H"),
                                name="H")
        remote = Installer(tmp_path / "s2", repo, caches=[http_cache])
        report = remote.install(spec)
        assert not report.built
        assert len(report.extracted) == 4
        assert tree_digest(tmp_path / "s1") == tree_digest(tmp_path / "s2")

    def test_one_get_per_entry_at_any_fetch_width(self, served, repo, spec,
                                                  tmp_path):
        """An install reads the index, then makes exactly one GET per
        extracted entry; the pipelined path makes the same requests and
        writes the same trees."""
        logs = {}
        for jobs, store in ((1, "s1"), (4, "s4")):
            before = len(served.request_log)
            http_cache = BuildCache(
                backend=HTTPBackend(served.url, name="H"), name="H"
            )
            report = Installer(
                tmp_path / store, repo, caches=[http_cache], fetch_jobs=jobs
            ).install(spec)
            assert len(report.extracted) == 4
            logs[jobs] = sorted(served.request_log[before:])
        bundles = [r for r in logs[1] if r[1].endswith(".bundle")]
        assert len(bundles) == 4
        assert all(method == "GET" and status == 200
                   for method, _path, status in bundles)
        # the rest is the index: manifest, journal probe, sidecar
        assert len(logs[1]) == len(bundles) + 3, logs[1]
        assert logs[4] == logs[1]
        assert tree_digest(tmp_path / "s1") == tree_digest(tmp_path / "s4")

    def test_cli_install_through_http_mirror(self, served, tmp_path, capsys):
        rc = main([
            "--repo", "mock", "install", "example@1.1.0 ^mpich@3.4.3",
            "--store", str(tmp_path / "store"),
            "--mirror", f"{served.url}:ro",
        ])
        assert rc == 0
        assert "extracted=4" in capsys.readouterr().out

    def test_cli_mirrors_file_with_url_line(self, served, tmp_path, capsys):
        mirrors = tmp_path / "mirrors.txt"
        mirrors.write_text(
            "# the served public mirror\n"
            f"pub={served.url}:ro\n"
        )
        rc = main([
            "--repo", "mock", "install", "example@1.1.0 ^mpich@3.4.3",
            "--store", str(tmp_path / "store"),
            "--cache", str(tmp_path / "scratch"),
            "--mirrors-file", str(mirrors),
        ])
        assert rc == 0
        assert "extracted=4" in capsys.readouterr().out

    def test_two_concurrent_clients_byte_identical(self, served, repo, spec,
                                                   tmp_path):
        """The serve process is threaded: two clients fetching the same
        payloads concurrently both install byte-identical trees."""
        local = Installer(tmp_path / "sx", repo,
                          caches=[BuildCache(tmp_path / "pub", name="L")])
        local.install(spec)

        failures = []

        def client(store):
            try:
                cache = BuildCache(
                    backend=HTTPBackend(served.url, name=store.name),
                    name=store.name,
                )
                Installer(store, repo, caches=[cache],
                          fetch_jobs=2).install(spec)
            except Exception as e:  # surfaces in the main thread
                failures.append(e)

        threads = [
            threading.Thread(target=client, args=(tmp_path / name,))
            for name in ("s1", "s2")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        want = tree_digest(tmp_path / "sx")
        assert tree_digest(tmp_path / "s1") == want
        assert tree_digest(tmp_path / "s2") == want

    def test_push_through_http_round_trips(self, repo, spec, tmp_path):
        """The write path: pushing through HTTPBackend sends each entry
        as one bundle PUT; the served directory is then a fully valid
        buildcache when opened locally."""
        source = Installer(tmp_path / "seed", repo)
        source.install(spec)
        (tmp_path / "pub").mkdir()
        server = start_server(tmp_path / "pub")
        try:
            cache = BuildCache(backend=HTTPBackend(server.url), name="http")
            source.push_to_cache(cache, spec)
            cache.save_index()
        finally:
            server.shutdown()
            server.server_close()
        reopened = BuildCache(tmp_path / "pub", name="pub")
        assert spec.dag_hash() in reopened
        assert reopened.fetch(spec.dag_hash()).files
        target = Installer(tmp_path / "store", repo, caches=[reopened])
        report = target.install(spec)
        assert not report.built
        assert len(report.extracted) == 4


class TestRetries:
    def test_transient_http_faults_retry_on_fake_clock(
        self, served, repo, spec, tmp_path, monkeypatch
    ):
        """Injected 5xx faults during the pipelined fetch are retried
        with backoff — and the backoff runs on the injectable module
        clock, so the test never sleeps for real."""
        sleeps = []
        monkeypatch.setattr(
            "repro.buildcache.mirror._default_sleep", sleeps.append
        )
        scratch = BuildCache(tmp_path / "scratch", name="scratch")
        http_cache = BuildCache(backend=HTTPBackend(served.url, name="http"),
                                name="http")
        group = MirrorGroup([scratch, http_cache], retries=2)
        obs.reset()
        served.fail_next(2)
        target = Installer(tmp_path / "store", repo, caches=[group],
                           fetch_jobs=2)
        report = target.install(spec)
        assert not report.built
        assert len(report.extracted) == 4
        assert metrics.counter("buildcache.mirror_retries").value >= 1
        assert sleeps  # the delays went to the seam, not time.sleep
        assert all(delay > 0 for delay in sleeps)

    def test_cli_install_retries_through_module_seam(
        self, served, repo, tmp_path, monkeypatch, capsys
    ):
        """The CLI constructs its MirrorGroup internally: monkeypatching
        the module-level clock must still reach it."""
        sleeps = []
        monkeypatch.setattr(
            "repro.buildcache.mirror._default_sleep", sleeps.append
        )
        # scope the fault to payload reads: the cold index open the CLI
        # does while constructing the group is outside retry scope
        served.fail_next(1, path_contains="/blobs/")
        rc = main([
            "--repo", "mock", "install", "example@1.1.0 ^mpich@3.4.3",
            "--store", str(tmp_path / "store"),
            "--cache", str(tmp_path / "scratch"),
            "--mirror", f"{served.url}:ro",
            "--fetch-jobs", "2",
        ])
        assert rc == 0
        assert "extracted=4" in capsys.readouterr().out
        assert sleeps

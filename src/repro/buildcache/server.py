"""``repro buildcache serve``: the networked half of the cache pair.

A threaded stdlib :mod:`http.server` process that exposes one cache
directory as a content-addressed HTTP blob store — the protocol
:class:`~repro.buildcache.httpbackend.HTTPBackend` speaks.  Together
they turn the simulated remote of the mirror benchmarks into a *real*
networked mirror: the paper's central workload (clients resolving
installs against a shared public binary cache) measured over actual
sockets instead of injected latency.

Protocol (URL path = backend key, query ``op`` selects non-blob verbs):

=====================================  ==================================
``GET /<key>``                         blob bytes; strong ``ETag``;
                                       honors ``If-None-Match`` (304)
                                       and single-range ``Range:`` (206)
``HEAD /<key>``                        existence probe + ``ETag``
``PUT /<key>``                         atomic durable write (via
                                       :func:`~repro.buildcache.backend.
                                       fsync_write`); publishes a whole
                                       cache entry (one bundle)
``DELETE /<key>``                      idempotent delete
``GET /<prefix>?op=list``              JSON ``{"files": [...], "dirs":
                                       [...]}`` tree listing
``HEAD /<prefix>?op=tree``             tree existence probe
``POST /<key>?op=append``              durable journal append (body =
                                       one line)
=====================================  ==================================

**ETag semantics.**  Every blob's ETag is the sha256 of its bytes —
except ``index.json``, whose ETag is the v3 *manifest digest* when the
document carries one, so a client that already knows a mirror's digest
can revalidate the whole index with one conditional GET: an unchanged
mirror costs exactly one 304 per ``refresh()``, zero shard re-reads.

**Whole bodies only.**  A ``PUT`` or ``POST`` body is read to exactly
its ``Content-Length``; a client that dies mid-upload leaves a short
body, which is answered 400 on a closed connection and never stored,
so the previous object (a bundle, a shard, the journal) stays intact.

``--read-only`` turns every mutating verb into a 403, which the HTTP
backend maps to :class:`~repro.buildcache.backend.ReadOnlyBackendError`
— the same taxonomy a read-only local mirror raises.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from ..obs import metrics
from .backend import BackendError, LocalFSBackend, MissingBlobError

__all__ = ["BuildCacheHTTPServer", "start_server"]

logger = logging.getLogger(__name__)

#: keys whose ETag is the embedded v3 manifest digest (cheap digest-level
#: revalidation) rather than a hash of the raw bytes
_MANIFEST_KEYS = ("index.json",)


def _etag_for(key: str, data: bytes) -> str:
    """The strong ETag served for ``key``: the v3 manifest digest for
    ``index.json`` documents that carry one, sha256 of the bytes
    otherwise."""
    if key.rsplit("/", 1)[-1] in _MANIFEST_KEYS:
        try:
            document = json.loads(data)
            digest = document.get("digest")
            if document.get("version") == 3 and digest:
                return f'"{digest}"'
        except (json.JSONDecodeError, AttributeError):
            pass
    return f'"{hashlib.sha256(data).hexdigest()}"'


class BuildCacheHTTPServer(ThreadingHTTPServer):
    """A threaded HTTP server over one buildcache directory.

    ``port=0`` binds an ephemeral port (tests); the bound address is
    ``server_address``.  ``read_only`` rejects every mutating verb with
    403.  ``request_log`` records ``(method, path, status)`` per
    request — how tests and benchmarks assert exact round-trip counts
    (the server-side twin of ``SimulatedRemoteBackend.op_counts``).
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        root,
        host: str = "127.0.0.1",
        port: int = 0,
        read_only: bool = False,
    ):
        self.backend = LocalFSBackend(Path(root), name="serve")
        self.read_only = read_only
        self.request_log: List[Tuple[str, str, int]] = []
        self._log_lock = threading.Lock()
        #: queued fault injection: each entry fails one request with 500
        #: (the HTTP twin of ``SimulatedRemoteBackend.fail``); a non-None
        #: entry only fires on a request whose path contains it
        self._fail_requests: List[Optional[str]] = []
        super().__init__((host, port), _Handler)

    # -- addressing ----------------------------------------------------
    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- test / bench seams --------------------------------------------
    def fail_next(self, times: int = 1, path_contains: Optional[str] = None) -> None:
        """Make the next ``times`` requests fail with 500 (a transient
        server fault, retried by ``MirrorGroup`` through the backend's
        :class:`~repro.buildcache.backend.TransientBackendError`).

        ``path_contains`` scopes each queued fault to the first request
        whose URL path contains the substring — how tests land a fault
        on a payload fetch without tripping the unretried cold open.
        """
        with self._log_lock:
            self._fail_requests.extend([path_contains] * times)

    def _take_fault(self, path: str) -> bool:
        with self._log_lock:
            for i, required in enumerate(self._fail_requests):
                if required is None or required in path:
                    del self._fail_requests[i]
                    return True
        return False

    def _record(self, method: str, path: str, status: int) -> None:
        with self._log_lock:
            self.request_log.append((method, path, status))


class _Handler(BaseHTTPRequestHandler):
    """Request handler: every verb ends in exactly one ``_reply``."""

    protocol_version = "HTTP/1.1"
    # headers and body go out as separate small writes; with Nagle on,
    # the second write waits out the peer's delayed ACK (~40ms per
    # request on a reused keep-alive connection, measured on loopback)
    disable_nagle_algorithm = True
    server: BuildCacheHTTPServer

    # -- plumbing ------------------------------------------------------
    def log_message(self, fmt, *args):  # noqa: D102 - stdlib signature
        logger.debug("%s %s", self.address_string(), fmt % args)

    def _reply(
        self,
        status: int,
        body: bytes = b"",
        content_type: str = "application/octet-stream",
        extra: Optional[Dict[str, str]] = None,
    ) -> None:
        # record *before* writing the response: the client unblocks the
        # moment the body lands, and tests assert on request_log right
        # after a call returns — logging afterwards would race them
        self.server._record(self.command, self.path, status)
        metrics.inc("buildcache.http_server_requests")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if self.command != "HEAD" and body:
            self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._reply(status, message.encode() + b"\n", "text/plain")

    def _key(self) -> str:
        return unquote(urlsplit(self.path).path).lstrip("/")

    def _query(self) -> Dict[str, str]:
        return {
            name: values[0]
            for name, values in parse_qs(urlsplit(self.path).query).items()
        }

    #: per-request body, drained eagerly by the mutating dispatchers
    _cached_body = b""

    def _drain_body(self) -> bool:
        """Read the whole request body; False (after a 400 on a closed
        connection) when it is shorter than ``Content-Length``.

        The verb dispatchers drain the body *before* handling, so an
        early error reply (403/500) never leaves unread bytes to desync
        the next keep-alive request; one handler instance serves many
        requests, so this must run per request, not once.
        """
        declared = self.headers.get("Content-Length") or "0"
        length = int(declared) if declared.isdigit() else -1
        body = self.rfile.read(length) if length > 0 else b""
        if len(body) != length:
            # a client that died mid-upload: store nothing
            self.close_connection = True
            try:
                self._error(
                    400, f"request body is {len(body)} bytes, "
                    f"Content-Length says {declared}",
                )
            except OSError:
                pass  # the client is gone; nothing left to tell it
            return False
        self._cached_body = body
        return True

    def _body(self) -> bytes:
        return self._cached_body

    def _require_writable(self) -> bool:
        if self.server.read_only:
            self._error(403, "this buildcache server is read-only")
            return False
        return True

    def _guard(self, fn) -> None:
        """Run one verb, mapping backend/path faults to HTTP statuses."""
        if self.server._take_fault(urlsplit(self.path).path):
            self._error(500, "injected server fault")
            return
        try:
            fn()
        except MissingBlobError as e:
            self._error(404, str(e))
        except BackendError as e:
            # escape attempts and unreadable paths are client mistakes
            self._error(400, str(e))
        except Exception as e:  # a handler bug must not kill the thread
            logger.exception("internal error serving %s %s", self.command, self.path)
            self._error(500, f"internal error: {type(e).__name__}: {e}")

    # -- reads ---------------------------------------------------------
    def do_GET(self) -> None:
        self._guard(self._get_or_head)

    def do_HEAD(self) -> None:
        self._guard(self._get_or_head)

    def _get_or_head(self) -> None:
        key, query = self._key(), self._query()
        op = query.get("op")
        if op == "list":
            files, dirs = self.server.backend.list_tree(key)
            body = json.dumps({"files": files, "dirs": dirs}).encode()
            self._reply(200, body, "application/json")
            return
        if op == "tree":
            if self.server.backend.tree_exists(key):
                self._reply(200, b"")
            else:
                self._error(404, f"no tree at {key!r}")
            return
        data = self.server.backend.get(key)
        etag = _etag_for(key, data)
        if self.headers.get("If-None-Match") == etag:
            metrics.inc("buildcache.http_server_304s")
            self._reply(304, b"", extra={"ETag": etag})
            return
        range_header = self.headers.get("Range")
        if range_header:
            self._ranged(data, etag, range_header)
            return
        self._reply(200, data, extra={"ETag": etag})

    def _ranged(self, data: bytes, etag: str, range_header: str) -> None:
        """Serve one ``bytes=start-end`` range as 206 + Content-Range."""
        total = len(data)
        try:
            unit, _, spec = range_header.partition("=")
            if unit.strip() != "bytes" or "," in spec:
                raise ValueError(range_header)
            start_s, _, end_s = spec.strip().partition("-")
            if start_s:
                start = int(start_s)
                end = int(end_s) if end_s else total - 1
            else:  # suffix range: the last N bytes
                start = max(total - int(end_s), 0)
                end = total - 1
        except ValueError:
            self._error(400, f"unparseable Range {range_header!r}")
            return
        if start >= total or start < 0 or end < start:
            self._reply(
                416, b"", extra={"Content-Range": f"bytes */{total}"}
            )
            return
        end = min(end, total - 1)
        chunk = data[start:end + 1]
        metrics.inc("buildcache.http_server_range_requests")
        self._reply(
            206,
            chunk,
            extra={
                "ETag": etag,
                "Content-Range": f"bytes {start}-{end}/{total}",
            },
        )

    # -- writes --------------------------------------------------------
    def do_PUT(self) -> None:
        if self._drain_body():
            self._guard(self._put)

    def _put(self) -> None:
        if not self._require_writable():
            return
        self.server.backend.put(self._key(), self._body())
        self._reply(201, b"")

    def do_POST(self) -> None:
        if self._drain_body():
            self._guard(self._post)

    def _post(self) -> None:
        if not self._require_writable():
            return
        key, query = self._key(), self._query()
        op = query.get("op")
        if op == "append":
            self.server.backend.append_line(key, self._body())
            self._reply(200, b"")
            return
        self._error(400, f"unknown POST op {op!r}")

    def do_DELETE(self) -> None:
        self._guard(self._delete)

    def _delete(self) -> None:
        if not self._require_writable():
            return
        self.server.backend.delete(self._key())
        self._reply(204, b"")


def start_server(
    root,
    host: str = "127.0.0.1",
    port: int = 0,
    read_only: bool = False,
) -> BuildCacheHTTPServer:
    """Start a server on a daemon thread; returns it once it is bound
    (``server.url`` is immediately connectable).  Callers own shutdown:
    ``server.shutdown(); server.server_close()``."""
    server = BuildCacheHTTPServer(root, host=host, port=port, read_only=read_only)
    # shutdown() waits for the loop's next poll: poll every 50 ms, not
    # the default 0.5 s, so an in-process server stops promptly
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        name="buildcache-serve", daemon=True,
    )
    thread.start()
    logger.info("serving buildcache %s at %s", root, server.url)
    return server

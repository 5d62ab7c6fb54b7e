"""HTTP storage backend: a buildcache mirror over real sockets.

The :class:`~repro.buildcache.backend.StorageBackend` contract spoken
to a :mod:`repro.buildcache.server` (or anything serving the same
content-addressed GET/PUT protocol), over stdlib :mod:`http.client`:

* **connection pool** — a small per-backend pool of keep-alive
  connections; reuse is counted (``buildcache.http_pool_reuse``) so
  benchmarks can prove the warm path never pays TCP setup per shard.
* **conditional GET** — ``index.json``/``index.sum.json`` responses are
  cached with their ETag (the server's ``index.json`` ETag *is* the v3
  manifest digest); revalidation sends ``If-None-Match``, and an
  unchanged mirror costs exactly one 304 per ``refresh()`` — zero
  shard re-downloads (``buildcache.http_304s``).
* **range reads** — :meth:`HTTPBackend.get_range` issues a ``Range:``
  request; a 206 transfers only the slice, and the bytes *not* shipped
  land in ``buildcache.http_range_bytes_saved``.
* **bounded timeouts + error taxonomy** — every request carries a
  socket timeout (``REPRO_HTTP_TIMEOUT_S``, default 10s); socket
  faults, timeouts, and 5xx responses raise
  :class:`~repro.buildcache.backend.TransientBackendError`, so
  :class:`~repro.buildcache.mirror.MirrorGroup`'s existing
  retry-with-backoff / degrade-to-next-mirror machinery applies to a
  real network exactly as it does to the simulated one.  404 is
  :class:`~repro.buildcache.backend.MissingBlobError`; 403 (a
  ``--read-only`` server) is :class:`~repro.buildcache.backend.
  ReadOnlyBackendError`.
* **atomic writes** — a ``PUT`` lands through the server's
  ``LocalFSBackend.put`` (tmp write, fsync, rename), and the server
  stores nothing from a body shorter than its ``Content-Length``; a
  cache entry is one bundle, so one ``PUT`` publishes it whole.

Every request runs under a ``buildcache.http_request`` span and bumps
``buildcache.http_requests`` (obs schema 9; see docs/observability.md).
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import threading
from typing import Dict, List, Optional, Tuple
from urllib.parse import quote, urlsplit

from ..obs import metrics, trace
from .backend import (
    BackendError,
    MissingBlobError,
    ReadOnlyBackendError,
    StorageBackend,
    TransientBackendError,
)

__all__ = ["HTTPBackend"]

#: keys revalidated with If-None-Match instead of refetched: the small,
#: frequently re-read index documents (shards are immutable-by-digest,
#: so refresh() never re-reads an unchanged one anyway)
_CONDITIONAL_KEYS = ("index.json", "index.sum.json")

_DEFAULT_TIMEOUT_S = 10.0


def _timeout_from_env() -> float:
    try:
        return float(os.environ.get("REPRO_HTTP_TIMEOUT_S", ""))
    except ValueError:
        return _DEFAULT_TIMEOUT_S


class HTTPBackend(StorageBackend):
    """Byte storage behind an HTTP buildcache server.

    ``url`` is ``http://host:port[/base-path]`` — the base path allows
    a server mounted behind a prefix; ``repro buildcache serve``
    serves at the root.  ``writable=False`` short-circuits every
    mutating verb client-side (the ``:ro`` mirror suffix); a server
    started ``--read-only`` enforces the same thing with 403s.
    """

    def __init__(
        self,
        url: str,
        name: Optional[str] = None,
        writable: bool = True,
        timeout: Optional[float] = None,
        pool_size: int = 4,
    ):
        parsed = urlsplit(url)
        if parsed.scheme not in ("http", "https"):
            raise BackendError(f"HTTPBackend needs an http(s) URL, got {url!r}")
        if not parsed.hostname:
            raise BackendError(f"HTTP mirror URL {url!r} has no host")
        self.scheme = parsed.scheme
        self.host = parsed.hostname
        self.port = parsed.port or (443 if parsed.scheme == "https" else 80)
        self.base = parsed.path.rstrip("/")
        self.url = f"{parsed.scheme}://{parsed.netloc}{self.base}"
        self.name = name or f"{self.host}:{self.port}{self.base}"
        self.writable = writable
        self.timeout = timeout if timeout is not None else _timeout_from_env()
        self.pool_size = max(int(pool_size), 1)
        self._pool: List[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        #: conditional-GET cache: key -> (etag, bytes)
        self._etag_cache: Dict[str, Tuple[str, bytes]] = {}

    # ------------------------------------------------------------------
    # connection pool
    # ------------------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        cls = (
            http.client.HTTPSConnection
            if self.scheme == "https"
            else http.client.HTTPConnection
        )
        conn = cls(self.host, self.port, timeout=self.timeout)
        try:
            conn.connect()
        except OSError as e:
            raise TransientBackendError(
                f"{self.describe()}: cannot connect: {e}"
            ) from e
        # disable Nagle: index probes and journal appends are small
        # two-segment writes, and coalescing them costs a delayed-ACK
        # round (a measured 40ms-per-request stall on loopback)
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def _acquire(self) -> http.client.HTTPConnection:
        with self._lock:
            if self._pool:
                metrics.inc("buildcache.http_pool_reuse")
                return self._pool.pop()
        return self._connect()

    def _release(self, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            if len(self._pool) < self.pool_size:
                self._pool.append(conn)
                return
        conn.close()

    def close(self) -> None:
        """Drop every pooled connection (tests; optional otherwise)."""
        with self._lock:
            pool, self._pool = self._pool, []
        for conn in pool:
            conn.close()

    # ------------------------------------------------------------------
    # one request
    # ------------------------------------------------------------------
    def _url_for(self, key: str, query: str = "") -> str:
        for part in key.split("/"):
            if part in ("", ".", ".."):
                raise BackendError(
                    f"key {key!r} escapes backend root {self.url}"
                )
        path = f"{self.base}/{quote(key)}"
        return f"{path}?{query}" if query else path

    def _request(
        self,
        method: str,
        key: str,
        query: str = "",
        body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One round-trip; returns (status, lowercase headers, body).

        Socket-level faults close the connection and surface as
        :class:`TransientBackendError`; 5xx responses do the same, so
        the mirror retry/degrade machinery treats a struggling server
        like a flaky one.
        """
        url = self._url_for(key, query)
        conn = self._acquire()
        reused = True  # only for cleanup: a broken conn is never pooled
        with trace.span(
            "buildcache.http_request", method=method, key=key
        ) as sp:
            try:
                conn.request(method, url, body=body or None, headers=headers or {})
                response = conn.getresponse()
                payload = response.read()
            except (socket.timeout, TimeoutError) as e:
                conn.close()
                raise TransientBackendError(
                    f"{self.describe()}: timeout after {self.timeout}s "
                    f"during {method} {key!r}"
                ) from e
            except (OSError, http.client.HTTPException) as e:
                conn.close()
                raise TransientBackendError(
                    f"{self.describe()}: {method} {key!r} failed: {e}"
                ) from e
            status = response.status
            sp.set(status=status, bytes=len(payload))
            if response.will_close:
                conn.close()
                reused = False
            if reused:
                self._release(conn)
        metrics.inc("buildcache.http_requests")
        if status >= 500:
            raise TransientBackendError(
                f"{self.describe()}: server error {status} for "
                f"{method} {key!r}: {payload.decode(errors='replace').strip()}"
            )
        if status == 403:
            raise ReadOnlyBackendError(
                f"mirror backend {self.describe()} is read-only "
                f"({method} {key!r} rejected)"
            )
        response_headers = {
            name.lower(): value for name, value in response.getheaders()
        }
        return status, response_headers, payload

    @staticmethod
    def _unexpected(status: int, method: str, key: str, payload: bytes):
        return BackendError(
            f"unexpected HTTP {status} for {method} {key!r}: "
            f"{payload.decode(errors='replace').strip()}"
        )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, key: str) -> bytes:
        conditional = key.rsplit("/", 1)[-1] in _CONDITIONAL_KEYS
        headers: Dict[str, str] = {}
        cached: Optional[Tuple[str, bytes]] = None
        if conditional:
            cached = self._etag_cache.get(key)
            if cached is not None:
                headers["If-None-Match"] = cached[0]
        status, response_headers, payload = self._request(
            "GET", key, headers=headers
        )
        if status == 304 and cached is not None:
            metrics.inc("buildcache.http_304s")
            return cached[1]
        if status == 404:
            self._etag_cache.pop(key, None)
            raise MissingBlobError(f"{self.describe()}: no blob at {key!r}")
        if status != 200:
            raise self._unexpected(status, "GET", key, payload)
        if conditional:
            etag = response_headers.get("etag")
            if etag:
                self._etag_cache[key] = (etag, payload)
        return payload

    def get_range(self, key: str, start: int, length: int) -> bytes:
        if length <= 0:
            return b""
        headers = {"Range": f"bytes={start}-{start + length - 1}"}
        status, response_headers, payload = self._request(
            "GET", key, headers=headers
        )
        if status == 404:
            raise MissingBlobError(f"{self.describe()}: no blob at {key!r}")
        if status == 416:
            return b""  # past EOF: same answer as slicing locally
        if status == 206:
            content_range = response_headers.get("content-range", "")
            total_s = content_range.rpartition("/")[2]
            if total_s.isdigit():
                metrics.inc(
                    "buildcache.http_range_bytes_saved",
                    max(int(total_s) - len(payload), 0),
                )
            return payload
        if status == 200:
            # a server without range support shipped the whole blob
            return payload[start:start + length]
        raise self._unexpected(status, "GET", key, payload)

    def exists(self, key: str) -> bool:
        status, _headers, payload = self._request("HEAD", key)
        if status == 200:
            return True
        if status == 404:
            return False
        raise self._unexpected(status, "HEAD", key, payload)

    def tree_exists(self, prefix: str) -> bool:
        status, _headers, payload = self._request("HEAD", prefix, query="op=tree")
        if status == 200:
            return True
        if status == 404:
            return False
        raise self._unexpected(status, "HEAD", prefix, payload)

    def list_tree(self, prefix: str) -> Tuple[List[str], List[str]]:
        status, _headers, payload = self._request("GET", prefix, query="op=list")
        if status == 404:
            raise MissingBlobError(f"{self.describe()}: no tree at {prefix!r}")
        if status != 200:
            raise self._unexpected(status, "GET", prefix, payload)
        try:
            listing = json.loads(payload)
            return list(listing["files"]), list(listing["dirs"])
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            raise BackendError(
                f"{self.describe()}: malformed tree listing for {prefix!r}: {e}"
            ) from e

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(self, key: str, data: bytes) -> None:
        self._require_writable()
        status, _headers, payload = self._request("PUT", key, body=data)
        if status not in (200, 201):
            raise self._unexpected(status, "PUT", key, payload)
        self._etag_cache.pop(key, None)

    def delete(self, key: str) -> None:
        self._require_writable()
        status, _headers, payload = self._request("DELETE", key)
        if status not in (200, 204, 404):
            raise self._unexpected(status, "DELETE", key, payload)
        self._etag_cache.pop(key, None)

    def append_line(self, key: str, line: bytes) -> None:
        self._require_writable()
        status, _headers, payload = self._request(
            "POST", key, query="op=append", body=line
        )
        if status != 200:
            raise self._unexpected(status, "POST", key, payload)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return self.url

    def __repr__(self) -> str:
        return f"<HTTPBackend {self.url} pool={len(self._pool)}/{self.pool_size}>"

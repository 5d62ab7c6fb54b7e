"""Binary buildcaches: the distribution substrate of Sections 2 and 6.

Two halves:

* :mod:`.cache` — the cache itself: signed, indexed, content-addressed
  binary artifacts with relocation metadata (``BuildCache``), plus the
  GPG-style trust model (``SigningKey``/``TrustStore``).
* :mod:`.generate` — corpus synthesis for the paper's evaluation: the
  greedy non-ASP concretizer and the local/public cache populations
  (``generate_cache_specs``/``vary_configurations``), plus vendor
  externals (``external_spec``).

Plus the mirror seam of Section 6's two-cache evaluation:

* :mod:`.backend` — pluggable byte storage under the cache
  (``LocalFSBackend``, ``SimulatedRemoteBackend``) with the durable
  atomic-write and atomic-publish contracts.
* :mod:`.mirror` — ``MirrorGroup``: an ordered list of caches consulted
  first-hit-wins with retry/fallback, pushes going to the primary.

And the networked cache pair (the "real mirror" the ROADMAP's
millions-of-users scenarios need):

* :mod:`.httpbackend` — ``HTTPBackend``: the storage contract over
  pooled ``http.client`` connections with conditional GET, range
  reads, and transient-fault taxonomy.
* :mod:`.server` — ``repro buildcache serve``: the threaded
  ``http.server`` process with ETags, ranges, and atomic staged
  publish.
"""

from .backend import (
    BackendError,
    LocalFSBackend,
    MissingBlobError,
    ReadOnlyBackendError,
    SimulatedRemoteBackend,
    StorageBackend,
    TransientBackendError,
)
from .cache import BuildCache, BuildCacheError, CachedPayload, SigningKey, TrustStore
from .generate import (
    external_spec,
    generate_cache_specs,
    greedy_concretize,
    vary_configurations,
)
from .httpbackend import HTTPBackend
from .index import IndexFormatError, ShardedIndex
from .mirror import MirrorGroup
from .server import BuildCacheHTTPServer, start_server
from .signing import SignatureError
from .summary import SortedHashSummary, SummaryFormatError, summary_from_document

__all__ = [
    "BuildCache",
    "BuildCacheError",
    "CachedPayload",
    "ShardedIndex",
    "IndexFormatError",
    "SortedHashSummary",
    "SummaryFormatError",
    "summary_from_document",
    "BackendError",
    "MissingBlobError",
    "TransientBackendError",
    "ReadOnlyBackendError",
    "StorageBackend",
    "LocalFSBackend",
    "SimulatedRemoteBackend",
    "HTTPBackend",
    "BuildCacheHTTPServer",
    "start_server",
    "MirrorGroup",
    "SigningKey",
    "TrustStore",
    "SignatureError",
    "external_spec",
    "generate_cache_specs",
    "greedy_concretize",
    "vary_configurations",
]

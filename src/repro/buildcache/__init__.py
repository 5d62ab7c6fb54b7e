"""Binary buildcaches: the distribution substrate of Sections 2 and 6.

Two halves:

* :mod:`.cache` — the cache itself: signed, indexed, content-addressed
  binary artifacts with relocation metadata (``BuildCache``), plus the
  GPG-style trust model of :mod:`.signing` (``SigningKey``/``TrustStore``).
* :mod:`.generate` — corpus synthesis for the paper's evaluation: the
  greedy non-ASP concretizer and the local/public cache populations
  (``generate_cache_specs``/``vary_configurations``), plus vendor
  externals (``external_spec``).

Plus the mirror seam of Section 6's two-cache evaluation:

* :mod:`.backend` — pluggable byte storage under the cache
  (``LocalFSBackend``, ``SimulatedRemoteBackend``) with the durable
  atomic-write contract that publishes a whole entry (one bundle).
* :mod:`.mirror` — ``MirrorGroup``: an ordered list of caches consulted
  first-hit-wins with retry/fallback, pushes going to the primary.

And the networked cache pair (the "real mirror" the ROADMAP's
millions-of-users scenarios need):

* :mod:`.httpbackend` — ``HTTPBackend``: the storage contract over
  pooled ``http.client`` connections with conditional GET, range
  reads, and transient-fault taxonomy.
* :mod:`.server` — ``repro buildcache serve``: the threaded
  ``http.server`` process with ETags, ranges, and atomic whole-body
  writes.
"""

from .._lazy import export_names, lazy_exports

#: re-exports by submodule, imported on first access (see :mod:`repro._lazy`)
_EXPORTS = {
    ".backend": (
        "BackendError",
        "LocalFSBackend",
        "MissingBlobError",
        "ReadOnlyBackendError",
        "SimulatedRemoteBackend",
        "StorageBackend",
        "TransientBackendError",
    ),
    ".cache": ("BuildCache", "BuildCacheError", "CachedPayload"),
    ".generate": (
        "external_spec",
        "generate_cache_specs",
        "greedy_concretize",
        "vary_configurations",
    ),
    ".httpbackend": ("HTTPBackend",),
    ".index": ("IndexFormatError", "ShardedIndex"),
    ".mirror": ("MirrorGroup",),
    ".server": ("BuildCacheHTTPServer", "start_server"),
    ".signing": ("SignatureError", "SigningKey", "TrustStore"),
    ".summary": ("SortedHashSummary", "SummaryFormatError", "summary_from_document"),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)

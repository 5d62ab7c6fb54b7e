"""The benchmark's layer table.

``TIMED_CALLS`` names the public call of each module that a traced
request times (``traced.py`` wraps them inside the request process) and
the metric its self time feeds.  ``run.py`` imports this module too, so
nothing here imports ``repro``: the client process stays small, and the
max-RSS the kernel reports for each request is the request's own.  The
metric names and units the benchmark reports are those ``BENCHMARK.json``
declares.
"""

#: (self-time metric, module, attribute, call-count metric or None).
#: A metric fed by several calls sums their self times.
TIMED_CALLS = (
    ("package.repo_s", "repro.repos.radiuss", "make_radiuss_repo", None),
    ("environment.read_s", "repro.environment", "Environment.read", None),
    ("buildcache.open_s", "repro.buildcache.cache", "BuildCache.__init__", None),
    ("buildcache.all_specs_s", "repro.buildcache.cache", "BuildCache.all_specs", None),
    ("buildcache.fetch_s", "repro.buildcache.cache", "BuildCache.fetch",
     "buildcache.fetches"),
    ("buildcache.extract_s", "repro.buildcache.cache", "BuildCache.extract_payload",
     None),
    ("buildcache.http_s", "repro.buildcache.httpbackend", "HTTPBackend.get",
     "buildcache.http_requests"),
    ("buildcache.http_s", "repro.buildcache.httpbackend", "HTTPBackend.get_range",
     "buildcache.http_requests"),
    ("buildcache.http_s", "repro.buildcache.httpbackend", "HTTPBackend.exists",
     "buildcache.http_requests"),
    ("buildcache.http_s", "repro.buildcache.httpbackend", "HTTPBackend.tree_exists",
     "buildcache.http_requests"),
    ("buildcache.http_s", "repro.buildcache.httpbackend", "HTTPBackend.list_tree",
     "buildcache.http_requests"),
    ("concretize.self_s", "repro.concretize.concretizer", "Concretizer.__init__",
     None),
    ("concretize.self_s", "repro.concretize.concretizer", "Concretizer.solve_all",
     None),
    ("concretize.extract_s", "repro.concretize.extract", "ModelExtractor.extract",
     None),
    ("asp.ground_s", "repro.asp.api", "Control.ground", None),
    ("asp.solve_s", "repro.asp.api", "Control.solve", None),
    ("binary.relocate_s", "repro.binary.relocate", "relocate_binary",
     "binary.relocations"),
    ("binary.rewire_s", "repro.binary.rewire", "rewire_binary", "binary.rewires"),
    ("installer.self_s", "repro.installer.installer", "Installer.install_all", None),
    ("installer.build_s", "repro.installer.builder", "Builder.build",
     "installer.nodes_built"),
    ("installer.db_load_s", "repro.installer.database", "Database.__init__", None),
    ("installer.db_save_s", "repro.installer.database", "Database.save", None),
)

#: the time spent importing ``repro.cli``, timed by ``traced.py`` itself
IMPORT_METRIC = "cli.import_s"

#: per-layer self-time metrics a traced request reports (the rest of the
#: ``_s`` metrics are computed by the client from wall times)
SELF_TIME_METRICS = tuple(
    dict.fromkeys([IMPORT_METRIC] + [entry[0] for entry in TIMED_CALLS])
)

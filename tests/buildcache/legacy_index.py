"""Hand-written pre-v3 index layouts for the read-and-migrate tests.

``ShardedIndex.save`` only writes format v3, but caches written by
older versions still exist: a v1 monolithic ``index.json``, or a v2
digest-less shard manifest.  Neither has a summary sidecar.
"""

import json
import shutil
from pathlib import Path

from repro.buildcache.index import INDEX_NAME, SHARD_DIR, SHARD_WIDTH, SUMMARY_NAME


def write_legacy_index(root, version: int) -> None:
    """Rewrite the saved v3 index under ``root`` in the v1 or v2 layout."""
    root = Path(root)
    shards = {
        path.stem: json.loads(path.read_text())
        for path in sorted((root / SHARD_DIR).glob("*.json"))
    }
    if version == 1:
        document = {"version": 1, "specs": {}, "build_specs": {},
                    "external_prefixes": {}}
        for shard in shards.values():
            for table, entries in shard.items():
                document[table].update(entries)
        shutil.rmtree(root / SHARD_DIR)
    elif version == 2:
        document = {
            "version": 2,
            "shard_width": SHARD_WIDTH,
            "shards": {
                prefix: {"specs": len(shard["specs"])}
                for prefix, shard in shards.items()
            },
        }
    else:
        raise ValueError(f"no legacy index version {version}")
    (root / SUMMARY_NAME).unlink(missing_ok=True)
    (root / INDEX_NAME).write_text(json.dumps(document, sort_keys=True, indent=1))

"""Span and metric names are a tested contract.

Every name in the tables of ``docs/observability.md`` must still be
emitted somewhere under ``src/repro``: a ``trace.span(...)`` or
``metrics.<inc|observe|counter|gauge|histogram>(...)`` call whose first
argument is that literal name.  A documented ``<placeholder>`` name
(``analysis.<checker>``) matches an f-string name with the same literal
prefix.  Renaming or dropping an emitted name therefore fails here until
the documentation says the same.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
DOC = ROOT / "docs" / "observability.md"

_EMITTERS = {
    "trace": {"span"},
    "metrics": {"inc", "observe", "counter", "gauge", "histogram"},
}


def emitted_names():
    """(exact literal names, literal prefixes of f-string names)."""
    exact, prefixes = set(), set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.attr in _EMITTERS.get(func.value.id, ())
            ):
                continue
            name = node.args[0]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                exact.add(name.value)
            elif isinstance(name, ast.JoinedStr):
                prefix = ""
                for part in name.values:
                    if not isinstance(part, ast.Constant):
                        break
                    prefix += part.value
                prefixes.add(prefix)
    return exact, prefixes


def documented_names():
    """Names in the first column of the doc's tables.  A cell such as
    ``buildcache.index_load`` / ``index_save`` abbreviates the second
    name; it shares the first one's subsystem."""
    names = []
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if not line.startswith("| `"):
            continue
        cell = line.split("|")[1]
        parts = re.findall(r"`([^`]+)`", cell)
        subsystem = parts[0].split(".")[0]
        names.extend(p if "." in p else f"{subsystem}.{p}" for p in parts)
    return names


def test_doc_tables_are_found():
    names = documented_names()
    assert len(names) > 50
    assert "concretize.solve" in names
    assert "buildcache.index_save" in names  # the abbreviated form


def test_every_documented_name_is_emitted():
    exact, prefixes = emitted_names()
    missing = []
    for name in documented_names():
        if "<" in name:
            found = name.split("<")[0] in prefixes
        else:
            found = name in exact
        if not found:
            missing.append(name)
    assert not missing, f"documented but never emitted: {missing}"

"""Every ``repro.*`` name the docs cite in backticks must resolve.

Scans ``docs/*.md``, ``README.md`` and ``EXPERIMENTS.md`` for backticked
dotted names starting with ``repro.`` and imports the longest module
prefix of each, then looks up the rest as attributes.  A rename or a
deletion that leaves a stale name behind in the docs fails here.
"""

import glob
import importlib
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = sorted(glob.glob(os.path.join(ROOT, "docs", "*.md"))) + [
    os.path.join(ROOT, "README.md"), os.path.join(ROOT, "EXPERIMENTS.md")]
# The dotted prefix of a backticked span: `repro.x.y(args)` cites repro.x.y.
NAME = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)")


def cited_names():
    """``{name: [path:line, ...]}`` for every cited ``repro.*`` name."""
    found = {}
    for path in DOCS:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                for name in NAME.findall(line):
                    found.setdefault(name, []).append(
                        f"{os.path.relpath(path, ROOT)}:{lineno}")
    return found


def resolve(name):
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        module = ".".join(parts[:i])
        try:
            obj = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if exc.name != module:
                raise       # the module exists; a dependency is missing
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


def test_every_cited_name_resolves():
    cited = cited_names()
    assert len(cited) > 20, "the scan found almost nothing: pattern broken?"
    stale = []
    for name, where in sorted(cited.items()):
        try:
            resolve(name)
        except (AttributeError, ModuleNotFoundError) as exc:
            stale.append(f"{', '.join(where)}: `{name}` ({exc})")
    assert not stale, ("docs cite names that do not resolve:\n"
                       + "\n".join(stale))

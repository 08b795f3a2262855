"""What ``benchmarks/spine`` imports from ``repro`` must keep existing.

The spine is the one performance harness, a PR may not edit it, and
tier-1 does not collect it — so a rename under ``src/`` that it depends on
would first show up as "benchmark run failed".  This reads the imports
out of its two scripts and resolves each one here instead.
"""

import ast
import importlib
import os
import subprocess
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
SPINE = os.path.join(ROOT, "benchmarks", "spine")
SCRIPTS = ("workloads.py", "run.py")


def _repro_imports(path, package=""):
    """(module, name-or-None) for every ``repro`` import in ``path``,
    nested ones too; relative forms are resolved against ``package``."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            pairs = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                parents = package.split(".")
                parents = parents[:len(parents) - node.level + 1]
                module = ".".join(parents + ([module] if module else []))
            pairs = [(module, alias.name) for alias in node.names]
        else:
            continue
        for module, name in pairs:
            if module.split(".")[0] == "repro":
                yield module, name


def _resolves(module, name):
    try:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")   # a submodule
    except ImportError:
        return False
    return True


def test_every_spine_import_resolves():
    imports = {(script, module, name) for script in SCRIPTS
               for module, name in _repro_imports(os.path.join(SPINE, script))}
    # Known members, so a parser that finds nothing cannot pass.
    assert {("workloads.py", "repro.cluster.bench", "scaling_spec"),
            ("workloads.py", "repro.bench.configs", "build_qpip_pair"),
            ("workloads.py", "repro.bench", "paper"),
            ("workloads.py", "repro.serve", "exec_scenario"),
            ("run.py", "repro", "fastpath")} <= imports
    missing = sorted(f"{script}: from {module} import {name}"
                     for script, module, name in imports
                     if not _resolves(module, name))
    assert not missing, missing


def test_fastpath_defaults_on_without_the_environment_variable():
    # run.py refuses REPRO_FASTPATH, strips it from each child's environment
    # and records ``fastpath.ENABLED`` in the fingerprint.
    env = {k: v for k, v in os.environ.items() if k != "REPRO_FASTPATH"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro import fastpath; print(fastpath.ENABLED is True)"],
        env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
    assert out.strip() == "True"


# -- the fast/naive mode switch is gone and stays gone ------------------------------

def test_no_product_module_imports_the_fastpath_constant():
    src = os.path.join(ROOT, "src")
    importers, seen = set(), 0
    for dirpath, _dirs, files in os.walk(os.path.join(src, "repro")):
        package = os.path.relpath(dirpath, src).replace(os.sep, ".")
        for name in files:
            if not name.endswith(".py") or (package, name) == \
                    ("repro", "fastpath.py"):
                continue
            path = os.path.join(dirpath, name)
            for module, imported in _repro_imports(path, package):
                seen += 1
                if "repro.fastpath" in (module, f"{module}.{imported}"):
                    importers.add(os.path.relpath(path, ROOT))
    assert seen > 500          # a walker that resolves nothing cannot pass
    assert ("repro.sim.engine", "Simulator") in set(_repro_imports(
        os.path.join(src, "repro", "sim", "resources.py"), "repro.sim"))
    assert not importers, sorted(importers)


def test_fastpath_module_is_one_constant():
    from repro import fastpath
    assert [n for n in vars(fastpath) if not n.startswith("_")] == ["ENABLED"]
    assert fastpath.ENABLED is True


def test_the_environment_variable_is_not_read():
    env = dict(os.environ, REPRO_FASTPATH="0",
               PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro import fastpath; print(fastpath.ENABLED is True)"],
        env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
    assert out.strip() == "True"


def test_the_census_private_read_exists():
    from repro.sim import Simulator
    assert Simulator()._events_processed == 0

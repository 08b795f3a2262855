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


def _repro_imports(script):
    """(module, name-or-None) for every ``repro`` import, nested ones too."""
    with open(os.path.join(SPINE, script)) as fh:
        tree = ast.parse(fh.read(), script)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and not node.level \
                and node.module.split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, alias.name


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
               for module, name in _repro_imports(script)}
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


def test_the_census_private_read_exists():
    from repro.sim import Simulator
    assert Simulator()._events_processed == 0

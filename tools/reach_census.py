#!/usr/bin/env python3
"""Reach census: which ``src/repro`` functions the product actually runs.

    python3 tools/reach_census.py > reach-census.txt

Runs every product entry point (the examples, each ``repro`` subcommand
with the CI invocations, ``tools/serve_smoke.py``, the spine at quick
sizes with and without tracing, and ``pytest benchmarks``), then the
tier-1 suite, and prints every function defined under ``src/repro`` that
no product entry point entered, in two groups: reached only by the
tests, and reached by nothing.  Progress goes to stderr.  The exit status
is nonzero when a command fails, except that failing tests are only
reported: pytest runs here for its reach, not its verdict, and the
collector slows the wall-clock asserts of a few tests.  The counts gate
nothing.  The run also fails unless ``cli._serve_run_server``, which
runs only in the server process that ``serve_smoke.py`` starts with its
own ``PYTHONPATH``, was reached: a collector that stops reaching child
processes, or one that never loaded (a user site that is disabled, as in
a virtualenv), would otherwise report nearly everything as unreached.

The collector is a ``sys.settrace`` hook (``coverage`` is not needed)
loaded by a ``.pth`` file in a temporary ``PYTHONUSERBASE``.  Unlike a
``PYTHONPATH`` entry, that survives children that set their own
``PYTHONPATH``.  Forked children inherit it.  Every process appends each
code object it enters for the first time to its own file at once, so
workers that leave through ``os._exit`` lose nothing.
"""

import argparse
import ast
import glob
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.normpath(os.path.join(os.path.abspath(__file__), "..", ".."))
SRC = os.path.join(ROOT, "src", "repro")
PY = sys.executable

#: The function every run must find reached (file, qualified name).
SENTINEL = ("cli.py", "_serve_run_server")

_HOOK = '''\
import os, sys, threading
_SRC = {src!r}
_OUT = {out!r}
_seen = set()
_file = [None, None]


def _trace(frame, event, arg):
    code = frame.f_code
    if code in _seen:
        return None
    _seen.add(code)
    path = os.path.realpath(code.co_filename)
    if path.startswith(_SRC):
        pid = os.getpid()
        if _file[0] != pid:
            _file[0] = pid
            _file[1] = open(os.path.join(_OUT, "%d.txt" % pid), "a",
                            buffering=1)
        _file[1].write("%s:%d\\n" % (path[len(_SRC):], code.co_firstlineno))
    return None


sys.settrace(_trace)
threading.settrace(_trace)
'''


def product_commands(tmp):
    """The product entry points, each an argv run from the repo root."""
    repro = [PY, "-m", "repro"]
    cmds = [[PY, path] for path in
            sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))]
    cmds += [repro + ["list"], repro + ["all"]]
    cmds += [repro + ["chaos", "--seed", "1"] + extra for extra in (
        [], ["--workload", "pingpong", "--messages", "32"],
        ["--kill", "rst"], ["--kill", "dma"], ["--check-determinism"])]
    for seed in ("1", "2", "3"):
        cmds += [repro + ["chaos", "--seed", seed, "--recover",
                          "--messages", "48", "--size", "1024"],
                 repro + ["chaos", "--seed", seed, "--workload", "kvstore",
                          "--recover", "--messages", "32", "--size", "512",
                          "--reorder", "0.01", "--duplicate", "0.01"]]
    cmds += [repro + ["chaos", "--seed", "2", "--recover",
                      "--check-determinism"]]
    cmds += [repro + ["trace", "ttcp", "--bytes", "262144",
                      "--out-dir", os.path.join(tmp, "traces")],
             repro + ["metrics", "pingpong", "--iterations", "20"]]
    cmds += [repro + ["cluster", "--hosts", "16", "--flows", "8",
                      "--workers", "2", "--check-determinism"],
             repro + ["cluster", "--bench", "--check-determinism",
                      "--out", os.path.join(tmp, "cluster.json")]]
    for args in (["--engine", "nic", "--algo", "allreduce"],
                 ["--engine", "nic", "--algo", "broadcast", "--root", "3"],
                 ["--engine", "nic", "--algo", "barrier"],
                 ["--engine", "host", "--algo", "allreduce"],
                 ["--engine", "host", "--algo", "allreduce",
                  "--variant", "rd"],
                 ["--engine", "host", "--algo", "broadcast", "--root", "3"],
                 ["--engine", "host", "--algo", "barrier"]):
        cmds.append(repro + ["collective"] + args + [
            "--hosts", "16", "--vector-len", "256", "--workers", "2",
            "--check-determinism"])
    cmds += [repro + ["collective", "--bench", "--quick",
                      "--out", os.path.join(tmp, "collectives.json")]]
    cmds += [repro + ["gate", "list"],
             repro + ["gate", "check", "--tier", "nightly", "--workers", "2",
                      "--report", os.path.join(tmp, "gate.json")]]
    cmds += [repro + ["serve", "bench", "--duration", "2"],
             [PY, os.path.join(ROOT, "tools", "serve_smoke.py")]]
    spine = [PY, os.path.join(ROOT, "benchmarks", "spine", "run.py"),
             "--quick", "--seconds", "1"]
    cmds += [spine + ["--trace", trace, "--out",
                      os.path.join(tmp, f"spine{trace}.json")]
             for trace in ("0", "1")]
    # --benchmark-disable runs each benchmark body once, untimed; timed
    # rounds pause every tracer, so they would hide what they run.
    cmds += [[PY, "-m", "pytest", "-q", "-p", "no:cacheprovider",
              "--benchmark-disable", "benchmarks"]]
    return cmds


TEST_COMMANDS = [[PY, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                  "tests"]]


def install_hook(tmp, out):
    """Write the collector and its ``.pth`` into a fresh user site dir
    that records into ``out``; returns the environment that loads it."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONUSERBASE=os.path.join(tmp, "userbase"),
               SERVE_SMOKE_DIR=os.path.join(tmp, "serve-smoke"))
    env.pop("PYTHONNOUSERSITE", None)
    site_dir = subprocess.check_output(
        [PY, "-c", "import site; print(site.getusersitepackages())"],
        env=env, text=True).strip()
    os.makedirs(site_dir, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(site_dir, "_reach_hook.py"), "w") as fh:
        fh.write(_HOOK.format(src=os.path.realpath(SRC) + os.sep, out=out))
    with open(os.path.join(site_dir, "_reach_hook.pth"), "w") as fh:
        fh.write("import _reach_hook\n")
    return env


def run_phase(name, cmds, tmp):
    """Run ``cmds`` under the collector; returns (reached keys, failures)."""
    out = os.path.join(tmp, f"reach-{name}")
    env = install_hook(tmp, out)
    failures = []
    for i, argv in enumerate(cmds):
        shown = " ".join(os.path.relpath(a, ROOT) if a.startswith(ROOT)
                         else a for a in argv[1:])
        log = os.path.join(tmp, f"{name}-{i}.log")
        start = time.monotonic()
        with open(log, "w") as fh:
            rc = subprocess.run(argv, cwd=ROOT, env=env, stdout=fh,
                                stderr=subprocess.STDOUT).returncode
        print(f"[{name}] rc={rc} {time.monotonic() - start:6.1f}s  {shown}",
              file=sys.stderr, flush=True)
        if rc != 0:
            with open(log) as fh:
                sys.stderr.write("".join(fh.readlines()[-20:]))
            # pytest exits 1 when tests fail, 2+ when it could not run.
            if rc != 1 or "pytest" not in argv:
                failures.append(shown)
    reached = set()
    for path in glob.glob(os.path.join(out, "*.txt")):
        with open(path) as fh:
            for line in fh:
                rel, _, lineno = line.strip().rpartition(":")
                reached.add((rel, int(lineno)))
    return reached, failures


def functions():
    """Every ``def`` under ``src/repro``: (file, first line, qualified
    name, line count).  The first line is the first decorator's, which
    is what a code object's ``co_firstlineno`` holds."""
    found = []

    def visit(node, rel, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, rel, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                found.append((rel, first, prefix + child.name,
                              child.end_lineno - first + 1))
                visit(child, rel, prefix + child.name + ".")
            else:
                visit(child, rel, prefix)

    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                                 recursive=True)):
        rel = os.path.relpath(path, SRC)
        with open(path) as fh:
            visit(ast.parse(fh.read(), path), rel, "")
    return found


def render(funcs, product, tests):
    only_tests = [f for f in funcs if f[:2] not in product and f[:2] in tests]
    nothing = [f for f in funcs if f[:2] not in product and f[:2] not in tests]
    lines = [f"reach census: {len(funcs)} functions in src/repro",
             f"  reached by a product entry point: "
             f"{len(funcs) - len(only_tests) - len(nothing)}"]
    for title, group in (("reached only by tier-1 tests", only_tests),
                         ("reached by nothing", nothing)):
        lines.append(f"  {title}: {len(group)} functions, "
                     f"{sum(f[3] for f in group)} lines")
    for title, group in (("reached only by tier-1 tests", only_tests),
                         ("reached by nothing", nothing)):
        lines += ["", f"== {title} ({len(group)})"]
        lines += [f"  {rel}:{first}  {name}  ({n} lines)"
                  for rel, first, name, n in group]
    return "\n".join(lines)


def main(argv=None):
    argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0]).parse_args(argv)
    tmp = tempfile.mkdtemp(prefix="reach-census-")
    try:
        product, failures = run_phase("product", product_commands(tmp), tmp)
        tests, test_failures = run_phase("tests", TEST_COMMANDS, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    funcs = functions()
    print(render(funcs, product, tests))
    failures += test_failures
    sentinel = [f for f in funcs if (f[0], f[2]) == SENTINEL]
    if not sentinel or sentinel[0][:2] not in product:
        failures.append("cli._serve_run_server not reached: the collector "
                        "missed child processes or never loaded")
    for failure in failures:
        print(f"reach census: failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""spine: the repo's end-to-end + per-layer benchmark (see README.md).

    python3 benchmarks/spine/run.py                     # all 8 workloads
    python3 benchmarks/spine/run.py --workload ttcp_bulk --seed 3
    python3 benchmarks/spine/run.py --compare A.json B.json

The driver's form adds ``--seconds S --trace 0|1`` and reads the last
line of standard output (one JSON object).  Every timed run is a fresh
subprocess with tracing off; ``--trace 1`` makes the one traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import report  # noqa: E402  (needs HERE on the path)

CHILD_TIMEOUT_S = 170.0
EXTRA_SETUPS = 4


def _die(message: str, code: int = 2):
    print(f"spine: {message}", file=sys.stderr)
    sys.exit(code)


# -- the child: one run in a fresh process ------------------------------------


def _peak_rss_mb() -> float:
    """High-water resident size of this process plus its largest reaped
    child (the forked shard workers / job attempts)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _cpu_s() -> float:
    """Processor seconds (user + sys) this process and its reaped children
    have used since it was forked.  Unlike the wall clock it does not run
    while a neighbour on the shared host holds the core."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _first_pass(wl, deep: bool, setup_only: bool) -> dict:
    """The timed protocol: set up, run the fixed work, check it."""
    try:
        wl.setup()
        setup_s = _cpu_s()
        if setup_only:
            return {"setup_s": setup_s}
        t_run = time.perf_counter()
        try:
            wl.run()
            wall_s = time.perf_counter() - t_run
            cpu_s = _cpu_s() - setup_s
            rss = _peak_rss_mb()
            outcome = wl.check(deep=deep)
        except Exception as exc:   # noqa: BLE001 - a failed run is a result
            wall_s = time.perf_counter() - t_run
            cpu_s = _cpu_s() - setup_s
            rss = _peak_rss_mb()
            outcome = wl.failed_run(exc)
    finally:
        wl.teardown()
    if wl.cpu_fact:
        outcome.facts[wl.cpu_fact] = cpu_s
    return {"setup_s": setup_s, "cpu_s": cpu_s, "wall_s": wall_s,
            "peak_rss_mb": rss,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "notes": outcome.notes, "headline": outcome.headline,
            "sim_time_us": outcome.sim_time_us, "facts": outcome.facts,
            "timelines": outcome.timelines,
            "job_latencies_s": outcome.job_latencies_s,
            "paper_ref": wl.paper_ref.value if wl.paper_ref else None}


def _traced_pass(make, first: dict) -> dict:
    """Profile ``inproc()`` once with the census on; ``first`` is the
    untraced pass that came before it in this process."""
    import layers
    import workloads

    untraced_s = first["wall_s"]
    wl = make()
    if type(wl).inproc is not workloads.Workload.inproc:
        # inproc() is not run(): time it untraced too, as the base.
        wl.inproc_setup()
        t0 = time.perf_counter()
        wl.inproc()
        untraced_s = time.perf_counter() - t0
        wl = make()
    tracer = layers.LayerTracer()
    with layers.census(workloads.CENSUS_CLASSES) as seen:
        wl.inproc_setup()
        tracer.run(wl.inproc)
        counts = workloads.census_counts(seen, first["sim_time_us"],
                                         first["timelines"])
    counts.update(tracer.counted)
    if first["sim_time_us"] is not None:
        counts["sim.time_us"] = first["sim_time_us"]
    counts["sim.wall_us_per_event"] = untraced_s * 1e6 / counts["sim.events"]
    counts["trace_overhead_x"] = tracer.wall_s / untraced_s
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    path = os.path.join(workloads.OUT_DIR, f"{wl.name}.trace.json")
    with open(path, "w") as fh:
        json.dump({"workload": wl.name, "seed": wl.seed,
                   "traced_wall_s": tracer.wall_s, "self_s": tracer.self_s,
                   "calls_in": tracer.calls_in, "spans": tracer.spans()},
                  fh, indent=1)
    return {"layers": {
                "self_s": {f"{k}.self_s": v
                           for k, v in tracer.self_s.items()},
                "calls_in": {f"{k}.calls_in": v
                             for k, v in tracer.calls_in.items()},
                "counts": counts},
            "traced_wall_s": tracer.wall_s, "trace_note": wl.trace_note,
            "trace_file": os.path.relpath(path, ROOT)}


def child_main(args) -> int:
    sys.path.insert(0, SRC)
    from repro import fastpath
    import workloads

    make = lambda: workloads.WORKLOADS[args.workload](args.seed, args.quick)
    out = _first_pass(make(), deep=bool(args.trace),
                      setup_only=args.setup_only)
    out.update(workload=args.workload, seed=args.seed,
               fastpath=fastpath.ENABLED)
    if args.trace and not out["failed"]:
        out.update(_traced_pass(make, out))
    print(json.dumps(out))
    return 0


# -- the orchestrator -----------------------------------------------------------


def _spawn(workload: str, seed: int, quick: bool, trace: bool = False,
           setup_only: bool = False) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "REPRO_FASTPATH"}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--child",
           "--workload", workload, "--seed", str(seed)]
    if quick:
        cmd.append("--quick")
    if trace:
        cmd += ["--trace", "1"]
    if setup_only:
        cmd.append("--setup-only")
    # Its own session, so a run that overstays takes its forked shard
    # workers and job attempts down with it.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _die(f"{workload}: run process killed after {CHILD_TIMEOUT_S:.0f} s", 1)
    finally:
        # Every way out (timeout, SIGTERM, Ctrl-C) leaves nothing behind.
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        _die(f"{workload}: run process exited {proc.returncode}", 1)
    return json.loads(stdout.strip().splitlines()[-1])


def _timed_runs(workload: str, seed: int, quick: bool, seconds: float):
    """Fresh-subprocess timed runs until the next would overrun ``seconds``.

    Set-up is a fraction of a second of interpreter start and import; a
    few set-up-only processes first give its median enough samples
    whatever the run count is.
    """
    start = time.perf_counter()
    setups = [_spawn(workload, seed, quick, setup_only=True)["setup_s"]
              for _ in range(EXTRA_SETUPS)]
    runs, longest = [], 0.0
    while True:
        t0 = time.perf_counter()
        runs.append(_spawn(workload, seed, quick))
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return runs, setups


def fingerprint(seed: int, fastpath) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit,
            "fastpath": fastpath, "seed": seed}


def measure(workload: str, seed: int, quick: bool, seconds: float,
            trace) -> dict:
    """One workload's entry: timed runs, then (unless ``trace == 0``) the
    traced run.  ``trace == 1`` (the driver's form) makes the traced run
    only; its untraced first pass stands in for the timed runs."""
    traced, setups = None, []
    if trace == 1:
        traced = _spawn(workload, seed, quick, trace=True)
        timed = [traced]
    else:
        timed, setups = _timed_runs(workload, seed, quick, seconds)
        if trace is None and not any(r["failed"] for r in timed):
            traced = _spawn(workload, seed, quick, trace=True)
    entry = {"runs": len(timed),
             "attempted": sum(r["attempted"] for r in timed),
             "failed": sum(r["failed"] for r in timed),
             "fastpath": timed[0]["fastpath"],
             "notes": sorted({n for r in timed for n in r["notes"]}),
             "end_to_end": report.end_to_end_entry(timed, setups)}
    if traced is not None and "layers" in traced:
        entry["per_layer"] = report.per_layer_entry(traced,
                                                    entry["end_to_end"])
        entry["traced_wall_s"] = traced["traced_wall_s"]
        entry["trace_note"] = traced["trace_note"]
        entry["trace_file"] = traced["trace_file"]
    return entry


def driver_line(entry: dict, trace: int) -> str:
    """The contract's last line: every end_to_end metric with ``--trace 0``,
    every per_layer metric with ``--trace 1``."""
    if trace == 1:
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in entry.get("per_layer", {}).items()}
    else:
        metrics = {name: {"value": entry["end_to_end"][name]["value"],
                          "unit": unit} for name, unit in report.UNIVERSAL}
    return json.dumps({"correct": entry["failed"] == 0,
                       "attempted": entry["attempted"],
                       "failed": entry["failed"], "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=report.WORKLOAD_NAMES,
                    help="one workload (default: all eight)")
    ap.add_argument("--seed", type=int, default=1,
                    help="drives every generated input (default 1)")
    ap.add_argument("--seconds", type=float,
                    help="timed-run budget per workload "
                         "(default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: timed runs only; 1: the traced run only; "
                         "default: both")
    ap.add_argument("--quick", action="store_true",
                    help="small sizes, for the self-test")
    ap.add_argument("--out", help="write the result set here "
                                  "(default: benchmarks/spine/_out/results.json)")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="compare two result sets; A is the base")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.compare:
        text, ok = report.compare(*args.compare)
        print(text)
        return 0 if ok else 1
    if not os.path.isdir(os.path.join(SRC, "repro")):
        _die(f"no simulator source at {SRC}; run from a full checkout")
    if args.child:
        return child_main(args)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if "REPRO_FASTPATH" in os.environ:
        _die("REPRO_FASTPATH is set; the benchmark measures the default "
             "configuration only, unset it")
    with open(report.BENCHMARK_JSON) as fh:
        seconds = args.seconds or json.load(fh)["run_seconds"]
    # The build step: byte-compile once so no timed run pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE],
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    cpus = len(os.sched_getaffinity(0))
    names = [args.workload] if args.workload else list(report.WORKLOAD_NAMES)
    results, skipped = {}, []
    for name in names:
        if name in report.NEEDS_2_CPUS and cpus < 2:
            print(f"== {name}: skipped: needs 2 CPUs (have {cpus})")
            skipped.append(name)
            continue
        entry = measure(name, args.seed, args.quick, seconds, args.trace)
        results[name] = entry
        print(report.render_workload(name, entry), flush=True)
    if not results:
        _die("nothing ran", 3)
    first = next(iter(results.values()))
    result_set = {"benchmark": "spine", "seed": args.seed,
                  "quick": args.quick,
                  "fingerprint": fingerprint(args.seed, first["fastpath"]),
                  "skipped": skipped, "workloads": results}
    result_set["fingerprint"]["runs"] = {n: e["runs"]
                                         for n, e in results.items()}
    out_path = args.out or os.path.join(HERE, "_out", "results.json")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(result_set, fh, indent=1)
    print(f"fingerprint: {json.dumps(result_set['fingerprint'])}")
    print(f"result set written to {out_path}")
    failed = sum(e["failed"] for e in results.values())
    if args.workload and args.trace is not None:
        print(driver_line(results[args.workload], args.trace))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

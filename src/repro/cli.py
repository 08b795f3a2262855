"""Command-line interface: regenerate any of the paper's tables/figures.

Usage::

    python -m repro list
    python -m repro fig3
    python -m repro fig4
    python -m repro mtu
    python -m repro table1
    python -m repro tables23
    python -m repro fig7 [--mb 409]
    python -m repro ablation
    python -m repro all [--mb 409]
    python -m repro chaos --seed 1 [--drop 0.02 --corrupt 0.01 ...]
    python -m repro trace ttcp [--out-dir traces/]
    python -m repro metrics pingpong [--json]
    python -m repro cluster --hosts 16 --workers 2 [--check-determinism]
    python -m repro collective --engine nic --algo allreduce --hosts 64
    python -m repro collective --bench [--quick --out FILE]
    python -m repro gate check [--tier commit --workers 2 --json]
    python -m repro gate check --only 'incast_*'
    python -m repro serve run [--dir serve-data --port 8700 --pool 2]
    python -m repro serve submit --spec scenarios/incast_8to1.yaml --wait
    python -m repro serve bench [--duration 4 --json]
"""

from __future__ import annotations

import argparse
import sys
import time

from .errors import ReproError
from .units import MB


def _render(runner: str, **kwargs) -> str:
    """Run one paper-figure runner and render its table.  The runners
    module is imported here, on first use, so the other commands never
    load every figure's workloads."""
    from .bench import runners
    return getattr(runners, runner)(**kwargs).render()


EXPERIMENTS = {
    "fig3": ("Figure 3: application-to-application RTT",
             lambda args: _render("run_fig3")),
    "fig4": ("Figure 4: ttcp throughput + CPU utilization",
             lambda args: _render("run_fig4")),
    "mtu": ("Figure 4 text: QPIP MTU sweep + checksum variant",
            lambda args: _render("run_mtu_sweep")),
    "table1": ("Table 1: host overhead (1-byte TCP message)",
               lambda args: _render("run_table1")),
    "tables23": ("Tables 2 & 3: NIC occupancy per stage",
                 lambda args: _render("run_occupancy_tables")),
    "fig7": ("Figure 7: NBD throughput + CPU effectiveness",
             lambda args: _render("run_fig7", total_bytes=args.mb * MB)),
    "ablation": ("§5.2: Infiniband-class hardware applied to QPIP",
                 lambda args: _render("run_hw_ablation")),
    "msgsize": ("QPIP latency/bandwidth vs message size (n1/2)",
                lambda args: _render("run_msgsize_sweep")),
    "scaling": ("Aggregate throughput vs concurrent pairs (§1 claim)",
                lambda args: _render("run_fabric_scaling")),
}


def _at_least(kind, low, strict=False):
    """An argparse ``type=``: parse with ``kind`` and reject values below
    ``low`` (or equal to it when ``strict``), and NaN, as a usage error."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}")
        return value
    return parse


_POSITIVE_INT = _at_least(int, 0, strict=True)
_NON_NEGATIVE_INT = _at_least(int, 0)
_POSITIVE_FLOAT = _at_least(float, 0.0, strict=True)
_NON_NEGATIVE_FLOAT = _at_least(float, 0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="QPIP reproduction: regenerate the paper's experiments")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    for name, (desc, _fn) in EXPERIMENTS.items():
        p = sub.add_parser(name, help=desc)
        if name == "fig7":
            p.add_argument("--mb", type=_POSITIVE_INT, default=409,
                           help="working-set size in MB (paper: 409)")
    all_p = sub.add_parser("all", help="run every experiment")
    all_p.add_argument("--mb", type=_POSITIVE_INT, default=409)
    chaos_p = sub.add_parser(
        "chaos", help="run a workload under fault injection and check "
                      "the delivery/completion invariants")
    chaos_p.add_argument("--seed", type=int, default=1,
                         help="RNG seed (same seed => identical run)")
    chaos_p.add_argument("--workload",
                         choices=("ttcp", "pingpong", "kvstore"),
                         default="ttcp",
                         help="kvstore (replicated, client failover) "
                              "requires --recover")
    chaos_p.add_argument("--messages", type=_POSITIVE_INT, default=64)
    chaos_p.add_argument("--size", type=_POSITIVE_INT, default=4096,
                         help="message size in bytes")
    chaos_p.add_argument("--drop", type=float, default=0.02,
                         help="per-packet drop probability")
    chaos_p.add_argument("--corrupt", type=float, default=0.01,
                         help="per-packet bit-flip probability")
    chaos_p.add_argument("--reorder", type=float, default=0.0,
                         help="per-packet reorder (delay) probability")
    chaos_p.add_argument("--duplicate", type=float, default=0.0,
                         help="per-packet duplication probability")
    chaos_p.add_argument("--kill", choices=("none", "rst", "dma"),
                         default="none",
                         help="kill the QP mid-transfer and check that "
                              "every outstanding WR is flushed")
    chaos_p.add_argument("--kill-at", type=_NON_NEGATIVE_FLOAT,
                         default=5000.0,
                         help="kill time in simulated microseconds")
    chaos_p.add_argument("--recover", action="store_true",
                         help="run the workload through the self-healing "
                              "session layer and force QP restarts "
                              "mid-transfer; the invariant becomes "
                              "exactly-once delivery of every message")
    chaos_p.add_argument("--restarts", type=_NON_NEGATIVE_INT, default=3,
                         help="forced QP restarts in --recover mode")
    chaos_p.add_argument("--check-determinism", action="store_true",
                         help="run twice and compare completion traces")
    chaos_p.add_argument("--json", action="store_true",
                         help="print the result (or a structured error "
                              "object) as JSON")
    for cmd, help_text in (
            ("trace", "run a workload with full observability on and "
                      "write trace.jsonl / trace.chrome.json (Perfetto) / "
                      "capture.pcapng (Wireshark) / metrics.txt"),
            ("metrics", "run a workload with the metrics registry on and "
                        "print the report")):
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("workload", choices=("ttcp", "pingpong"))
        p.add_argument("--bytes", type=_POSITIVE_INT, default=256 * 1024,
                       help="ttcp transfer size")
        p.add_argument("--chunk", type=_POSITIVE_INT, default=8192,
                       help="ttcp message size")
        p.add_argument("--iterations", type=_POSITIVE_INT, default=20,
                       help="pingpong round trips")
        p.add_argument("--msg-size", type=_POSITIVE_INT, default=64,
                       help="pingpong message size")
        p.add_argument("--json", action="store_true",
                       help="print the summary as JSON")
        if cmd == "trace":
            p.add_argument("--out-dir", default="traces",
                           help="artifact output directory")
    cluster_p = sub.add_parser(
        "cluster", help="sharded parallel simulation of a large fabric; "
                        "bit-for-bit deterministic vs one process")
    cluster_p.add_argument("--workload", choices=("ttcp", "pingpong"),
                           default="ttcp")
    cluster_p.add_argument("--topology", choices=("fat-tree", "ring"),
                           default="fat-tree")
    cluster_p.add_argument("--hosts", type=_POSITIVE_INT, default=16)
    cluster_p.add_argument("--flows", type=_POSITIVE_INT, default=8)
    cluster_p.add_argument("--workers", type=_POSITIVE_INT, default=2,
                           help="shard count (1 = plain single-process run)")
    cluster_p.add_argument("--bytes", type=_POSITIVE_INT, default=65536,
                           help="ttcp bytes per flow")
    cluster_p.add_argument("--iterations", type=_POSITIVE_INT, default=10,
                           help="pingpong round trips per flow")
    cluster_p.add_argument("--seed", type=int, default=1)
    cluster_p.add_argument("--horizon", type=_POSITIVE_FLOAT,
                           default=20_000_000.0,
                           help="simulated horizon in microseconds")
    cluster_p.add_argument("--in-process", action="store_true",
                           help="drive shards in one OS process (debug)")
    cluster_p.add_argument("--check-determinism", action="store_true",
                           help="also run the 1-process oracle and require "
                                "bit-for-bit identical observables")
    cluster_p.add_argument("--bench", action="store_true",
                           help="measure events/sec at 1/2/4 workers")
    cluster_p.add_argument("--out", metavar="FILE",
                           help="--bench: also write the report to FILE")
    cluster_p.add_argument("--json", action="store_true",
                           help="print the result as JSON")
    coll_p = sub.add_parser(
        "collective", help="one collective op (barrier/broadcast/allreduce) "
                           "across every host: host engine vs NIC offload")
    coll_p.add_argument("--algo",
                        choices=("barrier", "broadcast", "allreduce"),
                        default="allreduce")
    coll_p.add_argument("--engine", choices=("host", "nic"), default="nic",
                        help="host = schedule in the application (a verbs "
                             "round trip per step); nic = schedule in "
                             "firmware (one doorbell, one CQE)")
    coll_p.add_argument("--variant", choices=("ring", "rd"), default="ring",
                        help="rd = recursive doubling (host allreduce only, "
                             "power-of-two world)")
    coll_p.add_argument("--hosts", type=int, default=16,
                        help="world size: rank i runs on host i")
    coll_p.add_argument("--vector-len", type=int, default=1024,
                        help="float64 elements per rank")
    coll_p.add_argument("--root", type=int, default=0,
                        help="broadcast root rank")
    coll_p.add_argument("--eager-threshold", type=int, default=4096,
                        help="NIC engine: chunk bytes above this go "
                             "rendezvous (RTS/CTS) instead of eager")
    coll_p.add_argument("--topology", choices=("fat-tree", "ring"),
                        default="fat-tree")
    coll_p.add_argument("--hosts-per-edge", type=int, default=4,
                        help="fat-tree: hosts per edge switch (raise for "
                             "large worlds, e.g. 8 at 1024 hosts)")
    coll_p.add_argument("--spines", type=int, default=2)
    coll_p.add_argument("--ring-switches", type=int, default=4)
    coll_p.add_argument("--workers", type=int, default=1,
                        help="shard count (1 = single process)")
    coll_p.add_argument("--in-process", action="store_true",
                        help="drive shards in one OS process (debug)")
    coll_p.add_argument("--check-determinism", action="store_true",
                        help="also run the 1-process oracle and require "
                             "bit-for-bit identical observables")
    coll_p.add_argument("--seed", type=int, default=1)
    coll_p.add_argument("--horizon", type=_POSITIVE_FLOAT,
                        default=20_000_000.0,
                        help="simulated horizon in microseconds (raise "
                             "for 512+ hosts)")
    coll_p.add_argument("--bench", action="store_true",
                        help="NIC-vs-host latency curves over several "
                             "world sizes")
    coll_p.add_argument("--quick", action="store_true",
                        help="--bench: small worlds (CI smoke)")
    coll_p.add_argument("--out", metavar="FILE",
                        help="--bench: also write the report to FILE")
    coll_p.add_argument("--json", action="store_true",
                        help="print the result (or a structured error "
                             "object) as JSON")
    gate_p = sub.add_parser(
        "gate", help="scenario-corpus regression gate: run the committed "
                     "scenarios/ specs and compare against golden digests")
    gate_p.add_argument("action",
                        choices=("list", "run", "record", "check"),
                        help="list specs / run with invariants only / "
                             "record golden baselines / check for drift")
    gate_p.add_argument("names", nargs="*",
                        help="scenario names (default: the whole tier)")
    gate_p.add_argument("--scenarios-dir", default="scenarios",
                        help="spec directory (default: scenarios/)")
    gate_p.add_argument("--tier", choices=("commit", "nightly"),
                        default="commit",
                        help="commit = fast subset (default); "
                             "nightly = the full corpus")
    gate_p.add_argument("--workers", type=_POSITIVE_INT, default=2,
                        help="concurrent scenario worker processes")
    gate_p.add_argument("--only", default=None, metavar="GLOB",
                        help="fnmatch glob over scenario names (e.g. "
                             "'incast_*'): run one scenario or family "
                             "without replaying the whole corpus")
    gate_p.add_argument("--json", action="store_true",
                        help="print the report as JSON")
    gate_p.add_argument("--report", default=None,
                        help="also write the JSON report to this path "
                             "(CI drift artifact)")
    serve_p = sub.add_parser(
        "serve", help="simulation-as-a-service: a supervised job server "
                      "with admission control and crash-safe results")
    serve_p.add_argument("action",
                         choices=("run", "bench", "submit", "status"),
                         help="run the server / open-loop Poisson bench / "
                              "submit one scenario / show server status")
    serve_p.add_argument("--dir", default="serve-data",
                         help="data directory (journal, snapshot, "
                              "serve.json endpoint file)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=0,
                         help="0 = ephemeral (written to serve.json)")
    serve_p.add_argument("--pool", type=int, default=2,
                         help="concurrent forked job workers")
    serve_p.add_argument("--max-queue", type=int, default=64,
                         help="admission: bounded queue depth")
    serve_p.add_argument("--client-cap", type=int, default=8,
                         help="admission: per-client in-flight cap")
    serve_p.add_argument("--max-attempts", type=int, default=3,
                         help="supervised retries per job")
    serve_p.add_argument("--breaker-deaths", type=int, default=3,
                         help="consecutive worker deaths before a "
                              "scenario is quarantined")
    serve_p.add_argument("--drain-timeout", type=float, default=30.0,
                         help="SIGTERM: seconds to wait for running jobs")
    serve_p.add_argument("--url", default=None,
                         help="bench/submit/status: server endpoint "
                              "(default: read <dir>/serve.json)")
    serve_p.add_argument("--spec", default=None,
                         help="submit/bench: scenario spec file "
                              "(YAML/JSON)")
    serve_p.add_argument("--key", default=None,
                         help="submit: idempotency key")
    serve_p.add_argument("--client-name", default="cli",
                         help="submit: client id for in-flight caps")
    serve_p.add_argument("--wait", action="store_true",
                         help="submit: block until the job is terminal")
    serve_p.add_argument("--timeout", type=float, default=120.0,
                         help="submit --wait budget (seconds)")
    serve_p.add_argument("--duration", type=float, default=4.0,
                         help="bench: seconds per load phase")
    serve_p.add_argument("--rate", type=float, default=None,
                         help="bench: explicit arrival rate (default: "
                              "sweep 0.5x and 2x measured capacity)")
    serve_p.add_argument("--seed", type=int, default=1,
                         help="bench: Poisson arrival RNG seed")
    serve_p.add_argument("--out", metavar="FILE",
                         help="bench: also write the report to FILE")
    serve_p.add_argument("--json", action="store_true",
                         help="print results (or a structured error "
                              "object) as JSON")
    return parser


#: Exit status of a command that fails with a :class:`ReproError`, and the
#: arguments its ``--json`` error object repeats.  Commands not listed
#: exit 2 and repeat none.
_ERROR_CONTRACT = {
    "cluster": (1, ("workers", "seed")),
    "collective": (1, ("engine", "algo", "hosts")),
}


def _json_error(command: str, kind: str, message: str, exit_code: int,
                **extra) -> int:
    """Machine-readable failure contract shared by every command: nonzero
    exit + one structured JSON error object on stdout."""
    import json as _json
    obj = {"ok": False, "command": command,
           "error": dict(extra, kind=kind, message=message)}
    print(_json.dumps(obj, indent=2, sort_keys=True))
    return exit_code


def _emit_bench_report(args, section: str, report: dict, render) -> None:
    """Shared tail of the three bench commands: print the report (one JSON
    document under ``--json``) and, only when ``--out FILE`` was given,
    write ``{section: report}`` to FILE, replacing whatever was there."""
    import json as _json
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            _json.dump({section: report}, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"[wrote {args.out}]", file=sys.stderr)


def run_trace_cmd(args) -> int:
    import json as _json
    from .obs.runner import render_summary, run_traced
    write = args.command == "trace"
    summary = run_traced(
        workload=args.workload,
        out_dir=getattr(args, "out_dir", "."),
        total_bytes=args.bytes, chunk=args.chunk,
        iterations=args.iterations, msg_size=args.msg_size,
        write_artifacts=write)
    if summary["dropped_events"]:
        print(f"repro {args.command}: warning: the trace recorder was full "
              f"and dropped {summary['dropped_events']:,} events",
              file=sys.stderr)
    if args.json:
        print(_json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(render_summary(summary))
    if args.command == "metrics":
        print(_render_metrics_snapshot(summary["metrics"]))
    return 0


def _render_metrics_snapshot(snapshot: dict) -> str:
    lines = ["metrics:"]
    for name, value in snapshot.items():
        if isinstance(value, dict):
            detail = " ".join(f"{k}={v:.2f}" if isinstance(v, float)
                              else f"{k}={v}" for k, v in value.items())
            lines.append(f"  {name:40s} {detail}")
        else:
            lines.append(f"  {name:40s} {value:>12,}")
    return "\n".join(lines)


def run_chaos_cmd(args) -> int:
    import json as _json
    from .faults import FaultPlan, check_determinism, run_chaos
    plan = FaultPlan()
    if args.drop:
        plan.drop(args.drop)
    if args.corrupt:
        plan.corrupt(args.corrupt)
    if args.reorder:
        plan.reorder(args.reorder, delay=40.0, jitter=20.0)
    if args.duplicate:
        plan.duplicate(args.duplicate)
    kwargs = dict(workload=args.workload, plan=plan,
                  messages=args.messages, msg_size=args.size,
                  kill=args.kill, kill_at=args.kill_at,
                  recover=args.recover, restarts=args.restarts)
    if args.check_determinism:
        result, _again = check_determinism(seed=args.seed, **kwargs)
    else:
        result = run_chaos(seed=args.seed, **kwargs)
    violations = result.violations()
    if args.json:
        if violations:
            return _json_error("chaos", "invariant_violation",
                               "; ".join(violations), 1,
                               violations=violations, seed=args.seed,
                               workload=args.workload)
        summary = {"ok": True, "command": "chaos", "seed": args.seed,
                   "workload": args.workload,
                   "messages_delivered": result.messages_delivered,
                   "bytes_delivered": result.bytes_delivered,
                   "determinism": bool(args.check_determinism)}
        print(_json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(result.summary())
    if args.check_determinism:
        print("  determinism: identical traces across two runs")
    if violations:
        print("repro chaos: invariant violation: "
              + "; ".join(violations), file=sys.stderr)
        return 1
    return 0


def run_cluster_cmd(args) -> int:
    import json as _json
    from .cluster import (ClusterSpec, assert_equivalent, make_flows,
                          run_cluster, run_single)
    from .cluster.bench import measure_scaling, render_scaling, scaling_spec
    if args.bench:
        spec = scaling_spec(hosts=max(args.hosts, 32), seed=args.seed,
                            horizon=args.horizon)
        scaling = measure_scaling(spec, processes=not args.in_process,
                                  check_determinism=args.check_determinism)
        _emit_bench_report(args, "cluster_scaling", scaling, render_scaling)
        return 0
    spec = ClusterSpec(
        topology=args.topology, hosts=args.hosts, seed=args.seed,
        hosts_per_edge=max(2, min(4, args.hosts // args.workers)),
        horizon=args.horizon, metrics=True,
        flows=make_flows(args.workload, args.hosts, args.flows,
                         seed=args.seed, total_bytes=args.bytes,
                         iterations=args.iterations))
    result = run_cluster(spec, args.workers,
                         processes=not args.in_process and args.workers > 1)
    if args.check_determinism:
        assert_equivalent(run_single(spec), result)
    summary = {
        "workload": args.workload, "topology": spec.topology,
        "hosts": spec.hosts, "flows": len(spec.flows),
        "workers": result.num_workers, "events": result.events,
        "barriers": result.barriers, "trunk_msgs": result.trunk_msgs,
        "events_per_sec": round(result.events_per_sec, 1),
        "sim_time_us": result.now,
        "per_worker_events": result.per_worker_events,
    }
    if args.check_determinism:
        summary["determinism"] = "bit-identical to 1-process oracle"
    if args.json:
        print(_json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"cluster: {args.workload} x{len(spec.flows)} on "
          f"{spec.hosts}-host {spec.topology}, "
          f"{result.num_workers} worker(s)")
    for key in ("events", "barriers", "trunk_msgs", "events_per_sec",
                "sim_time_us"):
        print(f"  {key:16s} {summary[key]:>14,}")
    if "determinism" in summary:
        print(f"  determinism: {summary['determinism']}")
    return 0


def run_collective_cmd(args) -> int:
    import json as _json
    from .collectives import CollectiveJob, CollectiveWorkSpec
    from .collectives.bench import (QUICK_WORLDS, measure_collectives,
                                    render_curves)
    if args.bench:
        curves = measure_collectives(
            worlds=QUICK_WORLDS if args.quick else (16, 32, 64),
            algo=args.algo, vector_len=min(args.vector_len, 256),
            seed=args.seed, horizon=args.horizon)
        _emit_bench_report(args, "collectives", curves, render_curves)
        return 0 if curves["all_ok"] and curves["engines_agree"] else 1
    work = CollectiveWorkSpec(
        algo=args.algo, engine=args.engine, variant=args.variant,
        vector_len=args.vector_len, root=args.root, seed=args.seed,
        eager_threshold=args.eager_threshold)
    summary = CollectiveJob(
        work, hosts=args.hosts, topology=args.topology,
        hosts_per_edge=args.hosts_per_edge, spines=args.spines,
        ring_switches=args.ring_switches, workers=args.workers,
        processes=not args.in_process and args.workers > 1,
        check_determinism=args.check_determinism,
        horizon=args.horizon, seed=args.seed).run()
    ok = bool(summary["status_ok"] and summary["ranks_agree"]
              and summary["oracle_match"])
    if args.json:
        print(_json.dumps(dict(summary, ok=ok), indent=2, sort_keys=True))
        return 0 if ok else 1
    print(f"collective: {summary['algo']} ({summary['variant']}) on "
          f"{summary['world']} hosts, engine={summary['engine']}, "
          f"{summary['vector_len']} float64/rank")
    print(f"  latency (max rank)   {summary['max_wall_time_us']:>14,.1f} us")
    print(f"  latency (mean rank)  {summary['mean_wall_time_us']:>14,.1f} us")
    print(f"  bytes on the wire    {summary['total_bytes_sent']:>14,}")
    print(f"  steps per rank       "
          f"{'/'.join(str(s) for s in summary['steps_per_rank']):>14}")
    print(f"  sim events           {summary['sim_events']:>14,}")
    print(f"  statuses: {', '.join(summary['statuses'])}; "
          f"ranks agree: {summary['ranks_agree']}; "
          f"oracle match: {summary['oracle_match']}")
    if summary["determinism_checked"]:
        print("  determinism: sharded run bit-identical to 1-process oracle")
    if not ok:
        print("repro collective: exactness check failed", file=sys.stderr)
    return 0 if ok else 1


def run_gate_cmd(args) -> int:
    import json as _json
    from .gate import (check_outcomes, checks_json, load_corpus,
                       outcomes_json, record_outcomes, render_checks,
                       render_outcomes, render_scenario_list, run_corpus)
    specs = load_corpus(args.scenarios_dir, tier=args.tier,
                        names=args.names or None, only=args.only)
    if args.action == "list":
        if args.json:
            print(_json.dumps(
                {"ok": True, "command": "gate",
                 "scenarios": [s.to_dict() for s in specs]},
                indent=2, sort_keys=True))
        else:
            print(render_scenario_list(specs))
        return 0
    if not specs:
        if args.json:
            return _json_error("gate", "ConfigError",
                               "no scenarios selected", 2)
        print("repro gate: error: no scenarios selected", file=sys.stderr)
        return 2

    def progress(outcome):
        if not args.json:
            mark = "PASS" if outcome.ok else "FAIL"
            print(f"  [{mark}] {outcome.name} ({outcome.status}, "
                  f"{outcome.wall_s:.2f}s)", flush=True)

    if not args.json:
        print(f"gate {args.action}: {len(specs)} scenario(s), "
              f"{args.workers} worker(s)", flush=True)
    outcomes = run_corpus(specs, jobs=args.workers, progress=progress)
    if args.action == "check":
        checks = check_outcomes(specs, outcomes, args.scenarios_dir)
        report = checks_json(checks)
        rendered = render_checks(checks)
    else:
        report = outcomes_json(outcomes)
        rendered = render_outcomes(outcomes)
        if args.action == "record":
            paths = record_outcomes(specs, outcomes, args.scenarios_dir)
            report["recorded"] = paths
            rendered += "\n  recorded {} golden file(s)".format(len(paths))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            _json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        print(rendered)
        if not report["ok"]:
            print("repro gate: FAILED", file=sys.stderr)
    return 0 if report["ok"] else 1


def _serve_url(args) -> str:
    """Resolve the server endpoint: --url, else <dir>/serve.json."""
    import json as _json
    import os
    if args.url:
        return args.url
    endpoint = os.path.join(args.dir, "serve.json")
    if not os.path.exists(endpoint):
        raise ReproError(
            f"no --url given and {endpoint} not found; is the server "
            f"running with --dir {args.dir}?")
    with open(endpoint, encoding="utf-8") as f:
        return _json.load(f)["url"]


def _serve_spec(args) -> dict:
    """Load the scenario spec for submit/bench (or the bench default)."""
    from .gate.spec import ScenarioSpec, WorkloadSpec, load_scenario
    if args.spec:
        return load_scenario(args.spec).to_dict()
    if args.action == "bench":
        return ScenarioSpec(
            name="serve_bench", hosts=8, seed=7,
            workload=WorkloadSpec(count=2, total_bytes=131072,
                                  chunk=8192),
            workers=(1,), timeout_s=60.0).to_dict()
    raise ReproError("serve submit needs --spec <scenario file>")


def _serve_run_server(args) -> int:
    import signal as _signal
    import threading
    from .serve import ReproServer, ServeConfig
    config = ServeConfig(
        data_dir=args.dir, host=args.host, port=args.port,
        pool_size=args.pool, max_queue=args.max_queue,
        client_cap=args.client_cap, max_attempts=args.max_attempts,
        breaker_deaths=args.breaker_deaths,
        drain_timeout_s=args.drain_timeout, seed=args.seed)
    server = ReproServer(config).start()
    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    _signal.signal(_signal.SIGTERM, _on_signal)
    _signal.signal(_signal.SIGINT, _on_signal)
    print(f"repro serve: listening on {server.url} "
          f"(pool={config.pool_size}, queue<={config.max_queue}, "
          f"data in {config.data_dir})", flush=True)
    while not stop.is_set() and server._http_thread.is_alive():
        stop.wait(0.2)      # POST /drain stops the http thread itself
    stragglers = server.drain_and_stop(args.drain_timeout)
    print(f"repro serve: drained and stopped "
          f"({stragglers} job(s) interrupted)", flush=True)
    return 0


def run_serve_cmd(args) -> int:
    import json as _json
    from .serve import ServeClient, render_loadgen, run_loadgen
    if args.action == "run":
        return _serve_run_server(args)
    if args.action == "status":
        client = ServeClient(_serve_url(args))
        ready_status, ready = client.readyz()
        summary = {"ok": ready_status == 200, "command": "serve",
                   "readyz": ready, "metricz": client.metricz()}
        if args.json:
            print(_json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(f"serve at {client.host}:{client.port}: "
                  f"{'ready' if summary['ok'] else 'NOT READY'}")
            for name, count in sorted(
                    summary["metricz"].get("jobs", {}).items()):
                print(f"  {name:12s} {count}")
            print(f"  queue depth  "
                  f"{summary['metricz'].get('queue_depth', 0)}")
        return 0 if summary["ok"] else 1
    if args.action == "submit":
        spec = _serve_spec(args)
        client = ServeClient(_serve_url(args))
        status, data, headers = client.submit(
            spec, key=args.key, client=args.client_name)
        if status not in (200, 202):
            error = data.get("error", {"kind": f"http_{status}",
                                       "message": repr(data)})
            if args.json:
                return _json_error("serve", error.get("kind", "error"),
                                   error.get("message", ""), 1,
                                   http_status=status)
            print(f"repro serve: submit rejected ({status}): "
                  f"{error.get('message')}", file=sys.stderr)
            return 1
        job = data["job"]
        if args.wait:
            job = client.wait(job["id"], timeout_s=args.timeout)
        ok = (not args.wait) or job["state"] == "done"
        if args.json:
            print(_json.dumps({"ok": ok, "command": "serve",
                               "http_status": status, "job": job},
                              indent=2, sort_keys=True))
        else:
            print(f"job {job['id']} ({job['key']}): {job['state']} "
                  f"after {job['attempts']} attempt(s)")
            if job.get("error"):
                print(f"  error: {job['error']['kind']}: "
                      f"{job['error']['message']}")
        return 0 if ok else 1
    # bench: drive an existing server (--url) or a private one
    spec = _serve_spec(args)
    own_server = None
    if args.url:
        url = args.url
    else:
        import tempfile
        from .serve import ReproServer, ServeConfig
        own_server = ReproServer(ServeConfig(
            data_dir=tempfile.mkdtemp(prefix="repro-serve-bench-"),
            pool_size=args.pool, max_queue=args.max_queue,
            client_cap=max(args.client_cap, args.max_queue),
            seed=args.seed)).start()
        url = own_server.url
    try:
        report = run_loadgen(url, spec, duration_s=args.duration,
                             seed=args.seed, rate_per_s=args.rate)
    finally:
        if own_server is not None:
            own_server.drain_and_stop(10.0)
    _emit_bench_report(args, "serve_load", report, render_loadgen)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        exit_code, fields = _ERROR_CONTRACT.get(args.command, (2, ()))
        if getattr(args, "json", False):
            extra = {name: getattr(args, name) for name in fields}
            return _json_error(args.command, type(exc).__name__, str(exc),
                               exit_code, **extra)
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return exit_code


def _dispatch(args) -> int:
    if args.command in (None, "list"):
        print("experiments:")
        for name, (desc, _fn) in EXPERIMENTS.items():
            print(f"  {name:10s} {desc}")
        print("  all        run everything (slow: full-size NBD)")
        print("  chaos      fault-injection run with invariant checks")
        print("  trace      traced run: Perfetto/Wireshark/metrics artifacts")
        print("  metrics    traced run: print the metrics report")
        print("  cluster    sharded parallel run of a large fabric "
              "(bit-for-bit deterministic)")
        print("  collective barrier/broadcast/allreduce across every host: "
              "host engine vs NIC offload")
        print("  gate       scenario-corpus regression gate "
              "(record/check golden digests)")
        print("  serve      supervised simulation service "
              "(run/submit/status/bench)")
        return 0
    if args.command == "chaos":
        return run_chaos_cmd(args)
    if args.command in ("trace", "metrics"):
        return run_trace_cmd(args)
    if args.command == "cluster":
        return run_cluster_cmd(args)
    if args.command == "collective":
        return run_collective_cmd(args)
    if args.command == "gate":
        return run_gate_cmd(args)
    if args.command == "serve":
        return run_serve_cmd(args)
    names = list(EXPERIMENTS) if args.command == "all" else [args.command]
    for name in names:
        desc, fn = EXPERIMENTS[name]
        t0 = time.time()
        if name == "fig7" and not hasattr(args, "mb"):
            args.mb = 409
        print(fn(args))
        print(f"[{name} ran in {time.time() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

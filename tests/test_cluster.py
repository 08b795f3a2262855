"""repro.cluster: sharded runs are bit-for-bit the single-process run.

The contract under test is the strongest the subsystem makes: for the
same :class:`ClusterSpec`, every observable — CQE streams, wire traces
(bytes *and* timestamps), merged metrics, final clocks — is identical
whether the fabric runs in one kernel or split across shards, in
process or in forked workers.  ``assert_equivalent`` raises naming the
first divergence, so a pass here is the full bit-identity claim.
"""

import json

import pytest

from repro.cluster import (ClusterError, ClusterSpec, FlowSpec, lookahead,
                           make_flows, partition_blueprint, run_cluster,
                           run_single, assert_equivalent)
from repro.errors import ConfigError
from repro.obs.metrics import MetricsRegistry
from repro.tools.inspect import merge_metrics_dumps


def ttcp_spec(hosts=4, flows=2, seed=3, **kw):
    kw.setdefault("topology", "fat-tree")
    kw.setdefault("hosts_per_edge", 2)
    kw.setdefault("metrics", True)
    kw.setdefault("horizon", 5_000_000.0)
    return ClusterSpec(
        hosts=hosts,
        flows=make_flows("ttcp", hosts, flows, seed=seed,
                         total_bytes=16384, chunk=4096),
        **kw)


class TestEquivalence:
    def test_two_shards_match_oracle_ttcp(self):
        spec = ttcp_spec(capture_hosts=("h0", "h3"))
        oracle = run_single(spec)
        sharded = run_cluster(spec, 2)
        assert_equivalent(oracle, sharded)
        assert sharded.trunk_msgs > 0, "flows never crossed the cut"
        assert sharded.events == oracle.events

    def test_four_shards_match_oracle(self):
        spec = ttcp_spec(hosts=8, flows=4, seed=5)
        assert_equivalent(run_single(spec), run_cluster(spec, 4))

    def test_pingpong_on_a_ring(self):
        spec = ClusterSpec(
            topology="ring", hosts=6, ring_switches=3, metrics=True,
            horizon=5_000_000.0,
            flows=make_flows("pingpong", 6, 2, seed=11, iterations=4,
                             msg_size=128))
        assert_equivalent(run_single(spec), run_cluster(spec, 3))

    def test_forked_workers_match_oracle(self):
        # Exercises TrunkMsg/Packet pickling and the pipe protocol.
        spec = ttcp_spec(capture_hosts=("h1",))
        oracle = run_single(spec)
        sharded = run_cluster(spec, 2, processes=True)
        assert_equivalent(oracle, sharded)

    def test_flow_records_carry_full_cqe_streams(self):
        spec = ttcp_spec()
        result = run_cluster(spec, 2)
        for fid, record in result.flows.items():
            assert record["rx_bytes"] == 16384
            assert record["tx_bytes"] == 16384
            assert record["client_cqes"] and record["server_cqes"]
            # CQE tuples: (wr_id, qp_num, opcode, status, bytes, time)
            for cqe in record["server_cqes"]:
                assert cqe[3] == "SUCCESS" and cqe[2] == "RECV"

    def test_divergence_is_named(self):
        spec = ttcp_spec()
        a = run_single(spec)
        b = run_cluster(spec, 2)
        b.flows[0]["rx_bytes"] += 1
        with pytest.raises(ClusterError, match="rx_bytes"):
            assert_equivalent(a, b)

    @pytest.mark.parametrize("engine", ["host", "nic"])
    def test_collective_shards_match_oracle(self, engine):
        from repro.collectives import (COLLECTIVE_FLOW_BASE,
                                       CollectiveWorkSpec, allreduce_oracle,
                                       result_digest)
        spec = ClusterSpec(
            topology="fat-tree", hosts=8, hosts_per_edge=2, metrics=True,
            horizon=10_000_000.0, seed=9,
            collective=CollectiveWorkSpec(engine=engine, algo="allreduce",
                                          vector_len=96, seed=9))
        oracle = run_single(spec)
        for workers in (2, 4):
            sharded = run_cluster(spec, workers)
            assert_equivalent(oracle, sharded)
            assert sharded.trunk_msgs > 0, "ring never crossed the cut"
        expected = result_digest(allreduce_oracle(8, 96, 9))
        for rank in range(8):
            record = oracle.flows[COLLECTIVE_FLOW_BASE + rank]
            assert record["status"] == "SUCCESS"
            assert record["result_digest"] == expected

    def test_collective_rides_with_flows(self):
        # A collective and ordinary flows share one fabric and stay
        # bit-identical under sharding.
        from repro.collectives import (COLLECTIVE_FLOW_BASE,
                                       CollectiveWorkSpec)
        spec = ttcp_spec(
            hosts=8, flows=2, seed=7, horizon=10_000_000.0,
            collective=CollectiveWorkSpec(engine="nic", algo="broadcast",
                                          vector_len=64, seed=7))
        oracle = run_single(spec)
        assert_equivalent(oracle, run_cluster(spec, 2))
        assert oracle.flows[0]["rx_bytes"] == 16384
        digests = {oracle.flows[COLLECTIVE_FLOW_BASE + r]["result_digest"]
                   for r in range(8)}
        assert len(digests) == 1


class TestFailureModes:
    def test_unfinished_flows_fail_loudly(self):
        spec = ttcp_spec(horizon=500.0)    # before clients even start
        with pytest.raises(ClusterError, match="did not finish"):
            run_cluster(spec, 2)

    def test_worker_crash_propagates_with_traceback(self):
        spec = ttcp_spec(horizon=500.0)
        with pytest.raises(ClusterError, match="did not finish|crashed"):
            run_cluster(spec, 2, processes=True)

    def test_partition_rejects_more_shards_than_edges(self):
        bp = ttcp_spec().blueprint()          # 2 edge switches
        with pytest.raises(ConfigError):
            partition_blueprint(bp, 3)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigError):
            ClusterSpec(topology="torus", hosts=4).blueprint()

    def test_ring_hosts_must_divide_evenly(self):
        with pytest.raises(ConfigError):
            ClusterSpec(topology="ring", hosts=7,
                        ring_switches=3).blueprint()


class TestPartition:
    def test_hosts_balanced_and_cover_all_switches(self):
        bp = ttcp_spec(hosts=16, flows=2, hosts_per_edge=4).blueprint()
        part = partition_blueprint(bp, 4)
        assert set(part.switch_shard) == set(range(len(bp.switch_ports)))
        sizes = [len(part.hosts_of(bp, s)) for s in range(4)]
        assert sum(sizes) == 16 and min(sizes) >= 1
        assert part.cross_trunks, "4-way cut must cross trunks"

    def test_lookahead_is_min_cut_trunk_latency_floor(self):
        bp = ttcp_spec().blueprint()
        part = partition_blueprint(bp, 2)
        la = lookahead(bp, part)
        min_prop = min(bp.trunks[i][4] for i in part.cross_trunks)
        assert min_prop < la < min_prop + 0.01


class TestMetricsMerge:
    """Satellite: shard-dump merging reproduces a single registry."""

    def _populate(self, reg, ops):
        for kind, name, value in ops:
            if kind == "c":
                reg.counter(name).add(value)
            elif kind == "g":
                reg.gauge(name).set(value)
            else:
                reg.histogram(name).add(value)

    def test_merge_matches_single_registry(self):
        ops = [("c", "pkts", 3), ("c", "pkts", 2), ("c", "drops", 1),
               ("g", "depth", 4.0), ("g", "depth", 9.0), ("g", "depth", 2.0),
               ("h", "lat", 10.0), ("h", "lat", 30.0), ("h", "lat", 20.0)]
        single = MetricsRegistry()
        self._populate(single, ops)
        shard_a, shard_b = MetricsRegistry(), MetricsRegistry()
        self._populate(shard_a, ops[:4])
        self._populate(shard_b, ops[4:])
        merged = merge_metrics_dumps([shard_a.dump(), shard_b.dump()])

        md, sd = merged.dump(), single.dump()
        assert set(md) == set(sd)
        assert md["pkts"] == sd["pkts"]          # counters sum exactly
        assert md["drops"] == sd["drops"]
        # Histograms concatenate: same multiset of samples.
        assert sorted(md["lat"]["samples"]) == sorted(sd["lat"]["samples"])
        # Gauges keep global extremes (last-write does not shard).
        assert md["depth"]["min"] == sd["depth"]["min"] == 2.0
        assert md["depth"]["max"] == sd["depth"]["max"] == 9.0

    def test_merge_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            merge_metrics_dumps([{"x": {"type": "summary", "value": 1}}])

    def test_merge_of_disjoint_names_unions(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("only.a").add(1)
        b.histogram("only.b").add(5.0)
        merged = merge_metrics_dumps([a.dump(), b.dump()]).dump()
        assert merged["only.a"]["value"] == 1
        assert merged["only.b"]["samples"] == [5.0]


class TestSpec:
    def test_make_flows_is_seed_deterministic(self):
        assert make_flows("ttcp", 8, 4, seed=9) == \
            make_flows("ttcp", 8, 4, seed=9)
        assert make_flows("ttcp", 8, 4, seed=9) != \
            make_flows("ttcp", 8, 4, seed=10)

    def test_flow_ports_do_not_collide(self):
        flows = make_flows("ttcp", 8, 6, seed=2)
        ports = [f.port for f in flows]
        assert len(set(ports)) == len(ports)

    def test_specs_are_picklable_frozen_data(self):
        import pickle
        spec = ttcp_spec()
        again = pickle.loads(pickle.dumps(spec))
        assert again.flows == spec.flows
        with pytest.raises(Exception):
            spec.flows[0].src = 99                   # frozen


class TestClusterCli:
    def test_cluster_run_json(self, capsys):
        from repro.cli import main
        rc = main(["cluster", "--hosts", "4", "--flows", "2",
                   "--bytes", "8192", "--workers", "2", "--in-process",
                   "--check-determinism", "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["workers"] == 2
        assert out["determinism"] == "bit-identical to 1-process oracle"
        assert out["events"] > 0

    def test_cluster_bench_writes_report(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        out = tmp_path / "perf.json"
        rc = main(["cluster", "--bench", "--hosts", "32", "--seed", "7",
                   "--in-process", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        scaling = report["cluster_scaling"]
        assert set(scaling["workers"]) == {"1", "2", "4"}
        assert "cpus_available" in scaling

    def test_cluster_error_exits_nonzero(self, capsys):
        from repro.cli import main
        rc = main(["cluster", "--hosts", "4", "--flows", "1",
                   "--workers", "2", "--in-process",
                   "--horizon", "500"])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestSignalShutdown:
    """Operator signals against forked shard workers: a SIGTERM/SIGKILL
    of a worker becomes a typed :class:`WorkerDied` naming the signal,
    and shutdown always reaps every child — no orphans."""

    def _handle(self, shard=0, shards=2):
        from repro.cluster.runner import _ProcessHandle
        return _ProcessHandle(ttcp_spec(), shard, shards)

    @pytest.mark.parametrize("signame", ["SIGTERM", "SIGKILL"])
    def test_signalled_worker_is_a_typed_worker_died(self, signame):
        import os
        import signal as _signal
        from repro.cluster import WorkerDied
        handle = self._handle()
        try:
            handle.start()                     # worker is up and idle
            os.kill(handle.pid, getattr(_signal, signame))
            with pytest.raises(WorkerDied) as err:
                handle.recv_state()
            assert err.value.shard_id == 0
            assert err.value.signal == signame
            assert signame in str(err.value)
            assert err.value.exitcode == -getattr(_signal, signame)
        finally:
            escalated = handle.close()
        assert not escalated                   # it was already dead
        with pytest.raises(ProcessLookupError):    # reaped, not orphaned
            os.kill(handle.pid, 0)

    def test_killed_worker_mid_run_fails_whole_run_and_reaps_all(self):
        import os
        import signal as _signal
        import threading
        import time
        from repro.cluster import WorkerDied
        from repro.cluster.runner import ClusterRunner
        spec = ClusterSpec(
            topology="fat-tree", hosts=4, hosts_per_edge=2,
            horizon=500_000_000.0,
            flows=make_flows("ttcp", 4, 2, seed=3,
                             total_bytes=1 << 20, chunk=4096))
        runner = ClusterRunner(spec, 2, processes=True)
        failures = []

        def drive():
            try:
                runner.run()
            except ClusterError as exc:
                failures.append(exc)

        thread = threading.Thread(target=drive, daemon=True)
        thread.start()
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline and not runner.handles:
            time.sleep(0.005)
        assert runner.handles, "run() never spawned workers"
        victim = runner.handles[0].pid
        os.kill(victim, _signal.SIGKILL)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert failures, "the killed worker was silently tolerated"
        assert isinstance(failures[0], WorkerDied)
        assert failures[0].signal == "SIGKILL"
        # every worker (victim and survivors) was reaped on the way out
        for handle in runner.handles:
            with pytest.raises(ProcessLookupError):
                os.kill(handle.pid, 0)

    def test_sigint_of_in_process_run_leaves_no_children(self):
        """KeyboardInterrupt (the SIGINT path) during a forked run still
        kills and reaps every handle."""
        import multiprocessing
        from repro.cluster.runner import ClusterRunner
        before = multiprocessing.active_children()
        runner = ClusterRunner(ttcp_spec(), 2, processes=True)

        class Boom(KeyboardInterrupt):
            pass

        original = ClusterRunner._drive

        def interrupted(self, handles):
            raise Boom()

        ClusterRunner._drive = interrupted
        try:
            with pytest.raises(Boom):
                runner.run()
        finally:
            ClusterRunner._drive = original
        assert multiprocessing.active_children() == before

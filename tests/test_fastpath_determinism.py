"""Golden determinism: fast paths must never change simulated results.

Every shortcut in the product (eager work-queue grants, allocation-free
timer wakes, merged firmware stages, burst walkers, batched sender
fill) is a *host-side* shortcut.  These tests run the paper's
mini-workloads — a fig. 4-style bulk stream, a fig. 3-style ping-pong,
an explicit verbs exchange and a ring allreduce on both engines — once
as the product and once under ``reference_paths()`` (the stepwise
bodies in ``tests/reference_paths.py``), then assert the two runs are
indistinguishable at every observable level:

* identical completion streams (wr_id, qp_num, opcode, status, byte_len
  and the simulated time of each CQE), and
* byte-for-byte identical wire traces at both NICs, timestamps included.

Wall clock is the only thing allowed to differ.  Each workload's
observables are also pinned to the SHA-256 both bodies agreed on when
the product still carried the two as run-time modes (commit a50706b),
so a drift is caught even if product and reference drift together.
"""

import hashlib

import pytest

from reference_paths import encode_ref, reference_paths
from repro.bench.configs import build_qpip_pair
from repro.core import QPTransport
from repro.net.addresses import Endpoint
from repro.sim import Simulator
from repro.tools import Wiretap

# Odd sizes on purpose: they exercise the checksum odd-tail handling and
# non-word-aligned payload slicing in both modes.
MESSAGE_SIZES = (1, 37, 100, 1024, 2049, 4095)


def _wire_trace(tap):
    """(time, direction, raw bytes) for every captured packet."""
    out = []
    for rec in tap.records:
        pkt = rec.packet
        for h in pkt.headers:
            # No stale cache: the stored wire bytes are what a per-field
            # encode of the header as it stands now produces.
            assert h.encode() == encode_ref(h), h
        raw = b"".join(h.encode() for h in pkt.headers)
        raw += pkt.payload.to_bytes()
        out.append((rec.time, rec.direction, raw))
    assert tap.dropped_records == 0
    return out


def _run_verbs_exchange():
    """Explicit post_send/post_recv exchange recording every CQE."""
    sim = Simulator()
    a, b, _fabric = build_qpip_pair(sim)
    tap_a, tap_b = Wiretap(sim), Wiretap(sim)
    tap_a.attach_qpip_nic(a.nic)
    tap_b.attach_qpip_nic(b.nic)
    completions = []

    def note(side, cqe):
        completions.append((side, cqe.wr_id, cqe.qp_num,
                            cqe.opcode.name, cqe.status.name,
                            cqe.byte_len, sim.now))

    def server():
        iface = b.iface
        cq = yield from iface.create_cq()
        qp = yield from iface.create_qp(QPTransport.TCP, cq,
                                        max_recv_wr=16)
        bufs = []
        for _ in range(4):
            buf = yield from iface.register_memory(4096)
            yield from iface.post_recv(qp, [buf.sge()])
            bufs.append(buf)
        listener = yield from iface.listen(9000)
        yield from iface.accept(listener, qp)
        got, ring = 0, 0
        while got < len(MESSAGE_SIZES):
            cqes = yield from iface.wait(cq)
            for cqe in cqes:
                note("rx", cqe)
                got += 1
                yield from iface.post_recv(qp, [bufs[ring].sge()])
                ring = (ring + 1) % len(bufs)

    def client():
        iface = a.iface
        cq = yield from iface.create_cq()
        qp = yield from iface.create_qp(QPTransport.TCP, cq)
        buf = yield from iface.register_memory(4096)
        buf.write(bytes(range(256)) * 16)
        yield sim.timeout(500)
        yield from iface.connect(qp, Endpoint(b.addr, 9000))
        for size in MESSAGE_SIZES:
            yield from iface.post_send(qp, [buf.sge(0, size)])
            for cqe in (yield from iface.wait(cq)):
                note("tx", cqe)

    sp, cp = sim.process(server()), sim.process(client())
    sim.run(until=50_000_000)
    assert sp.triggered and sp.ok
    assert cp.triggered and cp.ok
    return {
        "completions": completions,
        "wire_a": _wire_trace(tap_a),
        "wire_b": _wire_trace(tap_b),
        "now": sim.now,
    }


def _run_ttcp():
    """Fig. 4-style bulk stream (small) with a tap at the sender's NIC."""
    from repro.apps.ttcp import qpip_ttcp
    sim = Simulator()
    a, b, _fabric = build_qpip_pair(sim)
    tap = Wiretap(sim)
    tap.attach_qpip_nic(a.nic)
    res = qpip_ttcp(sim, a, b, total_bytes=192 * 1024, chunk=8192)
    return {
        "result": (res.bytes_moved, res.elapsed_us, res.t_start,
                   res.t_end),
        "wire": _wire_trace(tap),
        "now": sim.now,
    }


def _run_collective(engine):
    """Ring allreduce (both engines) with a tap at rank 0's NIC."""
    from repro.bench.configs import build_qpip_cluster
    from repro.collectives import (CollectiveWorkSpec,
                                   collective_rank_driver)
    sim = Simulator()
    nodes, _fabric = build_qpip_cluster(sim, 4)
    tap = Wiretap(sim)
    tap.attach_qpip_nic(nodes[0].nic)
    spec = CollectiveWorkSpec(engine=engine, algo="allreduce",
                              vector_len=96, seed=17)
    records = {rank: {} for rank in range(4)}
    procs = [sim.process(collective_rank_driver(
        sim, nodes[rank], rank, 4, spec, records[rank]))
        for rank in range(4)]
    sim.run(until=50_000_000)
    for proc in procs:
        assert proc.triggered and proc.ok
    return {
        "records": records,
        "wire": _wire_trace(tap),
        "now": sim.now,
    }


def _run_pingpong():
    """Fig. 3-style TCP-QP ping-pong with a tap at the client's NIC."""
    from repro.apps.pingpong import qpip_tcp_rtt
    sim = Simulator()
    a, b, _fabric = build_qpip_pair(sim)
    tap = Wiretap(sim)
    tap.attach_qpip_nic(a.nic)
    res = qpip_tcp_rtt(sim, a, b, iterations=12, msg_size=64)
    return {
        "rtts": list(res.rtts),
        "wire": _wire_trace(tap),
        "now": sim.now,
    }


def observables_digest(observables) -> str:
    """SHA-256 over everything a workload returned.  ``repr`` is exact
    here: the values are ints, strs, bytes and floats (shortest
    round-trip form) in lists, tuples and insertion-ordered dicts."""
    return hashlib.sha256(repr(observables).encode()).hexdigest()


def both(run, *args):
    """``run`` once as the product and once on the reference paths."""
    product = run(*args)
    with reference_paths():
        reference = run(*args)
    return product, reference


# Recorded at a50706b, where fast mode and naive mode produced the same
# five values.  A change that is meant to move simulated results
# re-records these in the same commit as the goldens.
PINNED = {
    "verbs_exchange":
        "67a6c674b629c31d2067b07ac5b5d74b693865e84e6668ecbdbeb7ef31a7a58f",
    "ttcp":
        "7bac7b96f221b4e2c9bc92be60bbf593bfeabc501fd3bec30d74593e94a7cc7a",
    "pingpong":
        "83f9e3f58d40a7dc76a18e35019b63cfbd07e11b2b4d8865560f2387e8fe3cd5",
    "collective_host":
        "f7095b7af4860abe048856332cf45bd4431b6d6fb40a70ac5c721eff8193ab33",
    "collective_nic":
        "291affb69959e972bcc6b975d2c9a268cc1f6f3a20bc9f1efafde01d2a668441",
}


def assert_pinned(name, product, reference):
    assert observables_digest(product) == PINNED[name], "product drifted"
    assert observables_digest(reference) == PINNED[name], \
        "reference paths drifted"


class TestGoldenDeterminism:
    def test_verbs_exchange_identical(self):
        fast, slow = both(_run_verbs_exchange)
        assert fast["completions"] == slow["completions"]
        assert fast["wire_a"] == slow["wire_a"]
        assert fast["wire_b"] == slow["wire_b"]
        assert fast["now"] == slow["now"]
        assert_pinned("verbs_exchange", fast, slow)
        # Sanity: the workload actually moved every message.
        tx = [c for c in fast["completions"] if c[0] == "tx"]
        rx = [c for c in fast["completions"] if c[0] == "rx"]
        assert len(tx) == len(MESSAGE_SIZES)
        assert [c[5] for c in rx] == list(MESSAGE_SIZES)

    def test_ttcp_bulk_identical(self):
        fast, slow = both(_run_ttcp)
        assert fast["result"] == slow["result"]
        assert fast["wire"] == slow["wire"]
        assert fast["now"] == slow["now"]
        assert_pinned("ttcp", fast, slow)
        assert len(fast["wire"]) > 20     # a real trace, not a stub

    def test_pingpong_identical(self):
        fast, slow = both(_run_pingpong)
        assert fast["rtts"] == slow["rtts"]
        assert fast["wire"] == slow["wire"]
        assert fast["now"] == slow["now"]
        assert_pinned("pingpong", fast, slow)
        assert len(fast["rtts"]) == 12

    @pytest.mark.parametrize("engine", ["host", "nic"])
    def test_collective_identical(self, engine):
        fast, slow = both(_run_collective, engine)
        assert fast["records"] == slow["records"]
        assert fast["wire"] == slow["wire"]
        assert fast["now"] == slow["now"]
        assert_pinned(f"collective_{engine}", fast, slow)
        digests = {rec["result_digest"]
                   for rec in fast["records"].values()}
        assert len(digests) == 1          # every rank holds the same bits
        assert len(fast["wire"]) > 10

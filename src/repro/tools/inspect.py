"""State inspectors: human-readable reports on connections, NICs, fabrics.

These read simulation state the way `netstat`/`ethtool -S` read a real
system — purely observational.
"""

from __future__ import annotations

import functools
import json
from typing import Dict, Iterable, List

from ..net.tcp import TcpConnection


def _canon(value):
    """JSON-able canonical form: bytes → hex strings, tuples → lists,
    dict keys → strings.  Floats pass through — the simulator is
    deterministic, so their reprs are bit-stable."""
    if isinstance(value, bytes):
        return "0x" + value.hex()
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    return value


def canonical_json(value) -> str:
    """Canonical (sorted-key, no-whitespace) JSON rendering of ``value``."""
    return json.dumps(_canon(value), sort_keys=True, separators=(",", ":"))


@functools.lru_cache(maxsize=None)
def _sha256():
    """The interpreter's own SHA-256 (``_sha2`` from 3.12, ``_sha256``
    before): the digests ``hashlib`` gives, without loading OpenSSL's
    libcrypto.  ``hashlib`` only if the interpreter was built without it."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


def stable_digest(value) -> str:
    """Short content hash of ``value``'s canonical JSON form.

    Stable across processes and Python invocations (unlike ``hash``),
    which is what golden-baseline comparison needs.
    """
    return _sha256()(canonical_json(value).encode()).hexdigest()[:16]


def cqe_stream_digest(flows: Dict[int, dict]) -> Dict[str, str]:
    """Per-flow digest over the full flow record — CQE streams (wr_id,
    qp_num, opcode, status, byte_len, timestamp), byte counters, verify
    counters, RTT samples.  Keyed by flow id so a drift report can name
    the diverging flow."""
    return {str(fid): stable_digest(flows[fid]) for fid in sorted(flows)}


def wire_trace_digest(wire: Dict[str, list]) -> Dict[str, str]:
    """Per-host digest over the wiretap records (timestamp, direction,
    on-the-wire bytes)."""
    return {host: stable_digest(wire[host]) for host in sorted(wire)}


def metrics_snapshot(dump: Dict[str, dict]) -> Dict[str, dict]:
    """Scalar view of a :meth:`MetricsRegistry.dump` for golden
    comparison: counters by value, gauges by extremes (a global
    last-write does not survive sharding), histograms by count/sum plus
    a digest of the sorted sample multiset.  The scalar fields are what
    tolerance bands apply to."""
    out: Dict[str, dict] = {}
    for name in sorted(dump):
        entry = dump[name]
        kind = entry["type"]
        if kind == "counter":
            out[name] = {"type": "counter", "value": entry["value"]}
        elif kind == "gauge":
            out[name] = {"type": "gauge", "min": entry["min"],
                         "max": entry["max"]}
        else:
            samples = sorted(entry["samples"])
            out[name] = {"type": "histogram", "count": len(samples),
                         "sum": sum(samples),
                         "digest": stable_digest(samples)}
    return out


def merge_metrics_dumps(dumps: Iterable[Dict[str, dict]]):
    """Merge per-shard :meth:`MetricsRegistry.dump` exports into one
    registry (`repro.cluster`: each worker process meters its own shard).

    * counters sum;
    * histograms concatenate exactly — every sample survives, so
      percentiles over the merged registry are exact order statistics of
      the union (shard concatenation order differs from the global
      chronological order, so compare sample *multisets*, not lists);
    * gauges keep the global min/max; ``value`` (last-write-wins) is
      taken from the last shard that set one, since a true global "last"
      does not survive sharding.
    """
    from ..obs.metrics import MetricsRegistry
    merged = MetricsRegistry()
    for dump in dumps:
        for name in sorted(dump):
            entry = dump[name]
            kind = entry["type"]
            if kind == "counter":
                merged.counter(name).add(entry["value"])
            elif kind == "gauge":
                gauge = merged.gauge(name)
                for bound, pick in (("min", min), ("max", max)):
                    val = entry[bound]
                    if val is not None:
                        prev = getattr(gauge, bound)
                        setattr(gauge, bound,
                                val if prev is None else pick(prev, val))
                if entry["value"] is not None:
                    gauge.value = entry["value"]
            elif kind == "histogram":
                hist = merged.histogram(name)
                hist.samples.extend(entry["samples"])
                hist._sorted = None
            else:
                raise ValueError(f"unknown instrument type {kind!r}")
    return merged


def connection_report(conn: TcpConnection) -> str:
    """A netstat-style dump of one TCP connection."""
    s = conn.stats
    lines = [
        f"connection {conn.tuple} [{conn.state.value}]",
        f"  snd: una={conn.snd_una} nxt={conn.snd_nxt} wnd={conn.snd_wnd} "
        f"flight={conn.flight_size} unsent={conn.bytes_unsent}",
        f"  rcv: nxt={conn.rcv_nxt} window={conn._advertisable_window()} "
        f"adv_edge={conn.rcv_adv}",
        f"  mss: eff={conn.effective_mss} peer={conn.peer_mss} "
        f"opts: ts={conn.ts_ok} ws={conn.ws_ok} "
        f"(snd<<{conn.snd_wscale}/rcv<<{conn.rcv_wscale}) ecn={conn.ecn_ok}",
        f"  rtt: srtt={conn.rtt.srtt:.1f}us rttvar={conn.rtt.rttvar:.1f}us "
        f"rto={conn.rtt.rto:.0f}us samples={conn.rtt.samples}",
        f"  cc:  cwnd={conn.cc.cwnd} ssthresh={conn.cc.ssthresh} "
        f"{'slow-start' if conn.cc.in_slow_start else 'cong-avoid'}"
        f"{' RECOVERY' if conn.cc.in_recovery else ''}",
        f"  io:  out={s.segs_out} segs/{s.bytes_out}B in={s.segs_in} "
        f"segs/{s.bytes_in}B acks_out={s.acks_out}",
        f"  err: retx={s.retransmitted_segs} fast_rtx={s.fast_retransmits} "
        f"rto={s.rto_timeouts} dupacks={s.dup_acks_in} ooo={s.ooo_segments} "
        f"(dropped {s.ooo_dropped}, queued {s.ooo_queued})",
    ]
    return "\n".join(lines)


def nic_report(nic) -> str:
    """Occupancy + per-stage breakdown for a ProgrammableNic."""
    lines = [
        f"nic {nic.name}: occupancy {nic.occupancy() * 100:.1f}% "
        f"(tx {nic.packets_tx} pkts, rx {nic.packets_rx} pkts, "
        f"doorbells {nic.doorbells_rung})",
    ]
    if nic.dma_faults or nic.stalls_injected or nic.doorbells_dropped:
        lines.append(
            f"  faults: dma_errors {nic.dma_faults}, "
            f"stalls {nic.stalls_injected}, "
            f"doorbells_dropped {nic.doorbells_dropped}"
            f"{' [overflow pending]' if nic.doorbell_overflow else ''}")
    total = sum(nic.cycles.by_stage.values()) or 1.0
    for stage, busy in sorted(nic.cycles.by_stage.items(),
                              key=lambda kv: -kv[1]):
        n = nic.cycles.samples[stage]
        lines.append(f"  {stage:18s} {busy:10.1f}us  ({n:6d} x "
                     f"{busy / n:6.2f}us)  {busy / total * 100:5.1f}%")
    return "\n".join(lines)


def fabric_report(fabric) -> str:
    """Per-link utilization and switch counters for a fabric."""
    lines: List[str] = []
    now = fabric.sim.now or 1.0
    if hasattr(fabric, "switches"):          # MyrinetFabric
        for i, sw in enumerate(fabric.switches):
            lines.append(f"switch {sw.name}: forwarded {sw.forwarded}, "
                         f"dropped(no-route) {sw.dropped_no_route}"
                         f"{_switch_faults(sw)}")
        for name, node in fabric.hosts.items():
            link = node.attachment.link
            d_out = link.direction_from(node.attachment)
            lines.append(
                f"host {name}: tx {d_out.packets_sent} pkts / "
                f"{d_out.bytes_sent}B, util {d_out.utilization(0, now) * 100:.1f}%, "
                f"drops {d_out.packets_dropped}{_direction_faults(d_out)}")
    else:                                     # EthernetFabric
        sw = fabric.switch
        extra = ""
        if sw.red is not None:
            extra = f", RED marked {sw.red_marked} dropped {sw.red_dropped}"
        lines.append(f"switch {sw.name}: forwarded {sw.forwarded}, flooded "
                     f"{sw.flooded}, overflow {sw.dropped_overflow}{extra}"
                     f"{_switch_faults(sw)}")
        for name, attachment in fabric.hosts.items():
            d_out = attachment.link.direction_from(attachment)
            lines.append(
                f"host {name}: tx {d_out.packets_sent} pkts / "
                f"{d_out.bytes_sent}B, util {d_out.utilization(0, now) * 100:.1f}%"
                f"{_direction_faults(d_out)}")
    return "\n".join(lines)


def _direction_faults(direction) -> str:
    """Injected-fault counters for one link direction (empty if clean)."""
    if not (direction.packets_duplicated or direction.packets_delayed
            or direction.packets_corrupted):
        return ""
    return (f", faults(dup {direction.packets_duplicated} "
            f"delay {direction.packets_delayed} "
            f"corrupt {direction.packets_corrupted})")


def _switch_faults(switch) -> str:
    """Egress-hook fault counters for a switch (empty if clean)."""
    if not (switch.dropped_fault or switch.duplicated_fault
            or switch.corrupted_fault):
        return ""
    return (f", faults(drop {switch.dropped_fault} "
            f"dup {switch.duplicated_fault} "
            f"corrupt {switch.corrupted_fault})")

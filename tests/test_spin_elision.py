"""Poll-loop elision: ``QpipInterface.spin`` against the stepwise oracle.

``spin`` parks the process after an empty poll and settles the elided
polls in closed form.  ``reference_spin`` below is the event-per-poll
loop it replaced, kept verbatim; everything here asserts that the two
are indistinguishable in simulated time, completions and CPU accounting
— bit for bit, as the product and under ``reference_paths()``.
"""

import hashlib
import struct
from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from reference_paths import reference_paths
from repro.apps.pingpong import qpip_udp_rtt
from repro.bench.configs import build_qpip_pair
from repro.core import CompletionQueue
from repro.core.qp import QPTransport
from repro.core.wr import Completion, WROpcode
from repro.hw.timing import QpipHostTiming
from repro.net.addresses import Endpoint
from repro.sim import Simulator


def reference_spin(iface, cq, poll_interval=0.5):
    """The stepwise loop ``QpipInterface.spin`` replaced: the oracle."""
    while True:
        cqes = yield from iface.poll(cq)
        if cqes:
            return cqes
        yield iface.sim.timeout(poll_interval)


def elided_spin(iface, cq, poll_interval=0.5):
    return iface.spin(cq, poll_interval)


def digest(values) -> str:
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


# -- scenario harness ---------------------------------------------------------

@dataclass(frozen=True)
class Spinner:
    host: int
    cq: int
    start: float
    interval: float


@dataclass(frozen=True)
class Foreign:
    host: int
    at: float
    duration: float
    kind: str        # submit | submit_fn | submit_prio | submit_wait | callback
    lead: float = 0.0   # the wake-up for ``at`` is scheduled this long before


@dataclass(frozen=True)
class Scenario:
    spinners: Tuple[Spinner, ...]
    pushes: Tuple[Tuple[float, int, int], ...]     # (time, host, cq)
    foreign: Tuple[Foreign, ...]
    horizon: float
    timing: QpipHostTiming = QpipHostTiming()


PRODUCT, REFERENCE = nullcontext, reference_paths


def observe(scn: Scenario, spin_impl, paths) -> dict:
    """Run ``scn`` with ``spin_impl`` and return everything a caller
    could tell the two implementations apart by.  ``paths`` is
    ``PRODUCT`` or ``REFERENCE``: what the rest of the simulator runs
    on around the spinner."""
    with paths():
        sim = Simulator()
        nodes = build_qpip_pair(sim)[:2]
        for node in nodes:
            node.iface.timing = scn.timing
        cqs = {}

        def cq_of(host, idx):
            if (host, idx) not in cqs:
                cqs[host, idx] = CompletionQueue(sim, idx + 1)
            return cqs[host, idx]

        wakes: List[list] = [[] for _ in scn.spinners]
        foreign_done: List[list] = [[] for _ in scn.foreign]

        def spinner(i, sp):
            yield sim.timeout(sp.start)
            iface = nodes[sp.host].iface
            while True:
                cqes = yield from spin_impl(iface, cq_of(sp.host, sp.cq),
                                            sp.interval)
                wakes[i].append((sim.now, tuple(c.wr_id for c in cqes)))

        def foreign(i, fw):
            cpu = nodes[fw.host].host.cpu
            yield sim.timeout(fw.at - fw.lead)
            if fw.lead:
                yield sim.timeout(fw.lead)
            if fw.kind == "submit_wait":
                yield cpu.submit_wait(fw.duration, category="other")
            elif fw.kind == "submit_fn":
                yield cpu.submit(fw.duration, category="other",
                                 fn=lambda: foreign_done[i].append(sim.now))
            elif fw.kind == "submit_prio":
                yield cpu.submit(fw.duration, category="intr", priority=-10)
            else:
                yield cpu.submit(fw.duration, category="other")
            foreign_done[i].append(sim.now)

        for i, sp in enumerate(scn.spinners):
            sim.process(spinner(i, sp))
        for i, fw in enumerate(scn.foreign):
            if fw.kind == "callback":
                cpu = nodes[fw.host].host.cpu
                sim.call_later(fw.at, lambda cpu=cpu, fw=fw, i=i: cpu.submit(
                    fw.duration, category="intr", priority=-10,
                    fn=lambda: foreign_done[i].append(sim.now)))
            else:
                sim.process(foreign(i, fw))
        for n, (t, host, idx) in enumerate(scn.pushes):
            sim.call_later(t, cq_of(host, idx).push,
                           Completion(n, 1, WROpcode.RECV))
        sim.run(until=scn.horizon)
        out = {"now": sim.now, "wakes": wakes, "foreign": foreign_done}
        for h, node in enumerate(nodes):
            cpu = node.host.cpu
            out[f"cpu{h}"] = (cpu.busy_time, cpu.items_completed,
                              sorted(cpu.busy_by_category.items()),
                              cpu._busy_until, cpu.utilization())
        out["cq"] = {key: (cq.polls, cq.empty_polls, len(cq))
                     for key, cq in sorted(cqs.items())}
        return out


def assert_indistinguishable(scn: Scenario) -> dict:
    for paths in (PRODUCT, REFERENCE):
        want = observe(scn, reference_spin, paths)
        got = observe(scn, elided_spin, paths)
        assert got == want, paths.__name__
    return got


# -- property: elided == stepwise ----------------------------------------------

# Instants are multiples of 1/997 µs so that independent chains do not
# tie by accident; exact ties are built on purpose further down.
_instant = st.integers(0, 40_000).map(lambda n: n / 997.0)
_duration = st.sampled_from([0.05, 0.3, 0.6, 1.7, 2.0, 4.0, 9.1])

_spinner = st.builds(Spinner, host=st.integers(0, 1), cq=st.integers(0, 1),
                     start=_instant.map(lambda t: t / 4),
                     interval=st.sampled_from([0.5, 0.5, 0.2, 1.3, 0.0]))
_foreign = st.builds(Foreign, host=st.integers(0, 1), at=_instant,
                     duration=_duration,
                     kind=st.sampled_from(["submit", "submit_fn", "submit_prio",
                                           "submit_wait", "callback"]))
_scenario = st.builds(
    Scenario,
    spinners=st.lists(_spinner, min_size=1, max_size=6).map(tuple).filter(
        lambda sps: all(sum(s.host == h for s in sps) <= 3 for h in (0, 1))),
    pushes=st.lists(st.tuples(_instant, st.integers(0, 1), st.integers(0, 1)),
                    max_size=8).map(tuple),
    foreign=st.lists(_foreign, max_size=8).map(tuple),
    horizon=st.sampled_from([45.0, 60.0]))


@settings(max_examples=150, deadline=None)
@given(scn=_scenario)
def test_spin_is_indistinguishable_from_the_stepwise_loop(scn):
    assert_indistinguishable(scn)


def test_long_quiet_wait_costs_a_handful_of_events():
    scn = Scenario(spinners=(Spinner(0, 0, 1.0, 0.5),),
                   pushes=((5000.3, 0, 0),), foreign=(), horizon=6000.0)
    got = assert_indistinguishable(scn)
    assert got["cq"][0, 0][0] > 4000          # the polls are all accounted

    sim = Simulator()
    node = build_qpip_pair(sim)[0]
    cq = CompletionQueue(sim, 1)
    sim.process(node.iface.spin(cq))
    sim.call_later(5000.3, cq.push, Completion(0, 1, WROpcode.RECV))
    sim.run()
    assert sim._events_processed < 20


# -- exact ties, built from dyadic timings ----------------------------------------

DYADIC = QpipHostTiming(poll_cq=0.5, completion_check=1.0)
# A spinner started at 0 with poll_interval 0.5 polls during [k, k+0.5):
# poll starts are the integers, ring pops the half-integers.


def test_push_at_a_pop_instant_is_seen_by_that_poll():
    scn = Scenario(spinners=(Spinner(0, 0, 0.0, 0.5),),
                   pushes=((7.5, 0, 0),), foreign=(), horizon=20.0,
                   timing=DYADIC)
    got = assert_indistinguishable(scn)
    assert got["wakes"][0][0] == (8.5, (0,))      # 7.5 pop + 1.0 check


def test_push_at_a_poll_start_is_seen_by_that_poll():
    scn = Scenario(spinners=(Spinner(0, 0, 0.0, 0.5),),
                   pushes=((7.0, 0, 0),), foreign=(), horizon=20.0,
                   timing=DYADIC)
    got = assert_indistinguishable(scn)
    assert got["wakes"][0][0] == (8.5, (0,))


@pytest.mark.parametrize("kind", ["submit", "submit_wait", "submit_prio"])
def test_foreign_submit_at_a_poll_start_queues_behind_the_poll(kind):
    scn = Scenario(spinners=(Spinner(0, 0, 0.0, 0.5),), pushes=(),
                   foreign=(Foreign(0, 7.0, 2.0, kind, lead=0.25),),
                   horizon=20.0, timing=DYADIC)
    got = assert_indistinguishable(scn)
    assert got["foreign"][0] == [9.5]             # poll [7, 7.5) went first


def test_poll_start_tie_with_a_wakeup_scheduled_long_before():
    """The one tie the closed form resolves by rule rather than by heap
    order: an elided poll starts before anything else at its instant.
    The stepwise loop orders its sleep's wake-up against the other event
    by kernel sequence number, so an event scheduled *before the
    spinner's previous pop* for exactly a poll start would run first
    there.  Both are valid serialisations of one instant; host timings
    are not dyadic, so no shipped workload can tell."""
    scn = Scenario(spinners=(Spinner(0, 0, 0.0, 0.5),), pushes=(),
                   foreign=(Foreign(0, 7.0, 2.0, "submit"),), horizon=20.0,
                   timing=DYADIC)
    for paths in (PRODUCT, REFERENCE):
        assert observe(scn, elided_spin, paths)["foreign"][0] == [9.5]
        assert observe(scn, reference_spin, paths)["foreign"][0] == [9.0]


@pytest.mark.parametrize("kind", ["submit", "submit_wait", "submit_fn"])
def test_foreign_submit_at_a_pop_instant(kind):
    scn = Scenario(spinners=(Spinner(0, 0, 0.0, 0.5),),
                   pushes=((11.25, 0, 0),),
                   foreign=(Foreign(0, 7.5, 2.0, kind),), horizon=20.0,
                   timing=DYADIC)
    assert_indistinguishable(scn)


def test_two_spinners_in_lockstep_on_one_cpu():
    scn = Scenario(spinners=(Spinner(0, 0, 0.0, 0.5), Spinner(0, 1, 0.0, 0.5),
                             Spinner(0, 0, 0.25, 0.5)),
                   pushes=((9.0, 0, 0), (13.5, 0, 1), (13.5, 0, 0)),
                   foreign=(), horizon=25.0, timing=DYADIC)
    assert_indistinguishable(scn)


def test_run_until_stops_with_the_in_flight_poll_accounted():
    for horizon in (7.0, 7.25, 7.5, 7.75):
        scn = Scenario(spinners=(Spinner(0, 0, 0.0, 0.5),), pushes=(),
                       foreign=(), horizon=horizon, timing=DYADIC)
        assert_indistinguishable(scn)


# -- a parked spinner owns no heap entry: deregistration ---------------------------

def _registrations(sim, node, cq):
    return (list(cq.spinners), node.host.cpu.parked, list(sim.parked))


def test_abort_qp_wakes_and_deregisters_a_parked_spinner():
    sim = Simulator()
    a, b, _fabric = build_qpip_pair(sim)
    got = {}

    def server():
        cq = yield from b.iface.create_cq()
        qp = yield from b.iface.create_qp(QPTransport.TCP, cq)
        listener = yield from b.iface.listen(7000)
        yield from b.iface.accept(listener, qp)

    def client():
        cq = yield from a.iface.create_cq()
        qp = yield from a.iface.create_qp(QPTransport.TCP, cq)
        buf = yield from a.iface.register_memory(4096)
        yield sim.timeout(1000)
        yield from a.iface.connect(qp, Endpoint(b.addr, 7000))
        yield from a.iface.post_recv(qp, [buf.sge()])
        got["cq"] = cq
        sim.call_later(500.0, a.firmware.abort_qp, qp)
        t0 = sim.now
        cqes = yield from a.iface.spin(cq)
        got["waited"] = sim.now - t0
        got["statuses"] = [c.ok for c in cqes]

    sim.process(server())
    proc = sim.process(client())
    sim.run(until=50_000.0)
    assert proc.ok
    assert got["waited"] > 500.0 and got["statuses"] == [False]
    cq = got["cq"]
    assert _registrations(sim, a, cq) == ([], None, [])
    cq.push(Completion(99, 1, WROpcode.RECV))     # nobody parked: harmless
    assert len(cq) == 1


# -- results recorded at the parent commit -----------------------------------------

def test_udp_rtt_list_is_the_one_the_stepwise_loop_produced():
    for paths in (PRODUCT, REFERENCE):
        with paths():
            sim = Simulator()
            a, b, _fabric = build_qpip_pair(sim)
            rtts = qpip_udp_rtt(sim, a, b, iterations=100).rtts
        assert digest(rtts) == ("08ce53aee31080ac45eb67e61f86fecb"
                                "ef6b922cdc65b3efdbada2fe7aa9d545")

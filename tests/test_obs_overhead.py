"""Observability must be free when off and invisible when on.

Two regression gates for the ``repro.obs`` hooks that now live on every
hot path (verbs post, CQ push, firmware stages, NIC wire engines, link
transmit, switch forwarding, host softirq, TCP loss handling):

* **Disabled → zero cost.**  ``obs.RECORDER`` is ``None`` unless a test
  or the CLI installs one, so the hook is a single module-attribute
  read.  Importing ``repro`` must never leave a recorder installed.

* **Enabled → zero interference.**  A recorder only *reads* simulator
  state; installing one must not change a single simulated outcome.
  We re-run the golden-determinism workloads with tracing on and
  assert completions, wire traces (timestamps included) and final sim
  time are bit-for-bit identical to the untraced runs — and that the
  product-vs-reference equivalence still holds while traced.
"""

import importlib
import pkgutil

from reference_paths import reference_paths
from repro import obs
from test_fastpath_determinism import (_run_pingpong, _run_ttcp,
                                       _run_verbs_exchange)


def _run_traced(fn):
    """Run a determinism workload with a recorder installed.

    The workload constructs its own Simulator internally, so the
    recorder is installed against a shim clock; timestamps are not
    asserted here — only the *workload's* observable outputs are
    compared, which is exactly the zero-interference contract.
    """
    from repro.sim import Simulator
    shim = Simulator()
    with obs.capture(shim) as rec:
        out = fn()
    return out, rec


class TestDisabledIsDefault:
    def test_no_recorder_after_importing_everything(self):
        import repro
        for mod in pkgutil.walk_packages(repro.__path__, "repro."):
            if mod.name.endswith("__main__"):
                continue  # importing it runs the CLI
            importlib.import_module(mod.name)
        assert obs.RECORDER is None

    def test_hot_path_hook_is_one_attribute_read(self):
        # The contract hot paths rely on: the module global, not a
        # function call, gates all instrumentation.
        assert obs.RECORDER is None
        rec = obs.RECORDER
        if rec is not None:  # pragma: no cover - the cheap branch
            raise AssertionError("recorder leaked from a previous test")


class TestTracedRunsAreBitIdentical:
    def test_ttcp_traced_equals_untraced(self):
        plain = _run_ttcp()
        traced, rec = _run_traced(_run_ttcp)
        assert traced == plain
        assert rec.records  # tracing actually happened

    def test_pingpong_traced_equals_untraced(self):
        plain = _run_pingpong()
        traced, rec = _run_traced(_run_pingpong)
        assert traced == plain
        assert rec.records

    def test_verbs_exchange_traced_equals_untraced(self):
        plain = _run_verbs_exchange()
        traced, rec = _run_traced(_run_verbs_exchange)
        assert traced == plain
        assert rec.records

    def test_fastpath_equivalence_holds_while_traced(self):
        fast, rec_fast = _run_traced(_run_ttcp)
        with reference_paths():
            slow, rec_slow = _run_traced(_run_ttcp)
        assert fast["result"] == slow["result"]
        assert fast["wire"] == slow["wire"]
        assert fast["now"] == slow["now"]
        # Both walked the same span structure too: same number of
        # WR spans begun and ended.
        for rec in (rec_fast, rec_slow):
            assert any(ev.ph == "b" for ev in rec.records)
        fast_spans = sum(1 for ev in rec_fast.records if ev.ph == "b")
        slow_spans = sum(1 for ev in rec_slow.records if ev.ph == "b")
        assert fast_spans == slow_spans

    def test_recorder_uninstalled_after_each_run(self):
        _run_traced(_run_pingpong)
        assert obs.RECORDER is None

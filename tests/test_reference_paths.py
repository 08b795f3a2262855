"""``reference_paths()`` installs the stepwise bodies and always takes
them out again.

It is the suite's only monkeypatching helper; a reference body left
installed would silently make every later test order-dependent.
"""

import pytest

from reference_paths import PATCHES, reference_paths
from repro.apps.ttcp import qpip_ttcp
from repro.bench.configs import build_qpip_pair
from repro.sim import Simulator


def _installed():
    return [vars(owner)[name] for owner, name, _ref in PATCHES]


PRODUCT = _installed()
REFERENCE = [ref for _owner, _name, ref in PATCHES]


def test_patches_are_installed_inside_and_gone_after():
    assert not set(PRODUCT) & set(REFERENCE)
    with reference_paths():
        assert _installed() == REFERENCE
    assert _installed() == PRODUCT


def test_patches_are_gone_after_the_body_raises():
    with pytest.raises(ZeroDivisionError):
        with reference_paths():
            1 / 0
    assert _installed() == PRODUCT


def test_nesting_is_an_error_and_leaves_the_outer_block_intact():
    with reference_paths():
        with pytest.raises(RuntimeError, match="already active"):
            with reference_paths():
                pass            # pragma: no cover - never entered
        assert _installed() == REFERENCE
    assert _installed() == PRODUCT


def test_the_reference_run_really_is_stepwise():
    """Same simulated outcome from more kernel events — the patches
    reach the running system, the comparison tests are not vacuous."""
    def run():
        sim = Simulator()
        a, b, _fabric = build_qpip_pair(sim)
        res = qpip_ttcp(sim, a, b, total_bytes=64 * 1024, chunk=8192)
        return (res.bytes_moved, res.elapsed_us, sim.now), \
            sim._events_processed

    product, product_events = run()
    with reference_paths():
        reference, reference_events = run()
    assert reference == product
    assert reference_events > product_events

"""Experiment harness: testbeds, runners, and paper reference values.

The package re-exports the testbed builders only.  The paper-figure
runners live in :mod:`repro.bench.runners` and are imported from there
(``from repro.bench.runners import run_fig3``), so a process that builds
a testbed does not load every figure's workloads with it.
"""

from .configs import (HostNode, QpipNode, build_gige_pair, build_gm_pair,
                      build_interop_pair, build_qpip_cluster, build_qpip_pair)

__all__ = [
    "HostNode", "QpipNode", "build_gige_pair", "build_gm_pair",
    "build_interop_pair", "build_qpip_cluster", "build_qpip_pair",
]

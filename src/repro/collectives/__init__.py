"""NIC-offloaded and host-level collectives over QPIP fabrics.

Two swappable engines run the same algorithms over the same wire
framing:

* **host** (:mod:`repro.collectives.host`) — the schedule runs in the
  application; every step pays the full verbs round trip (post,
  doorbell, firmware, CQE, wakeup).
* **nic** (:mod:`repro.collectives.nicoffload`) — the schedule runs in
  firmware; the host doorbells once and receives a single CQE.

Shared pieces: :mod:`~repro.collectives.schedule` (the step table both
engines interpret), :mod:`~repro.collectives.group` (the one
accumulation rule, the numpy-free oracle), :mod:`~repro.collectives.frames`
(the 18-byte wire header), :mod:`~repro.collectives.runner` (per-rank
drivers shared by single-process and sharded runs), and
:mod:`~repro.collectives.job` (the end-to-end runner).
"""

from .frames import HEADER_SIZE, decode_frame, encode_frame, max_frame_elems
from .group import (ALGOS, COLLECTIVE_FLOW_BASE, COLLECTIVE_PORT, ELEM,
                    ENGINES, VARIANTS, CollectiveStats, CollectiveWorkSpec,
                    allreduce_oracle, combine_into, initial_vector,
                    rank_vector)
from .host import HostCollectiveMember
from .job import (CollectiveJob, collective_cluster_spec, expected_digest,
                  summarize_collective)
from .runner import collective_rank_driver, result_digest
from .schedule import Step, chunk_range, peer_pairs, schedule

__all__ = [
    "ALGOS", "ENGINES", "VARIANTS", "ELEM",
    "COLLECTIVE_FLOW_BASE", "COLLECTIVE_PORT",
    "CollectiveStats", "CollectiveWorkSpec",
    "allreduce_oracle", "combine_into", "rank_vector",
    "Step", "schedule", "chunk_range", "peer_pairs",
    "HEADER_SIZE", "encode_frame", "decode_frame", "max_frame_elems",
    "HostCollectiveMember",
    "CollectiveJob", "collective_cluster_spec", "expected_digest",
    "summarize_collective",
    "collective_rank_driver", "initial_vector", "result_digest",
]

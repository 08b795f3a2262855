"""Layer attribution for the traced run: who spent the host time, who did the work.

Two instruments, both applied from outside ``src/``:

* :class:`LayerTracer` wraps ``cProfile`` (a C-level ``sys.setprofile``
  hook keyed on ``co_filename``) around one call and folds the call graph
  into the repo's layers.  A *span* is a call that enters a function whose
  layer differs from its caller's; spans are aggregated per
  ``caller layer -> callee layer`` edge (count, total seconds) rather than
  kept one by one, because a run makes 10^7 calls.  A layer's self time is
  the span time inside it minus the part its child spans cover, which is
  exactly the sum of ``inlinetime`` over the layer's functions.
* :func:`census` records every instance of a few public classes built
  while the workload runs, so the exact counts the layers already keep
  (``nic.doorbells_rung``, ``conn.stats.segs_out``, ``switch.forwarded`` ...)
  can be read afterwards even when the workload builds its own simulator
  (``run_chaos``, ``run_cluster``).
"""

from __future__ import annotations

import cProfile
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

#: Source-path fragments, most specific first; first match wins.
LAYER_PATHS: Tuple[Tuple[str, str], ...] = (
    ("repro/net/tcp/", "net.tcp"),
    ("repro/net/headers/", "net.headers"),
    ("repro/net/checksum.py", "net.checksum"),
    ("repro/net/", "net"),
    ("repro/sim/", "sim"),
    ("repro/core/", "core"),
    ("repro/hw/", "hw"),
    ("repro/fabric/", "fabric"),
    ("repro/mem/", "mem"),
    ("repro/apps/", "apps"),
    ("repro/recovery/", "recovery"),
    ("repro/faults/", "faults"),
    ("repro/collectives/", "collectives"),
    ("repro/cluster/", "cluster"),
    ("repro/gate/", "gate"),
    ("repro/serve/", "serve"),
)
#: Everything else: stdlib, ``repro.obs``/``tools``/``bench``, this harness.
OTHER = "other"
LAYERS: Tuple[str, ...] = tuple(name for _, name in LAYER_PATHS) + (OTHER,)

#: Calls counted by name at the tracer: ``(layer, function name) -> metric``.
COUNTED_CALLS = {
    ("net.headers", "encode"): "net.headers.encodes",
    ("net.headers", "decode"): "net.headers.decodes",
    ("net.checksum", "ones_complement_sum"): "net.checksum.calls",
    # TranslationTable.check validates and resolves every SGE access;
    # ``translate`` wraps it and is not on the simulated path (it reads 0).
    ("mem", "check"): "mem.translations",
}


def layer_of(filename: str) -> str:
    path = filename.replace("\\", "/")
    for fragment, name in LAYER_PATHS:
        if fragment in path:
            return name
    return OTHER


class LayerTracer:
    """Profile one call and attribute its time and calls to layers."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYERS}
        self.calls_in: Dict[str, int] = {name: 0 for name in LAYERS}
        self.edges: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0, 0.0])
        self.counted: Dict[str, int] = {m: 0 for m in COUNTED_CALLS.values()}

    def run(self, fn: Callable[[], object]) -> object:
        prof = cProfile.Profile()
        t0 = time.perf_counter()
        try:
            return prof.runcall(fn)
        finally:
            self.wall_s = time.perf_counter() - t0
            self._fold(prof.getstats())

    def _fold(self, stats) -> None:
        """Fold cProfile entries into layers.

        A C builtin has no source path, so its time is charged to the
        layer that called it (``struct.pack`` inside a codec is codec
        time) and entering it is not a boundary crossing.  A Python
        function called *from* a builtin (a generator resumed through
        ``send``, a ``key=`` callback) counts as entered from ``builtin``.
        """
        builtin_total = 0.0
        builtin_charged = 0.0
        for entry in stats:
            code = entry.code
            if isinstance(code, str):
                builtin_total += entry.inlinetime
                caller = "builtin"
                charge = OTHER
            else:
                caller = charge = layer_of(code.co_filename)
                self.self_s[charge] += entry.inlinetime
                metric = COUNTED_CALLS.get((charge, code.co_name))
                if metric is not None:
                    self.counted[metric] += entry.callcount
            for sub in entry.calls or ():
                callee = sub.code
                if isinstance(callee, str):
                    self.self_s[charge] += sub.inlinetime
                    builtin_charged += sub.inlinetime
                    continue
                callee_layer = layer_of(callee.co_filename)
                if callee_layer != caller:
                    self.calls_in[callee_layer] += sub.callcount
                    edge = self.edges[(caller, callee_layer)]
                    edge[0] += sub.callcount
                    edge[1] += sub.totaltime
        # Builtins entered with no recorded caller (the profiler's own
        # enable/disable) are nobody's: keep the books balanced.
        self.self_s[OTHER] += builtin_total - builtin_charged

    def spans(self) -> List[Dict]:
        """The aggregated cross-layer spans, largest first."""
        rows = [{"caller": a, "callee": b, "calls": int(n), "total_s": t}
                for (a, b), (n, t) in self.edges.items()]
        rows.sort(key=lambda r: -r["total_s"])
        return rows


# -- census -----------------------------------------------------------------


@contextmanager
def census(classes):
    """Collect every instance of ``classes`` constructed inside the block.

    Yields ``{cls: [instances]}``.  Only ``__init__`` is wrapped (a list
    append per construction), and the originals are restored on exit.
    """
    seen: Dict[type, list] = {cls: [] for cls in classes}
    originals = {cls: cls.__init__ for cls in classes}

    def hook(cls):
        original = originals[cls]
        bucket = seen[cls]

        def __init__(self, *args, **kwargs):
            bucket.append(self)
            original(self, *args, **kwargs)
        return __init__

    for cls in classes:
        cls.__init__ = hook(cls)
    try:
        yield seen
    finally:
        for cls, original in originals.items():
            cls.__init__ = original

"""World lifetime: a finished world is reclaimed when its run returns.

A simulated world (simulator, nodes, queues, processes) is one big
reference cycle, so reference counting never frees it; it waits for a
full pass of the cyclic collector, and those are rare.  A process that
runs many worlds one after another (a chaos sweep, a world-size sweep)
would otherwise carry a dozen dead worlds at once.

:func:`reclaim_world` wraps every entry point that builds, runs and
drops a world in the caller's process.  It freezes whatever was alive
before the world was built, so the collection on exit walks only the
objects allocated during the world, not the tens of thousands an
imported program already holds (docs/performance.md, "World lifetime").
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def reclaim_world() -> Iterator[None]:
    """Collect the world built inside the block when the block exits.

    Put it around the call that owns the world, so no frame that holds
    the world is still live at exit.  Nests: only the scope that froze
    unfreezes, and a freeze made by someone else is left in place.
    """
    froze = gc.get_freeze_count() == 0
    if froze:
        gc.freeze()
    try:
        yield
    finally:
        try:
            gc.collect()
        finally:
            if froze:
                gc.unfreeze()

"""Discrete-event simulation kernel (time unit: microseconds)."""

from .engine import AnyOf, Event, Process, SimulationError, Simulator, Timeout
from .lifetime import reclaim_world
from .resources import Store, WorkItem, WorkQueue
from .rng import RngHub
from .timers import PeriodicTimer, Timer, Watchdog

__all__ = [
    "AnyOf", "Event", "Process", "SimulationError", "Simulator", "Timeout",
    "Store", "WorkItem", "WorkQueue", "RngHub", "PeriodicTimer", "Timer",
    "Watchdog", "reclaim_world",
]

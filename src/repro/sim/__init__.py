"""Discrete-event simulation substrate."""

from repro.sim.engine import ScheduledEvent, Simulator
from repro.sim.periodic import PeriodicTimer
from repro.sim.rng import ZipfSampler, make_numpy_rng, make_rng

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "PeriodicTimer",
    "make_rng",
    "make_numpy_rng",
    "ZipfSampler",
]

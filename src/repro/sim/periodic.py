"""The traffic-driven periodic timer every sampler and poller runs on.

A :class:`PeriodicTimer` calls its callback every ``period_s`` of
*simulated* time while traffic flows, and pauses when it stops, so that
draining the event queue with ``sim.run()`` terminates.  Traffic sources
report activity with :meth:`PeriodicTimer.poke` (the ``Pleroma`` facade
pokes every timer it started on each publish).

The one rule for "quiet": **an armed tick always runs, and the timer
re-arms after it only if a poke arrived after it was armed.  The poke that
re-arms a paused timer does not count.**  A single poke therefore buys
exactly one more tick, and a timer nobody pokes ticks once after
:meth:`~PeriodicTimer.start` and then pauses.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import TypeVar

from repro.exceptions import SimulationError
from repro.sim.engine import ScheduledEvent, Simulator

__all__ = ["PeriodicTimer"]

_Timer = TypeVar("_Timer", bound="PeriodicTimer")


class PeriodicTimer:
    """Runs ``callback()`` every ``period_s`` of sim time; pauses when quiet."""

    def __init__(
        self, sim: Simulator, period_s: float, callback: Callable[[], object]
    ) -> None:
        if not (math.isfinite(period_s) and period_s > 0):
            raise SimulationError(
                f"timer period must be finite and positive ({period_s=})"
            )
        self.sim = sim
        self.period_s = period_s
        self.callback = callback
        self.ticks = 0
        self._handle: ScheduledEvent | None = None
        self._started = False
        self._poked = False

    # ------------------------------------------------------------------
    def start(self: _Timer) -> _Timer:
        """Arm the timer (if it is not armed already); returns ``self``."""
        self._started = True
        if self._handle is None:
            self._arm()
        return self

    def stop(self) -> None:
        """Cancel the pending tick for good; later pokes are ignored."""
        self._started = False
        self._poked = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def poke(self) -> None:
        """Note traffic: re-arms a paused timer, or keeps an armed one
        armed for one more period."""
        if not self._started:
            return
        if self._handle is None:
            self._arm()
        else:
            self._poked = True

    @property
    def running(self) -> bool:
        return self._handle is not None

    # ------------------------------------------------------------------
    def _arm(self) -> None:
        self._poked = False
        self._handle = self.sim.schedule(self.period_s, self._fire)

    def _fire(self) -> None:
        self._handle = None
        self.ticks += 1
        self.callback()
        # the callback may have stopped or re-armed the timer itself
        if self._poked and self._handle is None:
            self._arm()

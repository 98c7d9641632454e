"""Unit tests for the traffic-driven periodic timer."""

import math

import pytest

from repro.exceptions import SimulationError
from repro.sim.engine import Simulator
from repro.sim.periodic import PeriodicTimer


def timer(period=1.0):
    sim = Simulator()
    times = []
    return sim, PeriodicTimer(sim, period, lambda: times.append(sim.now)), times


class TestPeriod:
    @pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_period_before_scheduling(self, period):
        sim = Simulator()
        with pytest.raises(SimulationError):
            PeriodicTimer(sim, period, lambda: None)
        assert sim.pending_events == 0


class TestQuietRule:
    def test_unpoked_timer_ticks_once_and_run_terminates(self):
        sim, t, times = timer()
        assert t.start() is t
        assert t.running
        sim.run()
        assert times == [1.0]
        assert t.ticks == 1
        assert not t.running

    def test_poke_that_rearms_a_paused_timer_does_not_count(self):
        sim, t, times = timer()
        t.start()
        sim.run()
        t.poke()  # re-arms the paused timer ...
        assert t.running
        sim.run()
        # ... for exactly one tick: that poke is not traffic after arming
        assert times == [1.0, 2.0]
        assert not t.running

    def test_poke_after_arming_keeps_timer_armed(self):
        sim, t, times = timer()
        t.start()
        sim.schedule(0.5, t.poke)
        sim.schedule(1.5, t.poke)
        sim.run()
        # poked in the first and second windows, quiet in the third
        assert times == [1.0, 2.0, 3.0]

    def test_start_is_idempotent(self):
        sim, t, times = timer()
        t.start()
        t.start()
        sim.run()
        assert times == [1.0]


class TestStop:
    def test_stop_cancels_and_later_pokes_are_ignored(self):
        sim, t, times = timer()
        t.start()
        sim.schedule(0.5, t.poke)
        sim.schedule(0.75, t.stop)
        sim.run()
        assert times == []
        assert not t.running
        t.poke()
        assert not t.running
        sim.run()
        assert t.ticks == 0

    def test_stop_inside_the_tick_is_not_undone(self):
        sim = Simulator()
        t = PeriodicTimer(sim, 1.0, lambda: t.stop())
        t.start()
        sim.schedule(0.5, t.poke)
        sim.run()
        assert t.ticks == 1
        assert not t.running

"""Span tracing for the benchmark's traced run.

The program has no spans of its own at the granularity the benchmark
needs, so the traced run wraps the program's entry points from here: each
wrapped call records a span (name, start, end, parent span, request id)
in memory, and the tracer keeps per-name call counts and self time.  A
span's self time is its duration minus the time its child spans cover,
so the self times of all spans under one root add up to the root's
duration exactly.

Untraced runs never install the wrappers: they measure the program as it
is.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array
from collections.abc import Iterator
from pathlib import Path

__all__ = ["Tracer", "entry_points", "LAYERS"]

#: Layer names: the ``repro`` packages a span can belong to, plus the
#: benchmark's own code.  A span's layer is the part of its name before
#: the first dot.
LAYERS = (
    "sim",
    "network",
    "core",
    "controller",
    "analysis",
    "obs",
    "resilience",
    "middleware",
    "bench",
)

#: Spans that start a new client request when no request is open; every
#: span nested inside one carries its request id.
REQUEST_ROOTS = frozenset(
    {"middleware.request", "middleware.client_publish", "resilience.repair"}
)


def entry_points() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped entry point.

    Private methods appear only where the simulator schedules them as
    callbacks: without a span their time would count as the event
    queue's own.
    """
    from repro.analysis import verify as verify_module
    from repro.controller.controller import PleromaController
    from repro.controller.tree_manager import TreeManager
    from repro.core.dzset import DzSet
    from repro.core.spatial_index import SpatialIndexer
    from repro.middleware.client import Publisher, Subscriber
    from repro.middleware.metrics import MetricsCollector
    from repro.middleware.pleroma import Pleroma
    from repro.network.control_channel import ControlChannel
    from repro.network.flow import FlowTable
    from repro.network.host import Host
    from repro.network.link import Link
    from repro.network.switch import Switch
    from repro.obs.alerts import AlertEngine
    from repro.obs.flight import FlightRecorder
    from repro.obs.registry import MetricsRegistry
    from repro.obs.telemetry import StatsPoller
    from repro.obs.trace import Tracer as ObsTracer
    from repro.resilience import orchestrator as orchestrator_module
    from repro.resilience.chaos import ChaosRunner
    from repro.resilience.detector import FailureDetector
    from repro.resilience.orchestrator import RecoveryOrchestrator
    from repro.sim.engine import Simulator

    table = [
        (Simulator, ["run"], "sim.run"),
        (Switch, ["receive"], "network.switch_receive"),
        (Link, ["transmit"], "network.link_transmit"),
        (Host, ["receive"], "network.host_receive"),
        (Host, ["_process"], "network.host_deliver"),
        (Host, ["send"], "network.host_send"),
        (FlowTable, ["install", "remove"], "network.flow_table_write"),
        (
            ControlChannel,
            ["_apply", "_record_reply", "_deliver_packet_in"],
            "network.control_channel",
        ),
        (SpatialIndexer, ["event_to_dz"], "core.event_to_dz"),
        (SpatialIndexer, ["filter_to_dzset"], "core.filter_to_dzset"),
        (DzSet, ["intersect", "union", "subtract"], "core.dzset_ops"),
        (
            PleromaController,
            ["advertise", "subscribe", "unsubscribe", "unadvertise"],
            "controller.request",
        ),
        (TreeManager, ["pick_merge_pair"], "controller.merge"),
        (verify_module, ["verify_controller"], "analysis.verify"),
        # the orchestrator imported the function by name before patching
        (orchestrator_module, ["verify_controller"], "analysis.verify"),
        (
            MetricsRegistry,
            ["counter", "gauge", "histogram"],
            "obs.registry_lookups",
        ),
        (ObsTracer, ["begin", "finish", "event"], "obs.trace"),
        (StatsPoller, ["_tick"], "obs.telemetry_tick"),
        (AlertEngine, ["evaluate"], "obs.alerts.evaluate"),
        (FlightRecorder, ["add"], "obs.flight_add"),
        (RecoveryOrchestrator, ["on_event"], "resilience.repair"),
        (FailureDetector, ["_probe", "_echo"], "resilience.probe"),
        (
            ChaosRunner,
            ["_cut_link", "_heal_link", "_crash_switch", "_revive_switch"],
            "resilience.chaos_inject",
        ),
        (Pleroma, ["publish"], "middleware.publish"),
        (Publisher, ["publish"], "middleware.client_publish"),
        (
            Pleroma,
            ["advertise", "subscribe", "unsubscribe", "unadvertise"],
            "middleware.request",
        ),
        (MetricsCollector, ["on_delivery"], "middleware.deliver"),
        (Subscriber, ["_deliver"], "middleware.deliver"),
    ]
    return [
        (owner, attribute, name)
        for owner, attributes, name in table
        for attribute in attributes
    ]


#: Span names the benchmark opens around its own code.
BENCH_SPANS = ("bench.round", "bench.callback")


def span_names() -> list[str]:
    """Every span name a traced run can report, in a stable order."""
    names: list[str] = []
    for _, _, name in entry_points():
        if name not in names:
            names.append(name)
    return names + list(BENCH_SPANS)


class Tracer:
    """In-memory span store with per-name self-time accounting."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one column per span field; a span's index is its position
        self.col_name = array("i")
        self.col_start = array("d")
        self.col_end = array("d")
        self.col_parent = array("i")
        self.col_request = array("i")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        # open spans: [span index, name id, start, time covered by children]
        self._stack: list[list] = []
        self._request = 0
        self._next_request = 0
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return found

    def open(self, name_id: int) -> tuple[int, int]:
        """Start a span; returns the token :meth:`close` needs."""
        previous_request = self._request
        if (
            previous_request == 0
            and self.names[name_id] in REQUEST_ROOTS
        ):
            self._next_request += 1
            self._request = self._next_request
        index = len(self.col_name)
        parent = self._stack[-1][0] if self._stack else -1
        start = time.perf_counter()
        self.col_name.append(name_id)
        self.col_start.append(start)
        self.col_end.append(start)
        self.col_parent.append(parent)
        self.col_request.append(self._request)
        self._stack.append([index, name_id, start, 0.0])
        return index, previous_request

    def close(self, token: tuple[int, int]) -> None:
        end = time.perf_counter()
        index, previous_request = token
        frame = self._stack.pop()
        if frame[0] != index:
            raise RuntimeError("spans closed out of order")
        _, name_id, start, covered = frame
        duration = end - start
        self.col_end[index] = end
        self.calls[name_id] += 1
        self.self_s[name_id] += duration - covered
        if self._stack:
            self._stack[-1][3] += duration
        self._request = previous_request

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context manager form, for the benchmark's own code."""
        token = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(token)

    def wrap(self, name: str, function):
        name_id = self.name_id(name)
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            token = tracer.open(name_id)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.close(token)

        return traced

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point; :meth:`uninstall` restores them."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for owner, attribute, name in entry_points():
            original = vars(owner)[attribute]
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    def totals(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)`` over every closed span."""
        return {
            name: (self.calls[i], self.self_s[i])
            for i, name in enumerate(self.names)
        }

    @property
    def span_count(self) -> int:
        return len(self.col_name)

    def write(self, stem: Path) -> tuple[Path, Path]:
        """Write the spans: a JSON header and the raw columns after it.

        ``<stem>.json`` names the columns, their element types and
        lengths; ``<stem>.bin`` holds the columns back to back in native
        byte order (``array.frombytes`` reads them back).
        """
        stem.parent.mkdir(parents=True, exist_ok=True)
        columns = [
            ("name", self.col_name),
            ("start", self.col_start),
            ("end", self.col_end),
            ("parent", self.col_parent),
            ("request", self.col_request),
        ]
        header = {
            "names": self.names,
            "spans": self.span_count,
            "clock": "time.perf_counter seconds",
            "columns": [
                {"field": field, "typecode": column.typecode}
                for field, column in columns
            ],
        }
        header_path = stem.with_suffix(".json")
        data_path = stem.with_suffix(".bin")
        header_path.write_text(json.dumps(header, indent=1) + "\n")
        with data_path.open("wb") as out:
            for _, column in columns:
                column.tofile(out)
        return header_path, data_path


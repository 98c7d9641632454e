"""Overload detection and reaction.

The paper's conclusion: "beyond the presented algorithms ... new mechanisms
need to be introduced in order to detect and react to overload situations
in the presence of a dynamic workload."  This module implements one such
mechanism on top of the reproduction's primitives:

* **detect** — a :class:`~repro.obs.samplers.LinkUtilizationProbe`
  measures per-link utilization over the window since its previous call;
  a link above the configured threshold is *hot*;
* **react** — among the trees routed over the hot edge, try to move the
  busiest one (most installed paths crossing the edge) onto an alternative
  structure avoiding the edge
  (:meth:`~repro.controller.controller.PleromaController.reroute_tree_around_edge`).

Reactions are rate-limited per edge (one reroute per observation window)
and logged so experiments can assert what happened.

The reroute primitive returns a
:class:`~repro.controller.controller.RerouteOutcome` (truthy only when a
reroute deployed), so the log records *why* a reaction was declined.  The
failure counterpart of this module is :mod:`repro.resilience`: overload
shifts load within a healthy fabric, resilience repairs trees over a
broken one — see ``docs/resilience.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.controller.controller import PleromaController
from repro.controller.tree import SpanningTree
from repro.exceptions import ControllerError
from repro.obs.samplers import LinkUtilizationProbe

__all__ = ["OverloadEvent", "OverloadManager"]


@dataclass(frozen=True)
class OverloadEvent:
    """One detection/reaction record."""

    time: float
    edge: tuple[str, str]
    utilization: float
    tree_id: int | None
    rerouted: bool


@dataclass
class OverloadManager:
    """Watches one controller's partition and reroutes around hot links."""

    controller: PleromaController
    probe: LinkUtilizationProbe
    threshold: float = 0.8
    log: list[OverloadEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise ControllerError("threshold must be in (0, 1]")

    # ------------------------------------------------------------------
    def _paths_over_edge(self, tree: SpanningTree, a: str, b: str) -> int:
        """How many publisher->subscriber paths of a tree cross an edge."""
        count = 0
        for pub in tree.publishers.values():
            for sub in tree.subscribers.values():
                if pub.endpoint.name == sub.endpoint.name:
                    continue
                route = tree.path_between(
                    pub.endpoint.switch, sub.endpoint.switch
                )
                if any(
                    {u, v} == {a, b} for u, v in zip(route, route[1:])
                ):
                    count += 1
        return count

    # ------------------------------------------------------------------
    def check(self) -> OverloadEvent | None:
        """Take one sample; if the hottest intra-partition link exceeds the
        threshold, try to reroute the busiest tree off it.

        Returns the event when an overload was detected (whether or not a
        reroute succeeded), None when everything is below threshold.
        """
        samples = self.probe(self.controller.network.sim.now)
        partition = self.controller.partition
        hot_edge = None
        hot_sample = None
        for key, sample in samples.items():
            if not key <= partition:
                continue  # not an internal edge of this partition
            if hot_sample is None or sample.utilization > hot_sample.utilization:
                hot_edge, hot_sample = key, sample
        if hot_edge is None or hot_sample.utilization < self.threshold:
            return None
        a, b = sorted(hot_edge)
        candidates = sorted(
            (
                tree
                for tree in self.controller.trees
                if tree.uses_edge(a, b)
            ),
            key=lambda t: self._paths_over_edge(t, a, b),
            reverse=True,
        )
        rerouted = False
        chosen = None
        for tree in candidates:
            chosen = tree.tree_id
            if self.controller.reroute_tree_around_edge(tree.tree_id, a, b):
                rerouted = True
                break
        event = OverloadEvent(
            time=self.controller.network.sim.now,
            edge=(a, b),
            utilization=hot_sample.utilization,
            tree_id=chosen,
            rerouted=rerouted,
        )
        self.log.append(event)
        return event

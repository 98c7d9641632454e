"""The benchmark's workloads: seeded inputs, one measured round, outputs.

Each workload turns a seed into inputs before anything is timed
(:meth:`make_inputs`), then runs rounds over those inputs through the
program's public API (:meth:`run_round`).  A round deploys a fresh
:class:`~repro.middleware.pleroma.Pleroma` (:meth:`deploy`, timed as
set-up; the runner also times extra set-ups on their own), runs the
measured phase, and collects the simulated outputs into a document whose
digest the runner compares across rounds and against committed
references: rounds over the same inputs must produce the same digest.

``make_inputs`` takes a size name: ``standard`` is what the benchmark
measures, ``tiny`` exists for the smoke tests.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field

from repro import Event, Filter, Pleroma, mininet_fat_tree, paper_fat_tree
from repro import paper_zipfian
from repro.analysis.verify import verify_deployment
from repro.core.subscription import Advertisement
from repro.exceptions import ReproError
from repro.resilience.chaos import CHAOS_KINDS, ChaosRunner, ChaosSchedule

__all__ = ["WORKLOADS", "RoundResult", "digest", "packet_hops"]

#: Percentiles of the sim-time delivery delay pinned by the digest.
DELAY_PERCENTILES = (50, 90, 99, 100)


@dataclass
class RoundResult:
    """What one round measured and produced."""

    setup_s: float
    work_s: float               # wall time of the measured phase
    work_units: int             # packet hops or client requests
    latencies_s: list[float]    # one wall latency per operation
    attempted: int
    failed: int
    outputs: dict               # the digested simulated outputs
    deployment: Pleroma
    queue_depth_start: int = 0
    verify_s: float | None = None
    # readable failure messages; the digested outputs leave out the ids in
    # them, which come from process-wide counters
    failures: list[str] = field(default_factory=list)
    orchestrator: object = None


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def digest(outputs: dict) -> str:
    """SHA-256 of the canonical JSON form of an outputs document."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def packet_hops(network) -> int:
    """Packet arrivals at switches and hosts: one per simulated hop."""
    return sum(s.packets_received for s in network.switches.values()) + sum(
        h.packets_arrived for h in network.hosts.values()
    )


def _flow_tables(middleware: Pleroma) -> dict[str, list[str]]:
    return {
        name: sorted(str(entry) for entry in switch.table)
        for name, switch in sorted(middleware.network.switches.items())
    }


def _percentile(ordered: list[float], pct: int) -> float:
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, len(ordered) * pct // 100)]


def _deliveries(middleware: Pleroma) -> tuple[dict, dict[str, set[int]]]:
    """Per-host delivery counts and digests, plus the received event ids."""
    per_host: dict[str, dict] = {}
    received: dict[str, set[int]] = {}
    ids: dict[str, list[int]] = {}
    for record in middleware.metrics.records:
        entry = per_host.setdefault(
            record.host, {"matched": 0, "false_positive": 0}
        )
        entry["matched" if record.matched else "false_positive"] += 1
        ids.setdefault(record.host, []).append(record.event.event_id)
        received.setdefault(record.host, set()).add(record.event.event_id)
    for host, entry in per_host.items():
        entry["event_ids"] = hashlib.sha256(
            ",".join(map(str, sorted(ids[host]))).encode("ascii")
        ).hexdigest()
    delays = sorted(middleware.metrics.delays())
    document = {
        "per_host": dict(sorted(per_host.items())),
        "delay_s": {f"p{p}": _percentile(delays, p) for p in DELAY_PERCENTILES},
    }
    return document, received


def _verify_document(middleware: Pleroma) -> tuple[dict, float]:
    started = time.perf_counter()
    reports = verify_deployment(middleware)
    elapsed = time.perf_counter() - started
    return {
        "clean": all(report.ok for report in reports),
        "violations": {
            report.controller: report.by_kind() for report in reports
        },
    }, elapsed


def _predicates(subscription) -> list[tuple[str, float, float]]:
    return [
        (name, predicate.low, predicate.high)
        for name, predicate in sorted(subscription.filter.predicates.items())
    ]


def _matches(predicates, event: Event) -> bool:
    return all(low <= event.value(name) <= high for name, low, high in predicates)


class _Interests:
    """Zipfian interest models drawn in fixed proportions.

    A single zipfian model puts all interest around 7 hotspots whose
    placement the seed decides, and the cost of a whole round swings with
    that placement.  Here several independent models ("tenants") share
    the deployment, and draws are stratified: each tenant gets an equal
    share and each of its hotspots a share proportional to its
    popularity, so the seed changes placement and jitter but not the mix.
    """

    def __init__(self, rng: random.Random, tenants: int, dimensions: int):
        self.rng = rng
        self.models = [
            paper_zipfian(dimensions=dimensions, seed=rng.getrandbits(32))
            for _ in range(tenants)
        ]
        self.space = self.models[0].space

    def keys(self, count: int) -> list[tuple[int, int]]:
        """``count`` (tenant, hotspot rank) pairs in shuffled order."""
        keys: list[tuple[int, int]] = []
        for tenant, model in enumerate(self.models):
            share = count // len(self.models) + (
                tenant < count % len(self.models)
            )
            ranks = len(model.hotspots)
            weights = [
                1.0 / (rank + 1) ** model.sampler.exponent
                for rank in range(ranks)
            ]
            raw = [share * w / sum(weights) for w in weights]
            quota = [int(x) for x in raw]
            for rank in sorted(range(ranks), key=lambda r: quota[r] - raw[r])[
                : share - sum(quota)
            ]:
                quota[rank] += 1
            keys += [(tenant, r) for r, n in enumerate(quota) for _ in range(n)]
        self.rng.shuffle(keys)
        return keys

    def subscription(self, key: tuple[int, int]):
        model = self.models[key[0]]
        return model.subscription(model.hotspots[key[1]])


class _Cycle:
    """Draws from a list in reshuffled passes, so every item is used
    equally often."""

    def __init__(self, rng: random.Random, items) -> None:
        self._rng = rng
        self._items = list(items)
        self._pending: list = []

    def next(self):
        if not self._pending:
            self._pending = self._rng.sample(self._items, len(self._items))
        return self._pending.pop()


def _callback(tracer, function):
    """One of the benchmark's own sim callbacks, in a span when traced."""
    if tracer is None:
        return function
    return tracer.wrap("bench.callback", function)


# ----------------------------------------------------------------------
# publish_drain: the data plane alone
# ----------------------------------------------------------------------
@dataclass
class _PublishDrainInputs:
    space: object
    publishers: list[str]
    subscriptions: list[tuple[str, object]]
    events: list[Event]
    burst: int
    burst_interval_s: float
    expected: list[frozenset[str]] | None = None


class PublishDrain:
    """Open-loop publishing over a fixed subscription population.

    Mininet 20-switch fat-tree, four publishers advertising the whole
    4-dimensional space, zipfian subscriptions on the twelve other hosts and
    zipfian events round-robin over the publishers.  The load is open
    loop in sim time: bursts of events, one burst every
    ``burst_interval_s``, are all scheduled before ``run()``, then the
    network is drained; the controller is idle throughout.

    Throughput counts packet hops (arrivals at switches and hosts) per
    wall second, which does not depend on how many hops a seed's events
    take.  Latency is the wall time from a burst's first publish call to
    its last matching delivery.  A single event's latency would be set
    by the path length to its farthest subscriber, which takes a few
    discrete values, and the median would jump between them with the
    seed; a burst averages over its events.
    """

    name = "publish_drain"
    #: Extra set-ups the runner times after each round.
    SETUP_REPEATS = 0
    SIZES = {
        "standard": {
            "events": 4000, "subs_per_host": 2, "burst": 40,
            "burst_interval_s": 0.002,
        },
        "tiny": {
            "events": 120, "subs_per_host": 1, "burst": 10,
            "burst_interval_s": 0.002,
        },
    }

    def make_inputs(self, seed: int, size: str) -> _PublishDrainInputs:
        params = self.SIZES[size]
        rng = random.Random(seed)
        hosts = sorted(mininet_fat_tree().hosts())
        publishers = sorted(rng.sample(hosts, 4))
        receivers = [h for h in hosts if h not in publishers]
        # one tenant per publisher: publisher k sends tenant k's events
        interests = _Interests(rng, len(publishers), dimensions=4)
        per_host = params["subs_per_host"]
        keys = interests.keys(len(receivers) * per_host)
        subscriptions = [
            (receivers[i // per_host], interests.subscription(key))
            for i, key in enumerate(keys)
        ]
        events = []
        for i in range(params["events"]):
            event = interests.models[i % len(publishers)].event()
            events.append(Event(values=event.values, event_id=i + 1))
        return _PublishDrainInputs(
            space=interests.space,
            publishers=publishers,
            subscriptions=subscriptions,
            events=events,
            burst=params["burst"],
            burst_interval_s=params["burst_interval_s"],
        )

    def deploy(self, inputs: _PublishDrainInputs, callback=None):
        """Set-up: the deployment, its publishers and subscriptions."""
        middleware = Pleroma(
            mininet_fat_tree(), space=inputs.space, max_dz_length=16
        )
        publishers = [middleware.publisher(h) for h in inputs.publishers]
        for publisher in publishers:
            publisher.advertise(Filter.of())
        clients: dict = {}
        for host, subscription in inputs.subscriptions:
            if host not in clients:
                clients[host] = middleware.subscriber(host, callback=callback)
            clients[host].subscribe(subscription)
        return middleware, publishers

    def _expected(self, inputs: _PublishDrainInputs) -> list[frozenset[str]]:
        """Hosts each event must reach, from the generated ranges alone."""
        if inputs.expected is None:
            boxes = [(h, _predicates(s)) for h, s in inputs.subscriptions]
            inputs.expected = [
                frozenset(h for h, box in boxes if _matches(box, event))
                for event in inputs.events
            ]
        return inputs.expected

    def run_round(
        self, inputs: _PublishDrainInputs, tracer=None, verify: bool = False
    ) -> RoundResult:
        # ``verify`` is ignored: the verifier needs seconds for this
        # workload's thousands of flows, so the delivery oracle stands in
        bursts = -(-len(inputs.events) // inputs.burst)
        published_at = [0.0] * bursts
        delivered_at = [0.0] * bursts
        burst_of = {
            event.event_id: i // inputs.burst
            for i, event in enumerate(inputs.events)
        }

        def on_delivery(event: Event, now: float) -> None:
            delivered_at[burst_of[event.event_id]] = time.perf_counter()

        def publish(publisher, event: Event) -> None:
            burst = burst_of[event.event_id]
            if not published_at[burst]:
                published_at[burst] = time.perf_counter()
            publisher.publish(event)

        started = time.perf_counter()
        middleware, publishers = self.deploy(
            inputs, _callback(tracer, on_delivery)
        )
        setup_s = time.perf_counter() - started

        hops_before = packet_hops(middleware.network)
        started = time.perf_counter()
        publish_cb = _callback(tracer, publish)
        for i, event in enumerate(inputs.events):
            middleware.sim.schedule_at(
                i // inputs.burst * inputs.burst_interval_s,
                publish_cb,
                publishers[i % len(publishers)],
                event,
            )
        depth = middleware.sim.pending_events
        middleware.run()
        work_s = time.perf_counter() - started
        hops = packet_hops(middleware.network) - hops_before

        deliveries, received = _deliveries(middleware)
        failures = [
            f"event {event.event_id} missed {sorted(missing)}"
            for event, expected in zip(inputs.events, self._expected(inputs))
            if (
                missing := {
                    h for h in expected
                    if event.event_id not in received.get(h, ())
                }
            )
        ]
        outputs = {
            "deliveries": deliveries,
            "flow_tables": _flow_tables(middleware),
            "flow_mods": middleware.controllers[0].total_flow_mods,
            "link_bytes": middleware.network.total_link_bytes(),
            "sim_events": middleware.sim.processed_events,
            "failed_events": len(failures),
        }
        latencies = [
            delivered - published
            for published, delivered in zip(published_at, delivered_at)
            if delivered
        ]
        return RoundResult(
            setup_s=setup_s,
            work_s=work_s,
            work_units=hops,
            latencies_s=latencies,
            attempted=len(inputs.events),
            failed=len(failures),
            outputs=outputs,
            deployment=middleware,
            queue_depth_start=depth,
            failures=failures,
        )


# ----------------------------------------------------------------------
# control_churn: the control plane alone
# ----------------------------------------------------------------------
#: One step in this many re-advertises; the rest subscribe or unsubscribe.
#: The tail (the eleventh slowest request) then falls near the middle of
#: a round's ~33 advertisements, where it varies less between input sets
#: than it did near their top with one step in six (per-set spread of
#: tail over median 0.14 against 0.21).
READVERTISE_EVERY = 9

#: Share of the other steps that cancel a live subscription.
UNSUBSCRIBE_SHARE = 0.25

#: Advertised regions are cells of a grid with this many cells per
#: dimension, so every advertisement is one dz.  Random boxes decompose
#: into 16 to 64 dz depending on how they straddle the grid, and the
#: trees and merges that follow made a round's cost swing 2x with the seed.
GRID_CELLS = 4

#: The controller's tree budget, below the 8 advertised cells so that
#: trees get merged.
MERGE_THRESHOLD = 4


def _grid_cell(space, point) -> Filter:
    """The :data:`GRID_CELLS` grid cell containing a point."""
    ranges = {}
    for attr, value in zip(space.attributes, point):
        width = (attr.high - attr.low) / GRID_CELLS
        index = min(GRID_CELLS - 1, int((value - attr.low) // width))
        low = attr.low + index * width
        ranges[attr.name] = (low, low + width - attr.grain)
    return Filter.of(**ranges)


@dataclass
class _ControlChurnInputs:
    space: object
    advertisements: list[tuple[str, Advertisement]]  # the first fill slots
    slots: int
    subscriptions: list[tuple[str, object]]  # the first are set up
    initial: int
    plan: list[tuple]


class ControlChurn:
    """One closed-loop client sending control requests back to back.

    Paper Fig. 6 fat-tree, 4-dimensional zipfian interests.  Set-up
    installs 8 advertisements and an initial subscription population.
    The measured phase is a seeded request plan: every ninth step
    re-advertises one slot (an unadvertise, then an advertise of the same
    cell from the next host, so 8 stay live); the other steps subscribe,
    or with probability ``UNSUBSCRIBE_SHARE`` cancel a live subscription.
    Subscribes outnumber unsubscribes so the median request is a
    subscribe: with an even mix it would sit on the gap between cheap
    unsubscribes and dearer subscribes.  The re-advertise count is fixed
    so that the tail (the eleventh slowest request) lands among the
    advertisements for every seed.  A verified round ends with one
    ``verify_deployment``.
    """

    name = "control_churn"
    SETUP_REPEATS = 2
    SIZES = {
        "standard": {
            "tenants": 4, "advertisements": 8, "initial": 40, "steps": 300,
        },
        "tiny": {"tenants": 2, "advertisements": 2, "initial": 4, "steps": 12},
    }

    def make_inputs(self, seed: int, size: str) -> _ControlChurnInputs:
        params = self.SIZES[size]
        rng = random.Random(seed)
        interests = _Interests(rng, params["tenants"], dimensions=4)
        hosts = _Cycle(rng, sorted(paper_fat_tree().hosts()))
        slots = params["advertisements"]
        # each slot keeps its (tenant, hotspot) when it is re-advertised
        slot_keys = interests.keys(slots)

        def advertisement(slot: int) -> tuple[str, Advertisement]:
            tenant, rank = slot_keys[slot]
            center = interests.models[tenant].hotspots[rank].center
            return hosts.next(), Advertisement(
                filter=_grid_cell(interests.space, center)
            )

        steps = params["steps"]
        sub_keys = iter(interests.keys(params["initial"] + steps))
        advertisements = [advertisement(slot) for slot in range(slots)]
        subscriptions = [
            (hosts.next(), interests.subscription(next(sub_keys)))
            for _ in range(params["initial"])
        ]
        live = list(range(len(subscriptions)))
        slot_order = _Cycle(rng, range(slots))
        plan: list[tuple] = []
        for step in range(steps):
            if step % READVERTISE_EVERY == READVERTISE_EVERY // 2:
                slot = slot_order.next()
                advertisements.append(advertisement(slot))
                plan.append(("unadvertise", slot))
                plan.append(("advertise", slot, len(advertisements) - 1))
            elif rng.random() < UNSUBSCRIBE_SHARE and live:
                plan.append(("unsubscribe", live.pop(rng.randrange(len(live)))))
            else:
                subscriptions.append(
                    (hosts.next(), interests.subscription(next(sub_keys)))
                )
                live.append(len(subscriptions) - 1)
                plan.append(("subscribe", len(subscriptions) - 1))
        return _ControlChurnInputs(
            space=interests.space,
            advertisements=advertisements,
            slots=slots,
            subscriptions=subscriptions,
            initial=params["initial"],
            plan=plan,
        )

    def deploy(self, inputs: _ControlChurnInputs):
        """Set-up: the deployment, its advertisements and the initial
        subscriptions, with the ids the request plan refers to."""
        middleware = Pleroma(
            paper_fat_tree(),
            space=inputs.space,
            max_dz_length=16,
            merge_threshold=MERGE_THRESHOLD,
        )
        adv_slots: list[tuple[str, int]] = []
        for host, adv in inputs.advertisements[: inputs.slots]:
            adv_slots.append((host, middleware.advertise(host, adv).adv_id))
        sub_ids: dict[int, tuple[str, int]] = {}
        for index in range(inputs.initial):
            host, sub = inputs.subscriptions[index]
            sub_ids[index] = (host, middleware.subscribe(host, sub).sub_id)
        return middleware, adv_slots, sub_ids

    def run_round(
        self, inputs: _ControlChurnInputs, tracer=None, verify: bool = False
    ) -> RoundResult:
        started = time.perf_counter()
        middleware, adv_slots, sub_ids = self.deploy(inputs)
        setup_s = time.perf_counter() - started

        latencies: list[float] = []
        failures: list[str] = []
        failed_requests: list[str] = []
        started = time.perf_counter()
        for step, op in enumerate(inputs.plan):
            began = time.perf_counter()
            try:
                self._apply(middleware, inputs, op, adv_slots, sub_ids)
            except ReproError as exc:
                failed_requests.append(f"{step} {op[0]}: {type(exc).__name__}")
                failures.append(f"{step} {op[0]}: {type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - began)
        work_s = time.perf_counter() - started

        controller = middleware.controllers[0]
        outputs = {
            "flow_tables": _flow_tables(middleware),
            "flow_mods": controller.total_flow_mods,
            "trees": len(controller.trees),
            "subscriptions": len(controller.subscriptions),
            "advertisements": len(controller.advertisements),
            "failed_requests": failed_requests,
        }
        verify_s = None
        if verify:
            outputs["verify"], verify_s = _verify_document(middleware)
        return RoundResult(
            setup_s=setup_s,
            work_s=work_s,
            work_units=len(inputs.plan),
            latencies_s=latencies,
            attempted=len(inputs.plan),
            failed=len(failures),
            outputs=outputs,
            deployment=middleware,
            verify_s=verify_s,
            failures=failures,
        )

    @staticmethod
    def _apply(middleware, inputs, op, adv_slots, sub_ids) -> None:
        kind = op[0]
        if kind == "subscribe":
            host, sub = inputs.subscriptions[op[1]]
            sub_ids[op[1]] = (host, middleware.subscribe(host, sub).sub_id)
        elif kind == "unsubscribe":
            middleware.unsubscribe(*sub_ids.pop(op[1]))
        elif kind == "unadvertise":
            middleware.unadvertise(*adv_slots[op[1]])
        else:
            host, adv = inputs.advertisements[op[2]]
            adv_slots[op[1]] = (host, middleware.advertise(host, adv).adv_id)


# ----------------------------------------------------------------------
# chaos_mix: every layer at once
# ----------------------------------------------------------------------
#: attr0 bands the chaos listeners subscribe to (as in the ``stats`` CLI).
BANDS = ((0, 255), (256, 511), (512, 767), (768, 1023))

#: An event must reach every matching host whose subscription stayed
#: live this long after the event was published.
FLIGHT_WINDOW_S = 0.01

#: How long after an injected fault heals the fabric counts as recovering:
#: the detector's echo probes (every 2 ms) must see the elements back and
#: the orchestrator must resume what it suspended.  No event outside these
#: windows was lost on any of 384 input sets tried; on 20 of them the last
#: loss inside came 1 ms after the heal.
RECOVERY_S = 0.01


@dataclass
class _ChaosMixInputs:
    schedule: ChaosSchedule
    publisher: str
    listeners: list[str]
    events: list[Event]
    rate_eps: float
    churn: list[tuple[float, str, tuple[int, int]]]
    seed: int
    #: sim-time spans from each injection until the fabric has recovered
    faults: list[tuple[float, float]]


class ChaosMix:
    """Failures, repairs, telemetry and churn beside a live event stream.

    Mininet fat-tree, 2 dimensions.  In-band telemetry polls every 10 ms,
    the flight recorder keeps every packet, and the self-healing control
    plane verifies every repair.  A seeded :class:`ChaosSchedule` runs
    each failure kind (link cut, link flap, switch crash, partition)
    twice while one publisher sends skewed events to attr0-band
    subscribers on alternate hosts, and every 5 ms of sim time the
    benchmark re-subscribes a random host (an unsubscribe, then a
    subscribe to a new band), except while a fault is outstanding: from
    its injection until ``RECOVERY_S`` after it heals.  So repairs, churn
    and telemetry all rewrite or read flow tables beside the traffic.

    Throughput counts packet hops per wall second, as in
    ``publish_drain``; latency is the wall time of each churn request
    call.  An event whose flight overlaps an outstanding fault has no
    delivery guarantee: if a live matching subscriber misses it, that is
    a blackout loss, which the digest pins and the traced run reports.
    Every other event must reach each live matching subscriber, and no
    request may raise; any that do are counted as failed.
    """

    name = "chaos_mix"
    SETUP_REPEATS = 20
    SIZES = {
        "standard": {"repeats": 2, "rate_eps": 5000.0, "churn_period_s": 0.005},
        "tiny": {"repeats": 1, "rate_eps": 500.0, "churn_period_s": 0.01},
    }

    def make_inputs(self, seed: int, size: str) -> _ChaosMixInputs:
        params = self.SIZES[size]
        rng = random.Random(seed)
        topology = mininet_fat_tree()
        hosts = sorted(topology.hosts())
        schedule = ChaosSchedule.generate(
            topology, seed=seed, kinds=CHAOS_KINDS * params["repeats"]
        )
        count = int(schedule.horizon * params["rate_eps"])
        # cubing the uniform draw skews events toward low attr0 values
        events = [
            Event.of(
                event_id=i + 1,
                attr0=rng.uniform(0.0, 1.0) ** 3 * 1023.0,
                attr1=rng.uniform(0.0, 1023.0),
            )
            for i in range(count)
        ]
        faults = [
            (action.at, action.heal_at + RECOVERY_S)
            for action in schedule.actions
        ]
        period = params["churn_period_s"]
        listeners = hosts[1::2]
        churn = []
        for k in range(int(schedule.horizon / period) - 1):
            at = period * (k + 1)
            if not any(start <= at <= end for start, end in faults):
                churn.append(
                    (at, rng.choice(listeners), BANDS[rng.randrange(4)])
                )
        return _ChaosMixInputs(
            schedule=schedule,
            publisher=hosts[0],
            listeners=listeners,
            events=events,
            rate_eps=params["rate_eps"],
            churn=churn,
            seed=seed,
            faults=faults,
        )

    def deploy(self, inputs: _ChaosMixInputs):
        """Set-up: the deployment with telemetry, flight recorder and
        resilience enabled, the publisher and the listeners' first
        subscriptions."""
        middleware = Pleroma(mininet_fat_tree(), dimensions=2, max_dz_length=12)
        middleware.enable_telemetry(period_s=0.01)
        middleware.enable_flight_recorder(sample_every=1, seed=inputs.seed)
        detector, orchestrator = middleware.enable_resilience(seed=inputs.seed)
        publisher = middleware.publisher(inputs.publisher)
        publisher.advertise(Filter.of())
        clients = {}
        # the clients' view of their subscriptions:
        # [host, sub id, band, live since, live until] (sim time)
        held: dict[str, list] = {}
        for i, host in enumerate(inputs.listeners):
            clients[host] = middleware.subscriber(host)
            band = BANDS[i % len(BANDS)]
            sub_id = clients[host].subscribe(Filter.of(attr0=band))
            held[host] = [host, sub_id, band, 0.0, None]
        return middleware, detector, orchestrator, publisher, clients, held

    def run_round(
        self, inputs: _ChaosMixInputs, tracer=None, verify: bool = False
    ) -> RoundResult:
        started = time.perf_counter()
        middleware, detector, orchestrator, publisher, clients, held = (
            self.deploy(inputs)
        )
        setup_s = time.perf_counter() - started
        history = list(held.values())

        latencies: list[float] = []
        failures: list[str] = []
        failed_requests: list[str] = []

        def request(host: str, call, *args):
            began = time.perf_counter()
            try:
                return call(*args)
            except ReproError as exc:
                what = f"t={middleware.now:.6f} {host} {call.__name__}"
                failed_requests.append(f"{what}: {type(exc).__name__}")
                failures.append(f"{what}: {type(exc).__name__}: {exc}")
                return None
            finally:
                latencies.append(time.perf_counter() - began)

        def resubscribe(host: str, band: tuple[int, int]) -> None:
            client = clients[host]
            current = held.pop(host, None)
            if current is not None:
                current[4] = middleware.now
                request(host, client.unsubscribe, current[1])
            sub_id = request(host, client.subscribe, Filter.of(attr0=band))
            if sub_id is not None:
                held[host] = [host, sub_id, band, middleware.now, None]
                history.append(held[host])

        resubscribe_cb = _callback(tracer, resubscribe)
        publish_cb = _callback(tracer, publisher.publish)
        sim = middleware.sim
        hops_before = packet_hops(middleware.network)
        started = time.perf_counter()
        for at, host, band in inputs.churn:
            sim.schedule_at(at, resubscribe_cb, host, band)
        interval = 1.0 / inputs.rate_eps
        for i, event in enumerate(inputs.events):
            sim.schedule_at(i * interval, publish_cb, event)
        depth = sim.pending_events
        ChaosRunner(middleware, inputs.schedule, detector, orchestrator).run()
        work_s = time.perf_counter() - started
        hops = packet_hops(middleware.network) - hops_before

        deliveries, received = _deliveries(middleware)
        lost = blackout = 0
        for i, event in enumerate(inputs.events):
            published = i * interval
            attr0 = event.value("attr0")
            missed = any(
                since <= published
                and (until is None or until >= published + FLIGHT_WINDOW_S)
                and band[0] <= attr0 <= band[1]
                and event.event_id not in received.get(host, ())
                for host, _, band, since, until in history
            )
            if any(
                published <= end and published + FLIGHT_WINDOW_S >= start
                for start, end in inputs.faults
            ):
                blackout += missed
            else:
                lost += missed
        channel = middleware.obs.telemetry.channel
        controller = middleware.controllers[0]
        outputs = {
            "deliveries": deliveries,
            "flow_tables": _flow_tables(middleware),
            "flow_mods": controller.total_flow_mods,
            "control_channel": {
                "messages_to_switches": channel.messages_to_switches(),
                "messages_to_controller": channel.messages_to_controller(),
                "bytes_to_switches": channel.bytes_to_switches(),
                "bytes_to_controller": channel.bytes_to_controller(),
            },
            "repairs": [record.to_dict() for record in orchestrator.records],
            "alerts": len(middleware.obs.alerts.history),
            "flight_records": middleware.obs.flight.stats.records_appended,
            "sim_events": sim.processed_events,
            "failed_requests": failed_requests,
            "failed_events": lost,
            "blackout_losses": blackout,
        }
        verify_s = None
        if verify:
            outputs["verify"], verify_s = _verify_document(middleware)
        return RoundResult(
            setup_s=setup_s,
            work_s=work_s,
            work_units=hops,
            latencies_s=latencies,
            attempted=len(inputs.events) + len(latencies),
            failed=lost + len(failures),
            outputs=outputs,
            deployment=middleware,
            queue_depth_start=depth,
            verify_s=verify_s,
            failures=failures,
            orchestrator=orchestrator,
        )


WORKLOADS = {
    workload.name: workload
    for workload in (PublishDrain(), ControlChurn(), ChaosMix())
}

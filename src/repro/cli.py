"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Describe one of the built-in topologies (switches, hosts, links,
    diameter).
``demo``
    Run a compact publish/subscribe demonstration on the paper's testbed
    fat-tree and print the delivery report.
``soak``
    Random subscribe/unsubscribe/advertise/unadvertise churn with invariant
    checking after every step — a quick self-test of an installation.
``check``
    Statically verify the installed flow state (loop/blackhole freedom,
    tree disjointness, dead rules, table drift) over seeded churn on the
    built-in topologies; ``--self-test`` mutation-tests the verifier
    itself by injecting known fault classes.  Exits nonzero on violations.
``fpr``
    Evaluate one false-positive-rate data point (the Fig. 7d measurement)
    for a chosen model, subscription count and dz length.
``report``
    Render an exported observability snapshot (``demo --snapshot-out``,
    :meth:`Pleroma.export_obs` or the benchmark harness) as a terminal
    run summary; ``--csv`` re-exports the metrics as CSV instead.
``trace``
    Run the demo workload with the data-plane flight recorder enabled and
    render per-event hop timelines, the delay attribution, the drop
    forensics and a per-link hotness table; ``--out`` exports the
    deterministic trace document, ``--chrome-out`` writes Chrome
    trace-event JSON (load in ``chrome://tracing`` / Perfetto).
``stats``
    Run a skewed workload with in-band telemetry enabled: the controller
    polls every switch with OpenFlow ``FlowStats``/``PortStats``/
    ``TableStats`` requests over the control channel (no oracle reads),
    then prints the polled heavy hitters, per-switch polling state,
    inferred port loss, the alert log and the reconciliation against the
    oracle counters.  ``--json`` emits a byte-stable document, ``--out``
    writes it to a file, ``--prom`` exports the metrics registry in
    Prometheus/OpenMetrics text format.
``chaos``
    Run a seeded failure schedule (link cut, flap train, switch crash,
    partition) against a deployment with the self-healing control plane
    enabled (:mod:`repro.resilience`) and report the recovery SLOs:
    detection latency, modeled repair latency, blackout packet loss and
    post-repair verifier cleanliness.  ``--json`` emits a byte-stable
    report, ``--out`` writes it to a file.  Exits nonzero if the final
    verifier pass finds violations.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from collections.abc import Iterator, Sequence

from repro.core.events import Event
from repro.core.spatial_index import SpatialIndexer
from repro.core.subscription import Advertisement, Filter
from repro.exceptions import ReproError
from repro.middleware.pleroma import Pleroma
from repro.network.topology import (
    Topology,
    line,
    mininet_fat_tree,
    paper_fat_tree,
    ring,
)
from repro.workloads.scenarios import paper_uniform, paper_zipfian

__all__ = ["main", "build_parser"]

_TOPOLOGIES = {
    "paper-fat-tree": paper_fat_tree,
    "mininet-fat-tree": mininet_fat_tree,
    "ring": ring,
    "line": lambda: line(4),
}

# The chaos command accepts "fat-tree" as a friendlier alias; kept local so
# "check --topology all" does not run the paper fat-tree twice.
_CHAOS_TOPOLOGIES = {**_TOPOLOGIES, "fat-tree": paper_fat_tree}


def _topology(name: str) -> Topology:
    return _TOPOLOGIES[name]()


def _period(text: str) -> float:
    """argparse type for sim-time periods: a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite number of seconds > 0, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PLEROMA SDN publish/subscribe middleware (reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="describe a built-in topology")
    info.add_argument(
        "--topology",
        choices=sorted(_TOPOLOGIES),
        default="paper-fat-tree",
    )

    demo = sub.add_parser("demo", help="run a small pub/sub demonstration")
    demo.add_argument("--events", type=int, default=50)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument(
        "--snapshot-out",
        metavar="PATH",
        default=None,
        help="export the observability snapshot as JSON to PATH",
    )

    soak = sub.add_parser("soak", help="randomised churn self-test")
    soak.add_argument("--steps", type=int, default=100)
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument(
        "--topology",
        choices=sorted(_TOPOLOGIES),
        default="mininet-fat-tree",
    )

    check = sub.add_parser(
        "check", help="statically verify the installed flow state"
    )
    check.add_argument(
        "--topology",
        choices=["all", *sorted(_TOPOLOGIES)],
        default="all",
        help="built-in topology to verify (default: all of them)",
    )
    check.add_argument(
        "--install-mode",
        choices=["both", "reconcile", "incremental"],
        default="both",
    )
    check.add_argument("--partitions", type=int, default=1)
    check.add_argument("--steps", type=int, default=25)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument(
        "--self-test",
        action="store_true",
        help=(
            "mutation-test the verifier: inject each known fault class "
            "into a healthy deployment and require detection"
        ),
    )
    check.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable reports instead of the text summary",
    )

    render = sub.add_parser(
        "render", help="draw a 2-D filter's dz decomposition as ASCII art"
    )
    render.add_argument("--a", nargs=2, type=float, default=[200, 600],
                        metavar=("LOW", "HIGH"))
    render.add_argument("--b", nargs=2, type=float, default=[300, 700],
                        metavar=("LOW", "HIGH"))
    render.add_argument("--dz-length", type=int, default=10)
    render.add_argument("--max-cells", type=int, default=32)
    render.add_argument("--width", type=int, default=48)
    render.add_argument("--height", type=int, default=24)

    fpr = sub.add_parser(
        "fpr", help="measure one false-positive-rate data point"
    )
    fpr.add_argument("--model", choices=["uniform", "zipfian"], default="zipfian")
    fpr.add_argument("--subscriptions", type=int, default=100)
    fpr.add_argument("--dz-length", type=int, default=15)
    fpr.add_argument("--dimensions", type=int, default=3)
    fpr.add_argument("--events", type=int, default=1000)
    fpr.add_argument("--seed", type=int, default=0)

    report = sub.add_parser(
        "report", help="render an exported observability snapshot"
    )
    report.add_argument("snapshot", help="path to a snapshot JSON file")
    report.add_argument(
        "--csv",
        action="store_true",
        help="emit the metrics as CSV instead of the run summary",
    )

    trace = sub.add_parser(
        "trace", help="flight-record the demo workload and render paths"
    )
    trace.add_argument("--events", type=int, default=50)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--sample-every",
        type=int,
        default=1,
        metavar="N",
        help="record 1 in N packets (seeded, deterministic; default: all)",
    )
    trace.add_argument(
        "--limit",
        type=int,
        default=3,
        help="number of per-event timelines to render (default 3)",
    )
    trace.add_argument(
        "--fail-link",
        action="store_true",
        help="take a core link down mid-run to exercise link-down drops",
    )
    trace.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="export the full trace document (records + analysis) as JSON",
    )
    trace.add_argument(
        "--chrome-out",
        metavar="PATH",
        default=None,
        help="export Chrome trace-event JSON for chrome://tracing",
    )

    stats = sub.add_parser(
        "stats",
        help="poll in-band OpenFlow statistics over a skewed workload",
    )
    stats.add_argument(
        "--topology",
        choices=sorted(_TOPOLOGIES),
        default="paper-fat-tree",
    )
    stats.add_argument("--events", type=int, default=200)
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument(
        "--period",
        type=_period,
        default=0.01,
        metavar="SECONDS",
        help="statistics polling period in sim time (default 10 ms)",
    )
    stats.add_argument(
        "--top-k",
        type=int,
        default=5,
        help="heavy hitters to report (default 5)",
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit the stats document as deterministic JSON instead of text",
    )
    stats.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also write the stats document JSON to PATH",
    )
    stats.add_argument(
        "--prom",
        metavar="PATH",
        default=None,
        help="export the metrics registry as Prometheus/OpenMetrics text",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run a seeded failure schedule and report recovery SLOs",
    )
    chaos.add_argument(
        "--topology",
        choices=sorted(_CHAOS_TOPOLOGIES),
        default="fat-tree",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--probe-period",
        type=_period,
        default=None,
        metavar="SECONDS",
        help="detector probe period (default 2 ms of sim time)",
    )
    chaos.add_argument(
        "--miss-threshold",
        type=int,
        default=None,
        help="consecutive missed probes before a link is declared down",
    )
    chaos.add_argument(
        "--json",
        action="store_true",
        help="emit the SLO report as deterministic JSON instead of text",
    )
    chaos.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also write the SLO report JSON to PATH",
    )
    return parser


# ----------------------------------------------------------------------
def _cmd_info(args: argparse.Namespace) -> int:
    topo = _topology(args.topology)
    switch_links = sum(
        1
        for spec in topo.links()
        if topo.is_switch(spec.a) and topo.is_switch(spec.b)
    )
    a, b = topo.diameter_path()
    diameter = len(topo.shortest_path(a, b)) - 1
    print(f"topology:      {topo.name}")
    print(f"switches:      {len(topo.switches())}")
    print(f"hosts:         {len(topo.hosts())}")
    print(f"switch links:  {switch_links}")
    print(f"host links:    {len(topo.hosts())}")
    print(f"diameter:      {diameter} hops ({a} .. {b})")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    middleware = Pleroma(paper_fat_tree(), dimensions=2, max_dz_length=12)
    publisher = middleware.publisher("h1")
    publisher.advertise(Filter.of())
    subscribers = {}
    for host, band in (("h4", (0, 340)), ("h6", (341, 680)), ("h8", (681, 1023))):
        client = middleware.subscriber(host)
        client.subscribe(Filter.of(attr0=band))
        subscribers[host] = client
    for i in range(args.events):
        middleware.sim.schedule(
            i * 1e-3,
            middleware.publish,
            "h1",
            Event.of(attr0=rng.uniform(0, 1023), attr1=rng.uniform(0, 1023)),
        )
    middleware.run()
    print(f"events published:   {middleware.metrics.published}")
    for host, client in subscribers.items():
        print(f"  {host}: matched {len(client.matched)}")
    print(f"mean delay:         {middleware.metrics.mean_delay() * 1e3:.3f} ms")
    print(
        f"false positives:    "
        f"{middleware.metrics.false_positive_rate():.1f} %"
    )
    print(f"flow entries:       {middleware.total_flows_installed()}")
    if args.snapshot_out is not None:
        middleware.export_obs(args.snapshot_out)
        print(f"snapshot written:   {args.snapshot_out}")
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    workload = paper_uniform(dimensions=2, seed=args.seed)
    middleware = Pleroma(
        _topology(args.topology), space=workload.space, max_dz_length=12
    )
    hosts = middleware.topology.hosts()
    live_subs: list[tuple[str, int]] = []
    live_advs: list[tuple[str, int]] = []
    for step in range(args.steps):
        roll = rng.random()
        try:
            if roll < 0.35 or not live_advs:
                host = rng.choice(hosts)
                state = middleware.advertise(
                    host, Advertisement(filter=workload.subscription().filter)
                )
                live_advs.append((host, state.adv_id))
            elif roll < 0.70:
                host = rng.choice(hosts)
                state = middleware.subscribe(host, workload.subscription())
                live_subs.append((host, state.sub_id))
            elif roll < 0.85 and live_subs:
                host, sub_id = live_subs.pop(rng.randrange(len(live_subs)))
                middleware.unsubscribe(host, sub_id)
            elif live_advs:
                host, adv_id = live_advs.pop(rng.randrange(len(live_advs)))
                middleware.unadvertise(host, adv_id)
            middleware.check_invariants()
        except ReproError as exc:  # pragma: no cover - failure reporting
            print(
                f"FAILED at step {step}: {type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            return 1
    for host, sub_id in live_subs:
        middleware.unsubscribe(host, sub_id)
    for host, adv_id in live_advs:
        middleware.unadvertise(host, adv_id)
    leftover = middleware.total_flows_installed()
    if leftover:
        print(f"FAILED: {leftover} flows left after teardown", file=sys.stderr)
        return 1
    print(
        f"soak OK: {args.steps} operations, invariants held, clean teardown"
    )
    return 0


def _check_scenarios(args: argparse.Namespace) -> "Iterator[tuple[str, str]]":
    topologies = (
        sorted(_TOPOLOGIES) if args.topology == "all" else [args.topology]
    )
    modes = (
        ["reconcile", "incremental"]
        if args.install_mode == "both"
        else [args.install_mode]
    )
    for topology in topologies:
        for mode in modes:
            yield topology, mode


def _check_one_scenario(
    topology: str, mode: str, args: argparse.Namespace
) -> list:
    """Drive seeded churn on one deployment, verifying after every step."""
    from repro.analysis.verify import verify_deployment

    rng = random.Random(args.seed)
    workload = paper_uniform(dimensions=2, seed=args.seed)
    middleware = Pleroma(
        _topology(topology),
        space=workload.space,
        max_dz_length=12,
        partitions=args.partitions,
        install_mode=mode,
    )
    hosts = middleware.topology.hosts()
    live_subs: list[tuple[str, int]] = []
    live_advs: list[tuple[str, int]] = []
    reports = []
    for _ in range(args.steps):
        roll = rng.random()
        if roll < 0.35 or not live_advs:
            host = rng.choice(hosts)
            state = middleware.advertise(
                host, Advertisement(filter=workload.subscription().filter)
            )
            live_advs.append((host, state.adv_id))
        elif roll < 0.70:
            host = rng.choice(hosts)
            state = middleware.subscribe(host, workload.subscription())
            live_subs.append((host, state.sub_id))
        elif roll < 0.85 and live_subs:
            host, sub_id = live_subs.pop(rng.randrange(len(live_subs)))
            middleware.unsubscribe(host, sub_id)
        else:
            host, adv_id = live_advs.pop(rng.randrange(len(live_advs)))
            middleware.unadvertise(host, adv_id)
        reports.extend(verify_deployment(middleware))
    return reports


def _cmd_check(args: argparse.Namespace) -> int:
    import json

    if args.self_test:
        return _cmd_check_self_test(args)
    failures = 0
    documents = []
    for topology, mode in _check_scenarios(args):
        reports = _check_one_scenario(topology, mode, args)
        dirty = [report for report in reports if not report.ok]
        failures += len(dirty)
        label = f"{topology} [{mode}, partitions={args.partitions}]"
        if args.json:
            documents.append(
                {
                    "topology": topology,
                    "install_mode": mode,
                    "partitions": args.partitions,
                    "steps": args.steps,
                    "verifier_runs": len(reports),
                    "reports": [r.to_dict() for r in dirty],
                }
            )
        elif dirty:
            print(f"{label}: FAILED")
            for report in dirty:
                print(report.render())
        else:
            print(
                f"{label}: OK "
                f"({len(reports)} verifier runs over {args.steps} steps)"
            )
    if args.json:
        print(json.dumps({"ok": failures == 0, "scenarios": documents}))
    elif failures:
        print(f"check FAILED: {failures} dirty report(s)", file=sys.stderr)
    else:
        print("check OK: all scenarios verified clean")
    return 1 if failures else 0


def _cmd_check_self_test(args: argparse.Namespace) -> int:
    """Mutation-test the verifier: every fault class must be detected."""
    import json

    from repro.analysis.faults import FAULT_INJECTORS, inject_fault
    from repro.analysis.verify import verify_controller, verify_deployment

    topology = "paper-fat-tree" if args.topology == "all" else args.topology
    mode = "reconcile" if args.install_mode == "both" else args.install_mode
    workload = paper_uniform(dimensions=2, seed=args.seed)

    def fresh() -> Pleroma:
        rng = random.Random(args.seed)
        middleware = Pleroma(
            _topology(topology),
            space=workload.space,
            max_dz_length=12,
            install_mode=mode,
        )
        hosts = middleware.topology.hosts()
        for _ in range(4):
            middleware.advertise(
                rng.choice(hosts),
                Advertisement(filter=workload.subscription().filter),
            )
        for _ in range(6):
            middleware.subscribe(rng.choice(hosts), workload.subscription())
        return middleware

    baseline = verify_deployment(fresh())
    if any(not report.ok for report in baseline):
        print("self-test FAILED: baseline deployment is dirty", file=sys.stderr)
        for report in baseline:
            print(report.render(), file=sys.stderr)
        return 1
    results = []
    missed = 0
    for fault in sorted(FAULT_INJECTORS):
        middleware = fresh()
        controller = middleware.controllers[0]
        injection = inject_fault(controller, fault, seed=args.seed)
        report = verify_controller(controller)
        detected = sorted(injection.expected_kinds & report.kinds())
        results.append(
            {
                "fault": fault,
                "description": injection.description,
                "expected_kinds": sorted(injection.expected_kinds),
                "reported_kinds": sorted(report.kinds()),
                "detected": bool(detected),
            }
        )
        if not detected:
            missed += 1
    if args.json:
        print(json.dumps({"ok": missed == 0, "faults": results}))
    else:
        for result in results:
            status = "detected" if result["detected"] else "MISSED"
            print(
                f"{result['fault']}: {status} "
                f"(expected {'/'.join(result['expected_kinds'])}, "
                f"reported {'/'.join(result['reported_kinds']) or 'nothing'})"
            )
        if missed:
            print(
                f"self-test FAILED: {missed} fault class(es) undetected",
                file=sys.stderr,
            )
        else:
            print("self-test OK: every injected fault class was detected")
    return 1 if missed else 0


def _cmd_fpr(args: argparse.Namespace) -> int:
    from repro.analysis.fpr import assign_round_robin, evaluate_fpr

    make = paper_uniform if args.model == "uniform" else paper_zipfian
    workload = make(
        dimensions=args.dimensions, seed=args.seed, width_fraction=0.25
    )
    indexer = SpatialIndexer(
        workload.space, max_dz_length=args.dz_length, max_cells=256
    )
    assignment = assign_round_robin(
        workload.subscriptions(args.subscriptions), 8, indexer
    )
    report = evaluate_fpr(assignment, workload.events(args.events), indexer)
    print(
        f"model={args.model} subs={args.subscriptions} "
        f"dz={args.dz_length} dims={args.dimensions}: "
        f"FPR = {report.fpr_percent:.2f}% "
        f"({report.unwanted}/{report.delivered} deliveries unwanted)"
    )
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.core.events import EventSpace
    from repro.core.render import render_dz_tree, render_filter

    space = EventSpace.paper_schema(2)
    indexer = SpatialIndexer(
        space, max_dz_length=args.dz_length, max_cells=args.max_cells
    )
    filt = Filter.of(attr0=tuple(args.a), attr1=tuple(args.b))
    region = indexer.filter_to_dzset(filt)
    print(
        f"filter attr0={tuple(args.a)} attr1={tuple(args.b)} -> "
        f"{len(region)} dz cells"
    )
    print("legend: '#' filter, '+' approximation fringe, '.' outside\n")
    print(render_filter(indexer, filt, width=args.width, height=args.height))
    print("\ndz trie:")
    print(render_dz_tree(region))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    from repro.obs.export import load_json, metrics_csv, render_report

    try:
        document = load_json(args.snapshot)
    except FileNotFoundError:
        print(f"error: no such snapshot: {args.snapshot}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(
            f"error: {args.snapshot} is not valid JSON: {exc}",
            file=sys.stderr,
        )
        return 2
    if not isinstance(document, dict):
        print(
            f"error: {args.snapshot} is not a snapshot document",
            file=sys.stderr,
        )
        return 2
    if args.csv:
        metrics = document.get("metrics", document)
        print(metrics_csv(metrics), end="")
    else:
        print(render_report(document), end="")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.paths import (
        analyze_flight,
        chrome_trace,
        render_link_hotness,
        render_timeline,
    )

    rng = random.Random(args.seed)
    middleware = Pleroma(paper_fat_tree(), dimensions=2, max_dz_length=12)
    recorder = middleware.enable_flight_recorder(
        sample_every=args.sample_every, seed=args.seed
    )
    publisher = middleware.publisher("h1")
    publisher.advertise(Filter.of())
    # Subscribers deliberately cover only part of the event space: events
    # in the uncovered band die as table-miss drops at the access switch,
    # so the forensics section always has something to attribute.
    for host, band in (("h4", (0, 340)), ("h6", (341, 680))):
        middleware.subscriber(host).subscribe(Filter.of(attr0=band))
    if args.fail_link:
        # kill a subscriber's access link *without* telling the controller:
        # a pure data-plane failure, visible only as link-down drops
        victim = middleware.topology.access_switch("h6")
        middleware.sim.schedule(
            args.events * 5e-4,
            middleware.network.link_between("h6", victim).fail,
        )
    for i in range(args.events):
        middleware.sim.schedule(
            i * 1e-3,
            middleware.publish,
            "h1",
            Event.of(attr0=rng.uniform(0, 1023), attr1=rng.uniform(0, 1023)),
        )
    middleware.run()

    report = analyze_flight(recorder, middleware.topology)
    summary = report.summary()
    stats = recorder.stats
    print(
        f"trace: {args.events} events, 1-in-{args.sample_every} sampling, "
        f"{stats.packets_sampled}/{stats.packets_seen} packets sampled, "
        f"{len(recorder)} hop records"
    )
    print(
        f"deliveries: {summary['deliveries']} "
        f"({summary['duplicates']} duplicate(s)), "
        f"drops: {summary['drops']}"
    )
    for reason, count in summary["drop_counts"].items():
        print(f"  {reason}: {count}")
    print("delay attribution (summed over deliveries):")
    for component, total in summary["delay_attribution_s"].items():
        print(f"  {component:<18} {total * 1e3:.4f} ms")
    if summary["mean_stretch"] is not None:
        print(
            f"path stretch: mean {summary['mean_stretch']:.4g}, "
            f"max {summary['max_stretch']:.4g}"
        )
    grouped = recorder.by_packet()
    for delivery in report.deliveries[: max(0, args.limit)]:
        delay = (
            f"{delivery.delay_s * 1e3:.3f} ms"
            if delivery.delay_s is not None
            else "incomplete"
        )
        stretch = (
            f", stretch {delivery.stretch:.2f}"
            if delivery.stretch is not None
            else ""
        )
        print(
            f"\npacket {delivery.packet_id} "
            f"({delivery.publisher or '?'} -> {delivery.host}, {delay}, "
            f"{delivery.hops} link(s){stretch}):"
        )
        print(render_timeline(grouped.get(delivery.packet_id, [])))
    print("\nper-link hotness (sampled packets per direction):")
    print(render_link_hotness(report.link_hotness))
    if args.out is not None:
        from repro.obs.export import write_json

        document = {
            "workload": {
                "events": args.events,
                "seed": args.seed,
                "sample_every": args.sample_every,
                "fail_link": bool(args.fail_link),
            },
            "report": report.to_dict(),
            "records": recorder.to_dicts(),
        }
        write_json(document, args.out)
        print(f"\ntrace written:      {args.out}")
    if args.chrome_out is not None:
        from repro.obs.export import write_json

        write_json(chrome_trace(recorder), args.chrome_out)
        print(f"chrome trace:       {args.chrome_out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.obs.telemetry import reconcile_with_oracle

    rng = random.Random(args.seed)
    middleware = Pleroma(
        _topology(args.topology), dimensions=2, max_dz_length=12
    )
    poller, engine = middleware.enable_telemetry(
        period_s=args.period, top_k=args.top_k
    )
    hosts = sorted(middleware.topology.hosts())
    publisher = hosts[0]
    middleware.publisher(publisher).advertise(Filter.of())
    bands = ((0, 255), (256, 511), (512, 767), (768, 1023))
    for i, host in enumerate(hosts[1:]):
        middleware.subscriber(host).subscribe(
            Filter.of(attr0=bands[i % len(bands)])
        )
    for i in range(args.events):
        # cubing the uniform draw skews events toward low attr0 values, so
        # the first band's dz-subspaces dominate and heavy hitters emerge
        middleware.sim.schedule(
            i * 1e-3,
            middleware.publish,
            publisher,
            Event.of(
                attr0=rng.uniform(0.0, 1.0) ** 3 * 1023.0,
                attr1=rng.uniform(0.0, 1023.0),
            ),
        )
    middleware.run()
    # closing round: poll the final counter state, then reconcile — with
    # the network drained the polled view must agree with the oracle
    poller.poll_now()
    middleware.run()
    reconciliation = reconcile_with_oracle(poller, middleware.network)
    channel = poller.channel
    document = {
        "workload": {
            "topology": args.topology,
            "events": args.events,
            "seed": args.seed,
            "period_s": args.period,
        },
        "telemetry": poller.summary(),
        "alerts": engine.summary(),
        "reconciliation": reconciliation,
        "control_plane": {
            "messages_to_switches": channel.messages_to_switches(),
            "messages_to_controller": channel.messages_to_controller(),
            "bytes_to_switches": channel.bytes_to_switches(),
            "bytes_to_controller": channel.bytes_to_controller(),
        },
    }
    if args.out is not None:
        from repro.obs.export import write_json

        write_json(document, args.out)
    if args.prom is not None:
        from repro.obs.export import write_prometheus

        write_prometheus(middleware.obs.registry.snapshot(), args.prom)
    if args.json:
        print(json.dumps(document, sort_keys=True))
        return 0
    summary = document["telemetry"]
    cp = document["control_plane"]
    print(
        f"stats: {args.topology}, {args.events} events, seed {args.seed}, "
        f"poll period {args.period * 1e3:.1f} ms"
    )
    print(
        f"poll rounds: {summary['rounds_completed']} completed "
        f"({summary['rounds_started']} started)"
    )
    print(
        f"control plane: {cp['messages_to_switches']} requests / "
        f"{cp['messages_to_controller']} replies, "
        f"{cp['bytes_to_switches'] + cp['bytes_to_controller']} bytes"
    )
    print("heavy hitters (hottest dz-subspaces by polled rule counters):")
    for rank, hh in enumerate(summary["heavy_hitters"], 1):
        print(
            f"  #{rank} dz={hh['dz']:<14} packets={hh['packets']:<7} "
            f"peak rate={hh['peak_rate_pps']:.6g} pps"
        )
    print("per-switch polling:")
    for name, view in sorted(summary["switches"].items()):
        occupancy = (
            f"{view['occupancy']:.4g}"
            if view["occupancy"] is not None
            else "n/a"
        )
        churn = view["rule_churn"]
        print(
            f"  {name:<6} flows={view['flows']:<4} "
            f"polls={view['polls']:<3} occupancy={occupancy:<8} "
            f"churn=+{churn['added']}/-{churn['removed']}"
        )
    if summary["port_loss"]:
        print("inferred port loss:")
        for entry in summary["port_loss"]:
            print(
                f"  {entry['switch']} port {entry['port']}: "
                f"tx_dropped={entry['tx_dropped']} "
                f"loss={entry['loss_pps']:.6g} pps "
                f"skew={entry['skew_packets']}"
            )
    rec = document["reconciliation"]
    print(
        f"reconciliation vs oracle: max per-rule error "
        f"{rec['max_rule_error_packets']} packet(s), "
        f"view age {rec['max_age_s']:.6g} s"
    )
    alerts = document["alerts"]
    if alerts["history"]:
        print(f"alerts ({len(alerts['history'])} fired):")
        for alert in alerts["history"]:
            status = (
                "ACTIVE" if alert["cleared_at"] is None
                else f"cleared at {alert['cleared_at']:.6g} s"
            )
            print(
                f"  {alert['rule']} on {alert['series']}: "
                f"value {alert['value']:.6g} at "
                f"{alert['fired_at']:.6g} s ({status})"
            )
    else:
        print(
            f"alerts: none fired ({alerts['evaluations']} evaluation(s), "
            f"{len(alerts['rules'])} rule(s))"
        )
    if args.out is not None:
        print(f"stats written:      {args.out}")
    if args.prom is not None:
        print(f"prometheus export:  {args.prom}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.resilience.chaos import ChaosRunner, ChaosSchedule
    from repro.resilience.slo import build_slo_report

    topology = _CHAOS_TOPOLOGIES[args.topology]()
    middleware = Pleroma(topology, dimensions=2, max_dz_length=12)
    middleware.enable_flight_recorder(seed=args.seed)
    detector, orchestrator = middleware.enable_resilience(
        probe_period_s=args.probe_period,
        miss_threshold=args.miss_threshold,
        seed=args.seed,
    )
    schedule = ChaosSchedule.generate(topology, seed=args.seed)

    # steady full-space workload: one publisher, every other host listening,
    # publishing twice per probe period so the delivery stream brackets every
    # blackout tightly
    hosts = sorted(middleware.topology.hosts())
    publisher, listeners = hosts[0], hosts[1:]
    middleware.publisher(publisher).advertise(Filter.of())
    for host in listeners:
        middleware.subscriber(host).subscribe(Filter.of())
    interval = detector.period_s / 2.0
    count = max(1, int(schedule.horizon / interval) - 2)
    middleware.publish_stream(
        publisher,
        (Event.of(attr0=1.0, attr1=1.0) for _ in range(count)),
        rate_eps=1.0 / interval,
        start_at=0.0,
    )

    runner = ChaosRunner(middleware, schedule, detector, orchestrator)
    runner.run()
    report = middleware.flight_report()
    slo = build_slo_report(middleware, schedule, detector, orchestrator, report)
    if args.out is not None:
        from repro.obs.export import write_json

        write_json(slo, args.out)
    if args.json:
        print(json.dumps(slo, sort_keys=True))
    else:
        print(
            f"chaos: {args.topology}, seed {args.seed}, "
            f"{len(schedule.actions)} episode(s), "
            f"horizon {schedule.horizon * 1e3:.0f} ms"
        )
        for episode in slo["episodes"]:
            action = episode["action"]
            detection = episode["detection"]["latency_s"]
            repair = episode["repair"]
            blackout = episode["blackout"]
            detected = (
                f"{detection * 1e3:.2f} ms" if detection is not None else "n/a"
            )
            gap = blackout["worst_gap_s"]
            gap_text = f"{gap * 1e3:.2f} ms" if gap is not None else "n/a"
            print(
                f"  {action['kind']:<13} t={action['at'] * 1e3:.0f} ms: "
                f"detected {detected}, "
                f"{repair['passes']} repair(s) "
                f"({repair['flow_mods']} flow mods, "
                f"{repair['latency_s'] * 1e3:.2f} ms modeled), "
                f"lost {blackout['packets_lost']}, "
                f"worst gap {gap_text}, "
                f"verifier {'ok' if repair['verifier_ok'] else 'DIRTY'}"
                + (
                    f" ({repair['transient_dirty_passes']} transient dirty"
                    " pass(es))"
                    if repair["transient_dirty_passes"]
                    else ""
                )
            )
        continuity = slo["continuity"]
        final = slo["final"]
        print(
            f"continuity: {continuity['delivered']} deliveries of "
            f"{continuity['published']} published"
        )
        print(
            f"final: verifier {'ok' if final['verifier_ok'] else 'DIRTY'} "
            f"({final['violations']} violation(s)), "
            f"{final['repair_passes']} repair pass(es), "
            f"{final['clients_suspended']} client(s) still suspended"
        )
        if args.out is not None:
            print(f"slo report written: {args.out}")
    return 0 if slo["final"]["verifier_ok"] else 1


_COMMANDS = {
    "info": _cmd_info,
    "demo": _cmd_demo,
    "soak": _cmd_soak,
    "check": _cmd_check,
    "fpr": _cmd_fpr,
    "render": _cmd_render,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "stats": _cmd_stats,
    "chaos": _cmd_chaos,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

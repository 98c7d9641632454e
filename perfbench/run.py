"""Standing benchmark of the PLEROMA reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload publish_drain --seed 1 --seconds 30 --trace 0

Workloads, metrics and bounds are declared in ``BENCHMARK.json``; see
``perfbench/README.md``.  The inputs come from ``--seed``.  After one
warm-up round, the runner runs rounds on the input sets in turn for
``--seconds`` and reports the median of the per-round figures, with
times scaled to a reference machine speed measured by
:func:`speed_kernel`.  Rounds of the same input set must produce the
same output digest, and a last round with the final
``verify_deployment`` must match the committed reference
(``perfbench/references.json``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics: calls and
self time per wrapped entry point, self time per layer, the layers'
counters and the tracing overhead.  The spans are written to
``.perfbench/`` under the repository root.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when the
outputs are correct, 1 when they are not, and 2 when the program cannot
be imported.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import bench_trace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "references.json"
SPAN_DIR = ROOT / ".perfbench"

#: The seed whose reference outputs are checked when ``--seed`` has none.
REFERENCE_SEED = 0

#: Independent input sets per run, more than a run has rounds: the rounds
#: take them in turn, so a run's medians rest on as many draws of the
#: workload's random structure as it has rounds.  The first set runs
#: again after the warm-up, so its outputs are checked for repeating.
INPUT_SETS = 32

#: Runs of :func:`speed_kernel` after every measured round.
KERNEL_REPS = 5

#: Wall time of one :func:`speed_kernel` on the machine the benchmark was
#: written on (a 2-vCPU cloud VM) in its faster periods.  Reported times
#: are scaled to this speed.
KERNEL_REFERENCE_S = 0.025


class _Node:
    __slots__ = ("link", "key", "hits")


#: Objects in the structure the kernel walks: tens of megabytes, more
#: than the caches hold, like a deployment's heap.
KERNEL_NODES = 300_000


@functools.cache
def _kernel_graph() -> tuple[list[_Node], dict[int, _Node]]:
    """Nodes linked in a random permutation and an index over a third of
    them, built once, before anything is timed."""
    rng = random.Random(3)
    nodes = [_Node() for _ in range(KERNEL_NODES)]
    order = list(range(KERNEL_NODES))
    rng.shuffle(order)
    for key, node in enumerate(nodes):
        node.link = nodes[order[key]]
        node.key = key
        node.hits = 0
    index = {key: nodes[key] for key in range(0, KERNEL_NODES, 3)}
    return nodes, index


def speed_kernel() -> None:
    """A fixed pure-Python load that measures the machine's current speed.

    Pointer chasing, attribute updates and dict lookups over a structure
    larger than the caches: the access pattern of the simulator and the
    controller, and nothing of the program, so its time changes only
    with the machine.  On a shared host that speed drifts by a quarter
    or more over tens of seconds, in CPU time as much as in wall time
    (the slowdown is contention for the core and its caches, not time
    stolen from the process), so the runner times this kernel between
    rounds and scales the run's times by its median.
    """
    nodes, index = _kernel_graph()
    node = nodes[0]
    for _ in range(40000):
        node = node.link
        node.hits += 1
        other = index.get(node.key)
        if other is not None:
            node = other.link


def resident_mb() -> float:
    """This process's resident memory now (Linux)."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def time_kernel() -> float:
    """Wall time of one :func:`speed_kernel`, without the collector, whose
    work grows with whatever else the process holds."""
    gc.disable()
    try:
        started = time.perf_counter()
        speed_kernel()
        return time.perf_counter() - started
    finally:
        gc.enable()


def import_program():
    """Import the program from this checkout's ``src/``.

    Exits 2 if it is not there, or if ``repro`` resolves to a copy
    elsewhere (an installed one, say): the benchmark only ever measures
    the checkout it sits in.
    """
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"perfbench: no program at {source / 'repro'}", file=sys.stderr)
        sys.exit(2)
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))
    try:
        import bench_workloads  # imports repro from src/
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        sys.exit(2)
    if source.resolve() not in Path(repro.__file__).resolve().parents:
        print(
            f"perfbench: repro was imported from {repro.__file__}, "
            f"not from {source}",
            file=sys.stderr,
        )
        sys.exit(2)
    return bench_workloads


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with ten samples or fewer it is the
    smallest sample.
    """
    ordered = sorted(samples)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end_metrics(
    rounds, setups: list[float], kernels: list[float], max_rss_mb: float
) -> tuple[dict, list[str]]:
    """Medians over measured rounds, and lines describing them.

    Times are scaled to the reference speed: multiplied by
    ``KERNEL_REFERENCE_S`` over the median kernel time of this run.
    """
    p50s, tails, tail_pcts = [], [], []
    for result in rounds:
        p50s.append(statistics.median(result.latencies_s))
        value, pct = tail(result.latencies_s)
        tails.append(value)
        tail_pcts.append(pct)
    samples = len(rounds[0].latencies_s)
    kernel_s = statistics.median(kernels)
    scale = KERNEL_REFERENCE_S / kernel_s
    measured = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_per_s": (
            statistics.median([r.work_units / r.work_s for r in rounds]),
            "1/s",
        ),
        "latency_p50_ms": (statistics.median(p50s) * 1e3, "ms"),
        "latency_tail_ms": (statistics.median(tails) * 1e3, "ms"),
    }
    metrics = {
        name: (value / scale if unit == "1/s" else value * scale, unit)
        for name, (value, unit) in measured.items()
    }
    metrics["max_rss_mb"] = (max_rss_mb, "MB")
    notes = [
        f"rounds measured: {len(rounds)}, set-ups timed: {len(setups)}",
        f"first round: {rounds[0].work_units} work units, {samples} latency "
        f"samples, tail at p{tail_pcts[0]:.4g} (10 samples beyond it)",
        f"speed kernel: median {kernel_s:.6f} s over {len(kernels)} runs; "
        f"times below are scaled by {scale:.4f} to the reference "
        f"{KERNEL_REFERENCE_S} s",
    ]
    notes += [
        f"  unscaled {name}: {value:.6g} {unit}"
        for name, (value, unit) in measured.items()
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def layer_counters(result) -> dict[str, tuple[float, str]]:
    """Deterministic per-layer counters of one round's deployment."""
    bench_workloads = import_program()
    middleware = result.deployment
    network = middleware.network
    counters = middleware.obs.registry.snapshot()["counters"]

    def total(prefix: str, **labels: str) -> int:
        return sum(
            value
            for key, value in counters.items()
            if key.startswith(prefix + "{")
            and all(f"{k}={v}" in key for k, v in labels.items())
        )

    lookups = sum(s.table.lookups for s in network.switches.values())
    misses = sum(s.table.misses for s in network.switches.values())
    records = middleware.metrics.records
    controller = middleware.controllers[0]
    requests = controller.requests_processed
    telemetry = middleware.obs.telemetry
    flight = middleware.obs.flight
    return {
        "sim.events": (middleware.sim.processed_events, "count"),
        "sim.queue_depth_start": (result.queue_depth_start, "count"),
        "network.hops": (bench_workloads.packet_hops(network), "count"),
        "network.tcam_lookups": (lookups, "count"),
        "network.tcam_hit_ratio": (
            (lookups - misses) / lookups if lookups else 0.0,
            "ratio",
        ),
        "network.drops.table_miss": (
            total("switch.packets_dropped", reason="table-miss"),
            "count",
        ),
        "network.drops.no_link": (
            total("switch.packets_dropped", reason="no-link"),
            "count",
        ),
        "network.drops.switch_down": (
            total("switch.packets_dropped", reason="switch-down"),
            "count",
        ),
        "network.drops.link_down": (total("link.packets_lost_down"), "count"),
        "network.drops.host_queue": (total("host.packets_dropped"), "count"),
        "network.useful_delivery_ratio": (
            sum(r.matched for r in records) / len(records) if records else 0.0,
            "ratio",
        ),
        **{
            f"controller.requests.{kind}": (
                total("controller.requests", kind=kind),
                "count",
            )
            for kind in (
                "subscribe",
                "unsubscribe",
                "advertise",
                "unadvertise",
                "repair",
            )
        },
        "controller.flow_mods": (controller.total_flow_mods, "count"),
        "controller.flow_mods_per_request": (
            controller.total_flow_mods / requests if requests else 0.0,
            "count",
        ),
        "obs.telemetry.rounds": (
            telemetry.rounds_completed if telemetry is not None else 0,
            "count",
        ),
        "obs.telemetry.replies": (
            telemetry.channel.messages_to_controller()
            if telemetry is not None
            else 0,
            "count",
        ),
        "obs.flight.records": (
            flight.stats.records_appended if flight is not None else 0,
            "count",
        ),
        "resilience.repairs": (
            len(result.orchestrator.records)
            if result.orchestrator is not None
            else 0,
            "count",
        ),
        "resilience.probes": (counters.get("resilience.probes_sent", 0), "count"),
        "resilience.blackout_losses": (
            result.outputs.get("blackout_losses", 0),
            "count",
        ),
    }


def per_layer_metrics(tracer, traced, untraced) -> tuple[dict, list[str]]:
    """Per-round averages over the traced rounds, plus counters."""
    n = len(traced)
    totals = tracer.totals()
    metrics: dict[str, tuple[float, str]] = {}
    layers = bench_trace.LAYERS
    layer_self = dict.fromkeys(layers, 0.0)
    for name in bench_trace.span_names():
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / n, "count")
        metrics[f"{name}.self_s"] = (self_s / n, "s")
        layer_self[name.split(".", 1)[0]] += self_s / n
    for layer in layers:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
    for name, (_, unit) in traced[0].counters.items():
        mean = statistics.mean(r.counters[name][0] for r in traced)
        metrics[name] = (mean, unit)
    _, pct = tail(traced[-1].latencies_s)
    traced_wall = statistics.mean(r.wall_s for r in traced)
    untraced_wall = statistics.mean(r.wall_s for r in untraced)
    metrics.update(
        {
            "latency_samples": (len(traced[-1].latencies_s), "count"),
            "latency_tail_pct": (pct, "%"),
            "trace.wall_s": (traced_wall, "s"),
            "trace.untraced_wall_s": (untraced_wall, "s"),
            "trace.overhead_s": (traced_wall - untraced_wall, "s"),
            "trace.spans": (tracer.span_count / n, "count"),
        }
    )
    accounted = sum(layer_self.values())
    notes = [f"traced rounds: {n}, untraced rounds: {len(untraced)}"]
    notes += [
        f"  {layer:<11} self {layer_self[layer]:.6f} s "
        f"({100.0 * layer_self[layer] / traced_wall:5.1f} %)"
        for layer in layers
    ]
    notes.append(
        f"layer self times sum to {accounted:.6f} s of {traced_wall:.6f} s "
        f"traced wall time per round"
    )
    notes.append(
        f"tracing overhead: {traced_wall - untraced_wall:.6f} s per round "
        f"({100.0 * (traced_wall / untraced_wall - 1.0):.1f} % over "
        f"{untraced_wall:.6f} s untraced)"
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def input_seeds(seed: int) -> list[int]:
    """The seeds of a run's input sets, derived from ``--seed``."""
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(INPUT_SETS)]


def check_reference(workload, seed, verified_digest, size, digest) -> str | None:
    """Compare a verified round's output digest with the committed
    reference.

    Returns a failure message, or ``None`` when they match.  A seed with
    no reference is vouched for by the reference seed's outputs instead.
    """
    table = json.loads(REFERENCES.read_text()).get(size, {}).get(workload.name, {})
    if str(seed) not in table:
        if str(REFERENCE_SEED) not in table:
            return f"no reference committed for size {size}"
        seed = REFERENCE_SEED
        inputs = workload.make_inputs(input_seeds(seed)[0], size)
        verified_digest = digest(workload.run_round(inputs, verify=True).outputs)
    if verified_digest != table[str(seed)]:
        return (
            f"seed {seed} outputs {verified_digest} differ from the reference "
            f"{table[str(seed)]}"
        )
    return None


def run_benchmark(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "standard",
) -> tuple[dict, list[str]]:
    """Run one benchmark invocation; returns the result and report lines."""
    bench_workloads = import_program()
    workload = bench_workloads.WORKLOADS[workload_name]
    digest = bench_workloads.digest
    # the kernel's structure lives through the run; its memory is not the
    # program's, and is taken off the peak
    before = resident_mb()
    _kernel_graph()
    kernel_mb = resident_mb() - before
    input_sets = [workload.make_inputs(s, size) for s in input_seeds(seed)]
    # The inputs and the kernel's structure live through the run.  Frozen,
    # the collector skips them, so they do not add to the collections the
    # program's own garbage triggers.
    gc.collect()
    gc.freeze()

    def time_setup(inputs) -> float:
        started = time.perf_counter()
        workload.deploy(inputs)
        elapsed = time.perf_counter() - started
        gc.collect()
        return elapsed

    def timed_round(inputs, tracer=None, verify=False):
        started = time.perf_counter()
        if tracer is None:
            result = workload.run_round(inputs, verify=verify)
        else:
            with tracer.span("bench.round"):
                result = workload.run_round(inputs, tracer, verify=verify)
        result.wall_s = time.perf_counter() - started
        result.digest = digest(
            {k: v for k, v in result.outputs.items() if k != "verify"}
        )
        if tracer is not None:
            result.counters = layer_counters(result)
        result.deployment = result.orchestrator = None
        # free this round's deployment now, so that the peak memory is one
        # round's and not whatever the collector had not reached yet
        gc.collect()
        return result

    # The first round warms up.  Every later round of each input set must
    # repeat the outputs of that set's first round.
    first = timed_round(input_sets[0])
    expected = {0: first.digest}
    lines = [
        f"workload {workload_name}, seed {seed}, size {size}, "
        f"{'traced' if trace else 'untraced'}, {INPUT_SETS} input sets",
    ]
    untraced, traced = [], []
    setups, kernels = [], []
    tracer = bench_trace.Tracer() if trace else None
    # the input sets in turn, as many steps as fit in the time given
    started = time.perf_counter()
    step = 0
    step_s = 0.0
    while not untraced or time.perf_counter() - started + step_s <= seconds:
        began = time.perf_counter()
        index = step % len(input_sets)
        inputs = input_sets[index]
        # A traced run pairs each traced round with an untraced one, and
        # verifies in both so analysis shows in the layer figures.
        rounds = [timed_round(inputs, verify=trace)]
        if tracer is not None:
            tracer.install()
            try:
                rounds.append(timed_round(inputs, tracer, verify=True))
            finally:
                tracer.uninstall()
            traced.append(rounds[-1])
        untraced.append(rounds[0])
        for result in rounds:
            result.input_set = index
            expected.setdefault(index, result.digest)
        if tracer is None:
            # Set-up is short next to a round: time more of them, so that
            # its median rests on enough samples.
            setups.append(rounds[0].setup_s)
            setups += [
                time_setup(inputs) for _ in range(workload.SETUP_REPEATS)
            ]
            kernels += [time_kernel() for _ in range(KERNEL_REPS)]
        step += 1
        step_s = time.perf_counter() - began
    gc.unfreeze()
    # peak memory of the measured rounds, before the checks below
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    max_rss_mb = peak_mb - kernel_mb

    correct = True
    mismatched = [
        r for r in untraced + traced if r.digest != expected[r.input_set]
    ]
    if mismatched:
        correct = False
        lines.append(
            f"FAIL: {len(mismatched)} round(s) did not repeat the outputs of "
            f"their input set's first round"
        )
    # One more round of the first input set, with the final
    # verify_deployment, is checked against the committed reference.
    checked = workload.run_round(input_sets[0], verify=True)
    lines.append(
        f"output digest of the first input set: {digest(checked.outputs)}"
    )
    if "verify" in checked.outputs:
        lines.append(
            f"final verify_deployment: {checked.outputs['verify']} "
            f"in {checked.verify_s:.6g} s"
        )
    outputs = {k: v for k, v in checked.outputs.items() if k != "verify"}
    if digest(outputs) != expected[0]:
        correct = False
        lines.append("FAIL: the verified round did not repeat the outputs")
    failure = check_reference(
        workload, seed, digest(checked.outputs), size, digest
    )
    if failure is not None:
        correct = False
        lines.append(f"FAIL: {failure}")
    else:
        lines.append("reference outputs match")

    rounds = [first] + untraced + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if failed:
        lines.append(
            f"failed operations: {failed} of {attempted} attempted "
            f"({first.failed} in the first round)"
        )
        lines += [f"  {failure}" for failure in first.failures[:20]]
    if tracer is not None:
        metrics, notes = per_layer_metrics(tracer, traced, untraced)
        metrics["failed_ratio"] = {"value": failed / attempted, "unit": "ratio"}
        header, _ = tracer.write(SPAN_DIR / f"spans-{workload_name}-seed{seed}")
        notes.append(f"spans: {tracer.span_count} written to {header}")
    else:
        metrics, notes = end_to_end_metrics(untraced, setups, kernels, max_rss_mb)
    lines += notes
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench_workloads = import_program()
    if args.workload not in bench_workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(bench_workloads.WORKLOADS)}"
        )
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, lines = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    for line in lines:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Smoke tests of the benchmark itself, at the workloads' tiny size.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result, _ = run.run_benchmark(
        workload, seed=0, seconds=0.01, trace=False, size="tiny"
    )
    assert result["correct"]
    assert result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(
    workload, tmp_path, monkeypatch
):
    monkeypatch.setattr(run, "SPAN_DIR", tmp_path)
    result, lines = run.run_benchmark(
        workload, seed=0, seconds=0.01, trace=True, size="tiny"
    )
    assert result["correct"]
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == _declared("per_layer")
    # self times of all layers account for the traced round exactly
    layers = sum(metrics[f"{layer}.self_s"]["value"] for layer in run_layers())
    assert layers == pytest.approx(metrics["trace.wall_s"]["value"], rel=0.01)
    assert any("tracing overhead" in line for line in lines)


def run_layers():
    import bench_trace

    return bench_trace.LAYERS


def _tiny_round(workload: str):
    import bench_workloads

    bench = bench_workloads.WORKLOADS[workload]
    inputs = bench.make_inputs(run.input_seeds(0)[0], "tiny")
    return bench, bench.run_round(inputs, verify=True).outputs


def test_digest_check_rejects_perturbed_outputs(tmp_path, monkeypatch):
    import bench_workloads

    bench, outputs = _tiny_round("control_churn")
    good = bench_workloads.digest(outputs)
    references = tmp_path / "references.json"
    references.write_text(json.dumps({"tiny": {"control_churn": {"0": good}}}))
    monkeypatch.setattr(run, "REFERENCES", references)
    digest = bench_workloads.digest
    assert run.check_reference(bench, 0, good, "tiny", digest) is None

    switch, entries = next(
        (name, rows) for name, rows in outputs["flow_tables"].items() if rows
    )
    outputs["flow_tables"][switch] = entries[1:]
    failure = run.check_reference(bench, 0, digest(outputs), "tiny", digest)
    assert failure is not None and "differ from the reference" in failure


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_is_independent_of_the_hash_seed(workload):
    code = (
        "import sys; sys.path[:0] = [sys.argv[1]];"
        "import run; b = run.import_program();"
        "w = b.WORKLOADS[sys.argv[2]];"
        "i = w.make_inputs(run.input_seeds(0)[0], 'tiny');"
        "print(b.digest(w.run_round(i, verify=True).outputs))"
    )
    digests = set()
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", code, str(run.BENCH_DIR), workload],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        digests.add(done.stdout.strip())
    assert len(digests) == 1


def test_runner_fails_without_the_program(tmp_path):
    """Only the benchmark's own files: exit non-zero, print no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.BENCH_DIR,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert not (tmp_path / ".perfbench").exists()
    assert Path(tmp_path / "perfbench" / "run.py").exists()


def _controller_error():
    run.import_program()
    from repro.exceptions import ControllerError

    return ControllerError


@pytest.mark.xfail(
    strict=True,
    raises=_controller_error(),
    reason="known defect: an unsubscribe while a partition has suspended "
    "the subscription raises, and the heal reinstates the subscription",
)
def test_unsubscribe_while_partitioned_cancels_the_subscription():
    """The defect ``chaos_mix`` keeps its churn away from (README)."""
    run.import_program()
    from repro import Filter, Pleroma, mininet_fat_tree
    from repro.resilience.chaos import ChaosAction, ChaosRunner, ChaosSchedule

    topology = mininet_fat_tree()
    hosts = sorted(topology.hosts())
    host = hosts[-1]
    (edge,) = topology.neighbors(host)
    uplinks = tuple(
        sorted(
            tuple(sorted((spec.a, spec.b)))
            for spec in topology.links()
            if edge in (spec.a, spec.b)
            and topology.is_switch(spec.a)
            and topology.is_switch(spec.b)
        )
    )
    middleware = Pleroma(topology, dimensions=2, max_dz_length=12)
    detector, orchestrator = middleware.enable_resilience(seed=0)
    middleware.publisher(hosts[0]).advertise(Filter.of())
    client = middleware.subscriber(host)
    sub_id = client.subscribe(Filter.of(attr0=(0, 511)))
    schedule = ChaosSchedule(
        actions=[
            ChaosAction("partition", 0.02, 0.04, edges=uplinks, switch=edge)
        ],
        horizon=0.08,
    )
    runner = ChaosRunner(middleware, schedule, detector, orchestrator)
    runner.arm()
    middleware.sim.run(until=0.03)
    assert orchestrator.suspended_clients == 1

    client.unsubscribe(sub_id)
    runner.run()
    assert sub_id not in middleware.controllers[0].subscriptions

"""Smoke test of the end-to-end benchmark in ``benchmarks/e2e``.

Every workload runs at three items and one traced run happens; the
printed metric names and units must match ``BENCHMARK.json``.  A
negative control corrupts one expected value and one output and
requires the checkers to fail, so a passing run means something.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _load(name: str):
    """Import a benchmark module by path (the directory is no package)."""
    spec = importlib.util.spec_from_file_location(f"e2e_{name}",
                                                  HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _launch(*args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--seed", "1", "--items", "3",
         *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Run every workload plus one traced run, all started together."""
    trace = tmp_path_factory.mktemp("e2e") / "compile.trace.json"
    procs = {name: _launch("--workload", name) for name in WORKLOADS}
    procs["traced"] = _launch("--workload", "compile", "--trace", "1",
                              "--trace-out", str(trace))
    results = {}
    for name, proc in procs.items():
        try:
            out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        results[name] = (proc.returncode, out, err)
    return results, trace


def _printed(out: str) -> tuple[dict, dict]:
    """The ``name value unit`` lines and the final JSON object."""
    lines = out.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        name, value, unit = line.split(" ")
        printed[name] = {"value": float(value), "unit": unit}
    return printed, json.loads(lines[-1])


def _assert_metrics(out: str, declared: list[dict], attempted: int) -> dict:
    printed, result = _printed(out)
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert printed == result["metrics"]
    assert result["correct"] is True
    assert result["attempted"] == attempted and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_declared_metrics(runs, workload):
    code, out, err = runs[0][workload]
    assert code == 0, err
    result = _assert_metrics(out, SPEC["end_to_end"], attempted=3)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_layers(runs):
    code, out, err = runs[0]["traced"]
    assert code == 0, err
    # Three items, each run untraced and traced, then the counting pass.
    result = _assert_metrics(out, SPEC["per_layer"], attempted=9)
    metrics = result["metrics"]
    assert metrics["optimize.busy_s"]["value"] > 0
    assert metrics["trace.coverage"]["value"] > 0.9
    trace = json.loads(runs[1].read_text())
    names = {event["name"] for event in trace["traceEvents"]}
    assert {"item", "core.builder", "transform.pipeline", "optimize",
            "io.qasm", "io.qasm_parser"} <= names
    assert trace["layers"]["metrics"] == {
        k: v["value"] for k, v in metrics.items()
    }


def test_checkers_catch_corruption():
    workloads = _load("workloads")
    span = _load("tracing").NullTracer().span

    estimate = workloads.Estimate(1)
    estimate.setup()
    item = ("qls-p3", 0)
    output = estimate.run(item, span)
    assert estimate.check([(0, item, output)]) == []
    assert estimate.check([(0, item, dict(output, depth=output["depth"] + 1))])
    estimate.expected[item[0]]["logical"] += 1
    assert estimate.check([(0, item, output)])

    compile_ = workloads.Compile(1)
    item = ("qls-p2", 0)
    text = compile_.run(item, span)
    assert compile_.check([(0, item, text)]) == []
    lines = text.splitlines(keepends=True)
    gate = next(i for i, line in enumerate(lines) if line.startswith("cx "))
    corrupted = "".join(lines[:gate] + lines[gate + 1:])
    assert compile_.check([(0, item, corrupted)])


def test_speed_sampler_leaves_out_its_own_time():
    speed = _load("speed")
    with speed.SpeedSampler(timer=True) as sampler:
        start, spent = sampler.clock(), sampler.spent
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        end, inside = sampler.clock(), sampler.spent - spent
    # Timer samples ran inside the interval and are not charged to it.
    assert inside > 0
    assert end - start < 0.2
    assert sampler.reference_s(start, end) > 0

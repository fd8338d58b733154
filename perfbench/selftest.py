"""Self-tests of the benchmark, at toy size (about a minute in all).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

The file name does not match the suite's ``test_*.py`` / ``bench_*.py``
patterns, so the repository's own ``pytest`` run never collects it, nor
any full-size workload.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

SEED = 3


def bench(workload: str, trace: int, cwd: str = ROOT, toy: bool = True):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    if toy:
        cmd.append("--toy")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child(workload: str, traced: bool) -> dict:
    out = run.run_child(workload, SEED, traced=traced, toy=True)
    assert out["ok"], out.get("error")
    return out


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def reports() -> dict:
    """Every workload at toy size, untraced and traced, via the command."""
    out = {}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
            out[workload, trace] = (proc, last_json(proc))
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(reports, benchmark_json, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc, result = reports[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in benchmark_json[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        for name, unit in want.items():
            assert any(
                line.split()[:1] == [name] and line.split()[-1] == unit
                for line in proc.stdout.splitlines()
            ), f"{name} not printed with its unit"
    for name in run.END_TO_END:
        assert reports[workload, 0][1]["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_exact_counters_repeat(workload):
    first, second = child(workload, traced=False), child(workload, traced=False)
    assert first["exact"] == second["exact"]
    traced = child(workload, traced=True)
    assert traced["exact"] == first["exact"], "tracing changed the simulation"


@pytest.mark.parametrize(
    "workload,bypassed",
    [
        ("testbed110", ("shard", "checks", "workload", "reconfig")),
        ("oceano55-faults", ("shard", "workload", "reconfig")),
    ],
)
def test_bypassed_layers_read_zero(reports, workload, bypassed):
    metrics = reports[workload, 1][1]["metrics"]
    for layer in bypassed:
        prefixed = {k: m["value"] for k, m in metrics.items() if k.startswith(layer + ".")}
        assert prefixed and all(v == 0 for v in prefixed.values()), (layer, prefixed)


def test_traffic_runs_the_shard_and_workload_layers(reports):
    metrics = reports["oceano-traffic", 1][1]["metrics"]
    for name in ("shard.epochs", "shard.cross_messages", "shard.self_s",
                 "workload.issued", "workload.self_s", "reconfig.moves"):
        assert metrics[name]["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_self_times_sum_to_traced_run_time(reports, workload):
    metrics = {k: m["value"] for k, m in reports[workload, 1][1]["metrics"].items()}
    untraced_run_s = metrics["phase.discovery_s"] + metrics["phase.body_s"]
    traced_run_s = untraced_run_s + metrics["trace.overhead_s"]
    total = sum(metrics[name] for name in run.SELF_METRICS.values())
    assert total == pytest.approx(traced_run_s, rel=1e-9)


def _tree_state(root: str) -> dict:
    state = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in (".git", "__pycache__", ".pytest_cache")]
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            state[os.path.relpath(path, root)] = (st.st_size, st.st_mtime_ns)
    return state


def test_a_run_writes_no_file():
    before = _tree_state(ROOT)
    assert bench("oceano55-faults", 0).returncode == 0
    assert _tree_state(ROOT) == before


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("testbed110", 0, cwd=str(tmp_path), toy=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_the_suite_does_not_collect_the_benchmark():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    collected = [line for line in proc.stdout.splitlines() if "::" in line]
    assert collected, "the suite collected nothing"
    assert not [line for line in collected if line.startswith("perfbench")]

#!/usr/bin/env python3
"""GulfStream end-to-end benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload testbed110 [--seed 1] [--seconds 30] [--trace 0]
    python3 perfbench/run.py --workload all          # every workload, one table

Each repetition of a workload runs in a fresh single-threaded Python
process (so ``peak_rss_mb`` is that workload's own). A run makes one
repetition per farm seed of the workload (``FARM_SEEDS``, derived from
``--seed``) plus a repeat of the first, so every run checks that the
simulated results repeat exactly, and more while the next would end
within ``--seconds``. Figures are medians over farm seeds.

``--trace 0`` reports the end-to-end metrics, measured with no span
wrapper installed. ``--trace 1`` runs one untraced repetition (the work counters
and the untraced run time) and one traced repetition (self time per
layer) and reports the per-layer metrics. The last line of standard
output is one JSON object; the lines before it print every metric by
name and unit. The exit code is non-zero when any correctness check
fails. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import hashlib
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: metric names, units and workloads, as the benchmark declares them
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
#: measured with tracing off, on every workload
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
#: reported by ``--trace 1``
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: modelled-system results that exist on one workload only -> that
#: workload; they ride among the per-layer metrics, 0 on the others
MODELLED = {
    "detect_p50_s": "oceano55-faults",
    "detect_tail_s": "oceano55-faults",
    "detect_miss_ratio": "oceano55-faults",
    "req_p50_ms": "oceano-traffic",
    "req_tail_ms": "oceano-traffic",
    "req_fail_ratio": "oceano-traffic",
    "moves_per_hour": "oceano-traffic",
    "move_settle_s": "oceano-traffic",
}

#: tracer layer -> its self-time metric (``gs.proto`` -> ``gs.proto_self_s``)
SELF_METRICS = {
    layer: layer + ("_self_s" if "." in layer else ".self_s") for layer in layers.LAYERS
}

DEFAULT_SEED = 1
#: farm seeds per run: seed 0 runs twice and each other seed once, so
#: every run checks that a seed repeats exactly; medians over several
#: seeds keep a run steady where a seed changes the work (a slow
#: discovery on the testbed, the fault draws). Sized so that the
#: repetitions fit in a 30 s run on the reference machine.
FARM_SEEDS = {"testbed110": 3, "oceano55-faults": 2, "oceano-traffic": 1}
#: a run starts no repetition past this many seconds, so it ends well
#: within three minutes whatever ``--seconds`` says
HARD_STOP_S = 120.0
CHILD_TIMEOUT_S = 160.0


# ----------------------------------------------------------------------
# child side: one repetition
# ----------------------------------------------------------------------
def child_main(workload: str, seed: int, traced: bool, toy: bool) -> int:
    sys.path.insert(0, SRC)
    import workloads

    try:
        out = workloads.run_rep(
            workload, seed, traced, workloads.TOY if toy else workloads.FULL
        )
    except workloads.GateError as err:
        print(json.dumps({"ok": False, "error": f"farm seed {seed}: {err}"}))
        return 1
    print(json.dumps({"ok": True, "seed": seed, **out}))
    return 0


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, traced: bool, toy: bool) -> Dict[str, Any]:
    """One repetition in a fresh single-threaded interpreter."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, os.path.abspath(__file__), "--child", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if toy:
        cmd.append("--toy")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"repetition at seed {seed} exceeded {CHILD_TIMEOUT_S:.0f}s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"ok": False, "error": f"repetition crashed (exit {proc.returncode}): {tail}"}
    return result


def farm_seed(seed: int, index: int) -> int:
    """Farm seed of sub-seed ``index`` of benchmark seed ``seed``
    (index 0 is the benchmark seed itself)."""
    if index == 0:
        return seed
    digest = hashlib.sha256(f"perfbench/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def seed_index(rep: int, n_seeds: int) -> int:
    """Farm seed index of repetition ``rep``: 0, 0, 1, ..., n-1 first,
    then 1, ..., n-1, 0 over again."""
    if rep <= n_seeds:
        return max(0, rep - 1)
    return (rep - n_seeds) % n_seeds


def measure(workload: str, seed: int, seconds: float, toy: bool) -> List[Dict[str, Any]]:
    """Untraced repetitions: one per farm seed plus a repeat of the first,
    then more while the next would end within ``seconds``. Stops at the
    first failure."""
    n_seeds = FARM_SEEDS[workload]
    reps: List[Dict[str, Any]] = []
    start = time.monotonic()
    last = 0.0
    while True:
        ends = time.monotonic() - start + last
        if len(reps) > n_seeds and (ends > seconds or ends > HARD_STOP_S):
            break
        t0 = time.monotonic()
        index = seed_index(len(reps), n_seeds)
        reps.append(run_child(workload, farm_seed(seed, index), False, toy))
        last = time.monotonic() - t0
        if not reps[-1]["ok"]:
            break
    return reps


def by_farm_seed(reps: List[Dict[str, Any]]) -> List[List[Dict[str, Any]]]:
    """Repetitions grouped by farm seed, in first-run order."""
    groups: Dict[int, List[Dict[str, Any]]] = {}
    for rep in reps:
        groups.setdefault(rep["seed"], []).append(rep)
    return list(groups.values())


def check_repeats(reps: List[Dict[str, Any]]) -> List[str]:
    """Simulated results and counters must repeat exactly at one seed;
    returns one error per repetition that differs from its seed's first."""
    errors = []
    for group in by_farm_seed(reps):
        first = group[0]["exact"]
        for rep in group[1:]:
            diff = sorted(k for k in set(first) | set(rep["exact"])
                          if first.get(k) != rep["exact"].get(k))
            if diff:
                errors.append(
                    f"two repetitions at farm seed {rep['seed']} differ: "
                    + ", ".join(f"{k}={first.get(k)!r}/{rep['exact'].get(k)!r}"
                                for k in diff[:5])
                )
    return errors


def seed_median(reps: List[Dict[str, Any]], part: str, key: str) -> float:
    """Median over farm seeds of each seed's median over its repetitions."""
    return statistics.median(
        statistics.median(r[part][key] for r in group) for group in by_farm_seed(reps)
    )


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians over farm seeds; ``setup_s`` is the median of every set-up
    timed in the run."""
    return {
        "run_s": seed_median(reps, "host", "run_s"),
        "setup_s": statistics.median(s for r in reps for s in r["host"]["setups"]),
        "peak_rss_mb": seed_median(reps, "host", "peak_rss_mb"),
        "stable_s": seed_median(reps, "exact", "stable_s"),
    }


def per_layer(plain: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    exact, host, tr = plain["exact"], plain["host"], traced["traced"]
    out = {name: exact[name] for name in PER_LAYER if name in exact}
    out["sim.events_per_s"] = exact["sim.events"] / host["run_raw_s"]
    for layer, value in tr["self_s"].items():
        out[SELF_METRICS[layer]] = value
    for name in ("node.handled", "node.wait_p50_ms", "node.wait_max_ms", "gs.frames"):
        out[name] = tr[name]
    out["phase.discovery_s"] = host["discovery_s"]
    out["phase.body_s"] = host["body_s"]
    out["trace.overhead_s"] = traced["host"]["run_raw_s"] - host["run_raw_s"]
    return out


def fmt(value: float) -> str:
    if isinstance(value, int) or (float(value).is_integer() and abs(value) >= 1000):
        return f"{int(value)}"
    return f"{value:.6g}"


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, toy: bool = False
) -> Dict[str, Any]:
    """Measure one workload; returns the output object (the last line
    printed) plus the printable extras (``errors``, ``model``, ``reps``, ``seeds``)."""
    if trace:
        runs = [run_child(workload, seed, traced, toy) for traced in (False, True)]
    else:
        runs = measure(workload, seed, seconds, toy)
    reps = [r for r in runs if r["ok"]]
    errors = [r["error"] for r in runs if not r["ok"]]
    if not errors:
        errors = check_repeats(reps)
    result: Dict[str, Any] = {
        "correct": not errors,
        "attempted": len(runs),
        "failed": len(errors),
        "metrics": {},
        "errors": errors,
    }
    if errors:
        return result
    if trace:
        values, names = per_layer(reps[0], reps[1]), PER_LAYER
    else:
        values, names = end_to_end(reps), END_TO_END
    result["metrics"] = {n: {"value": values[n], "unit": UNITS[n]} for n in names}
    result["run_raw_s"] = seed_median(reps, "host", "run_raw_s")
    extras = ["detect_tail_pct", "req_tail_pct", "gsc.detections", "workload.completed", "faults"]
    result["model"] = {
        name: seed_median(reps, "exact", name) for name in list(MODELLED) + extras
    }
    result["reps"] = len(reps)
    result["seeds"] = len(by_farm_seed(reps))
    return result


def print_result(workload: str, result: Dict[str, Any], trace: bool) -> None:
    print(f"# workload {workload}: {result.get('reps', 0)} repetition(s) "
          f"over {result.get('seeds', 0)} farm seed(s)")
    for err in result["errors"]:
        print(f"# CHECK FAILED: {err}")
    for name, m in result["metrics"].items():
        print(f"{name:<26} {fmt(m['value']):>14} {m['unit']}")
    model = result.get("model")
    if model and not trace:
        print(f"# run_s is in reference-machine seconds; measured here: "
              f"{result['run_raw_s']:.4g} s")
        for name, owner in MODELLED.items():
            if owner == workload:
                print(f"{name:<26} {fmt(model[name]):>14} {UNITS[name]}")
        if workload == "oceano55-faults":
            print(f"# detect tail = p{model['detect_tail_pct']:g} of "
                  f"{model['gsc.detections']:g} detections; {model['faults']:g} faults injected")
        if workload == "oceano-traffic":
            print(f"# request tail = p{model['req_tail_pct']:g} of "
                  f"{model['workload.completed']:g} completed requests")


def output_object(result: Dict[str, Any]) -> Dict[str, Any]:
    """The result object without the printable extras."""
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def run_all(seed: int, seconds: float, toy: bool) -> int:
    """Every workload, end to end, one table of every end-to-end metric."""
    results = {w: run_workload(w, seed, seconds, trace=False, toy=toy) for w in WORKLOADS}
    print(f"{'metric':<20} {'unit':<6} " + " ".join(f"{w:>16}" for w in WORKLOADS))
    for name in END_TO_END + list(MODELLED):
        cells = []
        owner = MODELLED.get(name)
        for w in WORKLOADS:
            r = results[w]
            if not r["correct"]:
                cells.append("FAILED")
            elif owner is not None and owner != w:
                cells.append("-")
            elif name in r["metrics"]:
                cells.append(fmt(r["metrics"][name]["value"]))
            else:
                cells.append(fmt(r["model"][name]))
        print(f"{name:<20} {UNITS[name]:<6} " + " ".join(f"{c:>16}" for c in cells))
    for w, r in results.items():
        for err in r["errors"]:
            print(f"# {w}: CHECK FAILED: {err}")
    ok = all(r["correct"] for r in results.values())
    summary = {w: output_object(r) for w, r in results.items()}
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    ap.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--toy", action="store_true",
                    help="seconds-long workload sizes, for the benchmark's self-tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no GulfStream sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args.child, args.seed, args.traced, args.toy)
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.toy)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    print_result(args.workload, result, bool(args.trace))
    print(json.dumps(output_object(result)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

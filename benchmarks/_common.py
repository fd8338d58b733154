"""Shared helpers for the benchmark suite.

Each benchmark regenerates one of the paper's figures/analyses as a
plain-text table: printed to stdout (visible with ``pytest -s``) and written
to ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can reference stable
artifacts. The pytest-benchmark fixture wraps each full experiment once
(``pedantic(rounds=1)``) — the interesting output is the table, the timing
is just a bonus.

Engineering benchmarks additionally persist *machine-readable* results via
:func:`emit_bench_json`: ``BENCH_<name>.json`` at the repo root holds a
``history`` list with one point per recorded run (events/sec, peak heap
size, wall-clock, ...), so every future PR appends to a perf trajectory and
regressions are diffable in review rather than anecdotal.

Both files are written only when ``BENCH_RECORD=1`` is set in the
environment. Without it a benchmark still computes, prints and asserts
everything, but leaves the tracked tables and trajectories as they are, so
a plain test run never rewrites them.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import subprocess
from typing import Any, Dict

from repro.analysis.sweeps import run_grid  # noqa: F401 — the benches' grid entry point

RESULTS = pathlib.Path(__file__).parent / "results"

#: repo root — BENCH_*.json trajectory files are checked in alongside the code
BENCH_ROOT = pathlib.Path(__file__).parent.parent

#: schema version of the BENCH_*.json trajectory files
BENCH_SCHEMA = 1


def recording() -> bool:
    """True when ``BENCH_RECORD=1``: results and trajectories are written."""
    return os.environ.get("BENCH_RECORD") == "1"


def emit(name: str, text: str) -> None:
    """Print a result table; persist it under benchmarks/results/ when
    recording."""
    print(f"\n{text}")
    if recording():
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"{name}.txt").write_text(text + "\n")
        print(f"[written to benchmarks/results/{name}.txt]")


def once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark fixture and return its
    result (no warmup/calibration reruns of a multi-second experiment)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def bench_jobs(default: int = 1) -> int:
    """Worker count for grid-shaped benches: the ``BENCH_JOBS`` env var.

    The default stays serial so a bare ``pytest benchmarks/`` behaves
    exactly as before; ``BENCH_JOBS=4 pytest benchmarks/`` fans every
    converted grid out over the parallel experiment fabric. Sweep results
    are identical either way (seeds are scheduling-independent).
    """
    try:
        return int(os.environ.get("BENCH_JOBS", default))
    except ValueError:
        return default


def _git_rev() -> str:
    """Short commit id for trajectory points; 'unknown' outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=BENCH_ROOT, capture_output=True, text=True, timeout=5, check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        # OSError: no git binary; CalledProcessError/TimeoutExpired: not a
        # checkout, a hosed one, or a hung git — all mean "no rev to report"
        return "unknown"


#: bookkeeping keys stamped onto every trajectory point (not metrics)
_POINT_META = {"date", "rev"}


def emit_bench_json(name: str, metrics: Dict[str, Any]) -> None:
    """Append one point to the ``BENCH_<name>.json`` perf trajectory when
    recording; otherwise write nothing.

    The file keeps every recorded run under ``history`` (newest last) plus a
    ``latest`` convenience copy, so a reviewer can diff the head-of-trunk
    numbers without parsing the whole list.

    Two classes of silent corruption are refused with :class:`ValueError`
    rather than papered over: a ``schema`` mismatch (an old run against a
    newer checkout must not wipe the recorded history), and metric-key
    drift (a ``latest`` point whose keys differ from the last history
    point's would break trajectory comparisons — rename deliberately by
    migrating the file, not accidentally).
    """
    if not recording():
        return
    path = BENCH_ROOT / f"BENCH_{name}.json"
    if path.exists():
        doc = json.loads(path.read_text())
        if doc.get("schema") != BENCH_SCHEMA:
            raise ValueError(
                f"{path.name}: schema {doc.get('schema')!r} != expected "
                f"{BENCH_SCHEMA}; migrate the file instead of overwriting it"
            )
        history = doc.get("history", [])
        if history:
            old_keys = set(history[-1]) - _POINT_META
            new_keys = set(metrics) - _POINT_META
            if old_keys != new_keys:
                gone = sorted(old_keys - new_keys)
                added = sorted(new_keys - old_keys)
                raise ValueError(
                    f"{path.name}: metric keys drifted from the last history "
                    f"point (missing: {gone or 'none'}, new: {added or 'none'}); "
                    "migrate the trajectory file if the rename is deliberate"
                )
    else:
        doc = {"schema": BENCH_SCHEMA, "bench": name, "history": []}
    point = {
        "date": datetime.date.today().isoformat(),
        "rev": _git_rev(),
        **metrics,
    }
    doc["history"].append(point)
    doc["latest"] = point
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"[bench] trajectory point appended to {path.name}")

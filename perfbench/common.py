"""Shared helpers: checkout paths, statistics, machine facts, subprocesses."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (ignored by git): per-run directories
#: and the per-seed oracle cache.
WORK = os.path.join(ROOT, ".perfbench-work")
CACHE = os.path.join(WORK, "cache")


class BenchError(RuntimeError):
    """The benchmark cannot run (missing program, failed child, ...)."""


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def child_env() -> Dict[str, str]:
    """Environment for program subprocesses: ``src`` first on the path."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    return env


def make_run_dir() -> str:
    path = os.path.join(WORK, f"run-{os.getpid()}-{time.time_ns()}")
    os.makedirs(path)
    return path


def run_child(argv: Sequence[str], timeout: float) -> str:
    """Run a Python child to completion; its stdout, or BenchError."""
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"child {argv[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


# ---------------------------------------------------------------- statistics


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise BenchError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail(values: Sequence[float], beyond: int = 10) -> Dict[str, float]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns the value, the percentile it sits at and the sample count.
    With fewer than ``beyond + 1`` samples no such percentile exists and
    the maximum stands in (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"value": 0.0, "percentile": 0.0, "samples": 0}
    if n <= beyond:
        return {"value": ordered[-1], "percentile": 100.0, "samples": n}
    index = n - 1 - beyond
    return {"value": ordered[index],
            "percentile": round(100.0 * (index + 1) / n, 2), "samples": n}


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# --------------------------------------------------------------- attributes


def machine_facts() -> Dict[str, object]:
    try:
        import numpy  # noqa: F401
        has_numpy = True
    except ImportError:
        has_numpy = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": has_numpy,
    }


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, tuple], attrs: dict) -> None:
    """Print the attribute line, then the result object as the last line."""
    print("attrs " + json.dumps(attrs, sort_keys=True, default=str))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def metric_units(kind: str) -> Dict[str, str]:
    """``name -> unit`` for ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in load_spec()[kind]}


def cache_path(*parts: str) -> str:
    path = os.path.join(CACHE, *parts)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def cached_json(path: str, compute) -> object:
    """Read ``path`` if present, else compute, store atomically, return."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        pass
    value = compute()
    store_json(path, value)
    return value


def store_json(path: str, value) -> None:
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        json.dump(value, handle)
    os.replace(tmp, path)

#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json, untraced and traced, on a 2 x 600
frame corpus for one second each. Every run must exit 0 and end with a
correct result that carries every metric BENCHMARK.json names for its mode,
with that metric's unit. A copy of the benchmark without the emarig
sources beside it must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TINY_FRAMES = 600
TIMEOUT_S = 300


def _run(cwd: Path, argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S
    )


def check_result(stdout: str, units: dict[str, str], nonzero: bool) -> list[str]:
    lines = stdout.strip().splitlines()
    if not lines:
        return ["printed nothing"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted {result.get('attempted')!r}")
    if result.get("failed") != 0:
        problems.append(f"failed {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(units):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(units))}")
    for name, unit in units.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif nonzero and value == 0:
            problems.append(f"{name}: end-to-end value is 0")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    script = spec["command"][1:]
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [*script, "--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--frames", str(TINY_FRAMES)]
            proc = _run(ROOT, argv)
            problems = [f"exit {proc.returncode}: {proc.stderr[-2000:]}"] if proc.returncode else []
            problems += check_result(proc.stdout, units[trace], nonzero=trace == 0)
            label = f"{workload} --trace {trace}"
            print(f"{label}: {'ok' if not problems else '; '.join(problems)}")
            failures += [f"{label}: {p}" for p in problems]

    (BENCH / "work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH / "work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns(
            "work", "results", "__pycache__"))
        proc = _run(bare, [*script, "--workload", "compile_clean", "--seed", "1",
                           "--seconds", "1", "--trace", "0"])
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("a copy without the sources did not fail cleanly")
        print(f"without sources: exit {proc.returncode}, stdout {proc.stdout.strip()!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

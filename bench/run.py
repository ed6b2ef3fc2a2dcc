#!/usr/bin/env python3
"""Benchmark of the emarig command-line path.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

- ``compile_clean``: each op runs ``emarig compile`` then ``emarig
  validate`` on the shipped fixture (2 x 6000 frames at 200 Hz). The seed
  has no effect on this workload.
- ``compile_stressed``: the same ops on the same corpus after its ``.pos``
  files were rewritten with seeded jitter, dropouts and overreach bursts
  (``dirty.py``).
- ``synth_mix``: each op is one ``emarig synth`` request against a bundle
  compiled from the clean corpus during set-up. Requests come in rounds of
  one 10-slot, one 40-slot and one 160-slot request in seeded order; each
  slot draws a label uniformly from the bundle's labels and a duration
  uniformly from 0.06-0.3 s.

Load is one client in a closed loop: the next op starts when the previous
one has returned, and a new op (a new round on ``synth_mix``) starts only
while it is expected to finish within ``--seconds``. Ops call
``emarig.cli.main`` in this process, so the CLI glue is measured; set-up runs
the user's own set-up commands as child processes, so interpreter and
import start-up count there. BLAS is capped at one thread.

The host's speed is not steady: on a shared 2-vCPU VM, a fixed loop runs
in ~7 ms or ~11 ms depending on what shares its core, switching within
seconds, so the median wall time of one op spread by ~25 % between 30 s
runs of the same code. Each op is therefore followed by a short fixed
reference loop (at least REF_SHARE of the op's time), and the gated times
are op wall time divided by the median chunk time of the loops just before
and after it: the op's cost in reference chunks, ``ref``. On that host
this cut the spread of the per-run median from ~20 % to ~5-9 %. Raw wall
times go to the run record.

Every op's outputs are checked; a failed check counts the op as failed.
With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` the run measures half its time untraced and half traced
(see ``spans.py``) and reports per-module metrics. A full record (sizes,
versions, digests, per-op times, spans) goes to ``bench/results/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("compile_clean", "compile_stressed", "synth_mix")
SWEEPS = 2
FRAMES_PER_SWEEP = 6000
SETUP_REPEATS = 3
ROUND_SLOTS = (10, 40, 160)
DURATION_RANGE = (0.06, 0.3)
CLEAN_RMS_LIMIT_CM = 1e-2     # acceptance criterion 4
ERROR_FLOOR_CM = 1e-4         # errors below this read as this
CHILD_TIMEOUT_S = 120
REF_SHARE = 0.1               # reference-loop time after an op, share of the op's time
REF_MIN_CHUNKS = 3

if not (SRC / "emarig" / "__init__.py").is_file():
    sys.exit(f"error: no emarig sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np
import scipy

from dirty import dirty_corpus
from emarig.anim_db import build_unit_db
from emarig.bundle import read_bundle, verify_bundle
from emarig.cli import main as cli_main
from emarig.ema_io import parse_layout
from emarig.pipeline import SynthesisDefaults, load_config
from emarig.unit_synth import join_cost, target_cost
from spans import BUNDLE_SPANS, REQUIRED_EDGES, TIME_METRICS, Tracer


class SetupError(RuntimeError):
    pass


_REF_MATRIX = np.random.default_rng(0).random((200, 200))


def reference_chunk() -> float:
    """Wall time of one fixed chunk of interpreter and BLAS work, the mix
    emarig itself runs."""
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    for _ in range(20):
        _REF_MATRIX @ _REF_MATRIX
    return time.perf_counter() - start


def probe(op_seconds: float) -> list[float]:
    """Reference-chunk times, run right after an op of `op_seconds`."""
    chunks = [reference_chunk() for _ in range(REF_MIN_CHUNKS)]
    while sum(chunks) < REF_SHARE * op_seconds:
        chunks.append(reference_chunk())
    return chunks


def _child(args: list[str], cwd: Path) -> None:
    """Run ``python -m emarig.cli ARGS`` to completion in a child process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "emarig.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SetupError(f"emarig {' '.join(args)} exited {proc.returncode}: {proc.stderr}")


def _cli(argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI command in this process; an escaped exception reads as exit -1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_main(argv)
        except Exception:
            rc = -1
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue()


def _field(text: str, prefix: str, index: int = -1) -> str:
    """Whitespace-split token `index` of the first stdout line starting with prefix."""
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].split()[index]
    raise ValueError(f"no line starting with {prefix!r}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least 10 samples beyond it: (percentile, value)."""
    n = len(values)
    if n <= 10:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(values)[rank - 1]


@dataclass
class Op:
    seconds: float
    probe: list[float]            # reference-chunk times right after the op
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    ref_s: float = 0.0            # reference-chunk time the op is measured in

    @property
    def in_ref(self) -> float:
        """Op wall time in reference chunks."""
        return self.seconds / self.ref_s


# --- set-up ------------------------------------------------------------------

def set_up(workload: str, seed: int, work: Path, frames: int):
    """Run the workload's set-up SETUP_REPEATS times; return (times, dir, stats)."""
    times = []
    dirt = None
    for i in range(SETUP_REPEATS):
        d = work / f"setup{i}"
        d.mkdir()
        start = time.perf_counter()
        _child(
            ["fixture", "--out", "corpus", "--sweeps", str(SWEEPS), "--frames", str(frames)],
            d,
        )
        if workload == "compile_stressed":
            names = [p.name for p in load_config(d / "corpus" / "config.cfg").ema_paths]
            dirt = dirty_corpus(d / "corpus", names, seed)
        if workload == "synth_mix":
            _child(["compile", "--config", "corpus/config.cfg", "--out", "bundle"], d)
        times.append(time.perf_counter() - start)
        if i < SETUP_REPEATS - 1:
            shutil.rmtree(d)
    return times, d, dirt


# --- compile workloads -----------------------------------------------------------

class CompileOps:
    """compile + validate of one corpus, checked after every op."""

    def __init__(self, workload: str, work: Path, frames: int):
        self.clean = workload == "compile_clean"
        self.config = str(work / "corpus" / "config.cfg")
        self.bundle = work / "bundle"
        self.frames = frames
        self.first_manifest: bytes | None = None

    def work_units(self, op: Op) -> int:
        return self.frames

    def round(self, traced) -> list[Op]:
        """One round is one compile + validate op."""
        return [self._op(traced)]

    def _op(self, traced) -> Op:
        start = time.perf_counter()
        with traced():
            rc_c, out_c, err_c = _cli(["compile", "--config", self.config, "--out", str(self.bundle)])
            mid = time.perf_counter()
            rc_v, out_v, err_v = _cli(
                ["validate", "--bundle", str(self.bundle), "--config", self.config]
            )
        end = time.perf_counter()
        op = Op(seconds=end - start, probe=probe(end - start))
        op.info.update(compile_s=mid - start, validate_s=end - mid)
        if rc_c:
            op.problems.append(f"compile exited {rc_c}: {err_c.strip()}")
            return op
        if rc_v:
            op.problems.append(f"validate exited {rc_v}: {err_v.strip()}")
        bad = verify_bundle(self.bundle)
        if bad:
            op.problems.append(f"verify_bundle mismatches: {bad}")
        manifest = (self.bundle / "manifest.txt").read_bytes()
        if self.first_manifest is None:
            self.first_manifest = manifest
        elif manifest != self.first_manifest:
            op.problems.append("manifest differs from the run's first pass")
        op.info["model_sha256"] = _sha256(self.bundle / "model.dae")
        op.info["ik_residual_max_cm"] = float(_field(out_c, "max residual", 0))
        op.info["ik_nonconvergent_frames"] = int(_field(out_c, "non-convergent", 0))
        if not rc_v:
            rms = float(_field(out_v, "max rms", 0))
            op.info["track_rms_cm"] = rms
            if self.clean and rms > CLEAN_RMS_LIMIT_CM:
                op.problems.append(f"clean track rms {rms} cm exceeds {CLEAN_RMS_LIMIT_CM}")
        return op

    def self_check(self, ops: list[Op]) -> list[str]:
        """The workload must still stress what it is named for."""
        nonconv = [op.info.get("ik_nonconvergent_frames", 0) for op in ops]
        if self.clean and any(nonconv):
            return ["compile_clean has non-convergent IK frames"]
        if not self.clean and not all(nonconv):
            return ["compile_stressed left every IK frame converged"]
        return []


# --- synth workload ------------------------------------------------------------

@dataclass
class Candidates:
    source: np.ndarray
    durations: np.ndarray
    first_pos: np.ndarray
    first_vel: np.ndarray
    last_pos: np.ndarray
    last_vel: np.ndarray


def _candidates(db) -> dict[str, Candidates]:
    out = {}
    for label in sorted({u.label for u in db}):
        units = sorted((u for u in db if u.label == label), key=lambda u: u.source_index)
        flat = lambda attr: np.stack([getattr(u, attr).ravel() for u in units])
        out[label] = Candidates(
            source=np.array([u.source_index for u in units]),
            durations=np.array([u.duration for u in units]),
            first_pos=flat("first_positions"),
            first_vel=flat("first_velocities"),
            last_pos=flat("last_positions"),
            last_vel=flat("last_velocities"),
        )
    return out


def optimal_total(cands: dict[str, Candidates], items, defaults) -> float:
    """Minimum plan cost by an independent array Viterbi over the request."""
    cost = prev = None
    for label, dur in items:
        c = cands[label]
        t = defaults.w_target * np.abs(np.log(c.durations / dur))
        if prev is None:
            cost = t
        else:
            dp = c.first_pos[None, :, :] - prev.last_pos[:, None, :]
            dv = c.first_vel[None, :, :] - prev.last_vel[:, None, :]
            join = np.sqrt(np.sum(dp * dp, axis=2)) + defaults.velocity_weight * np.sqrt(
                np.sum(dv * dv, axis=2)
            )
            join[prev.source[:, None] + 1 == c.source[None, :]] = 0.0
            cost = np.min(cost[:, None] + defaults.w_join * join, axis=0) + t
        prev = c
    return float(cost.min())


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


class SynthOps:
    """Seeded rounds of synth requests, each plan checked for optimality."""

    def __init__(self, work: Path, seed: int):
        self.bundle = str(work / "bundle")
        self.out = str(work / "synth.dae")
        loaded = read_bundle(self.bundle)
        self.db = build_unit_db(loaded.clip, loaded.tier)
        self.by_source = {u.source_index: u for u in self.db}
        self.cands = _candidates(self.db)
        self.labels = sorted(self.cands)
        self.defaults = SynthesisDefaults()
        self.rng = np.random.default_rng(seed)

    def work_units(self, op: Op) -> int:
        return op.info["slots"]

    def round(self, traced) -> list[Op]:
        """One request of each size in ROUND_SLOTS, in seeded order."""
        lo, hi = DURATION_RANGE
        ops = []
        for n in self.rng.permutation(ROUND_SLOTS).tolist():
            labels = self.rng.choice(self.labels, n).tolist()
            durations = np.round(self.rng.uniform(lo, hi, n), 4).tolist()
            ops.append(self._request(tuple(zip(labels, durations)), traced))
        return ops

    def _request(self, items, traced) -> Op:
        text = "; ".join(f"{label} {dur!r}" for label, dur in items)
        start = time.perf_counter()
        with traced():
            rc, out, err = _cli(["synth", "--bundle", self.bundle, "--request", text, "--out", self.out])
        seconds = time.perf_counter() - start
        op = Op(seconds=seconds, probe=probe(seconds))
        op.info["slots"] = len(items)
        if rc:
            op.problems.append(f"synth exited {rc}: {err.strip()}")
            return op
        try:
            self._check(op, items, out)
        except (KeyError, IndexError, ValueError) as exc:
            op.problems.append(f"unreadable synth output: {exc!r}")
        return op

    def _check(self, op: Op, items, out: str) -> None:
        d = self.defaults
        lines = out.splitlines()
        rows = [line.split() for line in lines[1 : 1 + len(items)]]
        units = [self.by_source[int(row[2])] for row in rows]
        if [u.label for u in units] != [label for label, _ in items]:
            op.problems.append("plan labels differ from the request")
            return
        tl = [target_cost(u, dur) for u, (_, dur) in zip(units, items)]
        jl = [join_cost(a, b, d.velocity_weight) for a, b in zip(units, units[1:])]
        total = d.w_target * sum(tl) + d.w_join * sum(jl)
        printed = float(_field(out, "total cost"))
        if not _close(printed, total, 1e-5):
            op.problems.append(f"printed total {printed} != recomputed {total}")
        best = optimal_total(self.cands, items, d)
        if not _close(total, best, 1e-9):
            op.problems.append(f"plan total {total} is not the optimum {best}")
        duration = float(_field(out, "rendered clip of", 0))
        requested = sum(dur for _, dur in items)
        if not _close(duration, requested, 1e-5):
            op.problems.append(f"rendered {duration} s, requested {requested} s")
        if os.path.getsize(self.out) == 0:
            op.problems.append("synth wrote an empty clip")
        op.info.update(
            plan_cost=total,
            join_costs=jl,
            sources=[u.source_index for u in units],
        )

    def self_check(self, ops: list[Op]) -> list[str]:
        return []


# --- measurement -----------------------------------------------------------------

def measure(run_round, seconds: float) -> list[Op]:
    """Closed loop over rounds, each run by `run_round()` and returning its
    ops; a new round starts only while it should end within `seconds`.
    Each op is measured in the median reference-chunk time of the probes
    just before and just after it."""
    done: list[Op] = []
    before = probe(0.0)
    start = time.perf_counter()
    rounds = 0
    while True:
        done += run_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    for op in done:
        op.ref_s = statistics.median(before + op.probe)
        before = op.probe
    return done


def _versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _sizes(bundle: str, frames: int, layout: Path) -> dict:
    channels = len(parse_layout(layout.read_text(encoding="utf-8")).channels)
    loaded = read_bundle(bundle)
    db = build_unit_db(loaded.clip, loaded.tier)
    per_label = {}
    for u in db:
        per_label[u.label] = per_label.get(u.label, 0) + 1
    return {
        "frames": frames,
        "channels": channels,
        "bones": loaded.armature.n_bones,
        "vertices": loaded.mesh.n_vertices,
        "units": len(db),
        "candidates_per_label": per_label,
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(workload, setup_times, ops, ops_obj) -> tuple[dict, dict]:
    """(printed metrics, ISSUE-named figures for the record)."""
    secs = [op.seconds for op in ops]
    refs = [op.in_ref for op in ops]
    work = sum(ops_obj.work_units(op) for op in ops)
    failed = sum(1 for op in ops if op.problems)
    named: dict = {
        "failed_ratio": failed / len(ops),
        "ops": len(ops),
        "op_s_p50": _median(secs),
        "work_per_s": work / sum(secs),
        "ref_chunk_s_p50": _median([op.ref_s for op in ops]),
    }
    if workload == "synth_mix":
        first = [op for op in ops[: len(ROUND_SLOTS)] if "plan_cost" in op.info]
        joins = [j for op in first for j in op.info["join_costs"]]
        error = sum(joins) / len(joins) if joins else 0.0
        tail = _tail(secs)
        named.update(
            synth_s_p50=_median(secs),
            synth_s_tail=tail and tail[1],
            synth_s_tail_percentile=tail and tail[0],
            synth_slots_per_s=work / sum(secs),
            plan_cost=sum(op.info["plan_cost"] for op in first),
            mean_join_cost_cm=error,
            source_sequence_sha256=hashlib.sha256(
                "\n".join(",".join(map(str, op.info["sources"])) for op in first).encode()
            ).hexdigest(),
        )
    else:
        error = max((op.info.get("track_rms_cm", 0.0) for op in ops), default=0.0)
        named.update(
            compile_s_p50=_median([op.info["compile_s"] for op in ops]),
            validate_s_p50=_median([op.info["validate_s"] for op in ops]),
            track_rms_cm=error,
            ik_residual_max_cm=max(op.info.get("ik_residual_max_cm", 0.0) for op in ops),
            ik_nonconvergent_frames=max(op.info.get("ik_nonconvergent_frames", 0) for op in ops),
            model_sha256=sorted({op.info.get("model_sha256") for op in ops} - {None}),
        )
    metrics = {
        "setup_s": (_median(setup_times), "s"),
        "op_p50_ref": (_median(refs), "ref"),
        "work_per_ref": (work / sum(refs), "1/ref"),
        "error_cm": (max(error, ERROR_FLOOR_CM), "cm"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, named


COUNT_METRICS = {
    "ema_io.bytes_decoded": "bytes",
    "motion_prep.samples_filled": "count",
    "ik_solver.iterations_total": "count",
    "ik_solver.batch_iterations": "count",
    "ik_solver.frames_budget_exhausted": "count",
    "collada_io.bytes_written": "bytes",
    "collada_io.bytes_read": "bytes",
    "bundle.bytes_hashed": "bytes",
    "unit_synth.join_evals": "count",
    "unit_synth.keys_rendered": "count",
}


def per_layer(workload, tracer: Tracer, untraced, traced) -> tuple[dict, list[str]]:
    """Mean per-op module metrics from the traced ops, plus span-tree checks."""
    problems = []
    n = len(traced)
    sums = dict.fromkeys(TIME_METRICS, 0.0)
    known = {name for names in TIME_METRICS.values() for name in names}
    required = REQUIRED_EDGES["synth" if workload == "synth_mix" else "compile"]
    wait = 0.0
    for op in range(n):
        self_times = tracer.self_times(op)
        unknown = set(self_times) - known
        if unknown:
            problems.append(f"spans with no metric: {sorted(unknown)}")
        for metric, names in TIME_METRICS.items():
            sums[metric] += sum(self_times.get(name, 0.0) for name in names)
        problems += tracer.tree_problems(op, required)
        wait += tracer.wait_seconds(op, BUNDLE_SPANS)
    counts = {key: sum(c.get(key, 0) for c in tracer.op_counts) for key in COUNT_METRICS}
    rows = sum(c.get("ik_solver.batch_rows", 0) for c in tracer.op_counts)
    metrics = {m: (v / n, "s") for m, v in sums.items()}
    metrics.update({k: (v / n, COUNT_METRICS[k]) for k, v in counts.items()})
    metrics["ik_solver.active_row_ratio"] = (
        counts["ik_solver.iterations_total"] / rows if rows else 0.0,
        "ratio",
    )
    metrics["bundle.wait_s"] = (wait / n, "s")
    metrics["trace_overhead_s"] = (
        statistics.fmean(op.seconds for op in traced)
        - statistics.fmean(op.seconds for op in untraced),
        "s",
    )
    return metrics, problems


def layer_self_check(workload: str, tracer: Tracer) -> list[str]:
    problems = []
    for op, counts in enumerate(tracer.op_counts):
        if workload == "compile_stressed":
            for key in ("motion_prep.samples_filled", "ik_solver.frames_budget_exhausted"):
                if counts.get(key, 0) <= 0:
                    problems.append(f"traced op {op}: {key} is 0 on compile_stressed")
        if workload == "compile_clean":
            if counts.get("ik_solver.iterations_total") != counts.get("ik_solver.batch_rows"):
                problems.append(f"traced op {op}: active_row_ratio is not 1 on compile_clean")
    return problems


def run(args) -> tuple[dict, dict]:
    """Set up, measure and check one run: (printed result, run record)."""
    frames = args.frames
    BENCH.joinpath("work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "work"))
    try:
        setup_times, inputs, dirt = set_up(args.workload, args.seed, work, frames)
        if args.workload == "synth_mix":
            ops_obj = SynthOps(inputs, args.seed)
        else:
            ops_obj = CompileOps(args.workload, inputs, SWEEPS * frames)
        share = 0.5 if args.trace else 1.0
        untraced = measure(lambda: ops_obj.round(contextlib.nullcontext), args.seconds * share)
        problems = ops_obj.self_check(untraced)
        e2e, named = end_to_end(args.workload, setup_times, untraced, ops_obj)
        record: dict = {"figures": named}
        traced: list[Op] = []
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(lambda: ops_obj.round(tracer.op), args.seconds * share)
            finally:
                tracer.uninstall()
            metrics, trace_problems = per_layer(args.workload, tracer, untraced, traced)
            problems += trace_problems + layer_self_check(args.workload, tracer)
            if args.workload != "synth_mix":
                digests = {op.info.get("model_sha256") for op in untraced + traced}
                if len(digests) != 1:
                    problems.append(f"traced model.dae digest differs: {sorted(map(str, digests))}")
            record["spans"] = tracer.records()
        else:
            metrics = e2e
        ops = untraced + traced
        failed = sum(1 for op in ops if op.problems)
        bundle = str(ops_obj.bundle)
        record.update(
            workload=args.workload,
            seed=args.seed,
            seed_used=args.workload != "compile_clean",
            trace=args.trace,
            seconds=args.seconds,
            nproc=os.cpu_count(),
            cpus_allowed=len(os.sched_getaffinity(0)),
            blas_threads=BLAS_THREADS,
            versions=_versions(),
            sizes=_sizes(bundle, SWEEPS * frames, inputs / "corpus" / "layout.cfg"),
            round_slots=ROUND_SLOTS if args.workload == "synth_mix" else None,
            setup_s=setup_times,
            dirt=dirt and vars(dirt),
            ops=[{"seconds": op.seconds, "ref_s": op.ref_s, "probe": op.probe, "problems": op.problems, **{
                k: v for k, v in op.info.items() if k != "join_costs"}} for op in ops],
            problems=problems,
        )
        return {
            "correct": failed == 0 and not problems,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }, record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--frames", type=int, default=FRAMES_PER_SWEEP, help="frames per sweep (self-test only)"
    )
    args = parser.parse_args(argv)
    result, record = run(args)
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

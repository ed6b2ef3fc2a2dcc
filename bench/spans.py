"""Span tracing for the traced run of the benchmark.

The traced run drives the same CLI path as the untraced run. Before it
starts, every name through which one emarig module calls into another is
replaced by a wrapper that records a span around the call: wall and
process-CPU time at both ends, the enclosing span, and the op it belongs
to. Spans stay in memory; counts derived from a call's arguments and
result are computed after the op ends, so they cost no traced time.

A span's self time is its duration minus the part its child spans cover.
Each op is one root span named ``op``, and every span name maps to exactly
one per-module time metric; the root's own self time is the unattributed
CLI glue. The self times of an op therefore add up to its traced time by
construction. What can go wrong is the span tree itself, so the run checks
that every op holds the cross-module calls its workload must make
(``REQUIRED_EDGES``) and that every span lies inside its parent within the
same op.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from emarig.bundle import open_bundle
from emarig.ik_solver import IkParams
from emarig.motion_prep import detect_dropouts


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    child_wall: float = 0.0
    child_cpu: float = 0.0

    @property
    def self_wall(self) -> float:
        return self.end - self.start - self.child_wall

    @property
    def self_cpu(self) -> float:
        return self.cpu_end - self.cpu_start - self.child_cpu


# --- counters: (args, kwargs, result) -> {count name: value} -----------------

def _read_pos(args, kwargs, result):
    return {"ema_io.bytes_decoded": len(args[0])}


def _fill_dropouts(args, kwargs, result):
    return {"motion_prep.samples_filled": int(detect_dropouts(*args, **kwargs).sum())}


def _solve_track(args, kwargs, track):
    params = args[2] if len(args) > 2 else kwargs.get("params", IkParams())
    it = track.iterations
    batch = int(it.max()) if len(it) else 0
    exhausted = (it == params.max_iterations) & (track.max_residual() > params.tolerance)
    return {
        "ik_solver.iterations_total": int(it.sum()),
        "ik_solver.batch_iterations": batch,
        "ik_solver.batch_rows": len(it) * batch,
        "ik_solver.frames_budget_exhausted": int(exhausted.sum()),
    }


def _write_collada(args, kwargs, text):
    return {"collada_io.bytes_written": len(text.encode("utf-8"))}


def _read_collada(args, kwargs, result):
    return {"collada_io.bytes_read": len(args[0].encode("utf-8"))}


def _write_bundle(args, kwargs, bundle):
    return {"bundle.bytes_hashed": sum(_entry_sizes(bundle.path, bundle.entries))}


def _verify_bundle(args, kwargs, result):
    bundle = open_bundle(args[0])
    return {"bundle.bytes_hashed": sum(_entry_sizes(bundle.path, bundle.entries))}


def _entry_sizes(path: Path, entries):
    return [(Path(path) / name).stat().st_size for name in entries]


def _select_units(args, kwargs, plan):
    db, request = args
    per_label = {}
    for unit in db:
        per_label[unit.label] = per_label.get(unit.label, 0) + 1
    sizes = [per_label.get(label, 0) for label, _ in request.items]
    return {"unit_synth.join_evals": sum(a * b for a, b in zip(sizes, sizes[1:]))}


def _render_plan(args, kwargs, clip):
    return {"unit_synth.keys_rendered": clip.n_keys}


# (module, attribute the caller looks up, span name, counter)
HOOKS = (
    ("emarig.cli", "compile_model", "pipeline.compile_model", None),
    ("emarig.cli", "build_bundle", "pipeline.build_bundle", None),
    ("emarig.cli", "validate_model", "pipeline.validate_model", None),
    ("emarig.cli", "read_bundle", "bundle.read_bundle", None),
    ("emarig.cli", "build_unit_db", "anim_db.build_unit_db", None),
    ("emarig.cli", "select_units", "unit_synth.select", _select_units),
    ("emarig.cli", "render_plan", "unit_synth.render", _render_plan),
    ("emarig.cli", "write_collada", "collada_io.write", _write_collada),
    ("emarig.pipeline", "generate_default_mesh", "rig.mesh", None),
    ("emarig.pipeline", "read_pos", "ema_io.read_pos", _read_pos),
    ("emarig.pipeline", "fill_dropouts", "motion_prep.fill_dropouts", _fill_dropouts),
    ("emarig.pipeline", "normalize_head", "motion_prep.normalize_head", None),
    ("emarig.pipeline", "smooth", "motion_prep.smooth", None),
    ("emarig.pipeline", "compile_rig", "rig.compile_rig", None),
    ("emarig.pipeline", "bake", "anim_db.bake", None),
    ("emarig.pipeline", "write_collada", "collada_io.write", _write_collada),
    ("emarig.pipeline", "write_bundle", "bundle.write", _write_bundle),
    ("emarig.anim_db", "solve_track", "ik_solver.solve_track", _solve_track),
    ("emarig.bundle", "verify_bundle", "bundle.verify", _verify_bundle),
    ("emarig.bundle", "read_collada", "collada_io.read", _read_collada),
)

# Per-module self-time metrics; every span name belongs to exactly one.
TIME_METRICS = {
    "ema_io.read_pos_s": ("ema_io.read_pos",),
    "motion_prep.fill_dropouts_s": ("motion_prep.fill_dropouts",),
    "motion_prep.normalize_head_s": ("motion_prep.normalize_head",),
    "motion_prep.smooth_s": ("motion_prep.smooth",),
    "rig.mesh_s": ("rig.mesh",),
    "rig.compile_rig_s": ("rig.compile_rig",),
    "ik_solver.solve_track_s": ("ik_solver.solve_track",),
    "anim_db.bake_self_s": ("anim_db.bake",),
    "anim_db.build_unit_db_s": ("anim_db.build_unit_db",),
    "collada_io.write_s": ("collada_io.write",),
    "collada_io.read_s": ("collada_io.read",),
    "bundle.write_s": ("bundle.write",),
    "bundle.verify_s": ("bundle.verify",),
    "bundle.read_s": ("bundle.read_bundle",),
    "unit_synth.select_s": ("unit_synth.select",),
    "unit_synth.render_s": ("unit_synth.render",),
    "pipeline.compile_self_s": ("pipeline.compile_model", "pipeline.build_bundle"),
    "pipeline.validate_model_self_s": ("pipeline.validate_model",),
    "unattributed_s": ("op",),
}
BUNDLE_SPANS = ("bundle.write", "bundle.verify", "bundle.read_bundle")

# (span, enclosing span) pairs every traced op of a kind must contain: the
# calls from one module into another whose time would otherwise be booked
# to the caller.
BUNDLE_READ_EDGES = {
    ("bundle.verify", "bundle.read_bundle"),
    ("collada_io.read", "bundle.read_bundle"),
}
REQUIRED_EDGES = {
    "compile": BUNDLE_READ_EDGES | {
        ("ema_io.read_pos", "pipeline.compile_model"),
        ("anim_db.bake", "pipeline.compile_model"),
        ("ik_solver.solve_track", "anim_db.bake"),
        ("collada_io.write", "pipeline.build_bundle"),
        ("bundle.write", "pipeline.build_bundle"),
        ("pipeline.validate_model", "op"),
    },
    "synth": BUNDLE_READ_EDGES | {
        ("anim_db.build_unit_db", "op"),
        ("unit_synth.select", "op"),
        ("unit_synth.render", "op"),
        ("collada_io.write", "op"),
    },
}


class Tracer:
    """Installs the span hooks and collects spans and counts per op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_counts: list[dict[str, int]] = []
        self._stack: list[int] = []
        self._pending: list = []
        self._op: int | None = None
        self._saved: list = []

    def install(self) -> None:
        for module_name, attr, name, counter in HOOKS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise RuntimeError(f"trace hook {module_name}.{attr} no longer exists")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, self._op, parent, time.perf_counter(), time.process_time())
        )
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.cpu_end = time.process_time()
        self._stack.pop()
        if span.parent is not None:
            parent = self.spans[span.parent]
            parent.child_wall += span.end - span.start
            parent.child_cpu += span.cpu_end - span.cpu_start

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self._pending.append((counter, args, kwargs, result))
            return result

        return traced

    @contextmanager
    def op(self):
        """Root span of one op; counts are taken after it closes."""
        self._op = len(self.op_counts)
        index = self._open("op")
        try:
            yield
        finally:
            self._close(index)
            self._op = None
            counts: dict[str, int] = {}
            for counter, args, kwargs, result in self._pending:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            self._pending.clear()
            self.op_counts.append(counts)

    def self_times(self, op: int) -> dict[str, float]:
        """Self wall time per span name within one op."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s.op == op:
                out[s.name] = out.get(s.name, 0.0) + s.self_wall
        return out

    def tree_problems(self, op: int, required) -> list[str]:
        """Spans of one op that escape their parent, and required
        (span, parent) pairs the op lacks."""
        problems = []
        edges = set()
        for s in self.spans:
            if s.op != op or s.parent is None:
                continue
            parent = self.spans[s.parent]
            if parent.op != op or not parent.start <= s.start <= s.end <= parent.end:
                problems.append(f"op {op}: span {s.name} lies outside its parent {parent.name}")
            edges.add((s.name, parent.name))
        roots = [s.name for s in self.spans if s.op == op and s.parent is None]
        if roots != ["op"]:
            problems.append(f"op {op}: root spans {roots}")
        missing = sorted(set(required) - edges)
        if missing:
            problems.append(f"op {op}: missing spans {missing}")
        return problems

    def wait_seconds(self, op: int, names) -> float:
        """Wall minus CPU self time summed over the named spans of one op."""
        return sum(
            s.self_wall - s.self_cpu for s in self.spans if s.op == op and s.name in names
        )

    def records(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "op": s.op,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "cpu_s": s.cpu_end - s.cpu_start,
            }
            for s in self.spans
        ]

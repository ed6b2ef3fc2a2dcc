"""Seeded dirty input for the stressed compile workload.

Rewrites the fixture's ``.pos`` sweeps in place with three kinds of
damage a real articulograph session has:

- coil jitter: Gaussian noise on every channel's position;
- dropouts: runs of 1-20 frames where one channel reads NaN;
- overreach: raised-cosine bursts that push one tongue coil away from its
  parent coil, beyond ``s_max`` times the bone's rest length, so the IK
  solver cannot reach the target and runs to its iteration budget.

Bursts are stratified (one per block of frames, coils dealt round-robin
over the whole corpus from a seeded permutation) and the dropout share is
exact, so every seed stresses the solver and the dropout fill by about the
same amount.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from emarig.ema_io import parse_layout, read_pos, write_pos
from emarig.rig import parse_rig_graph

JITTER_CM = 0.02
DROPOUT_SHARE = 0.002
DROPOUT_RUN = (1, 20)
BURST_CM = 3.0
BURST_EVERY = 400
BURST_FRAMES = 60


@dataclass
class DirtStats:
    samples_dropped: int = 0
    bursts: int = 0
    frames: int = 0


def _burst_profile(n: int) -> np.ndarray:
    """Raised cosine rising from 0 to 1 and back over n frames."""
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * (np.arange(n) + 0.5) / n))


def _dirty_positions(positions, channels, order, rng, stats):
    n, c, _ = positions.shape
    out = np.array(positions)

    profile = _burst_profile(BURST_FRAMES)
    for b in range(n // BURST_EVERY):
        start = b * BURST_EVERY + int(rng.integers(0, BURST_EVERY - BURST_FRAMES))
        coil, parent = order[stats.bursts % len(order)]
        i, p = channels.index(coil), channels.index(parent)
        win = slice(start, start + BURST_FRAMES)
        bone = out[win, i] - out[win, p]
        direction = bone / np.linalg.norm(bone, axis=1, keepdims=True)
        out[win, i] += BURST_CM * profile[:, None] * direction
        stats.bursts += 1

    out += rng.normal(0.0, JITTER_CM, out.shape)

    dropped = np.zeros((n, c), dtype=bool)
    target = int(round(DROPOUT_SHARE * n * c))
    while dropped.sum() < target:
        length = int(rng.integers(DROPOUT_RUN[0], DROPOUT_RUN[1] + 1))
        length = min(length, target - int(dropped.sum()))
        start = int(rng.integers(1, n - length))
        dropped[start : start + length, int(rng.integers(0, c))] = True
    stats.samples_dropped += int(dropped.sum())
    stats.frames += n
    return out, dropped


def dirty_corpus(corpus: Path, ema_files: list[str], seed: int) -> DirtStats:
    """Damage the named sweeps of a fixture directory in place."""
    layout = parse_layout((corpus / "layout.cfg").read_text(encoding="utf-8"))
    graph = parse_rig_graph((corpus / "tongue.dot").read_text(encoding="utf-8"))
    pairs = [
        (n, graph.parent(n))
        for n in graph.nodes
        if n != graph.root and graph.parent(n) != graph.root
    ]
    rng = np.random.default_rng(seed)
    order = [pairs[i] for i in rng.permutation(len(pairs))]
    stats = DirtStats()
    for name in ema_files:
        path = corpus / name
        sweep = read_pos(path.read_bytes(), layout)
        positions, dropped = _dirty_positions(
            sweep.positions, sweep.channels, order, rng, stats
        )
        positions[dropped] = np.nan
        nan = np.where(dropped, np.nan, 0.0)
        sweep = sweep.with_arrays(
            positions=positions,
            phi=sweep.phi + nan,
            theta=sweep.theta + nan,
            rms=(sweep.rms + nan).astype(np.float32),
            extra=(sweep.extra + nan).astype(np.float32),
        )
        path.write_bytes(write_pos(sweep, layout))
    return stats

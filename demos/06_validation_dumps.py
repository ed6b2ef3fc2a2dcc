"""Validating the animation against its source recordings.

Three trajectory dumps share the .pos format so they can be compared by
any external tool: the source coils, the registered IK targets, and the
skinned seed vertices (one mesh vertex pinned on each coil). With
smoothing disabled, the seed vertices should land on the source coils up
to the solver tolerance, which is what `emarig validate` measures.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np

from emarig import PosLayout, SmoothingSpec, compile_model, load_config, read_pos
from emarig.bundle import dump_trajectories
from emarig.fixture import FixtureSpec, write_fixture
from emarig.pipeline import build_bundle, validate_model
from emarig.bundle import read_bundle

with tempfile.TemporaryDirectory(prefix="emarig-demo-") as tmp:
    workdir = Path(tmp)
    config_path = write_fixture(workdir / "corpus", FixtureSpec(n_sweeps=1, frames_per_sweep=400))
    config = dataclasses.replace(load_config(config_path), smoothing=SmoothingSpec(window_frames=1))
    result = compile_model(config)

    coils = dump_trajectories("coils", sweeps=result.sweeps_raw, layout=result.layout)
    targets = dump_trajectories("ik_targets", clip=result.clip)
    seeds = dump_trajectories("seed_vertices", rig=result.rig, clip=result.clip)
    for name, data in [("coils", coils), ("ik_targets", targets), ("seed_vertices", seeds)]:
        (workdir / f"{name}.pos").write_bytes(data)
        print(f"{name}.pos: {len(data)} bytes")

    layout = PosLayout(channels=result.clip.bone_names, rate_hz=result.clip.rate_hz)
    t = read_pos(targets, layout)
    s = read_pos(seeds, layout)
    gap = np.linalg.norm(s.positions - t.positions, axis=2)
    print(f"\nseed vertices vs IK targets: max {gap.max():.2e} cm "
          f"(solver tolerance is {config.ik.tolerance:g} cm)")

    bundle = build_bundle(result, workdir / "bundle")
    report = validate_model(read_bundle(bundle.path), config)
    print("\nvalidation against the source EMA:")
    for line in report.lines():
        print(" ", line)

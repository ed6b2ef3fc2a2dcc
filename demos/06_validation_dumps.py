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
from emarig.bundle import read_bundle
from emarig.fixture import FixtureSpec, write_fixture
from emarig.pipeline import DUMP_KINDS, build_bundle, dump_trajectories, validate_model

with tempfile.TemporaryDirectory(prefix="emarig-demo-") as tmp:
    workdir = Path(tmp)
    config_path = write_fixture(workdir / "corpus", FixtureSpec(n_sweeps=1, frames_per_sweep=400))
    config = dataclasses.replace(load_config(config_path), smoothing=SmoothingSpec(window_frames=1))
    result = compile_model(config)

    # `coils` reads only the sweeps; the other two kinds compile the model
    dumps = {kind: dump_trajectories(kind, config) for kind in DUMP_KINDS}
    for kind, data in dumps.items():
        (workdir / f"{kind}.pos").write_bytes(data)
        print(f"{kind}.pos: {len(data)} bytes")

    layout = PosLayout(channels=result.clip.bone_names, rate_hz=result.clip.rate_hz)
    t = read_pos(dumps["ik_targets"], layout)
    s = read_pos(dumps["seed_vertices"], layout)
    gap = np.linalg.norm(s.positions - t.positions, axis=2)
    print(f"\nseed vertices vs IK targets: max {gap.max():.2e} cm "
          f"(solver tolerance is {config.ik.tolerance:g} cm)")

    bundle = build_bundle(result, workdir / "bundle")
    report = validate_model(read_bundle(bundle.path), config)
    print("\nvalidation against the source EMA:")
    for line in report.lines():
        print(" ", line)

"""The full compile pipeline, bundle export, and COLLADA round trip.

Equivalent to `emarig fixture` + `emarig compile`, but driven through the
library API. The bundle directory holds the COLLADA model, the
segmentation, the layout sidecar, pass-through audio, and a manifest of
SHA-256 hashes that makes any later corruption detectable.
"""

import tempfile
from pathlib import Path

from emarig import (
    build_bundle,
    compile_model,
    load_config,
    read_bundle,
    read_collada,
    verify_bundle,
)
from emarig.fixture import FixtureSpec, write_fixture

with tempfile.TemporaryDirectory(prefix="emarig-demo-") as tmp:
    workdir = Path(tmp)
    config_path = write_fixture(workdir / "corpus", FixtureSpec(n_sweeps=2, frames_per_sweep=400))
    print("synthetic corpus at", workdir / "corpus", "(removed at exit)")

    config = load_config(config_path)
    result = compile_model(config)
    print("\ncompile report:")
    for line in result.report.lines():
        print(" ", line)

    bundle = build_bundle(result, workdir / "bundle")
    print("\nbundle contents:")
    for name, digest in sorted(bundle.entries.items()):
        print(f"  {name:<20} {digest[:16]}...")
    print("verification:", "clean" if not verify_bundle(bundle.path) else "CORRUPT")

    loaded = read_bundle(bundle.path)
    print(f"\nreloaded model: {loaded.mesh.n_vertices} vertices, "
          f"{loaded.armature.n_bones} bones, "
          f"{loaded.clip.n_keys} keys over {loaded.clip.duration:g} s, "
          f"{len(loaded.tier)} segments")

    # The COLLADA document itself round-trips through the subset reader.
    text = (bundle.path / "model.dae").read_text(encoding="utf-8")
    mesh, armature, clip = read_collada(text)
    print("document size:", len(text) // 1024, "KiB;",
          "round trip keys:", clip.n_keys, "bones:", len(armature.bone_names))

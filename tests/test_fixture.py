import hashlib

import numpy as np
import pytest

from emarig import fixture
from emarig.cli import main
from emarig.fixture import FixtureSpec, synthetic_motion

from reference import loop_head_pose, loop_jaw_trajectory

# sha256 of every file `emarig fixture` writes, pinned across changes.
# Measured with Python 3.11.7 and numpy 2.4.6.
_COMMON = {
    "audio/utt_01.wav": "d8aef01fdfbde3ce71bcefd03e0bffb7367228f953c9bfc48b39fd506acf62a1",
    "config.cfg": "221ba5f6a11cf9f095389e76ac74cde8f3a0e702d6af1fee4c7572c3fcabd784",
    "layout.cfg": "9ddc398fa519bcfa4172bb038e535d71a88dae64cf2fd51bc4adaeb229b27644",
    "tongue.dot": "c2923529ca12d7aebceb335fd2118f36cfd3020aec64b676f6d8d6baad45a8a6",
}
GOLDEN_FIXTURE_SHA256 = {
    (): {
        **_COMMON,
        "segmentation.txt": "bf4fc8e0a558f6a1d0b6de6b5c863efff0bb66820b85ca5eac4e4ca01a7cd7ee",
        "sweep_01.pos": "5f719ae4b8e4d7aed72125f208364ec54a6b1c451111d17c8847b859195a2e62",
        "sweep_02.pos": "524326ff12b7304222752835d25833ee210c688ab910fb07e654f9a00fa23320",
    },
    ("--frames", "6000"): {
        **_COMMON,
        "segmentation.txt": "5e2b49278d190b687deba0a4833c228ec9c4c774ffb3c5abbf199c53105087e9",
        "sweep_01.pos": "ea8fc660b055e4a3aeb045fab921f4824b1c7c743fdb542e53035b5aea11d8f3",
        "sweep_02.pos": "34c65279320b537202aca7633c07de375158659b8db33f87b0cf574b19cead03",
    },
}


@pytest.mark.parametrize("flags", sorted(GOLDEN_FIXTURE_SHA256))
def test_golden_fixture_digests(tmp_path, flags):
    out = tmp_path / "f"
    assert main(["fixture", "--out", str(out), *flags]) == 0
    written = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.rglob("*")
        if p.is_file()
    }
    assert written == GOLDEN_FIXTURE_SHA256[flags]


_SWEEP_ARRAYS = ("positions", "phi", "theta", "rms", "extra")


@pytest.mark.parametrize("frames", [1, 7, 300])
@pytest.mark.parametrize("head_motion", [True, False])
def test_synthetic_motion_matches_per_frame_loops(monkeypatch, frames, head_motion):
    spec = FixtureSpec(n_sweeps=2, frames_per_sweep=frames, head_motion=head_motion)
    data = synthetic_motion(spec)
    with monkeypatch.context() as m:
        m.setattr(fixture, "_head_pose", loop_head_pose)
        m.setattr(fixture, "_jaw_trajectory", loop_jaw_trajectory)
        ref = synthetic_motion(spec)

    for got, want in zip(data.sweeps + data.truth_sweeps, ref.sweeps + ref.truth_sweeps):
        assert (got.sweep_id, got.rate_hz, got.channels) == (
            want.sweep_id, want.rate_hz, want.channels
        )
        for name in _SWEEP_ARRAYS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (data.layout, data.roles, data.tier) == (ref.layout, ref.roles, ref.tier)
    assert data.seeds.keys() == ref.seeds.keys()
    assert all(np.array_equal(data.seeds[k], ref.seeds[k]) for k in data.seeds)
    assert np.array_equal(data.device.rotation, ref.device.rotation)
    assert np.array_equal(data.device.translation, ref.device.translation)
    assert data.device.scale == ref.device.scale


"""Frame-blocked computation on two cores: every blocked kernel gives the
bits of its whole-batch version (frozen in reference.py) at sizes on both
sides of the block boundaries, and errors name the frame the whole batch
names."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emarig.blocks import BLOCK_FRAMES, for_blocks
from emarig.errors import DegenerateConfiguration
from emarig.fixture import FixtureSpec, synthetic_motion
from emarig.ik_solver import IkParams, _solved_poses, skin_trajectories, solve_track
from emarig.motion_prep import fill_dropouts, normalize_head
from emarig.rig import GROUP_MANDIBLE
from emarig.rotations import quat_to_mat

import reference

MAX_FRAMES = 3000
SIZES = [1, 63, 64, 1023, 1024, 1025, MAX_FRAMES]
DRAWN = settings(max_examples=8, deadline=None, database=None)


def first_frames(sweep, n):
    """The sweep's first n frames, in arrays of their own."""
    return replace(
        sweep,
        **{name: np.array(getattr(sweep, name)[:n])
           for name in ("positions", "phi", "theta", "rms", "extra")},
    )


@pytest.fixture(scope="module")
def long_sweep():
    data = synthetic_motion(FixtureSpec(n_sweeps=1, frames_per_sweep=MAX_FRAMES))
    return fill_dropouts(data.sweeps[0]), data.roles


def random_quats(rng, shape):
    q = rng.normal(size=shape + (4,))
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


# --- for_blocks ----------------------------------------------------------------

@pytest.mark.parametrize("n", [0, *SIZES])
def test_blocks_cover_each_frame_once(n):
    seen = np.zeros(n, dtype=int)
    starts = []

    def work(rows):
        starts.append(rows.start)
        seen[rows] += 1

    threads = threading.active_count()
    for_blocks(n, work)
    assert (seen == 1).all()
    assert BLOCK_FRAMES % 64 == 0
    assert all(start % BLOCK_FRAMES == 0 for start in starts)
    assert threading.active_count() == threads  # no thread outlives the call


def test_blocks_taken_once_under_fast_switching():
    # the threads switch every microsecond: a block taken twice, or lost,
    # between them shows in the counts
    n_blocks = 400
    done = np.zeros(n_blocks, dtype=int)

    def work(rows):
        done[rows.start // BLOCK_FRAMES] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            for_blocks(n_blocks * BLOCK_FRAMES - 1, work)
    finally:
        sys.setswitchinterval(interval)
    assert (done == 5).all()


def test_earliest_block_error_is_raised():
    # the later block raises at once; the earlier one only after a wait,
    # so the later error is recorded first
    def work(rows):
        if rows.start == 2 * BLOCK_FRAMES:
            raise ValueError("late")
        if rows.start == BLOCK_FRAMES:
            threading.Event().wait(0.05)
            raise ValueError("early")

    with pytest.raises(ValueError, match="early"):
        for_blocks(4 * BLOCK_FRAMES, work)


# --- normalize_head ---------------------------------------------------------------

def assert_same_normalization(sweep, roles, reference_frame=None):
    got = normalize_head(sweep, roles, reference_frame)
    want = reference.whole_batch_normalize_head(sweep, roles, reference_frame)
    for name in ("positions", "phi", "theta"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("n", SIZES)
def test_normalize_head_matches_whole_batch(long_sweep, n):
    sweep, roles = long_sweep
    part = first_frames(sweep, n)
    assert_same_normalization(part, roles)
    ref_idx = [part.channel_index(c) for c in roles.reference]
    assert_same_normalization(part, roles, part.positions[-1, ref_idx, :] + 0.25)


@DRAWN
@given(n=st.integers(1, MAX_FRAMES))
def test_normalize_head_matches_whole_batch_drawn(long_sweep, n):
    sweep, roles = long_sweep
    assert_same_normalization(first_frames(sweep, n), roles)


@pytest.mark.parametrize(
    "bad_frames",
    [(2100,), (2500, 1500), (2999, 200)],
    ids=["later-block", "two-blocks", "first-and-last-block"],
)
def test_degenerate_triplet_names_the_earliest_frame(long_sweep, bad_frames):
    sweep, roles = long_sweep
    left, right, nose = (sweep.channel_index(c) for c in ("REF_L", "REF_R", "REF_N"))
    positions = np.array(sweep.positions)
    for k, frame in enumerate(bad_frames):
        # coincident, then collinear: the nose coil onto the left one, or
        # halfway between the ears
        ears = positions[frame, left], positions[frame, right]
        positions[frame, nose] = ears[0] if k % 2 == 0 else (ears[0] + ears[1]) / 2
    bad = replace(sweep, positions=positions)
    with pytest.raises(DegenerateConfiguration) as want:
        reference.whole_batch_normalize_head(bad, roles)
    with pytest.raises(DegenerateConfiguration) as got:
        normalize_head(bad, roles)
    assert str(got.value) == str(want.value)
    assert f"at frame {min(bad_frames)} " in str(got.value)


# --- the solve_track epilogue -------------------------------------------------------

def drawn_joints(armature, n, seed):
    """(joints (n, K + 1, 3), targets (n, K, 3)) around the rest pose, with
    zero-length, rest-direction and reversed bones among them."""
    rng = np.random.default_rng(seed)
    K = armature.n_bones
    rest = np.concatenate([armature.root_point[None], armature.tails])
    joints = rest + rng.normal(0.0, 0.4, (n, K + 1, 3))
    joints[:, 0] = armature.root_point
    parent_joint = np.where(armature.parents < 0, 0, armature.parents + 1)
    for k, row in zip(range(K), range(0, n, 5)):
        head = joints[row, parent_joint[k]]
        joints[row, k + 1] = head                                  # zero length
        if row + 1 < n:
            head = joints[row + 1, parent_joint[k]]
            joints[row + 1, k + 1] = head + armature.rest_dirs[k]  # rest direction
        if row + 2 < n:
            head = joints[row + 2, parent_joint[k]]
            joints[row + 2, k + 1] = head - armature.rest_dirs[k]  # reversed
    targets = joints[:, 1:] + rng.normal(0.0, 0.1, (n, K, 3))
    return joints, targets


@pytest.mark.parametrize("n", SIZES)
def test_solved_poses_match_whole_batch(compiled_model, n):
    armature = compiled_model[0].armature
    joints, targets = drawn_joints(armature, n, seed=n)
    params = IkParams()
    got = _solved_poses(armature, joints, targets, params)
    want = reference.whole_batch_solved_poses(armature, joints, targets, params)
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


@DRAWN
@given(n=st.integers(1, MAX_FRAMES), seed=st.integers(0, 2**16))
def test_solved_poses_match_whole_batch_drawn(compiled_model, n, seed):
    armature = compiled_model[0].armature
    joints, targets = drawn_joints(armature, n, seed)
    got = _solved_poses(armature, joints, targets, IkParams())
    want = reference.whole_batch_solved_poses(armature, joints, targets, IkParams())
    for name in want:
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("n", [1025, MAX_FRAMES])
def test_solve_track_epilogue_matches_whole_batch(compiled_model, n):
    # a real solve: jittered clip targets, some out of reach
    rig, clip, _ = compiled_model
    rng = np.random.default_rng(n)
    targets = np.resize(clip.targets, (n,) + clip.targets.shape[1:])
    targets = targets + rng.normal(0.0, 0.05, targets.shape)
    targets[::97, -1] += 4.0
    params = IkParams(max_iterations=8)
    track = solve_track(rig.armature, targets, params)
    root = np.broadcast_to(rig.armature.root_point, (n, 1, 3))
    joints = np.concatenate([root, track.tails], axis=1)
    want = reference.whole_batch_solved_poses(rig.armature, joints, targets, params)
    for name in want:
        assert np.array_equal(getattr(track, name), want[name]), name


# --- skin_trajectories ----------------------------------------------------------------

def skinning_inputs(rig, n, seed):
    rng = np.random.default_rng(seed)
    K = rig.armature.n_bones
    mesh = rig.mesh
    mandible = mesh.group_indices(GROUP_MANDIBLE)
    vertices = np.concatenate([
        [rig.seed_map[name] for name in rig.armature.bone_names],
        rng.choice(mesh.n_vertices, 40, replace=False),
        rng.choice(mandible, 5, replace=False),
    ])
    return (
        random_quats(rng, (n, K)),
        rng.normal(0.0, 1.0, (n, K, 3)),
        rng.uniform(0.5, 2.0, (n, K)),
        vertices,
        quat_to_mat(random_quats(rng, (n,))),
        rng.normal(0.0, 1.0, (n, 3)),
    )


def assert_same_skinning(rig, n, seed):
    quats, heads, stretches, vertices, jaw_r, jaw_t = skinning_inputs(rig, n, seed)
    args = (rig.mesh, rig.armature, quats, heads, stretches, vertices)
    for jaw in ((), (jaw_r, jaw_t)):
        got = skin_trajectories(*args, *jaw)
        want = reference.whole_batch_skin_trajectories(*args, *jaw)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", SIZES)
def test_skinning_matches_whole_batch(compiled_model, n):
    assert_same_skinning(compiled_model[0], n, seed=n)


@DRAWN
@given(n=st.integers(1, MAX_FRAMES), seed=st.integers(0, 2**16))
def test_skinning_matches_whole_batch_drawn(compiled_model, n, seed):
    assert_same_skinning(compiled_model[0], n, seed)

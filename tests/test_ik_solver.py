import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emarig.ik_solver import (
    IkParams,
    PoseTrack,
    skin_trajectories,
    solve_track,
    stop_counts,
)
from emarig.rig import SkinnedMesh
from emarig.rotations import axis_angle_matrix, norm, quat_to_mat

import reference
from conftest import make_chain_armature, traced_peak
from test_collada_io import random_mesh, random_tree_armature


def two_link_oracle(l1, l2, target, elbow_hint):
    """Closed-form planar two-link IK: intersect circles of radius l1 about
    the origin and l2 about the target; picks the solution nearest the hint."""
    target = np.asarray(target, dtype=np.float64)
    d = np.linalg.norm(target)
    assert d <= l1 + l2 and d >= abs(l1 - l2), "target out of reach"
    a = (l1 * l1 - l2 * l2 + d * d) / (2 * d)
    h = np.sqrt(max(l1 * l1 - a * a, 0.0))
    base = a * target / d
    perp = np.array([-target[1], target[0], 0.0])
    perp = perp / np.linalg.norm(perp) if np.linalg.norm(perp) else np.array([0.0, 1.0, 0.0])
    c1 = base + h * perp
    c2 = base - h * perp
    hint = np.asarray(elbow_hint, dtype=np.float64)
    return c1 if np.linalg.norm(c1 - hint) <= np.linalg.norm(c2 - hint) else c2


def solve_one(armature, targets, params=IkParams()):
    """Solve a single frame: the (1, bones, 3) target array of one pose."""
    targets = np.asarray(targets, dtype=np.float64)[None]
    return solve_track(armature, targets, params)


class TestSolvePose:
    """Single-frame solves through solve_track."""

    def test_rest_targets_exact(self):
        arm = make_chain_armature([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        pose = solve_one(arm, arm.tails)
        assert pose.iterations[0] == 1
        assert pose.max_residual()[0] == 0.0
        assert np.array_equal(pose.stretches[0], [1.0, 1.0])
        assert np.array_equal(pose.quats[0], [[1, 0, 0, 0], [1, 0, 0, 0]])
        assert np.array_equal(quat_to_mat(pose.quats[0]), np.broadcast_to(np.eye(3), (2, 3, 3)))

    def test_two_link_matches_analytic(self):
        arm = make_chain_armature([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        target = np.array([1.0, 1.0, 0.0])  # distance sqrt(2), 90 degree bend
        pose = solve_one(
            arm,
            [[1.0, 0.0, 0.0], target],
            IkParams(tolerance=1e-9),
        )
        elbow = two_link_oracle(1.0, 1.0, target, elbow_hint=[1.0, 0.0, 0.0])
        assert np.abs(pose.tails[0, 0] - elbow).max() < 1e-6
        assert np.abs(pose.tails[0, 1] - target).max() < 1e-6
        assert pose.max_residual()[0] < 1e-6

    def test_single_bone_stretch(self):
        arm = make_chain_armature([[0, 0, 0], [1, 0, 0]])
        pose = solve_one(arm, [[1.5, 0.0, 0.0]], IkParams(s_max=2.0))
        assert np.allclose(pose.stretches[0], [1.5])
        assert np.allclose(pose.cross_scales[0], [1.0 / np.sqrt(1.5)])
        assert abs(pose.cross_scales[0, 0] - 0.8165) < 1e-4
        assert pose.max_residual()[0] == 0.0

    def test_stretch_clamped_to_bounds(self):
        arm = make_chain_armature([[0, 0, 0], [1, 0, 0]])
        pose = solve_one(arm, [[5.0, 0.0, 0.0]], IkParams(s_max=2.0))
        assert pose.stretches[0, 0] == 2.0
        assert abs(pose.max_residual()[0] - 3.0) < 1e-12

    def test_params_validation(self):
        with pytest.raises(ValueError):
            IkParams(tolerance=0.0)
        with pytest.raises(ValueError):
            IkParams(s_min=1.5)
        with pytest.raises(ValueError):
            IkParams(s_max=0.9)


def branched_armature():
    # Y-shaped tree: root bone then two children off its tail.
    import numpy as np
    from emarig.rig import Armature

    heads = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0]])
    tails = np.array([[1.0, 0, 0], [2.0, 1, 0], [2.0, -1, 0]])
    deltas = tails - heads
    lengths = np.sqrt(np.sum(deltas * deltas, axis=-1))
    return Armature(
        bone_names=("trunk", "left", "right"),
        parents=np.array([-1, 0, 0], dtype=np.int32),
        heads=heads,
        tails=tails,
        rest_lengths=lengths,
        rest_dirs=deltas / lengths[:, None],
        root_point=np.array([0.0, 0.0, 0.0]),
    )


class TestSolveTrack:
    def test_active_rows_match_full_batch_reference(self):
        # Per-frame noise of three sizes, and one branch or the whole tree
        # out of reach: frames converge or stay unreached (some at a fixed
        # point where the residual stops falling but does not rise). In a
        # tug of war the trunk's target lies far out on one side and both
        # branch targets far out on the other; the first iterate then raises
        # the worst residual, so those frames are rolled back.
        arm = branched_armature()
        rng = np.random.default_rng(211)
        F = 400
        sigma = rng.choice([0.01, 0.3, 1.0], F)
        targets = arm.tails[None] + rng.normal(0, 1, (F, 3, 3)) * sigma[:, None, None]
        overreach = rng.random(F) < 0.2
        targets[overreach, 2] = arm.tails[0] + 2.5 * (arm.tails[2] - arm.heads[2])
        targets[rng.random(F) < 0.05] = 4.0 * arm.tails
        tug = rng.random(F) < 0.05
        u = rng.normal(0, 1, (tug.sum(), 1, 3))
        u /= np.linalg.norm(u, axis=2, keepdims=True)
        targets[tug] = u * [[30.0], [-20.0], [-20.0]] + rng.normal(0, 3, (tug.sum(), 3, 3))
        params = IkParams()

        track = solve_track(arm, targets, params)
        ref = reference.full_batch_solve_track(arm, targets, params, IkParams.max_iterations)

        counts = stop_counts(track.stop_reasons)
        assert min(counts.values()) > 0, counts
        for name in PoseTrack.__dataclass_fields__:
            a, b = getattr(track, name), getattr(ref, name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype, name
                assert np.array_equal(a, b), name
            else:
                assert a == b, name

    def test_volume_law_random(self):
        arm = branched_armature()
        rng = np.random.default_rng(99)
        targets = arm.tails[None] + rng.normal(0, 0.5, (500, 3, 3))
        track = solve_track(arm, targets, IkParams())
        law = track.stretches * arm.rest_lengths * track.cross_scales**2
        assert np.abs(law - arm.rest_lengths).max() < 1e-9
        assert (track.stretches >= 0.5 - 1e-12).all()
        assert (track.stretches <= 2.0 + 1e-12).all()

    def test_determinism(self):
        arm = branched_armature()
        rng = np.random.default_rng(103)
        targets = arm.tails[None] + rng.normal(0, 0.4, (20, 3, 3))
        a = solve_track(arm, targets, IkParams())
        b = solve_track(arm, targets, IkParams())
        assert np.array_equal(a.tails, b.tails)
        assert np.array_equal(a.quats, b.quats)
        assert np.array_equal(a.iterations, b.iterations)

    def test_single_frame_matches_batch(self):
        arm = branched_armature()
        rng = np.random.default_rng(107)
        targets = arm.tails[None] + rng.normal(0, 0.4, (10, 3, 3))
        track = solve_track(arm, targets, IkParams())
        for f in range(10):
            pose = solve_track(arm, targets[f : f + 1], IkParams())
            for name in PoseTrack.__dataclass_fields__:
                a, b = getattr(pose, name), getattr(track, name)
                if isinstance(a, np.ndarray):
                    assert np.array_equal(a[0], b[f]), name
                else:
                    assert a == b, name

    def test_reachable_targets_converge(self, compiled_model):
        rig, _, _ = compiled_model
        arm = rig.armature
        rng = np.random.default_rng(109)
        F = 200
        params = IkParams()
        # construct targets by bounded-stretch forward kinematics
        tails = np.empty((F, arm.n_bones, 3))
        for k in range(arm.n_bones):
            p = arm.parents[k]
            head = np.broadcast_to(arm.root_point, (F, 3)) if p < 0 else tails[:, p]
            s = rng.uniform(0.7, 1.6, F)
            d = np.empty((F, 3))
            for f in range(F):
                axis = rng.normal(0, 1, 3)
                R = axis_angle_matrix(axis, rng.uniform(-0.4, 0.4))
                d[f] = R @ arm.rest_dirs[k]
            tails[:, k] = head + (s * arm.rest_lengths[k])[:, None] * d
        track = solve_track(arm, tails, params)
        assert track.max_residual().max() <= params.tolerance


def drawn_targets(armature, n, seed):
    """(n, K, 3) targets; each frame is near the rest pose (at it exactly
    for some), out of reach, a tug of war (the first bone's target far out
    on one side and every other target far out on the other), or a near
    frame with NaN in one target or in all of them."""
    rng = np.random.default_rng(seed)
    K = armature.n_bones
    kind = rng.choice(5, n, p=[0.4, 0.2, 0.2, 0.1, 0.1])
    sigma = rng.choice([0.0, 1e-6, 0.01, 0.3, 1.0], (n, 1, 1))
    targets = armature.tails + rng.normal(0, 1, (n, K, 3)) * sigma
    far = kind == 1
    reach = rng.uniform(2.5, 5.0, (far.sum(), 1, 1))
    targets[far] = armature.root_point + reach * (armature.tails - armature.root_point)
    tug = kind == 2
    u = rng.normal(0, 1, (tug.sum(), 1, 3))
    u /= norm(u)[..., None]
    side = np.full((K, 1), -20.0)
    side[0] = 30.0
    targets[tug] = armature.root_point + u * side + rng.normal(0, 3, (tug.sum(), K, 3))
    one = np.flatnonzero(kind == 3)
    targets[one, rng.integers(0, K, len(one))] = np.nan
    targets[kind == 4] = np.nan
    return targets


IK_PARAMS = st.builds(
    IkParams,
    tolerance=st.sampled_from([1e-9, 1e-3, 0.05]) | st.floats(1e-12, 10.0),
    s_min=st.floats(0.05, 1.0),
    s_max=st.floats(1.0, 4.0),
)


class TestMatchesActiveBatchLoop:
    """`solve_track` gives the bits of the active-batch loop frozen at
    cdab398, run to a budget of `IkParams.max_iterations` passes, its
    iteration counts and stop reasons included."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        rig=st.sampled_from(["branched", "fixture"]),
        n=st.sampled_from([0, 1, 63, 64, 1025]) | st.integers(0, 200),
        seed=st.integers(0, 2**32 - 1),
        params=IK_PARAMS,
    )
    def test_drawn(self, compiled_model, rig, n, seed, params):
        arm = branched_armature() if rig == "branched" else compiled_model[0].armature
        targets = drawn_targets(arm, n, seed)
        got = solve_track(arm, targets, params)
        want = reference.active_batch_solve_track(arm, targets, params, IkParams.max_iterations)
        for name in PoseTrack.__dataclass_fields__:
            a, b = getattr(got, name), getattr(want, name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype, name
                assert np.array_equal(a, b, equal_nan=True), name
                assert a.tobytes() == b.tobytes(), name  # signed zeros and NaN bits too
            else:
                assert a == b, name


def single_influence_mesh(position, bone_count=1):
    vertices = np.asarray([position], dtype=np.float64)
    weight_bones = np.full((1, 4), -1, dtype=np.int32)
    weight_values = np.zeros((1, 4))
    weight_bones[0, 0] = 0
    weight_values[0, 0] = 1.0
    return SkinnedMesh(
        vertices=vertices,
        triangles=np.empty((0, 3), np.int32),
        groups={"tongue": np.array([0])},
        weight_bones=weight_bones,
        weight_values=weight_values,
    )


def skin_mesh(mesh, armature, track, jaw_rotations=None, jaw_translations=None):
    """Every vertex of `mesh` skinned by every frame of `track`: (F, n, 3)."""
    return skin_trajectories(
        mesh,
        armature,
        track.quats,
        track.heads,
        track.stretches,
        np.arange(mesh.n_vertices),
        jaw_rotations,
        jaw_translations,
    )


class TestApplyPose:
    """Whole-mesh, single-frame skinning through skin_trajectories."""

    def test_identity_pose(self, compiled_model):
        rig, _, _ = compiled_model
        pose = solve_one(rig.armature, rig.armature.tails)
        out = skin_mesh(rig.mesh, rig.armature, pose)[0]
        assert np.abs(out - rig.mesh.vertices).max() < 1e-12

    def test_single_influence_translation(self):
        # a pose whose heads and tails are shifted by t with identity
        # rotation translates a single-influence vertex by t
        import dataclasses

        arm = make_chain_armature([[0, 0, 0], [1, 0, 0]])
        mesh = single_influence_mesh([0.3, 0.2, 0.1])
        pose = solve_one(arm, [[1.0, 0.0, 0.0]])
        t = np.array([0.0, 0.5, 0.25])
        shifted = dataclasses.replace(
            pose, heads=pose.heads + t, tails=pose.tails + t
        )
        out = skin_mesh(mesh, arm, shifted)[0]
        assert np.abs(out[0] - (mesh.vertices[0] + t)).max() < 1e-12

    def test_blend_linearity_single_influence(self):
        arm = make_chain_armature([[0, 0, 0], [1, 0, 0]])
        mesh = single_influence_mesh([0.5, 0.3, 0.0])
        p0 = solve_one(arm, [[1.0, 0.0, 0.0]])
        p1 = solve_one(arm, [[0.0, 1.0, 0.0]], IkParams(tolerance=1e-9))
        v0 = skin_mesh(mesh, arm, p0)[0, 0]
        v1 = skin_mesh(mesh, arm, p1)[0, 0]
        # blending the two affines with weights (a, 1-a) lands on the segment
        from emarig.ik_solver import _pose_affines

        A0, b0 = _pose_affines(arm, p0.quats[0], p0.heads[0], p0.stretches[0])
        A1, b1 = _pose_affines(arm, p1.quats[0], p1.heads[0], p1.stretches[0])
        for a in (0.0, 0.25, 0.5, 0.75, 1.0):
            A = a * A0 + (1 - a) * A1
            b = a * b0 + (1 - a) * b1
            blended = A[0] @ mesh.vertices[0] + b[0]
            expect = a * v0 + (1 - a) * v1
            assert np.abs(blended - expect).max() < 1e-12

    def test_seed_vertices_track_targets(self, compiled_model, small_fixture):
        rig, clip, _ = compiled_model
        idx = np.array([rig.seed_map[n] for n in rig.armature.bone_names])
        tracks = skin_trajectories(
            rig.mesh, rig.armature, clip.quats, clip.heads, clip.stretches, idx
        )
        err = np.linalg.norm(tracks - clip.targets, axis=2)
        # tolerance + snapped-seed bound: solver tolerance dominates
        assert err.max() <= 1e-3 + 1e-4

    def test_mandible_moves_rigidly_with_jaw(self, compiled_model):
        rig, clip, _ = compiled_model
        arm = rig.armature
        pose = solve_one(arm, arm.tails)
        R = axis_angle_matrix([0, 1, 0], 0.1)
        t = np.array([0.1, -0.2, 0.05])
        out = skin_mesh(rig.mesh, arm, pose, R[None], t[None])[0]
        mand = rig.mesh.group_indices("mandible")
        expect = rig.mesh.vertices[mand] @ R.T + t
        assert np.abs(out[mand] - expect).max() < 1e-12
        maxi = rig.mesh.group_indices("maxilla")
        assert np.abs(out[maxi] - rig.mesh.vertices[maxi]).max() < 1e-12


def random_pose(rng, n_frames, n_bones):
    """(quats, heads, stretches) of unrelated random poses."""
    quats = rng.normal(size=(n_frames, n_bones, 4))
    quats /= norm(quats)[..., None]
    heads = rng.normal(0.0, 2.0, (n_frames, n_bones, 3))
    return quats, heads, rng.uniform(0.5, 2.0, (n_frames, n_bones))


class TestSkinTrajectories:
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.integers(1, 7), st.integers(1, 300), st.integers(0, 2**32 - 1), st.booleans())
    def test_matches_9f05ce2(self, n_bones, n_frames, seed, with_jaw):
        # Tongue vertices with one to four influences, and unweighted
        # mandible (moved by the jaw when it is given) and maxilla vertices,
        # picked in a random order with repeats.
        rng = np.random.default_rng(seed)
        arm = random_tree_armature(rng, n_bones)
        mesh = random_mesh(rng, n_bones)
        pose = random_pose(rng, n_frames, n_bones)
        jaw = (None, None)
        if with_jaw:
            jaw = (quat_to_mat(random_pose(rng, n_frames, 1)[0][:, 0]), rng.normal(size=(n_frames, 3)))
        idx = rng.integers(0, mesh.n_vertices, int(rng.integers(1, 2 * mesh.n_vertices)))
        got = skin_trajectories(mesh, arm, *pose, idx, *jaw)
        assert np.array_equal(got, reference.skin_trajectories(mesh, arm, *pose, idx, *jaw))

    def test_peak_memory(self):
        # Gathering the four influence slots at once built (F, n, 4, 3, 3)
        # temporaries, 20 times the output on this mesh; one slot at a time
        # needs about 7.
        rng = np.random.default_rng(7)
        arm = random_tree_armature(rng, 7)
        mesh = random_mesh(rng, 7, n_tongue=64)
        pose = random_pose(rng, 2000, 7)
        out, peak = traced_peak(skin_trajectories, mesh, arm, *pose, np.arange(mesh.n_vertices))
        assert peak < 10 * out.nbytes

"""Frozen reference implementations that the tests compare against.

Each function is a verbatim copy of code that a faster or simpler version
replaced, named with the commit it was lifted from. They are not used by
the package; a test asserts that the replacement gives the same bits.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np

from emarig.anim_db import AnimationUnit
from emarig.ema_io import CoilRoles, EmaSweep, angles_from_vector, orientation_vector
from emarig.errors import DegenerateConfiguration, NoValidReferenceFrame, ParseError
from emarig.fixture import _JAW_AXIS_REST, _JAW_FREQ, _JAW_HINGE, _JAW_MAX_OPEN, _JAW_REST
from emarig.ik_solver import (
    STOP_BUDGET,
    STOP_CONVERGED,
    STOP_STALLED,
    IkParams,
    PoseTrack,
    _pose_affines,
    _solved_poses,
    stretch_matrices,
)
from emarig.motion_prep import _DEGENERACY_RTOL
from emarig.rig import Armature, GROUP_MANDIBLE
from emarig import rotations
from emarig.rotations import mat_to_quat, norm
from emarig.unit_synth import SynthesisRequest, slot_costs

# --- emarig.rotations and emarig.fixture at 391fce3 ---------------------------


def axis_angle_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation matrix about a (not necessarily unit) axis."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / norm(axis)
    x, y, z = axis
    c, s = np.cos(angle), np.sin(angle)
    C = 1.0 - c
    return np.array(
        [
            [c + x * x * C, x * y * C - z * s, x * z * C + y * s],
            [y * x * C + z * s, c + y * y * C, y * z * C - x * s],
            [z * x * C - y * s, z * y * C + x * s, c + z * z * C],
        ]
    )


def loop_head_pose(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scripted head motion: (rotations (n,3,3), translations (n,3)),
    identity at t = 0."""
    a1 = 0.06 * np.sin(2 * np.pi * 0.21 * t)
    a2 = 0.04 * np.sin(2 * np.pi * 0.13 * t)
    ax1 = np.array([0.3, 1.0, 0.2]) / np.linalg.norm([0.3, 1.0, 0.2])
    ax2 = np.array([1.0, 0.0, 0.0])
    R = np.empty((len(t), 3, 3))
    for i in range(len(t)):
        R[i] = axis_angle_matrix(ax1, a1[i]) @ axis_angle_matrix(ax2, a2[i])
    c = np.stack(
        [
            0.4 * np.sin(2 * np.pi * 0.17 * t),
            0.3 * np.sin(2 * np.pi * 0.11 * t),
            0.25 * np.sin(2 * np.pi * 0.23 * t),
        ],
        axis=-1,
    )
    return R, c


def loop_jaw_trajectory(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jaw coil positions and axis vectors in the mouth frame."""
    alpha = _JAW_MAX_OPEN * (1.0 - np.cos(2 * np.pi * _JAW_FREQ * t)) / 2.0
    pos = np.empty((len(t), 3))
    axes = np.empty((len(t), 3))
    for i, a in enumerate(alpha):
        R = axis_angle_matrix([0.0, 1.0, 0.0], a)
        pos[i] = R @ (_JAW_REST - _JAW_HINGE) + _JAW_HINGE
        axes[i] = R @ _JAW_AXIS_REST
    return pos, axes


# --- emarig.unit_synth at f93902a ---------------------------------------------


def _plan_total(w_target, w_join, target_costs, join_costs) -> float:
    # Left to right like the DP's sums; sum() compensates rounding from 3.12 on.
    sum_t = sum_j = 0.0
    for t in target_costs:
        sum_t += t
    for j in join_costs:
        sum_j += j
    return float(w_target * sum_t + w_join * sum_j)


def loop_exhaustive_total(db: list[AnimationUnit], request: SynthesisRequest):
    """Minimum (total, source-index sequence) by enumerating every
    assignment over the same slot costs and total as `select_units`, ties
    going to the lexicographically smallest sequence. `select_units` comes
    within `dp_slack` of this total, and picks this sequence unless another
    one is as close."""
    cands, targets, joins = slot_costs(db, request)
    best = None
    for picks in itertools.product(*(range(len(c)) for c in cands)):
        tlist = [t[k] for t, k in zip(targets, picks)]
        jlist = [j[p, k] for j, p, k in zip(joins[1:], picks, picks[1:])]
        seq = tuple(c[k].source_index for c, k in zip(cands, picks))
        key = (_plan_total(request.w_target, request.w_join, tlist, jlist), seq)
        best = key if best is None else min(best, key)
    return best


# --- emarig.rotations, emarig.ik_solver and emarig.collada_io at 9f05ce2 -------


def minimal_rotation(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Shortest-arc rotation matrix taking unit vector(s) u onto v.

    Twist-free by construction (rotation axis is u x v). The antiparallel
    case rotates pi about a deterministic axis perpendicular to u. Exact
    identity is returned when u == v bitwise.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    u, v = np.broadcast_arrays(u, v)
    batch = u.shape[:-1]
    w = np.cross(u, v)
    c = np.sum(u * v, axis=-1)

    R = np.zeros(batch + (3, 3), dtype=np.float64)
    eye = np.eye(3)

    # Regular case: Rodrigues with the stable 1/(1+c) form.
    denom = 1.0 + c
    safe = denom > 1e-12
    d = np.where(safe, denom, 1.0)
    wx, wy, wz = w[..., 0], w[..., 1], w[..., 2]
    K = np.zeros(batch + (3, 3), dtype=np.float64)
    K[..., 0, 1] = -wz
    K[..., 0, 2] = wy
    K[..., 1, 0] = wz
    K[..., 1, 2] = -wx
    K[..., 2, 0] = -wy
    K[..., 2, 1] = wx
    R[:] = eye + K + (K @ K) / d[..., None, None]

    if not np.all(safe):
        # Near-antiparallel: pi rotation about an axis perpendicular to u,
        # chosen from the coordinate axis least aligned with u.
        flip = ~safe
        uf = u[flip]
        pick = np.argmin(np.abs(uf), axis=-1)
        e = np.zeros_like(uf)
        e[np.arange(len(uf)), pick] = 1.0
        axis = np.cross(uf, e)
        axis /= norm(axis)[..., None]
        R[flip] = 2.0 * axis[..., :, None] * axis[..., None, :] - eye

    # Bitwise-equal inputs must give the exact identity (rest-pose fast path).
    same = np.all(u == v, axis=-1)
    if np.any(same):
        R[same] = eye
    return R


def skin_trajectories(
    mesh,
    armature,
    quats: np.ndarray,
    heads: np.ndarray,
    stretches: np.ndarray,
    vertex_indices: np.ndarray,
    jaw_rotations: np.ndarray | None = None,
    jaw_translations: np.ndarray | None = None,
) -> np.ndarray:
    """Deform mesh vertices by linear blend skinning: (F, n, 3).

    Tongue vertices blend their (up to four) bone transforms; mandible
    vertices move rigidly with the jaw transforms when given; everything
    else (maxilla) stays put. A single frame is F = 1, and the whole mesh
    is `vertex_indices = np.arange(mesh.n_vertices)`.
    """
    idx = np.asarray(vertex_indices)
    verts = mesh.vertices[idx]
    bones = mesh.weight_bones[idx]
    weights = mesh.weight_values[idx]
    F = quats.shape[0]

    A, b = _pose_affines(armature, quats, heads, stretches)  # (F, K, 3, 3), (F, K, 3)

    out = np.broadcast_to(verts, (F,) + verts.shape).copy()
    skinned = (bones >= 0).any(axis=1)
    if skinned.any():
        vb = bones[skinned].clip(min=0)                       # (n, 4)
        vw = np.where(bones[skinned] >= 0, weights[skinned], 0.0)
        vv = verts[skinned]
        Ag = A[:, vb]                                         # (F, n, 4, 3, 3)
        bg = b[:, vb]
        moved = np.einsum("fnsij,nj->fnsi", Ag, vv) + bg
        out[:, skinned] = np.einsum("ns,fnsi->fni", vw, moved)

    mand = np.zeros(mesh.n_vertices, dtype=bool)
    mand[mesh.group_indices(GROUP_MANDIBLE)] = True
    jaw_rows = mand[idx] & ~skinned
    if jaw_rows.any() and jaw_rotations is not None:
        moved = np.einsum("fij,nj->fni", jaw_rotations, verts[jaw_rows])
        out[:, jaw_rows] = moved + jaw_translations[:, None, :]
    return out


def compose_bone_channels(locals_: list, armature) -> tuple:
    """`read_collada`'s animation composition: every bone's world matrix
    (n, K, 4, 4) from its local matrices (n, 4, 4) in `locals_`, then the
    clip's (heads, quats, stretches, tails) decomposed from them."""
    n, K = len(locals_[0]), armature.n_bones
    parents, root_point = armature.parents, armature.root_point
    worlds = np.empty((n, K, 4, 4))
    for k in range(K):
        local = locals_[k]
        p = parents[k]
        if p < 0:
            base = np.eye(4)
            base[:3, 3] = root_point
            worlds[:, k] = base @ local
        else:
            worlds[:, k] = worlds[:, parents[k]] @ local
    heads_t = np.ascontiguousarray(worlds[:, :, :3, 3])

    quats, stretches, tails = np.empty((n, K, 4)), np.empty((n, K)), np.empty((n, K, 3))
    offsets = armature.tails - armature.heads
    for k in range(K):
        bone = slice(k, k + 1)  # a bone axis of length 1: the all-bones arithmetic, bit for bit
        dirs = armature.rest_dirs[bone]
        A = np.ascontiguousarray(worlds[:, bone, :3, :3])
        s = norm(np.einsum("fkij,kj->fki", A, dirs))
        R = A @ stretch_matrices(dirs, 1.0 / s, np.sqrt(s))
        quats[:, bone] = mat_to_quat(R)
        stretches[:, bone] = s
        tails[:, bone] = worlds[:, bone, :3, 3] + np.einsum("fkij,kj->fki", A, offsets[bone])
    return heads_t, quats, stretches, tails


# --- emarig.motion_prep and emarig.ik_solver at feb670e ------------------------
# The whole-batch computations that now run in blocks of frames on two cores.


def whole_batch_check_spread(points: np.ndarray, what: str) -> None:
    """Raise unless each (n, 3) point set of `points` (..., n, 3) spans a
    plane; for a stack of sets, the message names the first bad frame."""
    centered = points - points.mean(axis=-2, keepdims=True)
    s = np.linalg.svd(centered, compute_uv=False)
    bad = (s[..., 0] == 0.0) | (s[..., 1] <= _DEGENERACY_RTOL * s[..., 0])
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        at = f" at frame {k}" if bad.ndim else ""
        raise DegenerateConfiguration(
            f"{what} points are collinear or coincident{at} "
            f"(singular values {s.reshape(-1, s.shape[-1])[k]})"
        )


def whole_batch_rigid_align(moving: np.ndarray, fixed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rigid fit (Kabsch) of each frame of `moving` (F, n, 3)
    onto one `fixed` (n, 3); a single point set is the stack with F = 1."""
    moving = np.asarray(moving, dtype=np.float64)
    fixed = np.asarray(fixed, dtype=np.float64)
    if moving.ndim != 3 or moving.shape[1:] != fixed.shape or fixed.shape[1:] != (3,):
        raise ValueError("point sets must have shapes (F, n, 3) and (n, 3)")
    if fixed.shape[0] < 3:
        raise ValueError("need at least 3 point pairs")
    whole_batch_check_spread(moving, "moving")

    F = moving.shape[0]
    cm = moving.mean(axis=1, keepdims=True)
    cf = fixed.mean(axis=0)
    mc = moving - cm
    fc = fixed - cf
    H = np.einsum("fni,nj->fij", mc, fc)
    U, _, Vt = np.linalg.svd(H)
    V = np.swapaxes(Vt, 1, 2)
    d = np.sign(np.linalg.det(V @ np.swapaxes(U, 1, 2)))
    D = np.repeat(np.eye(3)[None, :, :], F, axis=0).copy()
    D[:, 2, 2] = d
    R = V @ D @ np.swapaxes(U, 1, 2)
    t = cf - np.einsum("fij,fj->fi", R, cm[:, 0, :])
    return R, t


def whole_batch_normalize_head(
    sweep: EmaSweep,
    roles: CoilRoles,
    reference_frame: np.ndarray | None = None,
) -> EmaSweep:
    """Remove per-frame head pose using the three reference coils."""
    roles.validate_against(sweep.channels)
    ref_idx = [sweep.channel_index(n) for n in roles.reference]
    ref_pos = sweep.positions[:, ref_idx, :]

    if reference_frame is None:
        valid = sweep.valid_mask()[:, ref_idx].all(axis=1)
        if not valid.any():
            raise NoValidReferenceFrame(
                "no frame has all three reference coils valid"
            )
        fixed = ref_pos[int(np.argmax(valid))]
    else:
        fixed = np.asarray(reference_frame, dtype=np.float64)
        if fixed.shape != (3, 3):
            raise ValueError("reference_frame must be three 3-vectors")

    if not np.isfinite(ref_pos).all():
        raise DegenerateConfiguration(
            "reference coils contain invalid samples; fill dropouts first"
        )
    whole_batch_check_spread(fixed, "reference-frame")

    R, t = whole_batch_rigid_align(ref_pos, fixed)

    positions = np.einsum("fij,fcj->fci", R, sweep.positions) + t[:, None, :]
    axes = orientation_vector(sweep.phi, sweep.theta)
    axes = np.einsum("fij,fcj->fci", R, axes)
    phi, theta = angles_from_vector(axes)
    return sweep.with_arrays(positions=positions, phi=phi, theta=theta)


def whole_batch_solved_poses(
    armature, joints: np.ndarray, targets: np.ndarray, params: IkParams
) -> dict[str, np.ndarray]:
    """The epilogue of `solve_track`: the pose fields of solved joints."""
    parent_joint = np.where(armature.parents < 0, 0, armature.parents + 1)
    heads = joints[:, parent_joint]
    tails = joints[:, 1:]
    deltas = tails - heads
    lengths = norm(deltas)
    stretches = np.clip(lengths / armature.rest_lengths, params.s_min, params.s_max)
    cross_scales = 1.0 / np.sqrt(stretches)
    dirs = deltas / np.where(lengths > 0.0, lengths, 1.0)[..., None]
    R = rotations.minimal_rotation(np.broadcast_to(armature.rest_dirs, dirs.shape), dirs)
    quats = mat_to_quat(R)
    return {
        "quats": quats,
        "heads": heads,
        "stretches": stretches,
        "cross_scales": cross_scales,
        "residuals": norm(tails - targets),
    }


def whole_batch_skin_trajectories(
    mesh,
    armature,
    quats: np.ndarray,
    heads: np.ndarray,
    stretches: np.ndarray,
    vertex_indices: np.ndarray,
    jaw_rotations: np.ndarray | None = None,
    jaw_translations: np.ndarray | None = None,
) -> np.ndarray:
    """Deform mesh vertices by linear blend skinning: (F, n, 3)."""
    idx = np.asarray(vertex_indices)
    verts = mesh.vertices[idx]
    bones = mesh.weight_bones[idx]
    weights = mesh.weight_values[idx]
    F = quats.shape[0]

    A, b = _pose_affines(armature, quats, heads, stretches)  # (F, K, 3, 3), (F, K, 3)

    out = np.broadcast_to(verts, (F,) + verts.shape).copy()
    skinned = (bones >= 0).any(axis=1)
    if skinned.any():
        vb = bones[skinned].clip(min=0)                       # (n, 4)
        vw = np.where(bones[skinned] >= 0, weights[skinned], 0.0)
        vv = verts[skinned]
        # One influence slot at a time, with (F, n, 3, 3) temporaries; the
        # weighted moves are summed from zero in slot order, the order of a
        # contraction over all four slots, so the bits are the same.
        blend = np.zeros((F, len(vv), 3))
        for s in range(vb.shape[1]):
            moved = np.einsum("fnij,nj->fni", A[:, vb[:, s]], vv)
            moved += b[:, vb[:, s]]
            moved *= vw[:, s, None]
            blend += moved
        out[:, skinned] = blend

    mand = np.zeros(mesh.n_vertices, dtype=bool)
    mand[mesh.group_indices(GROUP_MANDIBLE)] = True
    jaw_rows = mand[idx] & ~skinned
    if jaw_rows.any() and jaw_rotations is not None:
        moved = np.einsum("fij,nj->fni", jaw_rotations, verts[jaw_rows])
        out[:, jaw_rows] = moved + jaw_translations[:, None, :]
    return out


# --- emarig.ik_solver at cdab398 -----------------------------------------------
# The active-batch loop that one whole-batch pass replaced, and the
# full-batch loop that tests/test_ik_solver.py has kept as its reference
# since 9914d83 (its `minimal_rotation` is the package's, spelled
# `rotations.minimal_rotation` here because this module freezes an older one).


def active_batch_solve_track(
    armature: Armature,
    targets: np.ndarray,
    params: IkParams = IkParams(),
) -> PoseTrack:
    """Solve every frame of a (frames, bones, 3) target array.

    Each iteration runs one backward/forward pass over the active frames
    only: their targets and joints are gathered into a compact batch, and
    the iterate is accepted where it does not raise the worst per-target
    residual. A frame leaves the batch when that residual drops to the
    tolerance (converged), when an iterate would raise it (stalled: the
    iterate is rolled back), or when the iteration budget runs out, and
    its reason is recorded in `stop_reasons`. Frames are independent and
    the per-frame arithmetic does not depend on which other frames share
    the batch, so the result is the same as iterating the whole batch. A
    frame is never left in a worse state than a previous iterate, so the
    reported residual is non-increasing in the iteration count.
    """
    targets = np.asarray(targets, dtype=np.float64)
    F, K = targets.shape[0], armature.n_bones
    if targets.shape != (F, K, 3):
        raise ValueError("targets must have shape (frames, n_bones, 3)")

    # Branch proposals are averaged, weighted by the number of bones (and so
    # of targets) in each child's subtree.
    children = [armature.children_of(k) for k in range(K)]
    subtree_w = np.zeros(K)
    for k in reversed(range(K)):
        subtree_w[k] = 1.0 + sum(subtree_w[c] for c in children[k])

    lo = params.s_min * armature.rest_lengths
    hi = params.s_max * armature.rest_lengths
    parent_joint = np.where(armature.parents < 0, 0, armature.parents + 1)

    # Joint 0 is the anchored root point; joint k+1 is the tail of bone k.
    joints = np.empty((F, K + 1, 3))
    joints[:, 0] = armature.root_point
    joints[:, 1:] = armature.tails

    def residual_of(j, t):
        return norm(j[:, 1:] - t).max(axis=1)

    def pull(anchor, toward, lo_k, hi_k, fallback_dir):
        """Point at clamped distance from `anchor` in the direction of `toward`.

        Returns `toward` bitwise when its distance is already within bounds
        (this keeps already-solved configurations exactly fixed).
        """
        d = toward - anchor
        dist = norm(d)
        clamped = np.clip(dist, lo_k, hi_k)
        safe = np.where(dist > 0.0, dist, 1.0)
        scaled = anchor + d * (clamped / safe)[..., None]
        scaled = np.where(
            (dist > 0.0)[..., None], scaled, anchor + fallback_dir * clamped[..., None]
        )
        return np.where((clamped == dist)[..., None], toward, scaled)

    def iterate(t, j):
        """One backward/forward pass over a batch of frames."""
        # Backward pass: each bone proposes a tail position for itself: its
        # own target, averaged with that target projected into the reach
        # annulus of every child's proposal.
        n = len(t)
        prop = np.empty((n, K, 3))
        for k in reversed(range(K)):
            contribs = [t[:, k]]
            weights = [1.0]
            for c in children[k]:
                p = pull(prop[:, c], t[:, k], lo[c], hi[c], -armature.rest_dirs[c])
                contribs.append(p)
                weights.append(subtree_w[c])
            if len(contribs) == 1:
                prop[:, k] = contribs[0]
            else:
                stacked = np.stack(contribs, axis=1)
                wv = np.asarray(weights, dtype=np.float64)
                avg = np.einsum("m,fmi->fi", wv, stacked) / wv.sum()
                same = (stacked == stacked[:, :1]).all(axis=(1, 2))
                prop[:, k] = np.where(same[:, None], stacked[:, 0], avg)

        # Forward pass: re-anchor at the root and restore bone lengths
        # (within the stretch bounds) down the tree.
        new_j = np.empty_like(j)
        new_j[:, 0] = armature.root_point
        for k in range(K):
            head = new_j[:, parent_joint[k]]
            new_j[:, k + 1] = pull(head, prop[:, k], lo[k], hi[k], armature.rest_dirs[k])
        return new_j

    iterations = np.zeros(F, dtype=np.int64)
    stop_reasons = np.full(F, STOP_BUDGET, dtype=np.int8)

    # The active batch: frame indices with their gathered targets, joints
    # and best residuals. Leaving frames are scattered back into `joints`.
    rows = np.arange(F)
    t, j = targets, joints.copy()
    best = residual_of(j, t)
    for it in range(1, params.max_iterations + 1):
        if not len(rows):
            break
        new_j = iterate(t, j)
        res = residual_of(new_j, t)
        accept = res <= best
        j[accept] = new_j[accept]
        best[accept] = res[accept]
        iterations[rows] = it

        converged = best <= params.tolerance
        leave = converged | ~accept
        if leave.any():
            out = rows[leave]
            joints[out] = j[leave]
            stop_reasons[out] = np.where(converged[leave], STOP_CONVERGED, STOP_STALLED)
            keep = ~leave
            rows, t, j, best = rows[keep], t[keep], j[keep], best[keep]
    joints[rows] = j

    return PoseTrack(
        bone_names=armature.bone_names,
        tails=joints[:, 1:],
        iterations=iterations,
        stop_reasons=stop_reasons,
        **_solved_poses(armature, joints, targets, params),
    )


def full_batch_solve_track(armature, targets, params):
    """Reference solver: every iteration runs the passes over all frames and
    masks acceptance afterwards. Stop reasons are derived after the loop from
    the final residual and whether the frame ever rolled an iterate back."""
    F, K = targets.shape[0], armature.n_bones
    children = [armature.children_of(k) for k in range(K)]
    subtree_w = np.zeros(K)
    for k in reversed(range(K)):
        subtree_w[k] = 1.0 + sum(subtree_w[c] for c in children[k])
    lo = params.s_min * armature.rest_lengths
    hi = params.s_max * armature.rest_lengths
    parent_joint = np.where(armature.parents < 0, 0, armature.parents + 1)

    joints = np.empty((F, K + 1, 3))
    joints[:, 0] = armature.root_point
    joints[:, 1:] = armature.tails

    def residual_of(j):
        return norm(j[:, 1:] - targets).max(axis=1)

    def pull(anchor, toward, lo_k, hi_k, fallback_dir):
        d = toward - anchor
        dist = norm(d)
        clamped = np.clip(dist, lo_k, hi_k)
        safe = np.where(dist > 0.0, dist, 1.0)
        scaled = anchor + d * (clamped / safe)[..., None]
        scaled = np.where(
            (dist > 0.0)[..., None], scaled, anchor + fallback_dir * clamped[..., None]
        )
        return np.where((clamped == dist)[..., None], toward, scaled)

    best_res = residual_of(joints)
    iterations = np.zeros(F, dtype=np.int64)
    active = np.ones(F, dtype=bool)
    rolled_back = np.zeros(F, dtype=bool)
    for it in range(1, params.max_iterations + 1):
        if not active.any():
            break
        prop = np.empty((F, K, 3))
        for k in reversed(range(K)):
            contribs, weights = [targets[:, k]], [1.0]
            for c in children[k]:
                p = pull(prop[:, c], targets[:, k], lo[c], hi[c], -armature.rest_dirs[c])
                contribs.append(p)
                weights.append(subtree_w[c])
            if len(contribs) == 1:
                prop[:, k] = contribs[0]
            else:
                stacked = np.stack(contribs, axis=1)
                wv = np.asarray(weights, dtype=np.float64)
                avg = np.einsum("m,fmi->fi", wv, stacked) / wv.sum()
                same = (stacked == stacked[:, :1]).all(axis=(1, 2))
                prop[:, k] = np.where(same[:, None], stacked[:, 0], avg)
        new_joints = np.empty_like(joints)
        new_joints[:, 0] = armature.root_point
        for k in range(K):
            head = new_joints[:, parent_joint[k]]
            new_joints[:, k + 1] = pull(head, prop[:, k], lo[k], hi[k], armature.rest_dirs[k])
        res = residual_of(new_joints)
        accept = active & (res <= best_res)
        reject = active & ~accept
        joints[accept] = new_joints[accept]
        best_res[accept] = res[accept]
        iterations[active] = it
        rolled_back |= reject
        active &= ~reject
        active &= best_res > params.tolerance

    stop_reasons = np.where(
        best_res <= params.tolerance,
        STOP_CONVERGED,
        np.where(rolled_back, STOP_STALLED, STOP_BUDGET),
    ).astype(np.int8)
    heads = joints[:, parent_joint]
    tails = joints[:, 1:]
    deltas = tails - heads
    lengths = norm(deltas)
    stretches = np.clip(lengths / armature.rest_lengths, params.s_min, params.s_max)
    dirs = deltas / np.where(lengths > 0.0, lengths, 1.0)[..., None]
    R = rotations.minimal_rotation(np.broadcast_to(armature.rest_dirs, dirs.shape), dirs)
    return PoseTrack(
        bone_names=armature.bone_names,
        quats=mat_to_quat(R),
        heads=heads,
        tails=tails,
        stretches=stretches,
        cross_scales=1.0 / np.sqrt(stretches),
        residuals=norm(tails - targets),
        iterations=iterations,
        stop_reasons=stop_reasons,
    )


# --- emarig.collada_io at 94aef48 -----------------------------------------------
# The float branch of `_numbers`, which decoded with one `np.fromstring` call
# before `np.loadtxt` in slices replaced it.


def fromstring_floats(text: str | None) -> np.ndarray:
    """The numbers of `text`, separated by ASCII whitespace; they must be finite."""
    if not text or text.isspace():
        return np.empty(0, np.float64)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(text, sep=" ")
    except (ValueError, DeprecationWarning):
        raise ParseError(f"bad {np.dtype(np.float64)} in array text", module="export") from None
    if not np.isfinite(values).all():
        raise ParseError("non-finite number in array text", module="export")
    return values

"""Frozen reference implementations that the tests compare against.

Each function is a verbatim copy of code that a faster or simpler version
replaced, named with the commit it was lifted from. They are not used by
the package; a test asserts that the replacement gives the same bits.
"""

from __future__ import annotations

import itertools

import numpy as np

from emarig.anim_db import AnimationUnit
from emarig.ema_io import CoilRoles, EmaSweep, angles_from_vector, orientation_vector
from emarig.errors import DegenerateConfiguration, NoValidReferenceFrame
from emarig.fixture import _JAW_AXIS_REST, _JAW_FREQ, _JAW_HINGE, _JAW_MAX_OPEN, _JAW_REST
from emarig.ik_solver import IkParams, _pose_affines, stretch_matrices
from emarig.motion_prep import _DEGENERACY_RTOL
from emarig.rig import GROUP_MANDIBLE
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

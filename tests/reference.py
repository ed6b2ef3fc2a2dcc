"""Frozen reference implementations that the tests compare against.

Each function is a verbatim copy of code that a faster or simpler version
replaced, or that the package no longer ships, named with the commit it
was lifted from. They are not used by the package; a test asserts that
the replacement gives the same bits, or that it stays within a stated
bound of the copy.
"""

from __future__ import annotations

import io
import itertools
import re
import warnings
import xml.etree.ElementTree as ET
import zipfile
from pathlib import Path
from types import SimpleNamespace
from xml.etree.ElementTree import Element, SubElement

import numpy as np

from emarig.anim_db import AnimationClip, AnimationUnit, _tail_velocities
from emarig.bundle import (
    AUDIO_DIR,
    LAYOUT_NAME,
    MANIFEST_NAME,
    MODEL_NAME,
    SEGMENTATION_NAME,
    _ZIP_EPOCH,
    _format_manifest,
    _sha256,
    write_new_file,
)
from emarig.ema_io import CoilRoles, EmaSweep, angles_from_vector, orientation_vector
from emarig.collada_io import (
    NS,
    PROFILE,
    _TRANSFORM,
    _affine_rows,
    _local_rows,
    _parse_xml,
    _read_tree,
    _sanitize,
    _take_text,
)
from emarig.errors import (
    DegenerateConfiguration,
    InconsistentRig,
    NoCandidate,
    NonMonotonic,
    NoValidReferenceFrame,
    ParseError,
    UnsupportedFeature,
)
from emarig.fixture import _JAW_AXIS_REST, _JAW_FREQ, _JAW_HINGE, _JAW_MAX_OPEN, _JAW_REST
from emarig.ik_solver import (
    STOP_CONVERGED,
    STOP_ROLLED_BACK,
    STOP_UNREACHED,
    IkParams,
    PoseTrack,
    _pose_affines,
    _solved_poses,
    stretch_matrices,
)
from emarig.motion_prep import _DEGENERACY_RTOL
from emarig.number_text import _finite, _fmt_array, _numbers
from emarig.rig import Armature, GROUP_MANDIBLE, GROUP_MAXILLA, SkinnedMesh
from emarig import rotations
from emarig.rotations import mat_to_quat, norm, quat_to_mat, slerp
from emarig.unit_synth import SynthesisPlan, SynthesisRequest, slot_costs, target_cost

# --- emarig.unit_synth at addaa15 ---------------------------------------------
# The tuple-state DP that `select_units` replaced, verbatim but with the
# per-pair join formula it called then; its `_plan_total` is below.


def scalar_join_cost(left, right, velocity_weight):
    """The per-pair join formula that `join_costs` replaced."""
    if right.source_index == left.source_index + 1:
        return 0.0
    dp = right.first_positions - left.last_positions
    dv = right.first_velocities - left.last_velocities
    return float(
        np.sqrt(np.sum(dp * dp)) + velocity_weight * np.sqrt(np.sum(dv * dv))
    )


def tuple_state_select_units(
    db: list[AnimationUnit], request: SynthesisRequest
) -> SynthesisPlan:
    """The tuple-state DP that `select_units` replaced, kept as its reference
    (verbatim, but with the per-pair join formula it called then).

    Minimum-cost unit sequence via dynamic programming over slots.

    Minimizes w_target * sum(target costs) + w_join * sum(join costs) over
    every candidate assignment; exact ties are broken by the
    lexicographically smallest source-index sequence, which makes the
    selection deterministic.
    """
    candidates: list[list[AnimationUnit]] = []
    for label, _ in request.items:
        cands = [u for u in db if u.label == label]
        if not cands:
            raise NoCandidate(label)
        cands.sort(key=lambda u: u.source_index)
        candidates.append(cands)

    wt, wj = request.w_target, request.w_join
    tcosts = [
        [target_cost(u, dur) for u in cands]
        for cands, (_, dur) in zip(candidates, request.items)
    ]

    # State per candidate: (target-cost list, join-cost list, index sequence).
    # Totals are recomputed from the lists with one fixed expression so the
    # comparison (and the reported plan total) is reproducible exactly.
    states = [
        ((tcosts[0][c],), (), (u.source_index,)) for c, u in enumerate(candidates[0])
    ]

    for i in range(1, len(candidates)):
        new_states = []
        for c, unit in enumerate(candidates[i]):
            best = None
            best_key = None
            for p, prev_unit in enumerate(candidates[i - 1]):
                st, sj, seq = states[p]
                cand = (
                    st + (tcosts[i][c],),
                    sj + (scalar_join_cost(prev_unit, unit, request.velocity_weight),),
                    seq + (unit.source_index,),
                )
                key = (_plan_total(wt, wj, cand[0], cand[1]), cand[2])
                if best_key is None or key < best_key:
                    best, best_key = cand, key
            new_states.append(best)
        states = new_states

    final = min(
        range(len(states)),
        key=lambda c: (_plan_total(wt, wj, states[c][0], states[c][1]), states[c][2]),
    )
    tlist, jlist, seq = states[final]

    by_index = {u.source_index: u for cands in candidates for u in cands}
    units = tuple(by_index[s] for s in seq)
    requested = tuple(d for _, d in request.items)
    warps = tuple(d / u.duration for u, d in zip(units, requested))
    return SynthesisPlan(
        units=units,
        warp_factors=warps,
        requested=requested,
        target_costs=tlist,
        join_costs=jlist,
        total=_plan_total(wt, wj, tlist, jlist),
        blend_window=request.blend_window,
    )


# --- emarig.collada_io at 4b8e244 ---------------------------------------------
# The per-vertex skin-weight loops that the whole-array codec replaced.


_GROUP_ORDER = ("tongue", "mandible", "maxilla")


def loop_encode_weights(mesh, K):
    """(vcounts, pairs, weights) as lists, one vertex at a time."""
    vertex_group = np.full(mesh.n_vertices, -1, dtype=np.int64)
    for gi, gname in enumerate(_GROUP_ORDER):
        vertex_group[mesh.group_indices(gname)] = gi
    weights: list[float] = [1.0]
    vcounts: list[int] = []
    pairs: list[int] = []
    for v in range(mesh.n_vertices):
        bones = mesh.weight_bones[v]
        active = bones >= 0
        if active.any():
            idxs = bones[active]
            vals = mesh.weight_values[v][active]
            vcounts.append(len(idxs))
            for bi, wv in zip(idxs, vals):
                pairs.extend([int(bi), len(weights)])
                weights.append(float(wv))
        elif vertex_group[v] == 1:
            vcounts.append(1)
            pairs.extend([K, 0])
        elif vertex_group[v] == 2:
            vcounts.append(1)
            pairs.extend([K + 1, 0])
        else:
            vcounts.append(0)
    return vcounts, pairs, weights


def loop_decode_weights(vcount, v, joint_names, bone_names, weights_arr, n_vertices):
    """(weight_bones, weight_values), one vertex at a time."""
    joint_to_bone = {}
    for j, name in enumerate(joint_names):
        if name in bone_names:
            joint_to_bone[j] = bone_names.index(name)
    weight_bones = np.full((n_vertices, 4), -1, dtype=np.int32)
    weight_values = np.zeros((n_vertices, 4))
    cursor = 0
    for vi, cnt in enumerate(vcount):
        slot = 0
        for _ in range(cnt):
            j, wi = int(v[cursor]), int(v[cursor + 1])
            cursor += 2
            if j in joint_to_bone:
                if slot >= 4:
                    raise UnsupportedFeature("more than 4 bone influences per vertex")
                weight_bones[vi, slot] = joint_to_bone[j]
                weight_values[vi, slot] = weights_arr[wi]
                slot += 1
        if slot:
            weight_values[vi, :slot] /= weight_values[vi, :slot].sum()
    return weight_bones, weight_values


# --- emarig.anim_db and emarig.unit_synth at 366d617 --------------------------
# The scalar `AnimationClip.sample`, as a function of the clip, and the
# per-row `render_plan` that sampled with it, which the array sampler and
# the array render replaced.


def scalar_sample(self, t: float):
    """The scalar `AnimationClip.sample` that the array sampler replaced,
    kept verbatim (as a function of the clip) as its reference.

    Channel values at time t: (quats, heads, stretches, tails, jaw_q, jaw_t).

    Exact key times return the stored rows bit-for-bit; in between,
    positions and stretches interpolate linearly and rotations
    spherically. Times outside the key range clamp to the end keys.
    """
    times = self.times
    k = int(np.searchsorted(times, t))
    if k < len(times) and times[k] == t:
        return (
            self.quats[k],
            self.heads[k],
            self.stretches[k],
            self.tails[k],
            self.jaw_quats[k],
            self.jaw_translations[k],
        )
    if k == 0:
        k = 1
    if k >= len(times):
        k = len(times) - 1
    t0, t1 = times[k - 1], times[k]
    a = float(np.clip((t - t0) / (t1 - t0), 0.0, 1.0))
    lerp = lambda x: (1.0 - a) * x[k - 1] + a * x[k]
    return (
        slerp(self.quats[k - 1], self.quats[k], a),
        lerp(self.heads),
        lerp(self.stretches),
        lerp(self.tails),
        slerp(self.jaw_quats[k - 1], self.jaw_quats[k], a),
        lerp(self.jaw_translations),
    )


def per_row_render_plan(plan: SynthesisPlan, clip: AnimationClip) -> AnimationClip:
    """The per-row `render_plan` that the array render replaced, kept as its
    reference (verbatim, but sampling with the scalar `scalar_sample`).

    Concatenate the planned units into a new clip.

    Each unit's keys are linearly time-warped by its warp factor; at every
    junction the two neighbors are cross-faded over
    min(blend window, half of either unit's output duration), with linear
    interpolation of positions/stretch and spherical interpolation of
    rotations. Keys that fall outside a unit's span evaluate to its held
    boundary pose.
    """
    n_units = len(plan.units)
    offs = [0.0]
    for d in plan.requested:
        offs.append(offs[-1] + d)

    fades = []
    for j in range(n_units - 1):
        w = min(plan.blend_window, plan.requested[j] / 2.0, plan.requested[j + 1] / 2.0)
        fades.append(w)

    # Output rows: (time, owning unit, exact source time when on a native key).
    rows: list[tuple[float, int, float]] = []
    for i, (unit, warp) in enumerate(zip(plan.units, plan.warp_factors)):
        inner = np.flatnonzero((clip.times > unit.start) & (clip.times < unit.end))
        rows.append((offs[i], i, unit.start))
        for k in inner:
            t_out = offs[i] + (clip.times[k] - unit.start) * warp
            if offs[i] < t_out < offs[i + 1]:
                rows.append((float(t_out), i, float(clip.times[k])))
        rows.append((offs[i + 1], i, unit.end))

    rows.sort(key=lambda r: r[0])
    dedup: list[tuple[float, int, float]] = []
    for r in rows:
        if dedup and r[0] <= dedup[-1][0]:
            continue
        dedup.append(r)

    def eval_unit(i: int, t_out: float, tau: float | None = None):
        unit, warp = plan.units[i], plan.warp_factors[i]
        if tau is None:
            tau = unit.start + (t_out - offs[i]) / warp
            tau = min(max(tau, unit.start), unit.end)
        return scalar_sample(clip, tau)

    n = len(dedup)
    B = len(clip.bone_names)
    times = np.empty(n)
    quats = np.empty((n, B, 4))
    heads = np.empty((n, B, 3))
    stretches = np.empty((n, B))
    tails = np.empty((n, B, 3))
    jaw_q = np.empty((n, 4))
    jaw_t = np.empty((n, 3))

    for r, (t_out, i, tau) in enumerate(dedup):
        junction = None
        if i > 0 and fades[i - 1] > 0 and t_out <= offs[i] + fades[i - 1] / 2.0:
            junction = i - 1
        elif i < n_units - 1 and fades[i] > 0 and t_out >= offs[i + 1] - fades[i] / 2.0:
            junction = i

        if junction is None:
            vals = eval_unit(i, t_out, tau)
        else:
            w = fades[junction]
            a = float(np.clip((t_out - (offs[junction + 1] - w / 2.0)) / w, 0.0, 1.0))
            left = eval_unit(junction, t_out, tau if i == junction else None)
            right = eval_unit(junction + 1, t_out, tau if i == junction + 1 else None)
            vals = (
                slerp(left[0], right[0], a),
                (1 - a) * left[1] + a * right[1],
                (1 - a) * left[2] + a * right[2],
                (1 - a) * left[3] + a * right[3],
                slerp(left[4], right[4], a),
                (1 - a) * left[5] + a * right[5],
            )
        times[r] = t_out
        quats[r], heads[r], stretches[r], tails[r], jaw_q[r], jaw_t[r] = vals

    return AnimationClip(
        rate_hz=clip.rate_hz,
        bone_names=clip.bone_names,
        times=times,
        quats=quats,
        heads=heads,
        stretches=stretches,
        tails=tails,
        jaw_quats=jaw_q,
        jaw_translations=jaw_t,
        duration=offs[-1],
    )


# --- emarig.motion_prep at bb6e0b5 --------------------------------------------
# The two Kabsch fits that the batched `rigid_align` replaced. Verbatim
# but for two names: the single-frame fit returns (R, t) where it returned
# a RigidTransform, and its spread check is the old 2-D one.
# `_DEGENERACY_RTOL` is the package's, whose value (1e-9) has not changed.


def old_check_spread(points: np.ndarray, what: str) -> None:
    centered = points - points.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    if s[0] == 0.0 or s[1] <= _DEGENERACY_RTOL * s[0]:
        raise DegenerateConfiguration(
            f"{what} points are collinear or coincident (singular values {s})"
        )


def old_rigid_align(moving: np.ndarray, fixed: np.ndarray):
    """Least-squares rigid transform mapping `moving` onto `fixed` (Kabsch).

    Requires >= 3 non-collinear point pairs; reflections are never returned.
    """
    moving = np.asarray(moving, dtype=np.float64)
    fixed = np.asarray(fixed, dtype=np.float64)
    if moving.shape != fixed.shape or moving.ndim != 2 or moving.shape[1] != 3:
        raise ValueError("point sets must both have shape (n, 3)")
    if moving.shape[0] < 3:
        raise ValueError("need at least 3 point pairs")
    old_check_spread(moving, "moving")
    old_check_spread(fixed, "fixed")

    cm = moving.mean(axis=0)
    cf = fixed.mean(axis=0)
    H = (moving - cm).T @ (fixed - cf)
    U, _, Vt = np.linalg.svd(H)
    V = Vt.T
    d = np.sign(np.linalg.det(V @ U.T))
    R = V @ np.diag([1.0, 1.0, d]) @ U.T
    t = cf - R @ cm
    return R, t


def old_batched_rigid_align(moving: np.ndarray, fixed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame Kabsch: moving (F, n, 3) onto a single fixed (n, 3).

    Returns (rotations (F, 3, 3), translations (F, 3)). Raises on any
    degenerate frame.
    """
    F = moving.shape[0]
    cm = moving.mean(axis=1, keepdims=True)
    cf = fixed.mean(axis=0)
    mc = moving - cm
    fc = fixed - cf
    H = np.einsum("fni,nj->fij", mc, fc)
    U, S, Vt = np.linalg.svd(H)

    sm = np.linalg.svd(mc, compute_uv=False)
    bad = (sm[:, 0] == 0.0) | (sm[:, 1] <= _DEGENERACY_RTOL * sm[:, 0])
    if np.any(bad):
        frame = int(np.argmax(bad))
        raise DegenerateConfiguration(
            f"reference coils are collinear or coincident at frame {frame}"
        )

    V = np.swapaxes(Vt, 1, 2)
    d = np.sign(np.linalg.det(V @ np.swapaxes(U, 1, 2)))
    D = np.repeat(np.eye(3)[None, :, :], F, axis=0).copy()
    D[:, 2, 2] = d
    R = V @ D @ np.swapaxes(U, 1, 2)
    t = cf - np.einsum("fij,fj->fi", R, cm[:, 0, :])
    return R, t


# --- emarig.collada_io at fd6f737 ---------------------------------------------
# The per-float number printer (with `_fmt` inlined) and the 4x4 matrix
# packing that the whole-array codec replaced.


def loop_fmt_array(values):
    return " ".join(format(float(v), ".9g") for v in np.asarray(values).ravel())


def loop_affine_to_matrix16(A, t):
    M = np.zeros(A.shape[:-2] + (4, 4))
    M[..., :3, :3] = A
    M[..., :3, 3] = t
    M[..., 3, 3] = 1.0
    return M.reshape(A.shape[:-2] + (16,))


# --- emarig.anim_db, emarig.rotations and emarig.collada_io at 9f01378 --------
# The per-segment unit DB loop (with `AnimationClip.frame_index` as a
# function), the four-branch `mat_to_quat`, and the reader's bone-channel
# math on the strided 3x3 view of the world matrices.


def scalar_frame_index(clip, t: float) -> int:
    """Nearest dense-bake frame for a time on this clip's grid."""
    return int(np.clip(round(t * clip.rate_hz), 0, clip.n_keys - 1))


def loop_build_unit_db(clip, tier):
    vel = _tail_velocities(clip)
    units = []
    for i, seg in enumerate(tier):
        a = scalar_frame_index(clip, seg.start)
        b = scalar_frame_index(clip, seg.end)
        units.append(
            AnimationUnit(
                label=seg.label,
                start=seg.start,
                end=seg.end,
                source_index=i,
                first_positions=clip.tails[a].copy(),
                first_velocities=vel[a].copy(),
                last_positions=clip.tails[b].copy(),
                last_velocities=vel[b].copy(),
            )
        )
    return units


def four_branch_mat_to_quat(R):
    """The `mat_to_quat` that evaluated all four Shepperd branches on every
    matrix and then picked one, kept verbatim as the reference."""
    R = np.asarray(R, dtype=np.float64)
    batch = R.shape[:-2]
    q = np.empty(batch + (4,), dtype=np.float64)
    m00, m11, m22 = R[..., 0, 0], R[..., 1, 1], R[..., 2, 2]
    trace = m00 + m11 + m22

    # Shepperd's method, branch chosen per element for numerical safety.
    q0 = np.empty(batch + (4,))
    s = np.sqrt(np.maximum(trace + 1.0, 0.0)) * 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        q0[..., 0] = 0.25 * s
        q0[..., 1] = (R[..., 2, 1] - R[..., 1, 2]) / s
        q0[..., 2] = (R[..., 0, 2] - R[..., 2, 0]) / s
        q0[..., 3] = (R[..., 1, 0] - R[..., 0, 1]) / s

        q1 = np.empty(batch + (4,))
        s1 = np.sqrt(np.maximum(1.0 + m00 - m11 - m22, 0.0)) * 2.0
        q1[..., 0] = (R[..., 2, 1] - R[..., 1, 2]) / s1
        q1[..., 1] = 0.25 * s1
        q1[..., 2] = (R[..., 0, 1] + R[..., 1, 0]) / s1
        q1[..., 3] = (R[..., 0, 2] + R[..., 2, 0]) / s1

        q2 = np.empty(batch + (4,))
        s2 = np.sqrt(np.maximum(1.0 - m00 + m11 - m22, 0.0)) * 2.0
        q2[..., 0] = (R[..., 0, 2] - R[..., 2, 0]) / s2
        q2[..., 1] = (R[..., 0, 1] + R[..., 1, 0]) / s2
        q2[..., 2] = 0.25 * s2
        q2[..., 3] = (R[..., 1, 2] + R[..., 2, 1]) / s2

        q3 = np.empty(batch + (4,))
        s3 = np.sqrt(np.maximum(1.0 - m00 - m11 + m22, 0.0)) * 2.0
        q3[..., 0] = (R[..., 1, 0] - R[..., 0, 1]) / s3
        q3[..., 1] = (R[..., 0, 2] + R[..., 2, 0]) / s3
        q3[..., 2] = (R[..., 1, 2] + R[..., 2, 1]) / s3
        q3[..., 3] = 0.25 * s3

    choice = np.argmax(
        np.stack([trace, m00, m11, m22], axis=-1), axis=-1
    )
    stacked = np.stack([q0, q1, q2, q3], axis=-2)
    q = np.take_along_axis(stacked, choice[..., None, None], axis=-2)[..., 0, :]
    q /= norm(q)[..., None]
    neg = q[..., 0] < 0
    q[neg] = -q[neg]
    return q


def strided_bone_channels(worlds, armature):
    """The reader's bone-channel math as it ran on the strided 3x3 view of
    the world matrices, kept verbatim as the reference."""
    heads_t = worlds[:, :, :3, 3]
    A = worlds[:, :, :3, :3]
    stretches = norm(np.einsum("fkij,kj->fki", A, armature.rest_dirs))
    R = A @ stretch_matrices(armature.rest_dirs, 1.0 / stretches, np.sqrt(stretches))
    quats = four_branch_mat_to_quat(R)
    tails_t = heads_t + np.einsum(
        "fkij,kj->fki", A, armature.tails - armature.heads
    )
    return quats, stretches, tails_t


# --- emarig.collada_io at 09e8b7f ---------------------------------------------
# The node matrices of every bone at once, before the writer computed
# them bone by bone.


def batched_local_rows(armature, clip):
    """The node matrices (n_keys, K, 3, 4) as `write_collada` computed them
    for all bones at once up to 09e8b7f, kept verbatim as the reference."""
    K = armature.n_bones
    A, b = _pose_affines(armature, clip.quats, clip.heads, clip.stretches)
    locals_ = np.empty((clip.n_keys, K, 3, 4))
    S_inv = stretch_matrices(
        armature.rest_dirs, 1.0 / clip.stretches, np.sqrt(clip.stretches)
    )
    R = quat_to_mat(clip.quats)
    A_inv = S_inv @ np.swapaxes(R, -1, -2)
    for k in range(K):
        p = armature.parents[k]
        if p < 0:
            locals_[:, k] = _affine_rows(A[:, k], clip.heads[:, k] - armature.root_point)
        else:
            rel = clip.heads[:, k] - clip.heads[:, p]
            A_inv_p = np.ascontiguousarray(A_inv[:, p])
            locals_[:, k, :, :3] = A_inv_p @ A[:, k]
            locals_[:, k, :, 3] = np.einsum("fij,fj->fi", A_inv_p, rel)
    return locals_


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


# --- emarig.unit_synth at a408885 ---------------------------------------------
# The brute-force minimum that `synth --exhaustive` printed, and the bound
# on how far the DP's total may exceed it.


def dp_slack(n_slots: int) -> float:
    """Relative bound on how far `select_units`' total over `n_slots` slots
    can exceed the minimum: (n + 3)**2 units of 2**-53.

    Costs and weights are >= 0, so the total of i slots is within
    (i + 1) * 2**-53 of its exact value, relative. A choice between two such
    totals can cost twice that; the choices at slots 2..n and the rounding
    of the final total add up to (n**2 + 5 n - 2) * 2**-53, to first order.
    """
    return (n_slots + 3) ** 2 * 2.0**-53


def exhaustive_total(db: list[AnimationUnit], request: SynthesisRequest):
    """Minimum (total, source-index sequence) over every assignment: the
    accumulation of `select_units` without its pruning, over the grid of
    all sequences, ties going to the lexicographically smallest sequence
    (C order, since each slot's candidates are sorted by source index).
    `select_units` comes within `dp_slack` of this total, and picks this
    sequence unless another one is as close."""
    cands, targets, joins = slot_costs(db, request)
    grid_t, grid_j = targets[0], np.zeros(len(targets[0]))
    for target, join in zip(targets[1:], joins[1:]):
        grid_t = grid_t[..., None] + target
        grid_j = grid_j[..., None] + join
    total = request.w_target * grid_t + request.w_join * grid_j
    picks = np.unravel_index(np.argmin(total), total.shape)
    return float(total[picks]), tuple(c[k].source_index for c, k in zip(cands, picks))


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
# Both ran up to `max_iterations` passes, a setting then. Their stop codes,
# converged, stalled (an iterate was rolled back) and budget (the passes ran
# out), are returned under the solver's names for them.

_CONVERGED, _STALLED, _BUDGET = range(3)
_SOLVER_STOP = np.array([STOP_CONVERGED, STOP_ROLLED_BACK, STOP_UNREACHED], dtype=np.int8)


def active_batch_solve_track(
    armature: Armature,
    targets: np.ndarray,
    params: IkParams,
    max_iterations: int,
) -> PoseTrack:
    """Solve every frame of a (frames, bones, 3) target array.

    Each iteration runs one backward/forward pass over the active frames
    only: their targets and joints are gathered into a compact batch, and
    the iterate is accepted where it does not raise the worst per-target
    residual. A frame leaves the batch when that residual drops to the
    tolerance (converged), when an iterate would raise it (stalled: the
    iterate is rolled back), or when `max_iterations` run out, and
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
    stop_reasons = np.full(F, _BUDGET, dtype=np.int8)

    # The active batch: frame indices with their gathered targets, joints
    # and best residuals. Leaving frames are scattered back into `joints`.
    rows = np.arange(F)
    t, j = targets, joints.copy()
    best = residual_of(j, t)
    for it in range(1, max_iterations + 1):
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
            stop_reasons[out] = np.where(converged[leave], _CONVERGED, _STALLED)
            keep = ~leave
            rows, t, j, best = rows[keep], t[keep], j[keep], best[keep]
    joints[rows] = j

    return PoseTrack(
        bone_names=armature.bone_names,
        tails=joints[:, 1:],
        iterations=iterations,
        stop_reasons=_SOLVER_STOP[stop_reasons],
        **_solved_poses(armature, joints, targets, params),
    )


def full_batch_solve_track(armature, targets, params, max_iterations):
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
    for it in range(1, max_iterations + 1):
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
        best_res <= params.tolerance, _CONVERGED, np.where(rolled_back, _STALLED, _BUDGET)
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
        stop_reasons=_SOLVER_STOP[stop_reasons],
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


# --- emarig.collada_io and emarig.bundle at 6f4583d -------------------------------
# The int branch of `_numbers`, which decoded with one `np.fromstring` call
# before the sliced `np.loadtxt` reader of floats took ints too, and the
# `.zip` branch of `write_bundle`, which built the archive in memory before
# each entry was written and hashed in slices.

_INT64 = np.iinfo(np.int64)
# A sign that no digit follows, which ``np.fromstring`` reads as 0 or joins
# to the next number.
_LONE_SIGN = re.compile(r"[+-](?![0-9])")


def fromstring_ints(text: str | None) -> np.ndarray:
    """The numbers of `text`, separated by ASCII whitespace: ASCII digits
    with an optional sign, inside int64. ``np.fromstring`` saturates
    integers past int64 in both directions to the int64 maximum, so both
    int64 limits are refused."""
    if not text or text.isspace():
        return np.empty(0, np.int64)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(text, dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        raise ParseError(f"bad {np.dtype(np.int64)} in array text", module="export") from None
    if (
        ("-" in text or "+" in text) and _LONE_SIGN.search(text)
    ) or ((values == _INT64.max) | (values == _INT64.min)).any():
        raise ParseError("bad int64 in array text", module="export")
    return values


def in_memory_zip_bundle(
    path, model_text, *, channels, rate_hz, segmentation_text=None, layout_text=None, audio=None
) -> dict[str, str]:
    """Write a ``.zip`` bundle; returns its entries' digests."""
    path = Path(path)
    files: dict[str, bytes | str] = {MODEL_NAME: model_text}
    if segmentation_text is not None:
        files[SEGMENTATION_NAME] = segmentation_text
    if layout_text is not None:
        files[LAYOUT_NAME] = layout_text
    for name, data in (audio or {}).items():
        files[f"{AUDIO_DIR}/{Path(name).name}"] = data

    path.parent.mkdir(parents=True, exist_ok=True)
    files = {n: d.encode("utf-8") if isinstance(d, str) else d for n, d in files.items()}
    entries = {name: _sha256(data) for name, data in files.items()}
    manifest = _format_manifest(channels, rate_hz, entries)
    archive = io.BytesIO()
    with zipfile.ZipFile(archive, "w", zipfile.ZIP_DEFLATED) as zf:
        for name in sorted(files) + [MANIFEST_NAME]:
            data = manifest.encode("utf-8") if name == MANIFEST_NAME else files[name]
            zf.writestr(zipfile.ZipInfo(name, date_time=_ZIP_EPOCH), data)
    write_new_file(path, archive.getvalue())
    return entries


# --- emarig.collada_io at 8a41a6b -----------------------------------------------
# The whole-document parse that `read_collada` fell back on where its markup
# path raised, with the tree-text branch of its `_ArrayTexts`.


class TreeTexts:
    """Each number array's text taken once from the element tree."""

    def numbers(self, elem, dtype=np.float64):
        return _numbers(_take_text(elem), dtype)

    def text(self, elem):
        return _take_text(elem) or ""


def whole_document_read(document):
    """`read_collada`'s result or refusal, with expat parsing the whole
    document and every array text read from the tree."""
    return _read_tree(_parse_xml(document), TreeTexts())


# --- emarig.unit_synth at 7ee95cb -----------------------------------------------
# The cost tables that `slot_costs` rebuilt at every slot, before each label's
# candidates and each pair of labels' join costs were computed once per
# request. Verbatim but for the names: `join_costs` is `stacking_join_costs`
# and `slot_costs` is `per_slot_costs`.


def stacking_join_costs(left, right, velocity_weight):
    """(L, R) boundary discontinuity from each unit in `left` to each in `right`.

    Zero for pairs that were adjacent in the corpus (their boundary is the
    same sample); otherwise the Euclidean gap across all tracked points
    plus a velocity mismatch term scaled by `velocity_weight`.
    """
    def rows(units, feature):  # one flattened (B * 3) feature row per unit
        return np.stack([getattr(u, feature) for u in units]).reshape(len(units), -1)

    dp = rows(right, "first_positions") - rows(left, "last_positions")[:, None]
    dv = rows(right, "first_velocities") - rows(left, "last_velocities")[:, None]
    cost = np.sqrt(np.sum(dp * dp, axis=2))
    cost += velocity_weight * np.sqrt(np.sum(dv * dv, axis=2))
    after_left = np.array([u.source_index + 1 for u in left])[:, None]
    cost[after_left == np.array([u.source_index for u in right])] = 0.0
    return cost


def per_slot_costs(db, request):
    """Per slot: the candidates (units with its label, by source index), their
    target costs, and the (L, C) join costs from the previous slot's
    candidates (None first). Raises `NoCandidate` for a label not in `db`."""
    cands, targets, joins = [], [], []
    for label, dur in request.items:
        units = sorted((u for u in db if u.label == label), key=lambda u: u.source_index)
        if not units:
            raise NoCandidate(label)
        joins.append(stacking_join_costs(cands[-1], units, request.velocity_weight) if cands else None)
        cands.append(units)
        targets.append(np.array([target_cost(u, dur) for u in units]))
    return cands, targets, joins


# --- emarig.collada_io at fc47e83 -----------------------------------------------
# The writer whose number-array texts were joined once per array and then
# written, escaped, by ElementTree, before the writer held them as chunk
# texts behind placeholders and joined the document once; with the integer
# printer (`%` formatting) and the matrix printer it called. Verbatim but for
# the names: `_fmt_ints` is `percent_fmt_ints`, `_fmt_matrices` is
# `fmt_matrices`, `_float_source` and `_name_source` are `et_float_source` and
# `et_name_source`, and `write_collada` is `element_tree_write_collada`.


def percent_fmt_ints(values: np.ndarray) -> str:
    flat = np.asarray(values).ravel().tolist()
    return " ".join(["%d"] * len(flat)) % tuple(flat)


def fmt_matrices(rows: np.ndarray) -> str:
    """Row-major 4x4 matrices from their top three rows (..., 3, 4)."""
    return _fmt_array(rows, 12)


def et_float_source(parent: Element, sid: str, text: str, count: int, params) -> None:
    """A <source> of `count` elements of `params`, printed as `text`."""
    stride = sum(1 if p[1] != "float4x4" else 16 for p in params)
    src = SubElement(parent, "source", id=sid)
    arr = SubElement(src, "float_array", id=f"{sid}-array", count=str(count * stride))
    arr.text = text
    tc = SubElement(src, "technique_common")
    acc = SubElement(tc, "accessor", source=f"#{sid}-array", count=str(count), stride=str(stride))
    for name, typ in params:
        SubElement(acc, "param", type=typ, name=name)


def et_name_source(parent: Element, sid: str, text: str, count: int, param_name: str) -> None:
    src = SubElement(parent, "source", id=sid)
    arr = SubElement(src, "Name_array", id=f"{sid}-array", count=str(count))
    arr.text = text
    tc = SubElement(src, "technique_common")
    acc = SubElement(tc, "accessor", source=f"#{sid}-array", count=str(count), stride="1")
    SubElement(acc, "param", name=param_name, type="name")


def element_tree_write_collada(mesh: SkinnedMesh, armature: Armature, clip: AnimationClip) -> str:
    """Serialize mesh, armature and a baked clip to document text.

    Refuses a value that is not finite (BadNumber) and key times that print
    alike at 9 significant digits (NonMonotonic), since read_collada would
    reject the document."""
    times_text = _fmt_array(_finite(clip.times, "a key time"))
    if (np.diff(_numbers(times_text)) <= 0).any():
        raise NonMonotonic(
            "key times do not stay strictly increasing at 9 significant digits",
            module="export",
        )
    K = armature.n_bones
    if (mesh.weight_bones >= K).any():
        raise InconsistentRig("skin weights reference bones outside the armature")
    if len(set(armature.bone_names)) != K:
        raise InconsistentRig("bone names must be unique")
    if tuple(clip.bone_names) != tuple(armature.bone_names):
        raise InconsistentRig("clip channels do not match the armature bones")

    bone_sids = [_sanitize(n) for n in armature.bone_names]
    if len(set(bone_sids)) != K:
        raise InconsistentRig("bone names collide after id sanitization")
    root_sid = _sanitize(armature.root_name)
    jaw_sid = "Jaw"
    skull_sid = "Skull"
    while jaw_sid in bone_sids or jaw_sid == root_sid:
        jaw_sid += "_"
    while skull_sid in bone_sids or skull_sid == root_sid:
        skull_sid += "_"
    joint_sids = bone_sids + [jaw_sid, skull_sid]

    root = Element("COLLADA", xmlns=NS, version="1.4.1")
    asset = SubElement(root, "asset")
    contributor = SubElement(asset, "contributor")
    SubElement(contributor, "authoring_tool").text = "emarig"
    SubElement(asset, "unit", meter="0.01", name="centimeter")
    SubElement(asset, "up_axis").text = "Z_UP"

    # geometry -----------------------------------------------------------
    lg = SubElement(root, "library_geometries")
    geom = SubElement(lg, "geometry", id="mesh", name="mesh")
    m = SubElement(geom, "mesh")
    xyz = [("X", "float"), ("Y", "float"), ("Z", "float")]
    positions = _fmt_array(_finite(mesh.vertices, "a mesh vertex"))
    et_float_source(m, "mesh-positions", positions, mesh.n_vertices, xyz)
    verts = SubElement(m, "vertices", id="mesh-vertices")
    SubElement(verts, "input", semantic="POSITION", source="#mesh-positions")

    for name, tris in mesh.triangle_batches():
        material = {} if name is None else {"material": name}
        t = SubElement(m, "triangles", material, count=str(len(tris)))
        SubElement(t, "input", semantic="VERTEX", source="#mesh-vertices", offset="0")
        SubElement(t, "p").text = percent_fmt_ints(tris)

    # skin controller ------------------------------------------------------
    lc = SubElement(root, "library_controllers")
    controller = SubElement(lc, "controller", id="skin")
    skin = SubElement(controller, "skin", source="#mesh")
    SubElement(skin, "bind_shape_matrix").text = fmt_matrices(np.eye(3, 4))
    et_name_source(skin, "skin-joints", " ".join(joint_sids), len(joint_sids), "JOINT")

    inv_binds = np.tile(np.eye(3, 4), (K + 2, 1, 1))
    inv_binds[:K, :, 3] = -armature.heads
    inv_binds_text = fmt_matrices(_finite(inv_binds, "a bone head"))
    et_float_source(skin, "skin-bind-poses", inv_binds_text, K + 2, _TRANSFORM)

    # Per vertex, (joint, weight index) pairs: its bone influences, whose
    # weights get indices 1.. in vertex then slot order, or else its Jaw
    # (K) or Skull (K + 1) anchor with the constant weight 0.
    active = mesh.weight_bones >= 0
    anchor = np.full(mesh.n_vertices, -1)
    anchor[mesh.group_indices(GROUP_MANDIBLE)] = K
    anchor[mesh.group_indices(GROUP_MAXILLA)] = K + 1
    used = np.column_stack([active, ~active.any(axis=1) & (anchor >= 0)])
    weight_index = np.zeros(used.shape, dtype=np.int64)
    weight_index[:, :4][active] = np.arange(1, active.sum() + 1)
    pair_joints = np.column_stack([mesh.weight_bones, anchor])[used]
    weights = np.concatenate([[1.0], mesh.weight_values[active]])
    weights_text = _fmt_array(_finite(weights, "a skin weight"))
    et_float_source(skin, "skin-weights", weights_text, len(weights), [("WEIGHT", "float")])
    joints = SubElement(skin, "joints")
    SubElement(joints, "input", semantic="JOINT", source="#skin-joints")
    SubElement(joints, "input", semantic="INV_BIND_MATRIX", source="#skin-bind-poses")
    vw = SubElement(skin, "vertex_weights", count=str(mesh.n_vertices))
    SubElement(vw, "input", semantic="JOINT", source="#skin-joints", offset="0")
    SubElement(vw, "input", semantic="WEIGHT", source="#skin-weights", offset="1")
    SubElement(vw, "vcount").text = percent_fmt_ints(used.sum(axis=1))
    SubElement(vw, "v").text = percent_fmt_ints(np.column_stack([pair_joints, weight_index[used]]))

    # animations -----------------------------------------------------------
    la = SubElement(root, "library_animations")

    # Every animation shares the clip's time source and interpolation names.
    interp_text = " ".join(["LINEAR"] * clip.n_keys)

    def emit_animation(node_sid: str, rows: np.ndarray):
        aid = f"anim-{node_sid}"
        anim = SubElement(la, "animation", id=aid)
        et_float_source(anim, f"{aid}-input", times_text, clip.n_keys, [("TIME", "float")])
        rows_text = fmt_matrices(_finite(rows, f"a {node_sid} key matrix"))
        et_float_source(anim, f"{aid}-output", rows_text, clip.n_keys, _TRANSFORM)
        et_name_source(anim, f"{aid}-interp", interp_text, clip.n_keys, "INTERPOLATION")
        sampler = SubElement(anim, "sampler", id=f"anim-{node_sid}-sampler")
        SubElement(sampler, "input", semantic="INPUT", source=f"#anim-{node_sid}-input")
        SubElement(sampler, "input", semantic="OUTPUT", source=f"#anim-{node_sid}-output")
        SubElement(
            sampler, "input", semantic="INTERPOLATION", source=f"#anim-{node_sid}-interp"
        )
        SubElement(
            anim,
            "channel",
            source=f"#anim-{node_sid}-sampler",
            target=f"node-{node_sid}/transform",
        )

    # A matrix that is not finite is refused, with no warning on the way.
    with np.errstate(all="ignore"):
        inverses: dict = {}
        for k, sid in enumerate(bone_sids):
            emit_animation(sid, _local_rows(armature, clip, k, inverses))
        emit_animation(jaw_sid, _affine_rows(quat_to_mat(clip.jaw_quats), clip.jaw_translations))

    # visual scene -----------------------------------------------------------
    lvs = SubElement(root, "library_visual_scenes")
    scene = SubElement(lvs, "visual_scene", id="Scene", name="Scene")

    root_node = SubElement(
        scene, "node", id=f"node-{root_sid}", name=root_sid, sid=root_sid, type="JOINT"
    )
    mat = SubElement(root_node, "matrix", sid="transform")
    mat.text = fmt_matrices(_finite(_affine_rows(np.eye(3), armature.root_point), "the root"))

    node_elems = {-1: root_node}
    for k, sid in enumerate(bone_sids):
        parent = node_elems[int(armature.parents[k])]
        node = SubElement(
            parent, "node", id=f"node-{sid}", name=sid, sid=sid, type="JOINT"
        )
        m_el = SubElement(node, "matrix", sid="transform")
        p = int(armature.parents[k])
        parent_head = armature.root_point if p < 0 else armature.heads[p]
        offset = _affine_rows(np.eye(3), armature.heads[k] - parent_head)
        m_el.text = fmt_matrices(_finite(offset, f"bone {sid}'s offset"))
        extra = SubElement(node, "extra")
        tech = SubElement(extra, "technique", profile=PROFILE)
        SubElement(tech, "tail").text = _fmt_array(_finite(armature.tails[k], f"bone {sid}'s tail"))
        length = _finite(armature.rest_lengths[k], f"bone {sid}'s rest length")
        SubElement(tech, "rest_length").text = _fmt_array(length)
        node_elems[k] = node

    for sid in (jaw_sid, skull_sid):
        n = SubElement(scene, "node", id=f"node-{sid}", name=sid, sid=sid, type="JOINT")
        SubElement(n, "matrix", sid="transform").text = fmt_matrices(np.eye(3, 4))

    model = SubElement(scene, "node", id="model", name="model")
    ic = SubElement(model, "instance_controller", url="#skin")
    SubElement(ic, "skeleton").text = f"#node-{root_sid}"

    s_extra = SubElement(scene, "extra")
    s_tech = SubElement(s_extra, "technique", profile=PROFILE)
    SubElement(s_tech, "rate_hz").text = _fmt_array(_finite(clip.rate_hz, "the clip rate"))
    SubElement(s_tech, "duration").text = repr(float(_finite(clip.duration, "the clip duration")))

    sc = SubElement(root, "scene")
    SubElement(sc, "instance_visual_scene", url="#Scene")

    ET.indent(root, space="  ")
    # The serializer's pieces, the array texts among them, are joined once.
    parts = ['<?xml version="1.0" encoding="utf-8"?>\n']
    ET.ElementTree(root).write(SimpleNamespace(write=parts.append), encoding="unicode")
    parts.append("\n")
    return "".join(parts)

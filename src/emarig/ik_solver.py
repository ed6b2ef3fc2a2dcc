"""Per-frame pose solving and linear blend skinning.

The bone tree tracks one target per bone tail using one backward/forward
positional pass (a FABRIK variant extended with per-bone stretch clamping
and weighted averaging at branch points). Volume preservation is enforced
analytically: a bone stretched by s scales its cross section by
1/sqrt(s), so its cylinder-equivalent volume is constant.

`solve_track` is the one entry point. Every bone tracks its own target.
Frames are independent, so a single frame is the (1, bones, 3) slice of a
target array and solves bit-identically to its row of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import for_blocks
from .rig import Armature, SkinnedMesh, GROUP_MANDIBLE
from .rotations import minimal_rotation, mat_to_quat, quat_to_mat, norm


@dataclass(frozen=True)
class IkParams:
    tolerance: float = 1e-3          # cm, max per-target residual
    max_iterations: int = 50         # reported for budget frames only
    s_min: float = 0.5               # stretch ratio bounds
    s_max: float = 2.0

    def __post_init__(self):
        if not (self.tolerance > 0):
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (0 < self.s_min <= 1.0 <= self.s_max):
            raise ValueError("stretch bounds must satisfy 0 < s_min <= 1 <= s_max")


# Why a frame left the solve, indexed by the codes in PoseTrack.stop_reasons:
# its residual is within tolerance, the pass made it worse and was rolled
# back, or its target is out of reach (an iterative solve would run out of
# its budget of passes on it).
STOP_REASONS = ("converged", "stalled", "budget")
STOP_CONVERGED, STOP_STALLED, STOP_BUDGET = range(len(STOP_REASONS))


def stop_counts(stop_reasons: np.ndarray) -> dict[str, int]:
    """Number of frames per stop reason, keyed by the names in STOP_REASONS."""
    counts = np.bincount(stop_reasons, minlength=len(STOP_REASONS))
    return dict(zip(STOP_REASONS, (int(c) for c in counts)))


@dataclass(frozen=True)
class PoseTrack:
    """Solved poses for a whole sweep: leading axis is the frame."""

    bone_names: tuple[str, ...]
    quats: np.ndarray         # (F, K, 4) minimal rotations rest dir -> posed dir
    heads: np.ndarray         # (F, K, 3) cm
    tails: np.ndarray         # (F, K, 3) cm
    stretches: np.ndarray     # (F, K)
    cross_scales: np.ndarray  # (F, K) = 1/sqrt(stretch)
    residuals: np.ndarray     # (F, K) per-target distance
    iterations: np.ndarray    # (F,)
    stop_reasons: np.ndarray  # (F,) int8 index into STOP_REASONS

    @property
    def n_frames(self) -> int:
        return self.quats.shape[0]

    def max_residual(self) -> np.ndarray:
        """(F,) worst per-target distance per frame."""
        return self.residuals.max(axis=1)


def solve_track(
    armature: Armature,
    targets: np.ndarray,
    params: IkParams = IkParams(),
) -> PoseTrack:
    """Solve every frame of a (frames, bones, 3) target array.

    One backward/forward pass runs over all frames. It builds each bone's
    proposal from the targets alone and re-anchors at the root, so it never
    reads the pose it starts from: a second pass would repeat the first bit
    for bit. The pass is kept where it does not raise the worst per-target
    residual of the rest pose, and rolled back to the rest pose where it
    does. `stop_reasons` records why each frame stopped: converged (the
    kept pose is within the tolerance), stalled (rolled back) or budget
    (the target is out of reach; more passes would not move the pose).
    `iterations` is 1, except for budget frames, which report
    `params.max_iterations`: the passes an iterative solve would run on
    them.
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

    # Backward pass: each bone proposes a tail position for itself: its own
    # target, averaged with that target projected into the reach annulus of
    # every child's proposal.
    prop = np.empty((F, K, 3))
    for k in reversed(range(K)):
        contribs = [targets[:, k]]
        weights = [1.0]
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

    # Forward pass: re-anchor at the root and restore bone lengths (within
    # the stretch bounds) down the tree. Joint 0 is the anchored root point;
    # joint k+1 is the tail of bone k.
    joints = np.empty((F, K + 1, 3))
    joints[:, 0] = armature.root_point
    for k in range(K):
        head = joints[:, parent_joint[k]]
        joints[:, k + 1] = pull(head, prop[:, k], lo[k], hi[k], armature.rest_dirs[k])

    rest_res = norm(armature.tails - targets).max(axis=1)
    res = norm(joints[:, 1:] - targets).max(axis=1)
    accept = res <= rest_res
    joints[~accept, 1:] = armature.tails
    converged = np.where(accept, res, rest_res) <= params.tolerance
    stop_reasons = np.where(
        converged, STOP_CONVERGED, np.where(accept, STOP_BUDGET, STOP_STALLED)
    ).astype(np.int8)

    return PoseTrack(
        bone_names=armature.bone_names,
        tails=joints[:, 1:],
        iterations=np.where(stop_reasons == STOP_BUDGET, params.max_iterations, 1),
        stop_reasons=stop_reasons,
        **_solved_poses(armature, joints, targets, params),
    )


def _solved_poses(
    armature: Armature, joints: np.ndarray, targets: np.ndarray, params: IkParams
) -> dict[str, np.ndarray]:
    """The `PoseTrack` quats, heads, stretches, cross_scales and residuals
    of solved (F, K + 1, 3) joints (the root point, then each bone's tail).

    Computed in blocks of frames on two cores (`for_blocks`), with the
    bits of the whole batch at once."""
    F, K = len(joints), armature.n_bones
    parent_joint = np.where(armature.parents < 0, 0, armature.parents + 1)
    out = {
        "quats": np.empty((F, K, 4)),
        "heads": np.empty((F, K, 3)),
        "stretches": np.empty((F, K)),
        "cross_scales": np.empty((F, K)),
        "residuals": np.empty((F, K)),
    }

    def pose_rows(rows: slice) -> None:
        heads = out["heads"][rows]
        heads[:] = joints[rows][:, parent_joint]
        tails = joints[rows, 1:]
        deltas = tails - heads
        lengths = norm(deltas)
        stretches = out["stretches"][rows]
        np.clip(lengths / armature.rest_lengths, params.s_min, params.s_max, out=stretches)
        out["cross_scales"][rows] = 1.0 / np.sqrt(stretches)
        dirs = deltas / np.where(lengths > 0.0, lengths, 1.0)[..., None]
        R = minimal_rotation(np.broadcast_to(armature.rest_dirs, dirs.shape), dirs)
        out["quats"][rows] = mat_to_quat(R)
        out["residuals"][rows] = norm(tails - targets[rows])

    for_blocks(F, pose_rows)
    return out


# --- skinning -----------------------------------------------------------------

def stretch_matrices(
    rest_dirs: np.ndarray, along: np.ndarray, across: np.ndarray
) -> np.ndarray:
    """(..., K, 3, 3) scales by `along` on each bone's rest axis and by
    `across` perpendicular to it: across*I + (along - across)*outer(d0, d0)."""
    outer = rest_dirs[:, :, None] * rest_dirs[:, None, :]
    return across[..., None, None] * np.eye(3) + (along - across)[..., None, None] * outer


def _pose_affines(
    armature: Armature,
    quats: np.ndarray,
    heads: np.ndarray,
    stretches: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Affine maps (A, b) with v' = A v + b for each bone.

    A composes the minimal rotation with an anisotropic scale in the bone's
    rest frame: `stretch` along the rest axis, 1/sqrt(stretch) across it.
    """
    R = quat_to_mat(quats)
    s = np.asarray(stretches)
    A = R @ stretch_matrices(armature.rest_dirs, s, 1.0 / np.sqrt(s))
    b = heads - np.einsum("...kij,kj->...ki", A, armature.heads)
    return A, b


def skin_trajectories(
    mesh: SkinnedMesh,
    armature: Armature,
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
    is `vertex_indices = np.arange(mesh.n_vertices)`. Frames are skinned in
    blocks on two cores (`for_blocks`), with the bits of the whole batch.
    """
    idx = np.asarray(vertex_indices)
    verts = mesh.vertices[idx]
    bones = mesh.weight_bones[idx]
    weights = mesh.weight_values[idx]
    F = quats.shape[0]

    out = np.broadcast_to(verts, (F,) + verts.shape).copy()
    skinned = (bones >= 0).any(axis=1)
    vb = bones[skinned].clip(min=0)                       # (n, 4)
    vw = np.where(bones[skinned] >= 0, weights[skinned], 0.0)
    vv = verts[skinned]
    mand = np.zeros(mesh.n_vertices, dtype=bool)
    mand[mesh.group_indices(GROUP_MANDIBLE)] = True
    jaw_rows = mand[idx] & ~skinned
    move_jaw = jaw_rows.any() and jaw_rotations is not None

    def skin_rows(rows: slice) -> None:
        if skinned.any():
            A, b = _pose_affines(armature, quats[rows], heads[rows], stretches[rows])
            # One influence slot at a time, with (frames, n, 3, 3)
            # temporaries; the weighted moves are summed from zero in slot
            # order, the order of a contraction over all four slots, so the
            # bits are the same.
            blend = np.zeros((len(A), len(vv), 3))
            for s in range(vb.shape[1]):
                moved = np.einsum("fnij,nj->fni", A[:, vb[:, s]], vv)
                moved += b[:, vb[:, s]]
                moved *= vw[:, s, None]
                blend += moved
            out[rows, skinned] = blend
        if move_jaw:
            moved = np.einsum("fij,nj->fni", jaw_rotations[rows], verts[jaw_rows])
            out[rows, jaw_rows] = moved + jaw_translations[rows, None, :]

    for_blocks(F, skin_rows)
    return out

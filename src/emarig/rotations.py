"""Small rotation utilities shared by the alignment, IK and baking code.

Conventions: vectors are rows on the last axis, rotation matrices are
(..., 3, 3) acting as ``R @ v``, quaternions are (..., 4) in (w, x, y, z)
order with unit norm.
"""

from __future__ import annotations

import numpy as np


def norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, written out so batched and
    single-vector call sites round identically."""
    v = np.asarray(v)
    return np.sqrt(np.sum(v * v, axis=-1))


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

    eye = np.eye(3)

    # Regular case: Rodrigues with the stable 1/(1+c) form, I + K + K²/d,
    # summed in place as K²/d + (K + I): the same bits, as IEEE addition is
    # commutative, with no temporary of the batch's size beyond K.
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
    R = np.matmul(K, K, out=np.empty_like(K))
    R /= d[..., None, None]
    K += eye
    R += K

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


def mat_to_quat(R: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) to unit quaternions (..., 4), w >= 0."""
    R = np.asarray(R, dtype=np.float64)
    m00, m11, m22 = R[..., 0, 0], R[..., 1, 1], R[..., 2, 2]
    trace = m00 + m11 + m22

    # Shepperd's method, branch chosen per element for numerical safety.
    # The trace branch, which rotations near the rest pose pick, is
    # evaluated on every row through strided views; each other branch on
    # its own rows only, which then overwrite the trace branch's.
    choice = np.argmax(np.stack([trace, m00, m11, m22], axis=-1), axis=-1)
    q = np.empty(R.shape[:-2] + (4,), dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt(np.maximum(trace + 1.0, 0.0)) * 2.0
        q[..., 0] = 0.25 * s
        q[..., 1] = (R[..., 2, 1] - R[..., 1, 2]) / s
        q[..., 2] = (R[..., 0, 2] - R[..., 2, 0]) / s
        q[..., 3] = (R[..., 1, 0] - R[..., 0, 1]) / s

        sel = choice == 1
        r = R[sel]
        s = np.sqrt(np.maximum(1.0 + r[:, 0, 0] - r[:, 1, 1] - r[:, 2, 2], 0.0)) * 2.0
        q[sel] = np.stack([
            (r[:, 2, 1] - r[:, 1, 2]) / s,
            0.25 * s,
            (r[:, 0, 1] + r[:, 1, 0]) / s,
            (r[:, 0, 2] + r[:, 2, 0]) / s,
        ], axis=-1)

        sel = choice == 2
        r = R[sel]
        s = np.sqrt(np.maximum(1.0 - r[:, 0, 0] + r[:, 1, 1] - r[:, 2, 2], 0.0)) * 2.0
        q[sel] = np.stack([
            (r[:, 0, 2] - r[:, 2, 0]) / s,
            (r[:, 0, 1] + r[:, 1, 0]) / s,
            0.25 * s,
            (r[:, 1, 2] + r[:, 2, 1]) / s,
        ], axis=-1)

        sel = choice == 3
        r = R[sel]
        s = np.sqrt(np.maximum(1.0 - r[:, 0, 0] - r[:, 1, 1] + r[:, 2, 2], 0.0)) * 2.0
        q[sel] = np.stack([
            (r[:, 1, 0] - r[:, 0, 1]) / s,
            (r[:, 0, 2] + r[:, 2, 0]) / s,
            (r[:, 1, 2] + r[:, 2, 1]) / s,
            0.25 * s,
        ], axis=-1)

    q /= norm(q)[..., None]
    neg = q[..., 0] < 0
    q[neg] = -q[neg]
    return q


def quat_to_mat(q: np.ndarray) -> np.ndarray:
    """Unit quaternions (..., 4) to rotation matrices (..., 3, 3)."""
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    R = np.empty(q.shape[:-1] + (3, 3), dtype=np.float64)
    R[..., 0, 0] = 1 - 2 * (y * y + z * z)
    R[..., 0, 1] = 2 * (x * y - z * w)
    R[..., 0, 2] = 2 * (x * z + y * w)
    R[..., 1, 0] = 2 * (x * y + z * w)
    R[..., 1, 1] = 1 - 2 * (x * x + z * z)
    R[..., 1, 2] = 2 * (y * z - x * w)
    R[..., 2, 0] = 2 * (x * z - y * w)
    R[..., 2, 1] = 2 * (y * z + x * w)
    R[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def slerp(q0: np.ndarray, q1: np.ndarray, t) -> np.ndarray:
    """Spherical interpolation between unit quaternions, shortest path.

    t may be a scalar or an array broadcastable against the batch shape.
    """
    q0 = np.asarray(q0, dtype=np.float64)
    q1 = np.asarray(q1, dtype=np.float64).copy()
    t = np.asarray(t, dtype=np.float64)
    dot = np.sum(q0 * q1, axis=-1)
    q1[dot < 0] = -q1[dot < 0]
    dot = np.abs(dot)

    theta = np.arccos(np.clip(dot, -1.0, 1.0))
    sin_theta = np.sin(theta)
    small = sin_theta < 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        w0 = np.where(small, 1.0 - t, np.sin((1.0 - t) * theta) / sin_theta)
        w1 = np.where(small, t, np.sin(t * theta) / sin_theta)
    out = w0[..., None] * q0 + w1[..., None] * q1
    out /= norm(out)[..., None]
    return out


def axis_angle_matrix(axis: np.ndarray, angle) -> np.ndarray:
    """Rotation matrices about one (not necessarily unit) axis.

    `angle` may be a scalar, which gives one (3, 3) matrix, or an array of
    any shape (...), which gives (..., 3, 3): entry [i] is bit for bit the
    matrix of the scalar call with angle[i].
    """
    axis = np.asarray(axis, dtype=np.float64)
    x, y, z = axis / norm(axis)
    c, s = np.cos(angle), np.sin(angle)
    C = 1.0 - c
    rows = [
        [c + x * x * C, x * y * C - z * s, x * z * C + y * s],
        [y * x * C + z * s, c + y * y * C, y * z * C - x * s],
        [z * x * C - y * s, z * y * C + x * s, c + z * z * C],
    ]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)

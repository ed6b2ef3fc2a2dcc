"""Frozen reference implementations that the tests compare against.

Each function is a verbatim copy of code that a faster or simpler version
replaced, named with the commit it was lifted from. They are not used by
the package; a test asserts that the replacement gives the same bits.
"""

from __future__ import annotations

import itertools

import numpy as np

from emarig.anim_db import AnimationUnit
from emarig.fixture import _JAW_AXIS_REST, _JAW_FREQ, _JAW_HINGE, _JAW_MAX_OPEN, _JAW_REST
from emarig.rotations import norm
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

"""Baked animation clips, phonetic segmentation and the unit database.

Solved poses are baked densely (one key per EMA frame) onto a single
timeline; consecutive sweeps are concatenated with cumulative time offsets.
A segmentation tier over that timeline slices the clip into labeled
animation units whose boundary features (tracked-point positions and
velocities) feed the unit-selection join cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ema_io import CoilRoles, EmaSweep, orientation_vector
from .errors import BadNumber, EmptyTier, IncompatibleBundle, NonMonotonic, OverlapError
from .ik_solver import IkParams, solve_track
from .rig import CompiledRig
from .rotations import mat_to_quat, minimal_rotation, slerp


# The per-key channels of a clip, in the order poses are passed around.
POSE_FIELDS = ("quats", "heads", "stretches", "tails", "jaw_quats", "jaw_translations")


@dataclass(frozen=True)
class AnimationClip:
    """Dense keyframed bone poses on one timeline.

    All channels share the key time vector. `tails` is the realized
    position of each bone's tracked point per key; `targets`, `residuals`
    and `stop_reasons` (codes into ik_solver.STOP_REASONS) are
    solver metadata present on freshly baked clips but not carried through
    the exported model.
    """

    rate_hz: float
    bone_names: tuple[str, ...]
    times: np.ndarray        # (n,)
    quats: np.ndarray        # (n, B, 4)
    heads: np.ndarray        # (n, B, 3)
    stretches: np.ndarray    # (n, B)
    tails: np.ndarray        # (n, B, 3)
    jaw_quats: np.ndarray    # (n, 4)
    jaw_translations: np.ndarray  # (n, 3)
    duration: float
    residuals: np.ndarray | None = None
    stop_reasons: np.ndarray | None = None
    targets: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.times)
        if n < 1:
            raise ValueError("a clip needs at least one key")
        if self.times[0] != 0.0:
            raise ValueError("first key must sit at time 0")
        if n > 1 and not (np.diff(self.times) > 0).all():
            raise ValueError("key times must be strictly increasing")
        if not (self.duration > 0):
            raise ValueError("duration must be positive")

    @property
    def n_keys(self) -> int:
        return len(self.times)

    def frame_index(self, t: float | Sequence[float] | np.ndarray):
        """Nearest dense-bake frame(s) for time(s) on this clip's grid.

        Halfway times round to the even frame, as Python's ``round`` does.
        """
        rows = np.clip(np.round(np.multiply(t, self.rate_hz)), 0, self.n_keys - 1)
        return rows.astype(np.intp)

    def pose(self, rows) -> tuple:
        """The `POSE_FIELDS` channels at key indices `rows`."""
        return tuple(getattr(self, name)[rows] for name in POSE_FIELDS)

    def sample(self, t: np.ndarray) -> tuple:
        """Channel values at times t (n,), as `pose` gives them.

        A time that is exactly a key returns that key's stored row bit for
        bit; any other time mixes the two keys around it (`mix_poses`).
        Times outside the key range clamp to the end keys.
        """
        times = self.times
        t = np.asarray(t, dtype=np.float64)
        k = np.searchsorted(times, t)
        on_key = times[np.minimum(k, len(times) - 1)] == t
        out = self.pose(np.where(on_key, k, 0))
        between = ~on_key
        k = np.clip(k[between], 1, len(times) - 1)
        a = np.clip((t[between] - times[k - 1]) / (times[k] - times[k - 1]), 0.0, 1.0)
        for x, mixed in zip(out, mix_poses(self.pose(k - 1), self.pose(k), a)):
            x[between] = mixed
        return out


def mix_poses(p: tuple, q: tuple, a: np.ndarray) -> tuple:
    """Blend two poses row by row with weights a (n,), 0 giving `p`.

    Poses are channel tuples in `POSE_FIELDS` order, n rows each.
    Positions and stretches interpolate linearly, the bone and jaw
    quaternions spherically (`slerp`).
    """
    def lerp(x, y):
        w = a.reshape(a.shape + (1,) * (x.ndim - 1))
        return (1 - w) * x + w * y

    return (
        slerp(p[0], q[0], a[:, None]),
        lerp(p[1], q[1]),
        lerp(p[2], q[2]),
        lerp(p[3], q[3]),
        slerp(p[4], q[4], a),
        lerp(p[5], q[5]),
    )


def bake(
    sweeps: Sequence[EmaSweep],
    rig: CompiledRig,
    roles: CoilRoles,
    params: IkParams = IkParams(),
) -> AnimationClip:
    """Solve and bake prepared sweeps into one clip.

    Tongue coil positions are mapped through the rig's registration into
    mesh space and tracked by the solver frame by frame; the jaw coil (when
    assigned) drives a roll-free rigid track anchored at its first-frame
    pose. Solver non-convergence lands in the per-frame residual metadata,
    never in an exception.
    """
    if not sweeps:
        raise ValueError("no sweeps to bake")
    rate = sweeps[0].rate_hz
    armature = rig.armature
    bone_names = armature.bone_names

    all_targets = []
    all_times = []
    jaw_pos = []
    jaw_axes = []
    offset = 0.0
    for sweep in sweeps:
        if sweep.rate_hz != rate:
            raise ValueError("all sweeps must share one sample rate")
        roles.validate_against(sweep.channels)
        idx = [sweep.channel_index(n) for n in bone_names]
        all_targets.append(rig.registration.apply(sweep.positions[:, idx, :]))
        all_times.append(offset + np.arange(sweep.n_frames) / rate)
        if roles.jaw:
            j = sweep.channel_index(roles.jaw[0])
            jaw_pos.append(rig.registration.apply(sweep.positions[:, j, :]))
            jaw_axes.append(
                rig.registration.rotate(orientation_vector(sweep.phi[:, j], sweep.theta[:, j]))
            )
        offset += sweep.n_frames / rate

    targets = np.concatenate(all_targets, axis=0)
    times = np.concatenate(all_times)
    n = len(times)
    if n == 0:
        raise ValueError("sweeps contain no frames")

    track = solve_track(armature, targets, params)

    if roles.jaw and rig.jaw_rest_position is not None:
        pos = np.concatenate(jaw_pos, axis=0)
        axes = np.concatenate(jaw_axes, axis=0)
        R = minimal_rotation(np.broadcast_to(rig.jaw_rest_axis, axes.shape), axes)
        jaw_quats = mat_to_quat(R)
        jaw_trans = pos - np.einsum("fij,j->fi", R, rig.jaw_rest_position)
    else:
        jaw_quats = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
        jaw_trans = np.zeros((n, 3))

    return AnimationClip(
        rate_hz=rate,
        bone_names=bone_names,
        times=times,
        quats=track.quats,
        heads=track.heads,
        stretches=track.stretches,
        tails=track.tails,
        jaw_quats=jaw_quats,
        jaw_translations=jaw_trans,
        duration=offset,
        residuals=track.max_residual(),
        stop_reasons=track.stop_reasons,
        targets=targets,
    )


# --- segmentation -------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    start: float
    end: float
    label: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class SegmentTier:
    segments: tuple[Segment, ...]

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    @property
    def end(self) -> float:
        return self.segments[-1].end if self.segments else 0.0


def parse_segmentation(text: str) -> SegmentTier:
    """Parse ``start end label`` lines (seconds); ``#`` starts a comment."""
    segments: list[Segment] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 2)
        if len(parts) != 3:
            raise BadNumber(
                f"segmentation line {lineno}: expected 'start end label', got {raw!r}"
            )
        try:
            start, end = float(parts[0]), float(parts[1])
        except ValueError:
            raise BadNumber(f"segmentation line {lineno}: bad number in {raw!r}") from None
        if not (np.isfinite(start) and np.isfinite(end)):
            raise BadNumber(f"segmentation line {lineno}: non-finite time")
        if start < 0 or start >= end:
            raise NonMonotonic(
                f"segmentation line {lineno}: need 0 <= start < end, got {start} {end}"
            )
        if segments and start < segments[-1].end:
            raise OverlapError(
                f"segmentation line {lineno}: segment starts at {start} before "
                f"the previous one ends at {segments[-1].end}"
            )
        segments.append(Segment(start=start, end=end, label=parts[2]))
    return SegmentTier(segments=tuple(segments))


def format_segmentation(tier: SegmentTier) -> str:
    """Canonical text form; parse(format(t)) == t and formatting is stable."""
    return "".join(f"{s.start!r} {s.end!r} {s.label}\n" for s in tier.segments)


# --- unit database -------------------------------------------------------------

@dataclass(frozen=True)
class AnimationUnit:
    """A labeled slice of the corpus clip with boundary features.

    Boundary features are the tracked-point positions (cm) and velocities
    (cm/s) at the first and last dense frame of the slice, flattened in
    bone order.
    """

    label: str
    start: float
    end: float
    source_index: int
    first_positions: np.ndarray  # (B, 3)
    first_velocities: np.ndarray
    last_positions: np.ndarray
    last_velocities: np.ndarray

    @property
    def duration(self) -> float:
        return self.end - self.start


def _tail_velocities(clip: AnimationClip) -> np.ndarray:
    """Central-difference velocities of the tracked points, one-sided at
    the clip edges: (n, B, 3) in cm/s."""
    p = clip.tails
    n = len(p)
    v = np.empty_like(p)
    if n == 1:
        v[:] = 0.0
        return v
    v[1:-1] = (p[2:] - p[:-2]) * (0.5 * clip.rate_hz)
    v[0] = (p[1] - p[0]) * clip.rate_hz
    v[-1] = (p[-1] - p[-2]) * clip.rate_hz
    return v


def build_unit_db(clip: AnimationClip, tier: SegmentTier) -> list[AnimationUnit]:
    """One unit per tier segment, in corpus order.

    Features are sampled at the dense frames nearest the segment edges, so
    adjacent segments share their boundary sample exactly; that exact
    sharing is what lets contiguous units concatenate with zero join cost.
    """
    if not len(tier):
        raise EmptyTier("segmentation tier has no segments")
    if tier.end > clip.duration + 1e-9:
        raise IncompatibleBundle(
            f"tier ends at {tier.end} s but the clip lasts {clip.duration} s"
        )
    vel = _tail_velocities(clip)
    a = clip.frame_index([seg.start for seg in tier])
    b = clip.frame_index([seg.end for seg in tier])
    first_positions, first_velocities = clip.tails[a], vel[a]
    last_positions, last_velocities = clip.tails[b], vel[b]
    return [
        AnimationUnit(
            label=seg.label,
            start=seg.start,
            end=seg.end,
            source_index=i,
            first_positions=first_positions[i],
            first_velocities=first_velocities[i],
            last_positions=last_positions[i],
            last_velocities=last_velocities[i],
        )
        for i, seg in enumerate(tier)
    ]

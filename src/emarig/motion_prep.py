"""Head-motion normalization, dropout reconstruction and jitter smoothing.

Sweeps come out of the articulograph in device coordinates with the
speaker's head free to move; the three head-mounted reference coils let us
re-express every frame in a fixed head frame. Tracking gaps are filled by
linear interpolation and residual coil jitter is removed with a zero-phase
filter before any rigging happens, because jitter left in the targets turns
directly into implausible tongue motion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import for_blocks
from .ema_io import EmaSweep, CoilRoles, angles_from_vector, orientation_vector
from .errors import (
    AllInvalidChannel,
    DegenerateConfiguration,
    NoValidReferenceFrame,
    WindowTooLarge,
)

# Relative second-singular-value threshold below which a point set counts
# as collinear/coincident for rigid fitting.
_DEGENERACY_RTOL = 1e-9
# A point set whose closed-form lower bound on s1 / s0 clears this needs no
# SVD to pass `_check_spread`: LAPACK's singular values are within a few
# ulps of s0 of the exact ones, so its SVD could not refuse such a set.
_CERTIFIED_RTOL = 1e3 * _DEGENERACY_RTOL


@dataclass(frozen=True)
class Similarity:
    """Uniform-scale rigid map x -> scale * (rotation @ x) + translation."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def apply(self, points: np.ndarray) -> np.ndarray:
        return self.scale * (np.asarray(points) @ self.rotation.T) + self.translation

    def rotate(self, vectors: np.ndarray) -> np.ndarray:
        """Direction part only (unit vectors stay unit)."""
        return np.asarray(vectors) @ self.rotation.T

    @classmethod
    def identity(cls) -> "Similarity":
        return cls(scale=1.0, rotation=np.eye(3), translation=np.zeros(3))


@dataclass(frozen=True)
class SmoothingSpec:
    """Moving-average window against coil jitter; 1 frame switches it off.
    Samples whose sensor-fit rms exceeds `rms_ceiling` count as dropouts
    (see `detect_dropouts`); inf switches that off."""

    window_frames: int = 9
    rms_ceiling: float = np.inf

    def __post_init__(self):
        if self.window_frames < 1 or self.window_frames % 2 == 0:
            raise ValueError("window_frames must be odd and >= 1")
        if not self.rms_ceiling > 0:
            raise ValueError(f"rms_ceiling must be > 0 (inf for none), got {self.rms_ceiling!r}")


def _spread_certified(centered: np.ndarray) -> np.ndarray:
    """Per centered (n, 3) set C of `centered` (F, n, 3): whether its
    singular values s0 >= s1 >= s2 surely have s1 > _CERTIFIED_RTOL * s0.

    With G = C^T C, tr G = s0² + s1² + s2² >= s0², and the sum e2 of G's
    principal 2x2 minors is s0²s1² + s0²s2² + s1²s2² <= 3 s0²s1², so
    s1 / s0 >= sqrt(e2 / 3) / tr G. The rounding of G, e2 and tr² is a few
    n ulps of tr², far below the 3e-12 tr² that e2 must clear; tr G is kept
    in [2**-400, 2**400] so that nothing in the test over- or underflows.
    A set with a non-finite coordinate is never certified, and one whose
    G or e2 overflows is not either, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        G = np.swapaxes(centered, -1, -2) @ centered
        a, b, c = G[:, 0, 0], G[:, 1, 1], G[:, 2, 2]
        trace = a + b + c
        e2 = a * b - G[:, 0, 1] ** 2 + a * c - G[:, 0, 2] ** 2 + b * c - G[:, 1, 2] ** 2
        return (
            (trace >= 2.0**-400) & (trace <= 2.0**400)
            & (e2 >= 3 * _CERTIFIED_RTOL**2 * trace * trace)
        )


def _check_spread(points: np.ndarray, what: str, first_frame: int = 0) -> None:
    """Raise unless each (n, 3) point set of `points` (..., n, 3) spans a
    plane; for a stack of sets, the message names the first bad frame,
    counting the stack's first set as frame `first_frame`.

    A set that `_spread_certified` passes skips the SVD; the rest, and only
    they, are decided by their singular values as before."""
    centered = points - points.mean(axis=-2, keepdims=True)
    stack = centered.reshape(-1, *centered.shape[-2:])
    doubtful = np.flatnonzero(~_spread_certified(stack))
    if not len(doubtful):
        return
    s = np.linalg.svd(stack[doubtful], compute_uv=False)
    bad = np.flatnonzero((s[:, 0] == 0.0) | (s[:, 1] <= _DEGENERACY_RTOL * s[:, 0]))
    if len(bad):
        k = int(bad[0])
        at = f" at frame {first_frame + int(doubtful[k])}" if points.ndim > 2 else ""
        raise DegenerateConfiguration(
            f"{what} points are collinear or coincident{at} "
            f"(singular values {s[k]})"
        )


def similarity_align(moving: np.ndarray, fixed: np.ndarray) -> Similarity:
    """Least-squares similarity (uniform scale + rigid) mapping moving onto fixed.

    Umeyama's closed form; used to register device-space coil positions to
    mesh-space seed points.
    """
    moving = np.asarray(moving, dtype=np.float64)
    fixed = np.asarray(fixed, dtype=np.float64)
    if moving.shape != fixed.shape or moving.ndim != 2 or moving.shape[1] != 3:
        raise ValueError("point sets must both have shape (n, 3)")
    if moving.shape[0] < 3:
        raise ValueError("need at least 3 point pairs")
    _check_spread(moving, "moving")
    _check_spread(fixed, "fixed")

    n = moving.shape[0]
    cm = moving.mean(axis=0)
    cf = fixed.mean(axis=0)
    mc = moving - cm
    fc = fixed - cf
    H = mc.T @ fc / n
    U, S, Vt = np.linalg.svd(H)
    V = Vt.T
    d = np.sign(np.linalg.det(V @ U.T))
    D = np.diag([1.0, 1.0, d])
    R = V @ D @ U.T
    var_m = np.sum(mc * mc) / n
    scale = float(np.trace(np.diag(S) @ D) / var_m)
    t = cf - scale * (R @ cm)
    return Similarity(scale=scale, rotation=R, translation=t)


def rigid_align(moving: np.ndarray, fixed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rigid fit (Kabsch) of each frame of `moving` (F, n, 3)
    onto one `fixed` (n, 3); a single point set is the stack with F = 1.

    Returns (R (F, 3, 3), t (F, 3)) with R[f] @ x + t[f] mapping frame f
    onto `fixed`; reflections are never returned. Every frame needs >= 3
    non-collinear points, else DegenerateConfiguration names the first bad
    frame. `fixed` is the caller's to check (`normalize_head` checks its
    reference frame).
    """
    moving = np.asarray(moving, dtype=np.float64)
    fixed = np.asarray(fixed, dtype=np.float64)
    if moving.ndim != 3 or moving.shape[1:] != fixed.shape or fixed.shape[1:] != (3,):
        raise ValueError("point sets must have shapes (F, n, 3) and (n, 3)")
    if fixed.shape[0] < 3:
        raise ValueError("need at least 3 point pairs")
    _check_spread(moving, "moving")
    return _kabsch(moving, fixed)


def _kabsch(moving: np.ndarray, fixed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fit of `rigid_align`, for inputs it has checked."""
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


def normalize_head(
    sweep: EmaSweep,
    roles: CoilRoles,
    reference_frame: np.ndarray | None = None,
) -> EmaSweep:
    """Remove per-frame head pose using the three reference coils.

    Every frame is rigidly aligned so that its reference-coil triplet lands
    on the reference positions (by default, the first frame in which all
    three reference coils are valid; alternatively, three supplied points in
    the order of `roles.reference`). Positions and coil-axis vectors of all
    channels are transformed; angles are re-derived from the rotated axis
    vectors because Euler angles do not compose under rotation. Frames are
    fitted and moved in blocks on two cores (`for_blocks`), with the bits of
    one whole-batch `rigid_align`.
    """
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
    _check_spread(fixed, "reference-frame")

    positions = np.empty(sweep.positions.shape)
    phi = np.empty(sweep.phi.shape)
    theta = np.empty(sweep.theta.shape)

    def normalize_rows(rows: slice) -> None:
        moving = ref_pos[rows]
        _check_spread(moving, "moving", first_frame=rows.start)
        R, t = _kabsch(moving, fixed)
        positions[rows] = np.einsum("fij,fcj->fci", R, sweep.positions[rows]) + t[:, None, :]
        axes = orientation_vector(sweep.phi[rows], sweep.theta[rows])
        axes = np.einsum("fij,fcj->fci", R, axes)
        phi[rows], theta[rows] = angles_from_vector(axes)

    for_blocks(sweep.n_frames, normalize_rows)
    return sweep.with_arrays(positions=positions, phi=phi, theta=theta)


def detect_dropouts(sweep: EmaSweep, rms_ceiling: float = np.inf) -> np.ndarray:
    """(frames, channels) bool mask of invalid samples.

    A sample is invalid when any of its seven components is non-finite, or
    when its sensor-fit rms exceeds the ceiling (disabled by default since
    rms semantics vary across datasets).
    """
    bad = ~sweep.valid_mask()
    if np.isfinite(rms_ceiling):
        bad |= sweep.rms.astype(np.float64) > rms_ceiling
    return bad


def fill_dropouts(sweep: EmaSweep, rms_ceiling: float = np.inf) -> EmaSweep:
    """Replace invalid samples by per-channel linear interpolation.

    Nearest valid neighbors bracket each gap; leading/trailing gaps are
    filled with the nearest valid value. Valid samples are untouched.
    """
    bad = detect_dropouts(sweep, rms_ceiling)
    if not bad.any():
        return sweep

    n = sweep.n_frames
    idx = np.arange(n, dtype=np.float64)
    positions = np.array(sweep.positions)
    phi = np.array(sweep.phi)
    theta = np.array(sweep.theta)
    rms = np.array(sweep.rms)
    extra = np.array(sweep.extra)

    for c in range(len(sweep.channels)):
        gap = bad[:, c]
        if not gap.any():
            continue
        ok = ~gap
        if not ok.any():
            raise AllInvalidChannel(
                f"channel {sweep.channels[c]!r} has no valid sample"
            )
        good = idx[ok]
        for k in range(3):
            positions[gap, c, k] = np.interp(idx[gap], good, positions[ok, c, k])
        phi[gap, c] = np.interp(idx[gap], good, phi[ok, c])
        theta[gap, c] = np.interp(idx[gap], good, theta[ok, c])
        rms[gap, c] = np.interp(idx[gap], good, rms[ok, c].astype(np.float64)).astype(
            rms.dtype
        )
        extra[gap, c] = np.interp(
            idx[gap], good, extra[ok, c].astype(np.float64)
        ).astype(extra.dtype)

    return sweep.with_arrays(
        positions=positions, phi=phi, theta=theta, rms=rms, extra=extra
    )


def smooth(sweep: EmaSweep, spec: SmoothingSpec) -> EmaSweep:
    """Zero-phase moving average of coil positions (angles pass through).

    Edges are handled by reflection padding. Filtering is applied about each
    signal's mean so constant signals are preserved exactly. Expects
    dropouts to have been filled already.
    """
    w = spec.window_frames
    if w == 1:
        return sweep
    n = sweep.n_frames
    if w > n:
        raise WindowTooLarge(f"window of {w} frames exceeds sweep length {n}")

    flat = np.array(sweep.positions).reshape(n, -1)
    mean = flat.mean(axis=0)
    # The arithmetic of scipy.ndimage.uniform_filter1d(mode="mirror"), bit
    # for bit: the first window summed row by row, then a running sum of
    # the rows entering minus the rows leaving, divided by w once.
    padded = np.pad(flat - mean, ((w // 2, w // 2), (0, 0)), mode="reflect")
    sums = np.empty_like(flat)
    sums[0] = np.add.accumulate(padded[:w], axis=0)[-1]
    np.subtract(padded[w:], padded[: n - 1], out=sums[1:])
    np.add.accumulate(sums, axis=0, out=sums)
    positions = (sums / w + mean).reshape(sweep.positions.shape)
    return sweep.with_arrays(positions=positions)

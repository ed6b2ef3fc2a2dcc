"""Deterministic synthetic EMA data for tests and demos.

Licensed articulography corpora cannot ship with the repository, so this
module fabricates one: tongue coils ride parametric sinusoid modes on the
procedural tongue surface, a jaw coil swings on a hinge, reference coils
sit rigid on the "head", and a scripted head motion (plus a fixed
device-space similarity) wraps everything. All modes vanish at t = 0, so
the first frame is the exact rest configuration and the registration onto
the default seed points is exact.

`synthetic_motion` returns float64 sweeps together with their head-motion-
free ground truth; `write_fixture` materializes a complete working
directory (.pos sweeps, layout, rig graph, segmentation, pipeline config,
a token audio file).
"""

from __future__ import annotations

import io
import wave
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .anim_db import Segment, SegmentTier, format_segmentation
from .ema_io import (
    CoilRoles,
    EmaSweep,
    PosLayout,
    angles_from_vector,
    format_layout,
    write_pos,
)
from .ik_solver import IkParams
from .motion_prep import Similarity
from .rig import MeshParams, default_seed_points
from .rotations import axis_angle_matrix
from .unit_synth import SynthesisDefaults

TONGUE_COILS = ("TBackC", "TMidC", "TTipC", "TMidL", "TBladeL", "TMidR", "TBladeR")
REFERENCE_COILS = ("REF_L", "REF_R", "REF_N")
JAW_COIL = "JAW"
EXTRA_COIL = "EXTRA"

RIG_GRAPH_DOT = """digraph tongue {
  TRoot -> TBackC;
  TBackC -> TMidC;
  TMidC -> TTipC;
  TBackC -> TMidL;
  TMidL -> TBladeL;
  TBackC -> TMidR;
  TMidR -> TBladeR;
}
"""

_LABEL_CYCLE = ("a", "t", "i", "m", "s", "u", "e", "k", "o", "n")
_FRAME_CYCLE = (47, 33, 56, 41, 29, 62, 38, 51, 44, 35)

# Per-coil motion modes: (amplitude cm, frequency Hz, unit direction).
_COIL_MODES = {
    "TBackC": ((0.14, 1.1, (0.2, 0.0, 1.0)),),
    "TMidC": ((0.22, 1.4, (0.3, 0.0, 1.0)), (0.10, 0.9, (1.0, 0.0, 0.0))),
    "TTipC": ((0.34, 2.1, (0.5, 0.0, 1.0)), (0.16, 1.3, (1.0, 0.0, -0.2))),
    "TMidL": ((0.18, 1.2, (0.2, 0.5, 1.0)),),
    "TMidR": ((0.18, 1.25, (0.2, -0.5, 1.0)),),
    "TBladeL": ((0.24, 1.7, (0.4, 0.4, 1.0)),),
    "TBladeR": ((0.24, 1.65, (0.4, -0.4, 1.0)),),
}

_WAVE_AMP = 0.16          # traveling-wave mode along the tongue length
_WAVE_FREQ = 0.8
_WAVE_K = 0.7

_JAW_REST = np.array([2.0, 0.0, -1.6])
_JAW_AXIS_REST = np.array([1.0, 0.0, 0.25]) / np.linalg.norm([1.0, 0.0, 0.25])
_JAW_HINGE = np.array([-4.0, 0.0, 0.0])
_JAW_MAX_OPEN = 0.18      # radians about +y
_JAW_FREQ = 0.55

_REFS_DEVICE = np.array([[-8.0, 4.0, 9.0], [-8.0, -4.0, 9.0], [2.0, 0.0, 12.0]])
_COIL_AXIS_MOUTH = np.array([0.15, 0.0, 1.0]) / np.linalg.norm([0.15, 0.0, 1.0])


@dataclass(frozen=True)
class FixtureSpec:
    n_sweeps: int = 2
    frames_per_sweep: int = 600
    rate_hz: float = 200.0
    head_motion: bool = True
    mesh: MeshParams = MeshParams()

    def __post_init__(self):
        if self.n_sweeps < 1 or self.frames_per_sweep < 1:
            raise ValueError(
                "a fixture needs at least 1 sweep of at least 1 frame, got "
                f"{self.n_sweeps} sweeps of {self.frames_per_sweep} frames"
            )
        if not (self.rate_hz > 0 and np.isfinite(self.rate_hz)):
            raise ValueError(f"fixture rate must be finite and positive, got {self.rate_hz}")

    @property
    def total_frames(self) -> int:
        return self.n_sweeps * self.frames_per_sweep


@dataclass(frozen=True)
class FixtureData:
    layout: PosLayout
    roles: CoilRoles
    sweeps: list[EmaSweep]          # as "measured" (head motion applied)
    truth_sweeps: list[EmaSweep]    # same signals in the fixed head frame
    tier: SegmentTier
    seeds: dict[str, np.ndarray]    # mouth/mesh-frame rest coil positions
    device: Similarity              # mouth frame -> device frame


def _device_transform() -> Similarity:
    R = axis_angle_matrix([0.0, 0.0, 1.0], 0.35) @ axis_angle_matrix(
        [0.0, 1.0, 0.0], -0.15
    )
    return Similarity(scale=1.15, rotation=R, translation=np.array([3.0, -2.0, 5.0]))


def _head_pose(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scripted head motion: (rotations (n,3,3), translations (n,3)),
    identity at t = 0."""
    a1 = 0.06 * np.sin(2 * np.pi * 0.21 * t)
    a2 = 0.04 * np.sin(2 * np.pi * 0.13 * t)
    ax1 = np.array([0.3, 1.0, 0.2]) / np.linalg.norm([0.3, 1.0, 0.2])
    ax2 = np.array([1.0, 0.0, 0.0])
    R = axis_angle_matrix(ax1, a1) @ axis_angle_matrix(ax2, a2)
    c = np.stack(
        [
            0.4 * np.sin(2 * np.pi * 0.17 * t),
            0.3 * np.sin(2 * np.pi * 0.11 * t),
            0.25 * np.sin(2 * np.pi * 0.23 * t),
        ],
        axis=-1,
    )
    return R, c


def _mouth_trajectories(seeds: dict[str, np.ndarray], t: np.ndarray) -> np.ndarray:
    """Tongue coil paths in the mouth frame: (n, coils, 3)."""
    out = np.empty((len(t), len(TONGUE_COILS), 3))
    for k, name in enumerate(TONGUE_COILS):
        p = np.broadcast_to(seeds[name], (len(t), 3)).copy()
        for amp, freq, direction in _COIL_MODES[name]:
            d = np.asarray(direction, dtype=np.float64)
            d = d / np.linalg.norm(d)
            p = p + amp * np.sin(2 * np.pi * freq * t)[:, None] * d
        wave = _WAVE_AMP * np.sin(2 * np.pi * _WAVE_FREQ * t) * np.cos(
            _WAVE_K * seeds[name][0]
        )
        p[:, 2] += wave
        out[:, k] = p
    return out


def _jaw_trajectory(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jaw coil positions and axis vectors in the mouth frame."""
    alpha = _JAW_MAX_OPEN * (1.0 - np.cos(2 * np.pi * _JAW_FREQ * t)) / 2.0
    R = axis_angle_matrix([0.0, 1.0, 0.0], alpha)
    return R @ (_JAW_REST - _JAW_HINGE) + _JAW_HINGE, R @ _JAW_AXIS_REST


def fixture_channels() -> tuple[str, ...]:
    return REFERENCE_COILS + (JAW_COIL,) + TONGUE_COILS + (EXTRA_COIL,)


def synthetic_motion(spec: FixtureSpec = FixtureSpec()) -> FixtureData:
    """Generate the synthetic corpus in memory (float64, no quantization)."""
    channels = fixture_channels()
    layout = PosLayout(channels=channels, rate_hz=spec.rate_hz)
    roles = CoilRoles.from_channels(
        channels, reference=REFERENCE_COILS, jaw=(JAW_COIL,), tongue=TONGUE_COILS
    )
    seeds = default_seed_points(spec.mesh)
    device = _device_transform()

    sweeps = []
    truth_sweeps = []
    for s in range(spec.n_sweeps):
        frames = spec.frames_per_sweep
        t = (s * frames + np.arange(frames)) / spec.rate_hz

        mouth = _mouth_trajectories(seeds, t)
        jaw_pos, jaw_axes = _jaw_trajectory(t)

        C = len(channels)
        dev_pos = np.empty((frames, C, 3))
        dev_axes = np.empty((frames, C, 3))
        dev_pos[:, 0:3] = _REFS_DEVICE
        dev_axes[:, 0:3] = np.array([0.3, 0.2, 0.9]) / np.linalg.norm([0.3, 0.2, 0.9])
        dev_pos[:, 3] = device.apply(jaw_pos)
        dev_axes[:, 3] = device.rotate(jaw_axes)
        dev_pos[:, 4 : 4 + len(TONGUE_COILS)] = device.apply(mouth)
        dev_axes[:, 4 : 4 + len(TONGUE_COILS)] = device.rotate(_COIL_AXIS_MOUTH)
        dev_pos[:, -1] = np.array([0.0, 6.0, 2.0])
        dev_axes[:, -1] = np.array([0.0, 1.0, 0.0])

        if spec.head_motion:
            Rh, ch = _head_pose(t)
            meas_pos = np.einsum("fij,fcj->fci", Rh, dev_pos) + ch[:, None, :]
            meas_axes = np.einsum("fij,fcj->fci", Rh, dev_axes)
        else:
            meas_pos, meas_axes = dev_pos, dev_axes

        rms = (0.01 + 0.004 * np.sin(2 * np.pi * 0.4 * t))[:, None].repeat(C, axis=1)

        def build(positions, axes, sweep_id):
            phi, theta = angles_from_vector(axes)
            return EmaSweep(
                rate_hz=spec.rate_hz,
                channels=channels,
                positions=positions,
                phi=phi,
                theta=theta,
                rms=rms.astype(np.float32),
                extra=np.zeros((frames, C), np.float32),
                sweep_id=sweep_id,
            )

        sweeps.append(build(meas_pos, meas_axes, f"sweep_{s + 1:02d}"))
        truth_sweeps.append(build(dev_pos, dev_axes, f"truth_{s + 1:02d}"))

    tier = _make_tier(spec.total_frames, spec.rate_hz)
    return FixtureData(
        layout=layout,
        roles=roles,
        sweeps=sweeps,
        truth_sweeps=truth_sweeps,
        tier=tier,
        seeds=seeds,
        device=device,
    )


def _make_tier(total_frames: int, rate_hz: float) -> SegmentTier:
    """Label segments on the exact frame grid, tiling the whole timeline."""
    segments = []
    frame = 0
    i = 0
    while frame < total_frames:
        length = _FRAME_CYCLE[i % len(_FRAME_CYCLE)]
        if total_frames - frame - length < 12:
            length = total_frames - frame
        segments.append(
            Segment(
                start=frame / rate_hz,
                end=(frame + length) / rate_hz,
                label=_LABEL_CYCLE[i % len(_LABEL_CYCLE)],
            )
        )
        frame += length
        i += 1
    return SegmentTier(segments=tuple(segments))


def _token_wav() -> bytes:
    """A short deterministic sine tone; the pipeline treats audio as opaque."""
    rate = 16000
    t = np.arange(int(0.25 * rate)) / rate
    samples = (0.3 * np.sin(2 * np.pi * 440.0 * t) * 32767).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(samples.tobytes())
    return buf.getvalue()


def _setting_lines(settings) -> list[str]:
    """One ``name = value`` config line per field of a settings dataclass."""
    return [f"{f.name} = {getattr(settings, f.name)!r}" for f in fields(settings)]


def _config_text(data: FixtureData, spec: FixtureSpec) -> str:
    # the largest odd smoothing window, up to 9 frames, that fits in a sweep
    window = min(9, (spec.frames_per_sweep - 1) | 1)
    lines = [
        "[paths]",
        "ema = " + ", ".join(f"sweep_{s + 1:02d}.pos" for s in range(spec.n_sweeps)),
        "layout = layout.cfg",
        "rig_graph = tongue.dot",
        "segmentation = segmentation.txt",
        "audio = audio/utt_01.wav",
        "",
        "[roles]",
        f"reference = {', '.join(REFERENCE_COILS)}",
        f"jaw = {JAW_COIL}",
        f"tongue = {', '.join(TONGUE_COILS)}",
        "",
        "[smoothing]",
        f"window_frames = {window}",
        "",
        "[ik]",
        *_setting_lines(IkParams()),
        "",
        "[rig]",
        "root_offset = -1.0, 0.0, -1.0",
    ]
    for name in TONGUE_COILS:
        p = [float(x) for x in data.seeds[name]]
        lines.append(f"seed.{name} = {p[0]!r}, {p[1]!r}, {p[2]!r}")
    a, b, c = (float(x) for x in spec.mesh.extents)
    lines += [
        "",
        "[synthesis]",
        *_setting_lines(SynthesisDefaults()),
        "",
        "[mesh]",
        f"extents = {a!r}, {b!r}, {c!r}",
        f"n_long = {spec.mesh.n_long}",
        f"n_lat = {spec.mesh.n_lat}",
        "",
    ]
    return "\n".join(lines)


def write_fixture(out_dir: str | Path, spec: FixtureSpec = FixtureSpec()) -> Path:
    """Materialize the synthetic corpus as a working directory.

    Returns the path of the pipeline config file inside it.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = synthetic_motion(spec)

    for sweep in data.sweeps:
        (out / f"{sweep.sweep_id}.pos").write_bytes(write_pos(sweep, data.layout))
    (out / "layout.cfg").write_text(format_layout(data.layout), encoding="utf-8")
    (out / "tongue.dot").write_text(RIG_GRAPH_DOT, encoding="utf-8")
    (out / "segmentation.txt").write_text(
        format_segmentation(data.tier), encoding="utf-8"
    )
    (out / "audio").mkdir(exist_ok=True)
    (out / "audio" / "utt_01.wav").write_bytes(_token_wav())
    config_path = out / "config.cfg"
    config_path.write_text(_config_text(data, spec), encoding="utf-8")
    return config_path

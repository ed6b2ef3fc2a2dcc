"""Carstens-style ``.pos`` sweep I/O and coil-role bookkeeping.

A sweep file is headerless binary: frame-major, channel-ordered, seven
little-endian float32 values per channel per frame, in the order
``x, y, z, phi, theta, rms, extra``. On disk, positions are millimeters and
angles degrees; a text sidecar (see :func:`parse_layout`) supplies channel
names and the sample rate. In memory everything is centimeters and radians,
right-handed, with ``rms``/``extra`` kept as raw float32 so a read/write
cycle is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BadLayout, BadRoles, ChannelMismatch, TruncatedFrame

VALUES_PER_CHANNEL = 7
BYTES_PER_CHANNEL = VALUES_PER_CHANNEL * 4

_MM_PER_CM = 10.0
_DEG_PER_RAD = 180.0 / np.pi


@dataclass(frozen=True)
class PosLayout:
    """Sidecar describing how to interpret a raw ``.pos`` byte stream."""

    channels: tuple[str, ...]
    rate_hz: float = 200.0
    units: str = "mm_deg"

    def __post_init__(self):
        if len(self.channels) < 1:
            raise BadLayout("layout declares no channels")
        if len(set(self.channels)) != len(self.channels):
            raise BadLayout("duplicate channel names in layout")
        if not (self.rate_hz > 0 and np.isfinite(self.rate_hz)):
            raise BadLayout(f"sample rate must be finite and positive, got {self.rate_hz}")
        if self.units != "mm_deg":
            raise BadLayout(f"unsupported on-disk units {self.units!r}")

    @property
    def frame_bytes(self) -> int:
        return len(self.channels) * BYTES_PER_CHANNEL


@dataclass(frozen=True)
class EmaSweep:
    """One acquisition sweep as dense per-channel arrays.

    positions: (frames, channels, 3) float64, centimeters
    phi, theta: (frames, channels) float64, radians
    rms, extra: (frames, channels) float32, preserved verbatim from disk
    """

    rate_hz: float
    channels: tuple[str, ...]
    positions: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    rms: np.ndarray
    extra: np.ndarray
    sweep_id: str = ""

    def __post_init__(self):
        n, c = self.positions.shape[:2]
        if self.positions.shape != (n, c, 3):
            raise ValueError("positions must have shape (frames, channels, 3)")
        for name in ("phi", "theta", "rms", "extra"):
            if getattr(self, name).shape != (n, c):
                raise ValueError(f"{name} must have shape (frames, channels)")
        if c != len(self.channels):
            raise ValueError("channel axis does not match channel names")
        if len(set(self.channels)) != len(self.channels):
            raise ValueError("channel names must be unique")
        if not (self.rate_hz > 0 and np.isfinite(self.rate_hz)):
            raise BadLayout(f"sample rate must be finite and positive, got {self.rate_hz}")
        for name in ("positions", "phi", "theta", "rms", "extra"):
            getattr(self, name).flags.writeable = False

    @property
    def n_frames(self) -> int:
        return self.positions.shape[0]

    def channel_index(self, name: str) -> int:
        try:
            return self.channels.index(name)
        except ValueError:
            raise KeyError(f"sweep has no channel {name!r}") from None

    def valid_mask(self) -> np.ndarray:
        """(frames, channels) bool: True where all seven components are finite."""
        ok = np.isfinite(self.positions).all(axis=2)
        ok &= np.isfinite(self.phi) & np.isfinite(self.theta)
        ok &= np.isfinite(self.rms) & np.isfinite(self.extra)
        return ok

    def with_arrays(self, **kw) -> "EmaSweep":
        """Copy of the sweep with some arrays replaced."""
        return replace(self, **kw)


@dataclass(frozen=True)
class CoilRoles:
    """Assignment of sweep channels to head-reference, jaw and tongue duty."""

    reference: tuple[str, str, str]
    jaw: tuple[str, ...] = ()
    tongue: tuple[str, ...] = ()
    ignored: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if len(self.reference) != 3:
            raise BadRoles(f"exactly 3 reference coils required, got {len(self.reference)}")
        if len(self.jaw) > 1:
            raise BadRoles("at most one jaw coil")
        if len(self.tongue) > 8:
            raise BadRoles(f"at most 8 tongue coils, got {len(self.tongue)}")
        named = list(self.reference) + list(self.jaw) + list(self.tongue) + list(self.ignored)
        if len(set(named)) != len(named):
            raise BadRoles("role sets must be disjoint")

    def validate_against(self, channels: tuple[str, ...]) -> None:
        missing = [n for n in self.reference + self.jaw + self.tongue if n not in channels]
        if missing:
            raise BadRoles(f"role coils not present in sweep channels: {', '.join(missing)}")

    @classmethod
    def from_channels(
        cls,
        channels: tuple[str, ...],
        reference: tuple[str, str, str],
        jaw: tuple[str, ...] = (),
        tongue: tuple[str, ...] = (),
    ) -> "CoilRoles":
        assigned = set(reference) | set(jaw) | set(tongue)
        ignored = tuple(c for c in channels if c not in assigned)
        roles = cls(reference=reference, jaw=jaw, tongue=tongue, ignored=ignored)
        roles.validate_against(channels)
        return roles


def read_pos(data: bytes, layout: PosLayout) -> EmaSweep:
    """Decode a raw byte stream into a sweep using the given layout.

    Raises TruncatedFrame when the byte count is not a whole number of frames.
    """
    fb = layout.frame_bytes
    if len(data) % fb != 0:
        raise TruncatedFrame(
            f"stream of {len(data)} bytes is not a multiple of the "
            f"{fb}-byte frame ({len(layout.channels)} channels)"
        )
    n = len(data) // fb
    c = len(layout.channels)
    raw = np.frombuffer(data, dtype="<f4").reshape(n, c, VALUES_PER_CHANNEL)
    # 64-bit intermediates make the mm->cm and deg->rad conversions exactly
    # invertible at float32 output precision. A signalling NaN comes out as a
    # quiet NaN, a dropout like any other, without the cast's warning.
    with np.errstate(invalid="ignore"):
        positions = raw[:, :, 0:3].astype(np.float64) / _MM_PER_CM
        phi = raw[:, :, 3].astype(np.float64) / _DEG_PER_RAD
        theta = raw[:, :, 4].astype(np.float64) / _DEG_PER_RAD
    rms = raw[:, :, 5].copy()
    extra = raw[:, :, 6].copy()
    return EmaSweep(
        rate_hz=layout.rate_hz,
        channels=layout.channels,
        positions=positions,
        phi=phi,
        theta=theta,
        rms=rms,
        extra=extra,
    )


def write_pos(sweep: EmaSweep, layout: PosLayout) -> bytes:
    """Encode a sweep back to the on-disk byte stream (inverse of read_pos)."""
    if sweep.channels != layout.channels:
        raise ChannelMismatch(
            f"sweep channels {sweep.channels} do not match layout {layout.channels}"
        )
    n, c = sweep.n_frames, len(sweep.channels)
    out = np.empty((n, c, VALUES_PER_CHANNEL), dtype="<f4")
    out[:, :, 0:3] = sweep.positions * _MM_PER_CM
    out[:, :, 3] = sweep.phi * _DEG_PER_RAD
    out[:, :, 4] = sweep.theta * _DEG_PER_RAD
    out[:, :, 5] = sweep.rms
    out[:, :, 6] = sweep.extra
    return out.tobytes()


def orientation_vector(phi, theta) -> np.ndarray:
    """Unit coil-axis vector for azimuth ``phi`` and elevation ``theta``.

    Convention: phi measured from +x in the xy-plane, theta toward +z, so
    (0, 0) maps to (1, 0, 0). Accepts scalars or arrays (vectorized over
    leading axes); the 3-vector goes on the last axis.
    """
    phi = np.asarray(phi, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    ct = np.cos(theta)
    vec = np.stack([ct * np.cos(phi), ct * np.sin(phi), np.sin(theta)], axis=-1)
    return vec


def angles_from_vector(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of orientation_vector for unit vectors: returns (phi, theta)."""
    vec = np.asarray(vec, dtype=np.float64)
    phi = np.arctan2(vec[..., 1], vec[..., 0])
    theta = np.arcsin(np.clip(vec[..., 2], -1.0, 1.0))
    return phi, theta


# --- layout sidecar ----------------------------------------------------------

def parse_layout(text: str) -> PosLayout:
    """Parse the UTF-8 ``key = value`` sidecar that accompanies a .pos file."""
    given: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadLayout(f"layout line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "channels":
            given[key] = tuple(name.strip() for name in value.split(",") if name.strip())
        elif key == "rate_hz":
            try:
                given[key] = float(value)
            except ValueError:
                raise BadLayout(f"layout line {lineno}: bad rate_hz {value!r}") from None
        elif key == "units":
            given[key] = value
        else:
            raise BadLayout(f"layout line {lineno}: unknown key {key!r}")
    if "channels" not in given:
        raise BadLayout("layout is missing the 'channels' key")
    return PosLayout(**given)


def format_rate(rate_hz: float) -> str:
    """Shortest round-trip digits of a rate, with no exponent or trailing ".0"."""
    return np.format_float_positional(rate_hz, trim="-")


def format_layout(layout: PosLayout) -> str:
    return (
        f"channels = {','.join(layout.channels)}\n"
        f"rate_hz = {format_rate(layout.rate_hz)}\n"
        f"units = {layout.units}\n"
    )

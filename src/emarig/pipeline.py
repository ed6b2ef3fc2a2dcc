"""End-to-end pipeline: config parsing, model compilation, validation.

This is the glue the CLI drives: read sweeps, prepare them, compile the
rig, bake the clip, bundle the result, dump its trajectories, and check a
finished bundle against its source recordings.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .anim_db import AnimationClip, bake, parse_segmentation
from .bundle import Bundle, LoadedBundle, write_bundle
from .collada_io import write_collada
from .ema_io import CoilRoles, EmaSweep, PosLayout, parse_layout, read_pos, write_pos
from .errors import ConfigError, IncompatibleBundle, NoValidReferenceFrame
from .ik_solver import IkParams, skin_trajectories, stop_counts
from .motion_prep import SmoothingSpec, fill_dropouts, normalize_head, smooth
from .rig import (
    CompiledRig,
    MeshParams,
    RigConfig,
    SkinnedMesh,
    compile_rig,
    default_seed_points,
    generate_default_mesh,
    load_mesh,
    parse_rig_graph,
    register_first_frame,
    seed_vertices,
)
from .unit_synth import SynthesisDefaults


@dataclass(frozen=True)
class PipelineConfig:
    ema_paths: tuple[Path, ...]
    layout_path: Path
    rig_graph_path: Path
    mesh_path: Path | None
    segmentation_path: Path | None
    audio_paths: tuple[Path, ...]
    reference: tuple[str, str, str]
    jaw: tuple[str, ...]
    tongue: tuple[str, ...]
    smoothing: SmoothingSpec
    ik: IkParams
    rig: RigConfig
    synthesis: SynthesisDefaults
    mesh_params: MeshParams


def _split_list(value: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in value.split(",") if v.strip())


# The config sections that set one dataclass each: their keys are its
# fields, and it holds their defaults and range checks.
_SETTINGS = {
    "smoothing": SmoothingSpec,
    "ik": IkParams,
    "synthesis": SynthesisDefaults,
    "mesh": MeshParams,
}

# The keys of the other sections; [rig] also takes seed.<Coil> and
# group.<Name> keys.
_SECTION_KEYS = {
    "paths": ("ema", "layout", "rig_graph", "mesh", "segmentation", "audio"),
    "roles": ("reference", "jaw", "tongue"),
    "rig": ("root_offset",),
}


def _floats3(value: str, what: str) -> np.ndarray:
    parts = _split_list(value)
    if len(parts) != 3:
        raise ConfigError(f"{what} needs three comma-separated numbers, got {value!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise ConfigError(f"bad number in {what}: {value!r}") from None


# How a value is read, by the annotation of the field it sets.
_READERS = {
    "int": lambda value, key: int(value),
    "float": lambda value, key: float(value),
    "tuple[float, float, float]": lambda value, key: tuple(_floats3(value, key)),
}


def load_config(path: str | Path) -> PipelineConfig:
    """Parse the sectioned ``key = value`` pipeline configuration file.

    Relative paths are resolved against the config file's directory. An
    unknown section or key is a ConfigError, not a setting ignored.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    # No section name can be empty, so no section of the file is the
    # defaults section: [DEFAULT] is an unknown section like any other.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str  # seed.<CoilName> keys are case-sensitive
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    section_keys = _SECTION_KEYS | {
        section: tuple(f.name for f in fields(cls)) for section, cls in _SETTINGS.items()
    }
    for section in parser.sections():
        if section not in section_keys:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in section_keys[section] and not (
                section == "rig" and key.startswith(("seed.", "group."))
            ):
                raise ConfigError(f"unknown [{section}] key {key!r}")

    base = path.parent

    def get(section: str, key: str) -> str:
        return parser.get(section, key, fallback="")

    def settings(section: str):
        """The section's dataclass, given only the keys that the file sets."""
        cls = _SETTINGS[section]
        types = {f.name: f.type for f in fields(cls)}
        given = parser.items(section) if parser.has_section(section) else ()
        return cls(**{key: _READERS[types[key]](value, key) for key, value in given})

    def resolve(p: str) -> Path:
        candidate = Path(p)
        return candidate if candidate.is_absolute() else base / candidate

    if not parser.has_section("paths"):
        raise ConfigError("config needs a [paths] section")
    paths = {key: get("paths", key) for key in _SECTION_KEYS["paths"]}
    for key in ("ema", "layout", "rig_graph"):
        if not paths[key]:
            raise ConfigError(f"[paths] {key} is required")
    audio_paths = tuple(resolve(p) for p in _split_list(paths["audio"]))
    bundled: dict[str, Path] = {}  # the bundle keeps audio by file name
    for p in audio_paths:
        if bundled.setdefault(p.name, p) != p:
            raise ConfigError(f"audio files {bundled[p.name]} and {p} share the name {p.name!r}")

    if not parser.has_section("roles"):
        raise ConfigError("config needs a [roles] section")
    reference = _split_list(get("roles", "reference"))
    if len(reference) != 3:
        raise ConfigError("[roles] reference must name exactly 3 coils")
    tongue = _split_list(get("roles", "tongue"))
    if not tongue:
        raise ConfigError("[roles] tongue must name at least one coil")

    try:
        smoothing, ik, synthesis = map(settings, ("smoothing", "ik", "synthesis"))

        seeds: dict[str, np.ndarray] = {}
        group_map: dict[str, str] = {}
        rig_kwargs: dict = {}
        if parser.has_section("rig"):
            for key, value in parser.items("rig"):
                if key.startswith("seed."):
                    seeds[key[5:]] = _floats3(value, key)
                elif key.startswith("group."):
                    group_map[key[6:]] = value.strip()
                else:
                    rig_kwargs["root_offset"] = _floats3(value, key)
        if group_map:
            rig_kwargs["group_map"] = group_map
        rig_config = RigConfig(seeds=seeds, **rig_kwargs)

        mesh_params = settings("mesh")
    except ValueError as exc:
        raise ConfigError(f"bad value in config: {exc}") from None

    return PipelineConfig(
        ema_paths=tuple(resolve(p) for p in _split_list(paths["ema"])),
        layout_path=resolve(paths["layout"]),
        rig_graph_path=resolve(paths["rig_graph"]),
        mesh_path=resolve(paths["mesh"]) if paths["mesh"] else None,
        segmentation_path=resolve(paths["segmentation"]) if paths["segmentation"] else None,
        audio_paths=audio_paths,
        reference=reference,
        jaw=_split_list(get("roles", "jaw")),
        tongue=tongue,
        smoothing=smoothing,
        ik=ik,
        rig=rig_config,
        synthesis=synthesis,
        mesh_params=mesh_params,
    )


@dataclass(frozen=True)
class CompileReport:
    n_frames: int
    max_residual: float
    mean_residual: float
    nonconvergent_frames: int
    registration_rms: float
    residuals: np.ndarray
    stop_counts: dict[str, int]  # frames per ik_solver.STOP_REASONS name

    def lines(self) -> list[str]:
        stops = "  ".join(f"{name} {n}" for name, n in self.stop_counts.items())
        return [
            f"frames            {self.n_frames}",
            f"max residual      {self.max_residual:.6g} cm",
            f"mean residual     {self.mean_residual:.6g} cm",
            f"non-convergent    {self.nonconvergent_frames}",
            f"ik stop           {stops}",
            f"registration rms  {self.registration_rms:.6g} cm",
        ]


@dataclass(frozen=True)
class PipelineResult:
    config: PipelineConfig
    layout: PosLayout
    rig: CompiledRig
    clip: AnimationClip
    report: CompileReport


def _read_text(path: Path, what: str) -> str:
    if not path.exists():
        raise ConfigError(f"{what} file not found: {path}")
    return path.read_text(encoding="utf-8")


def _read_sweeps(config: PipelineConfig, layout: PosLayout) -> list[EmaSweep]:
    """The configured sweeps as recorded, each named by its file's stem."""
    sweeps = []
    for p in config.ema_paths:
        if not p.exists():
            raise ConfigError(f"EMA file not found: {p}")
        sweep = read_pos(p.read_bytes(), layout)
        sweeps.append(replace(sweep, sweep_id=p.stem))
    return sweeps


def prepare_sweeps(
    config: PipelineConfig,
    layout: PosLayout,
    roles: CoilRoles,
) -> list[EmaSweep]:
    """Load all configured sweeps and prepare them: fill dropouts,
    normalize the head, smooth.

    Head normalization uses the first sweep's first valid reference frame
    as the common head frame for the whole session.
    """
    prepared = []
    reference_frame = None
    ref_idx = [layout.channels.index(n) for n in roles.reference]
    for sweep in _read_sweeps(config, layout):
        filled = fill_dropouts(sweep, config.smoothing.rms_ceiling)
        if reference_frame is None:
            if filled.n_frames == 0:
                raise NoValidReferenceFrame(f"first sweep {sweep.sweep_id!r} has no frames")
            reference_frame = np.array(filled.positions[0, ref_idx, :])
        normalized = normalize_head(filled, roles, reference_frame)
        prepared.append(smooth(normalized, config.smoothing))
    return prepared


def _mesh_seeds(config: PipelineConfig) -> dict[str, np.ndarray]:
    """The configured seeds; with the procedural mesh, unconfigured seeds
    for the canonical coil names fall back to its built-in surface points."""
    if config.mesh_path is not None:
        return config.rig.seeds
    seeds = default_seed_points(config.mesh_params)
    seeds.update(config.rig.seeds)
    return seeds


def _layout_and_roles(config: PipelineConfig) -> tuple[PosLayout, CoilRoles]:
    layout = parse_layout(_read_text(config.layout_path, "layout"))
    roles = CoilRoles.from_channels(
        layout.channels,
        reference=tuple(config.reference),
        jaw=tuple(config.jaw),
        tongue=tuple(config.tongue),
    )
    return layout, roles


def build_mesh(config: PipelineConfig) -> tuple[SkinnedMesh, RigConfig]:
    """Load the user mesh or generate the procedural stand-in, with the
    rig config whose seeds fit it (see _mesh_seeds)."""
    if config.mesh_path is not None:
        mesh = load_mesh(_read_text(config.mesh_path, "mesh"), config.rig.group_map)
    else:
        mesh = generate_default_mesh(config.mesh_params)
    return mesh, replace(config.rig, seeds=_mesh_seeds(config))


def compile_model(config: PipelineConfig) -> PipelineResult:
    """Run the full compile pipeline (no files written)."""
    layout, roles = _layout_and_roles(config)
    graph = parse_rig_graph(_read_text(config.rig_graph_path, "rig graph"))
    mesh, rig_config = build_mesh(config)

    prepared = prepare_sweeps(config, layout, roles)
    rig = compile_rig(graph, prepared[0], roles, mesh, rig_config)
    clip = bake(prepared, rig, roles, config.ik)

    if config.segmentation_path is not None:
        tier = parse_segmentation(_read_text(config.segmentation_path, "segmentation"))
        if tier.end > clip.duration + 1e-9:
            raise ConfigError(
                f"segmentation runs to {tier.end} s but the clip lasts {clip.duration} s"
            )

    residuals = clip.residuals
    report = CompileReport(
        n_frames=clip.n_keys,
        max_residual=float(residuals.max()),
        mean_residual=float(residuals.mean()),
        nonconvergent_frames=int((residuals > config.ik.tolerance).sum()),
        registration_rms=rig.registration_rms,
        residuals=residuals,
        stop_counts=stop_counts(clip.stop_reasons),
    )

    return PipelineResult(config=config, layout=layout, rig=rig, clip=clip, report=report)


def build_bundle(result: PipelineResult, out_path: str | Path) -> Bundle:
    """Export a compiled model and its companions as a bundle."""
    model_text = write_collada(result.rig.mesh, result.rig.armature, result.clip)
    segmentation_text = None
    if result.config.segmentation_path is not None:
        segmentation_text = _read_text(result.config.segmentation_path, "segmentation")
    layout_text = _read_text(result.config.layout_path, "layout")
    audio = {}
    for p in result.config.audio_paths:
        if not p.exists():
            raise ConfigError(f"audio file not found: {p}")
        audio[p.name] = p.read_bytes()
    return write_bundle(
        out_path,
        model_text,
        channels=result.layout.channels,
        rate_hz=result.layout.rate_hz,
        segmentation_text=segmentation_text,
        layout_text=layout_text,
        audio=audio,
    )


@dataclass(frozen=True)
class ValidationReport:
    per_coil_rms: dict[str, float]
    n_frames: int

    @property
    def max_rms(self) -> float:
        return max(self.per_coil_rms.values())

    def lines(self) -> list[str]:
        out = [f"{name}  {rms:.6g} cm" for name, rms in self.per_coil_rms.items()]
        out.append(f"max rms  {self.max_rms:.6g} cm over {self.n_frames} frames")
        return out


def validate_model(loaded: LoadedBundle, config: PipelineConfig) -> ValidationReport:
    """Compare bundle seed-vertex trajectories against the source coils.

    The source sweeps are prepared with the same settings, registered into
    mesh space as compile_rig registers them (register_first_frame), and
    measured per coil as the RMS distance to the corresponding skinned
    seed-vertex trajectory.
    """
    clip = loaded.clip
    armature = loaded.armature

    layout, roles = _layout_and_roles(config)
    missing = [n for n in armature.bone_names if n not in roles.tongue]
    if missing:
        raise IncompatibleBundle(
            f"bundle bones have no tongue channel in this config: {', '.join(missing)}"
        )

    prepared = prepare_sweeps(config, layout, roles)
    total = sum(s.n_frames for s in prepared)
    if total != clip.n_keys:
        raise IncompatibleBundle(
            f"bundle has {clip.n_keys} keys but the EMA data has {total} frames"
        )

    idx = [layout.channels.index(n) for n in armature.bone_names]
    registration, _, _ = register_first_frame(
        prepared[0].positions[0, idx, :], armature.bone_names, _mesh_seeds(config)
    )
    source = np.concatenate(
        [registration.apply(s.positions[:, idx, :]) for s in prepared], axis=0
    )

    # The rest tails are where compile_rig picked the seed vertices, so the
    # same rule picks them again (snapping moved them onto the tails, where
    # they stay the nearest).
    tracks = skin_trajectories(
        loaded.mesh,
        armature,
        clip.quats,
        clip.heads,
        clip.stretches,
        seed_vertices(loaded.mesh, armature.tails),
    )

    diffs = np.sqrt(np.sum((tracks - source) ** 2, axis=2))
    per_coil = {
        name: float(np.sqrt(np.mean(diffs[:, k] ** 2)))
        for k, name in enumerate(armature.bone_names)
    }
    return ValidationReport(per_coil_rms=per_coil, n_frames=clip.n_keys)


# --- trajectory dumps -----------------------------------------------------------

DUMP_KINDS = ("coils", "ik_targets", "seed_vertices")


def _tracks_to_pos(tracks: np.ndarray, names: tuple[str, ...], rate_hz: float) -> bytes:
    """Re-encode (frames, channels, 3) cm trajectories as a .pos stream
    with zeroed angles and residuals."""
    zeros = np.zeros(tracks.shape[:2])
    sweep = EmaSweep(
        rate_hz=rate_hz,
        channels=names,
        positions=np.ascontiguousarray(tracks),
        phi=zeros,
        theta=zeros.copy(),
        rms=zeros.astype(np.float32),
        extra=zeros.astype(np.float32),
    )
    return write_pos(sweep, PosLayout(channels=names, rate_hz=rate_hz))


def dump_trajectories(kind: str, config: PipelineConfig) -> bytes:
    """The configured model's trajectories of one of DUMP_KINDS as .pos bytes.

    ``coils`` re-encodes the source sweeps as read, which gives back the
    source files' bytes, concatenated; it reads the layout and the sweeps
    and nothing else. ``ik_targets`` dumps the registered coil positions fed
    to the solver, and ``seed_vertices`` the skinned positions of the seed
    vertices, the tracked-point check used to validate the animation
    against its source; both compile the model (`compile_model`).
    """
    if kind not in DUMP_KINDS:
        raise ValueError(f"unknown dump kind {kind!r}; expected one of {DUMP_KINDS}")
    if kind == "coils":
        layout = parse_layout(_read_text(config.layout_path, "layout"))
        return b"".join(write_pos(s, layout) for s in _read_sweeps(config, layout))
    result = compile_model(config)
    rig, clip = result.rig, result.clip
    if kind == "ik_targets":
        tracks = clip.targets
    else:
        seeds = np.array([rig.seed_map[n] for n in clip.bone_names])
        tracks = skin_trajectories(
            rig.mesh, rig.armature, clip.quats, clip.heads, clip.stretches, seeds
        )
    return _tracks_to_pos(tracks, clip.bone_names, clip.rate_hz)

"""End-to-end pipeline: config parsing, model compilation, validation.

This is the glue the CLI drives: read sweeps, prepare them, compile the
rig, bake the clip, bundle the result, and check a finished bundle against
its source recordings.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .anim_db import AnimationClip, SegmentTier, bake, parse_segmentation
from .bundle import Bundle, LoadedBundle, write_bundle
from .collada_io import write_collada
from .ema_io import CoilRoles, EmaSweep, PosLayout, parse_layout, read_pos
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


@dataclass(frozen=True)
class SynthesisDefaults:
    w_target: float = 1.0
    w_join: float = 1.0
    blend_window: float = 0.04
    velocity_weight: float = 0.01


@dataclass(frozen=True)
class PipelineConfig:
    ema_paths: tuple[Path, ...]
    layout_path: Path
    rig_graph_path: Path
    mesh_path: Path | None = None
    segmentation_path: Path | None = None
    audio_paths: tuple[Path, ...] = ()
    reference: tuple[str, str, str] = ("REF_L", "REF_R", "REF_N")
    jaw: tuple[str, ...] = ()
    tongue: tuple[str, ...] = ()
    smoothing: SmoothingSpec = SmoothingSpec()
    rms_ceiling: float = np.inf
    ik: IkParams = IkParams()
    rig: RigConfig = field(default_factory=RigConfig)
    synthesis: SynthesisDefaults = SynthesisDefaults()
    mesh_params: MeshParams = MeshParams()


def _split_list(value: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in value.split(",") if v.strip())


# The keys each config section takes; [rig] also takes seed.<Coil> and
# group.<Name> keys.
_SECTION_KEYS = {
    "paths": ("ema", "layout", "rig_graph", "mesh", "segmentation", "audio"),
    "roles": ("reference", "jaw", "tongue"),
    "smoothing": ("window_frames", "rms_ceiling"),
    "ik": ("tolerance", "max_iterations", "s_min", "s_max"),
    "rig": ("root_offset",),
    "synthesis": ("w_target", "w_join", "blend_window", "velocity_weight"),
    "mesh": ("extents", "n_long", "n_lat"),
}


def _floats3(value: str, what: str) -> np.ndarray:
    parts = _split_list(value)
    if len(parts) != 3:
        raise ConfigError(f"{what} needs three comma-separated numbers, got {value!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise ConfigError(f"bad number in {what}: {value!r}") from None


def load_config(path: str | Path) -> PipelineConfig:
    """Parse the sectioned ``key = value`` pipeline configuration file.

    Relative paths are resolved against the config file's directory. An
    unknown section or key is a ConfigError, not a setting ignored.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # seed.<CoilName> keys are case-sensitive
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SECTION_KEYS[section] and not (
                section == "rig" and key.startswith(("seed.", "group."))
            ):
                raise ConfigError(f"unknown [{section}] key {key!r}")

    base = path.parent

    def get(section, key, default=None):
        if parser.has_option(section, key):
            return parser.get(section, key)
        return default

    def resolve(p: str) -> Path:
        candidate = Path(p)
        return candidate if candidate.is_absolute() else base / candidate

    if not parser.has_section("paths"):
        raise ConfigError("config needs a [paths] section")
    ema_value = get("paths", "ema")
    if not ema_value:
        raise ConfigError("[paths] ema is required")
    ema_paths = tuple(resolve(p) for p in _split_list(ema_value))
    layout_value = get("paths", "layout")
    if not layout_value:
        raise ConfigError("[paths] layout is required")
    graph_value = get("paths", "rig_graph")
    if not graph_value:
        raise ConfigError("[paths] rig_graph is required")

    mesh_value = get("paths", "mesh")
    seg_value = get("paths", "segmentation")
    audio_value = get("paths", "audio", "")

    if not parser.has_section("roles"):
        raise ConfigError("config needs a [roles] section")
    reference = _split_list(get("roles", "reference", ""))
    if len(reference) != 3:
        raise ConfigError("[roles] reference must name exactly 3 coils")
    jaw = _split_list(get("roles", "jaw", ""))
    tongue = _split_list(get("roles", "tongue", ""))
    if not tongue:
        raise ConfigError("[roles] tongue must name at least one coil")

    try:
        smoothing = SmoothingSpec(window_frames=int(get("smoothing", "window_frames", "9")))
        rms_ceiling = float(get("smoothing", "rms_ceiling", "inf"))
        ik = IkParams(
            tolerance=float(get("ik", "tolerance", "1e-3")),
            max_iterations=int(get("ik", "max_iterations", "50")),
            s_min=float(get("ik", "s_min", "0.5")),
            s_max=float(get("ik", "s_max", "2.0")),
        )
        synthesis = SynthesisDefaults(
            w_target=float(get("synthesis", "w_target", "1.0")),
            w_join=float(get("synthesis", "w_join", "1.0")),
            blend_window=float(get("synthesis", "blend_window", "0.04")),
            velocity_weight=float(get("synthesis", "velocity_weight", "0.01")),
        )

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

        mesh_kwargs: dict = {}
        if parser.has_section("mesh"):
            for key, value in parser.items("mesh"):
                if key == "extents":
                    mesh_kwargs["extents"] = tuple(_floats3(value, key))
                else:
                    mesh_kwargs[key] = int(value)
        mesh_params = MeshParams(**mesh_kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad value in config: {exc}") from None

    return PipelineConfig(
        ema_paths=ema_paths,
        layout_path=resolve(layout_value),
        rig_graph_path=resolve(graph_value),
        mesh_path=resolve(mesh_value) if mesh_value else None,
        segmentation_path=resolve(seg_value) if seg_value else None,
        audio_paths=tuple(resolve(p) for p in _split_list(audio_value)),
        reference=tuple(reference),
        jaw=jaw,
        tongue=tongue,
        smoothing=smoothing,
        rms_ceiling=rms_ceiling,
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
    roles: CoilRoles
    sweeps_raw: list[EmaSweep]
    sweeps: list[EmaSweep]          # prepared (filled, normalized, smoothed)
    rig: CompiledRig
    clip: AnimationClip
    tier: SegmentTier | None
    report: CompileReport


def _read_text(path: Path, what: str) -> str:
    if not path.exists():
        raise ConfigError(f"{what} file not found: {path}")
    return path.read_text(encoding="utf-8")


def prepare_sweeps(
    config: PipelineConfig,
    layout: PosLayout,
    roles: CoilRoles,
) -> tuple[list[EmaSweep], list[EmaSweep]]:
    """Load and prepare all configured sweeps.

    Head normalization uses the first sweep's first valid reference frame
    as the common head frame for the whole session.
    """
    raw = []
    for p in config.ema_paths:
        if not p.exists():
            raise ConfigError(f"EMA file not found: {p}")
        sweep = read_pos(p.read_bytes(), layout)
        raw.append(replace(sweep, sweep_id=p.stem))

    prepared = []
    reference_frame = None
    ref_idx = [layout.channels.index(n) for n in roles.reference]
    for sweep in raw:
        filled = fill_dropouts(sweep, config.rms_ceiling)
        if reference_frame is None:
            if filled.n_frames == 0:
                raise NoValidReferenceFrame(f"first sweep {sweep.sweep_id!r} has no frames")
            reference_frame = np.array(filled.positions[0, ref_idx, :])
        normalized = normalize_head(filled, roles, reference_frame)
        prepared.append(smooth(normalized, config.smoothing))
    return raw, prepared


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

    raw, prepared = prepare_sweeps(config, layout, roles)
    rig = compile_rig(graph, prepared[0], roles, mesh, rig_config)
    clip = bake(prepared, rig, roles, config.ik)

    tier = None
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

    return PipelineResult(
        config=config,
        layout=layout,
        roles=roles,
        sweeps_raw=raw,
        sweeps=prepared,
        rig=rig,
        clip=clip,
        tier=tier,
        report=report,
    )


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
    if loaded.clip is None:
        raise IncompatibleBundle("bundle carries no animation to validate")
    clip = loaded.clip
    armature = loaded.armature

    layout, roles = _layout_and_roles(config)
    missing = [n for n in armature.bone_names if n not in roles.tongue]
    if missing:
        raise IncompatibleBundle(
            f"bundle bones have no tongue channel in this config: {', '.join(missing)}"
        )

    _, prepared = prepare_sweeps(config, layout, roles)
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

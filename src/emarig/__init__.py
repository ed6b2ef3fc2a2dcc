"""emarig: articulography-driven tongue/teeth animation.

Compiles electromagnetic articulography (EMA) sweeps into a portable,
skeleton-animated 3D model (COLLADA) and resynthesizes new articulatory
animation from it by unit selection. See README.md for the pipeline
walkthrough and the demos/ directory for runnable examples.
"""

from .ema_io import (
    CoilRoles,
    EmaSweep,
    PosLayout,
    format_layout,
    orientation_vector,
    parse_layout,
    read_pos,
    write_pos,
)
from .motion_prep import (
    Similarity,
    SmoothingSpec,
    fill_dropouts,
    normalize_head,
    rigid_align,
    similarity_align,
    smooth,
)
from .rig import (
    Armature,
    CompiledRig,
    MeshParams,
    RigConfig,
    RigGraph,
    SkinnedMesh,
    compile_rig,
    default_seed_points,
    generate_default_mesh,
    load_mesh,
    mesh_volume,
    parse_rig_graph,
    save_obj,
)
from .ik_solver import (
    IkParams,
    PoseTrack,
    skin_trajectories,
    solve_track,
)
from .anim_db import (
    AnimationClip,
    AnimationUnit,
    Segment,
    SegmentTier,
    bake,
    build_unit_db,
    format_segmentation,
    parse_segmentation,
)
from .unit_synth import (
    SynthesisPlan,
    SynthesisRequest,
    join_cost,
    parse_request,
    render_plan,
    select_units,
    target_cost,
)
from .collada_io import read_collada, write_collada
from .bundle import (
    Bundle,
    LoadedBundle,
    read_bundle,
    verify_bundle,
    write_bundle,
)
from .pipeline import (
    CompileReport,
    PipelineConfig,
    PipelineResult,
    ValidationReport,
    build_bundle,
    compile_model,
    dump_trajectories,
    load_config,
    validate_model,
)
from .fixture import FixtureSpec, synthetic_motion, write_fixture

__version__ = "0.1.0"

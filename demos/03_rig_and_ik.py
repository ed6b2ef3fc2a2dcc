"""From rig graph to posed mesh.

The armature is declared as a tiny GraphViz digraph whose non-root nodes
name tongue coils. Compiling the rig places bone tails at the coils'
first-frame positions (after registration into mesh space), assigns
skinning weights, and pins a seed vertex on each coil. The solver then
tracks per-frame targets with bounded stretch, scaling each bone's cross
section by 1/sqrt(stretch) so its volume stays constant.
"""

import numpy as np

from emarig import (
    IkParams,
    RigConfig,
    compile_rig,
    generate_default_mesh,
    parse_rig_graph,
    skin_trajectories,
    solve_track,
)
from emarig.fixture import RIG_GRAPH_DOT, FixtureSpec, synthetic_motion
from emarig.ik_solver import STOP_REASONS
from emarig.motion_prep import fill_dropouts, normalize_head

print("rig graph:")
print(RIG_GRAPH_DOT)
graph = parse_rig_graph(RIG_GRAPH_DOT)
print("nodes (DFS order):", ", ".join(graph.nodes))

data = synthetic_motion(FixtureSpec(n_sweeps=1, frames_per_sweep=200))
sweep = normalize_head(fill_dropouts(data.sweeps[0]), data.roles)

mesh = generate_default_mesh()
rig = compile_rig(graph, sweep, data.roles, mesh, RigConfig(seeds=data.seeds))
arm = rig.armature
print(f"\narmature: {arm.n_bones} bones, root at {np.round(arm.root_point, 2)}")
for k, name in enumerate(arm.bone_names):
    parent = arm.root_name if arm.parents[k] < 0 else arm.bone_names[arm.parents[k]]
    print(f"  {parent:>8} -> {name:<8} rest length {arm.rest_lengths[k]:.2f} cm")
print(f"registration rms: {rig.registration_rms:.2e} cm")

# Solve a pose for frame 120 (a one-frame slice) and inspect the stretch
# bookkeeping.
idx = [sweep.channels.index(n) for n in arm.bone_names]
targets = rig.registration.apply(sweep.positions[120:121, idx, :])
pose = solve_track(arm, targets, IkParams())
print(f"\nframe 120 solved in one pass, stop reason {STOP_REASONS[pose.stop_reasons[0]]}, "
      f"max residual {pose.max_residual()[0]:.2e} cm")
for k, name in enumerate(arm.bone_names):
    s = pose.stretches[0, k]
    c = pose.cross_scales[0, k]
    print(f"  {name:<8} stretch {s:.3f}  cross-section {c:.3f}  "
          f"volume check {s * arm.rest_lengths[k] * c**2:.4f} "
          f"(rest {arm.rest_lengths[k]:.4f})")

deformed = skin_trajectories(
    rig.mesh, arm, pose.quats, pose.heads, pose.stretches,
    np.arange(rig.mesh.n_vertices),
)[0]
moved = np.linalg.norm(deformed - rig.mesh.vertices, axis=1)
tongue = rig.mesh.group_indices("tongue")
print(f"\nskin_trajectories moved {np.count_nonzero(moved > 1e-9)} vertices; "
      f"max tongue displacement {moved[tongue].max():.3f} cm")

seed = rig.seed_map["TTipC"]
print("tongue-tip seed vertex sits at", np.round(deformed[seed], 4))
print("tongue-tip IK target was     ", np.round(targets[0, arm.bone_names.index('TTipC')], 4))

"""Unit-selection synthesis over the animation database.

The segmentation slices the compiled clip into labeled units. A request is
a label/duration sequence; candidates are scored by duration mismatch
(|log(unit/requested)|) and boundary discontinuity (position + velocity
gap across the tracked points, zero for units adjacent in the corpus), and
a Viterbi pass picks the cheapest sequence. Requesting the corpus's own
annotation reconstructs it at zero cost.
"""

from emarig import (
    SynthesisRequest,
    build_unit_db,
    render_plan,
    select_units,
)
from emarig.anim_db import bake
from emarig.fixture import RIG_GRAPH_DOT, FixtureSpec, synthetic_motion
from emarig.ik_solver import IkParams
from emarig.motion_prep import fill_dropouts, normalize_head
from emarig.rig import RigConfig, compile_rig, generate_default_mesh, parse_rig_graph

data = synthetic_motion(FixtureSpec(n_sweeps=1, frames_per_sweep=600))
sweep = normalize_head(fill_dropouts(data.sweeps[0]), data.roles)
rig = compile_rig(
    parse_rig_graph(RIG_GRAPH_DOT), sweep, data.roles,
    generate_default_mesh(), RigConfig(seeds=data.seeds),
)
clip = bake([sweep], rig, data.roles, IkParams())
db = build_unit_db(clip, data.tier)

print(f"database: {len(db)} units from a {clip.duration:g} s clip")
for u in db[:6]:
    print(f"  [{u.source_index}] {u.label:<3} {u.start:.3f}-{u.end:.3f} s")
print("  ...")

# 1. Exact reconstruction: the corpus's own labels and durations.
request = SynthesisRequest(items=tuple((s.label, s.duration) for s in data.tier))
plan = select_units(db, request)
print(f"\nreconstruction: units {[u.source_index for u in plan.units]}, "
      f"total cost {plan.total}")

# 2. A novel sequence with new durations forces warping and real joins.
request = SynthesisRequest(items=(("a", 0.30), ("t", 0.12), ("u", 0.22), ("a", 0.18)))
plan = select_units(db, request)
print("\nnovel request 'a 0.30; t 0.12; u 0.22; a 0.18':")
for unit, warp, tc in zip(plan.units, plan.warp_factors, plan.target_costs):
    print(f"  {unit.label:<3} unit {unit.source_index:>2}  warp {warp:.3f}  target cost {tc:.4f}")
for j, jc in enumerate(plan.join_costs):
    print(f"  join {j}->{j + 1}: {jc:.4f}")
print(f"  total {plan.total:.4f}")

out = render_plan(plan, clip)
print(f"\nrendered clip: {out.n_keys} keys over {out.duration:g} s "
      f"(requested {sum(d for _, d in request.items):g} s)")

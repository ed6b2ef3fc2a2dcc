"""Unit-selection synthesis over the animation database.

Candidates matching each requested label are scored by how much they must
be time-warped (target cost) and how badly their boundaries clash with
their neighbors (join cost), all computed once by `slot_costs`; one Viterbi
pass (`select_units`) adds them up slot by slot to pick the cheapest
sequence, to within a relative (n + 3)**2 * 2**-53 of the minimum total
for n slots. The winning units are then linearly time-warped and
cross-faded into a new clip.

Costs are deliberately simple and fully parameterized; candidate pruning
would sit between `slot_costs` and the DP, but desk-scale databases never
need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .anim_db import POSE_FIELDS, AnimationClip, AnimationUnit, mix_poses
from .errors import BadRequest, NoCandidate
from .number_text import FLOAT_DIGITS


@dataclass(frozen=True)
class SynthesisDefaults:
    """Cost weighting of a synthesis request: the `[synthesis]` config
    section and the `synth` flags of the same names."""

    w_target: float = 1.0
    w_join: float = 1.0
    blend_window: float = 0.04   # seconds of cross-fade at each junction
    velocity_weight: float = 0.01  # seconds; converts cm/s mismatch to cm

    def __post_init__(self):
        for f in fields(SynthesisDefaults):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise BadRequest(f"{f.name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True, kw_only=True)
class SynthesisRequest(SynthesisDefaults):
    """Label/duration sequence to synthesize, plus cost weighting."""

    items: tuple[tuple[str, float], ...]

    def __post_init__(self):
        if not self.items:
            raise BadRequest("request needs at least one item")
        for label, d in self.items:
            if not (math.isfinite(d) and d > 0):
                raise BadRequest(f"duration of {label!r} must be finite and > 0, got {d!r}")
        super().__post_init__()


def parse_request(text: str) -> tuple[tuple[str, float], ...]:
    """Parse the ``label duration_s; label duration_s; ...`` request syntax."""
    items = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split()
        if len(parts) != 2:
            raise BadRequest(f"bad request item {chunk!r}; expected 'label seconds'")
        try:
            items.append((parts[0], float(parts[1])))
        except ValueError:
            raise BadRequest(f"bad duration in request item {chunk!r}") from None
    if not items:
        raise BadRequest("empty synthesis request")
    return tuple(items)


def check_timeline(items: tuple[tuple[str, float], ...], rate_hz: float) -> None:
    """Raise BadRequest unless a clip of the request's length can print its
    key times apart: at the request's total duration, the printed step must
    be finer than one frame of the source clip (1 / rate_hz), the spacing
    of keys rendered at their source pace. Printed with FLOAT_DIGITS digits, a
    time in [10**e, 10**(e + 1)) has a step of 10**(e + 1 - FLOAT_DIGITS)."""
    total = sum(d for _, d in items)
    step = math.inf
    if math.isfinite(total):
        exponent = int(f"{total:.{FLOAT_DIGITS - 1}e}".split("e")[1])
        step = 10.0 ** (exponent + 1 - FLOAT_DIGITS)
    if not step < 1.0 / rate_hz:
        raise BadRequest(
            f"request lasts {total:g} s, where key times print to a {step:g} s step "
            f"({FLOAT_DIGITS} significant digits), not finer than one frame of "
            f"the {rate_hz:g} Hz source"
        )


def target_cost(unit: AnimationUnit, requested: float) -> float:
    """Duration mismatch cost |log(unit duration / requested)|.

    Symmetric in stretch and compression; zero for an exact match.
    """
    return _target_costs([unit.duration], requested)[0]


def _target_costs(durations: list[float], requested: float) -> list[float]:
    """`target_cost` of units of these durations."""
    if requested <= 0:
        raise ValueError("requested duration must be positive")
    return [abs(math.log(d / requested)) for d in durations]


def _boundaries(units: list[AnimationUnit]) -> tuple:
    """The units' boundary features stacked once: first positions, last
    positions, first velocities and last velocities as one flattened
    (B * 3) row per unit each, and their source indices."""
    def rows(feature):
        return np.stack([getattr(u, feature) for u in units]).reshape(len(units), -1)

    features = ("first_positions", "last_positions", "first_velocities", "last_velocities")
    return (*(rows(f) for f in features), np.array([u.source_index for u in units]))


def _join_matrix(left: tuple, right: tuple, velocity_weight: float) -> np.ndarray:
    """(L, R) boundary discontinuity from each unit in `left` to each in
    `right`, given as their `_boundaries`.

    Zero for pairs that were adjacent in the corpus (their boundary is the
    same sample); otherwise the Euclidean gap across all tracked points
    plus a velocity mismatch term scaled by `velocity_weight`.
    """
    _, last_positions, _, last_velocities, left_sources = left
    first_positions, _, first_velocities, _, right_sources = right
    dp = first_positions - last_positions[:, None]
    dv = first_velocities - last_velocities[:, None]
    cost = np.sqrt(np.sum(dp * dp, axis=2))
    cost += velocity_weight * np.sqrt(np.sum(dv * dv, axis=2))
    cost[(left_sources + 1)[:, None] == right_sources] = 0.0
    return cost


def join_cost(
    left: AnimationUnit, right: AnimationUnit, velocity_weight: float = 0.01
) -> float:
    """The join cost from `left` to `right`: `_join_matrix` of one pair."""
    return float(_join_matrix(_boundaries([left]), _boundaries([right]), velocity_weight)[0, 0])


def slot_costs(db: list[AnimationUnit], request: SynthesisRequest) -> tuple:
    """Per slot: the candidates (units with its label, by source index), their
    target costs, and the (L, C) join costs from the previous slot's
    candidates (None first). Raises `NoCandidate` for a label not in `db`.

    Each label's candidates, durations and boundary features, and the join
    costs of each pair of labels that meet, are computed once and shared by
    every slot that uses them; the shared join arrays are read-only."""
    by_label: dict[str, list[AnimationUnit]] = {}
    for unit in sorted(db, key=lambda u: u.source_index):
        by_label.setdefault(unit.label, []).append(unit)
    durations: dict[str, list[float]] = {}
    boundaries: dict[str, tuple] = {}
    pair_joins: dict[tuple[str, str], np.ndarray] = {}
    cands, targets, joins = [], [], []
    previous = None
    for label, dur in request.items:
        if label not in by_label:
            raise NoCandidate(label)
        units = by_label[label]
        if label not in boundaries:
            boundaries[label] = _boundaries(units)
            durations[label] = [u.duration for u in units]
        pair = (previous, label)
        if previous is not None and pair not in pair_joins:
            join = _join_matrix(boundaries[previous], boundaries[label], request.velocity_weight)
            join.setflags(write=False)
            pair_joins[pair] = join
        joins.append(pair_joins.get(pair))  # None at the first slot
        cands.append(units)
        targets.append(np.array(_target_costs(durations[label], dur)))
        previous = label
    return cands, targets, joins


@dataclass(frozen=True)
class SynthesisPlan:
    units: tuple[AnimationUnit, ...]
    warp_factors: tuple[float, ...]   # requested / unit duration
    requested: tuple[float, ...]
    target_costs: tuple[float, ...]
    join_costs: tuple[float, ...]     # one per junction
    total: float
    blend_window: float


def select_units(db: list[AnimationUnit], request: SynthesisRequest) -> SynthesisPlan:
    """Minimum-cost unit sequence via dynamic programming over slots.

    Minimizes w_target * sum(target costs) + w_join * sum(join costs), each
    sum taken left to right, over every candidate assignment. Per slot and
    candidate the pass keeps the path of the smallest partial total, exact
    ties going to the lexicographically smallest source-index prefix, so
    the selection is deterministic. The partial totals are rounded, so a
    path pruned at one slot can end up tied with, or a few units in the
    last place cheaper than, the path kept: over n slots the plan's total
    exceeds the minimum over every assignment by at most (n + 3)**2 * 2**-53
    of it, and when another sequence lies that close, the plan may be that
    one.
    """
    cands, targets, joins = slot_costs(db, request)
    wt, wj = request.w_target, request.w_join
    # Per candidate: the left-to-right target and join sums of its best path.
    # `order` lists candidates by their paths' source-index sequences, so the
    # first minimum in that order breaks ties.
    sum_t, sum_j = targets[0], np.zeros(len(targets[0]))
    order = np.arange(len(targets[0]))
    backpointers = []
    for target, join in zip(targets[1:], joins[1:]):
        path_t, path_j = sum_t[:, None] + target, sum_j[:, None] + join
        best = order[np.argmin((wt * path_t + wj * path_j)[order], axis=0)]
        cols = np.arange(len(target))
        sum_t, sum_j = path_t[best, cols], path_j[best, cols]
        order = np.lexsort((cols, np.argsort(order)[best]))  # predecessor rank first
        backpointers.append(best)

    picks = [int(order[np.argmin((wt * sum_t + wj * sum_j)[order])])]
    for best in reversed(backpointers):
        picks.append(int(best[picks[-1]]))
    picks.reverse()

    units = tuple(c[k] for c, k in zip(cands, picks))
    tlist = tuple(float(t[k]) for t, k in zip(targets, picks))
    jlist = tuple(float(j[p, k]) for j, p, k in zip(joins[1:], picks, picks[1:]))
    requested = tuple(d for _, d in request.items)
    warps = tuple(d / u.duration for u, d in zip(units, requested))
    return SynthesisPlan(
        units=units,
        warp_factors=warps,
        requested=requested,
        target_costs=tlist,
        join_costs=jlist,
        total=float(wt * sum_t[picks[-1]] + wj * sum_j[picks[-1]]),
        blend_window=request.blend_window,
    )


def render_plan(plan: SynthesisPlan, clip: AnimationClip) -> AnimationClip:
    """Concatenate the planned units into a new clip.

    Each unit's keys are linearly time-warped by its warp factor; at every
    junction the two neighbors are cross-faded over
    min(blend window, half of either unit's output duration) with
    `mix_poses`, the mix that also interpolates between keys. Keys that
    fall outside a unit's span evaluate to its held boundary pose.
    """
    requested = np.array(plan.requested)
    offs = np.concatenate([[0.0], np.cumsum(requested)])
    fades = np.minimum(plan.blend_window, np.minimum(requested[:-1], requested[1:]) / 2.0)

    # Output rows: time, owning unit, exact source time. Units are laid out
    # in order, so the rows come out in time order; of rows at one time the
    # first wins, so a unit's end beats the next unit's start.
    t_out, owner, tau = [], [], []
    for i, (unit, warp) in enumerate(zip(plan.units, plan.warp_factors)):
        src = clip.times[(clip.times > unit.start) & (clip.times < unit.end)]
        t = offs[i] + (src - unit.start) * warp
        inside = (offs[i] < t) & (t < offs[i + 1])
        t_out += [offs[i : i + 1], t[inside], offs[i + 1 : i + 2]]
        tau += [[unit.start], src[inside], [unit.end]]
        owner.append(np.full(inside.sum() + 2, i))
    t_out, owner, tau = (np.concatenate(x) for x in (t_out, owner, tau))
    first = np.concatenate([[True], np.diff(t_out) > 0])
    t_out, owner, tau = t_out[first], owner[first], tau[first]
    pose = clip.sample(tau)

    # Rows within half a fade of junction j (between units j and j + 1) mix
    # its two units: the owner at its exact source time, the neighbor at the
    # output time warped back into its span.
    fade_in = np.concatenate([[0.0], fades])[owner]
    fade_out = np.concatenate([fades, [0.0]])[owner]
    junction = np.where(
        (fade_in > 0) & (t_out <= offs[owner] + fade_in / 2.0),
        owner - 1,
        np.where((fade_out > 0) & (t_out >= offs[owner + 1] - fade_out / 2.0), owner, -1),
    )
    rows = np.flatnonzero(junction >= 0)
    j, t = junction[rows], t_out[rows]
    starts = np.array([u.start for u in plan.units])
    ends = np.array([u.end for u in plan.units])
    warps = np.array(plan.warp_factors)

    def source_time(u):
        warped = np.clip(starts[u] + (t - offs[u]) / warps[u], starts[u], ends[u])
        return np.where(owner[rows] == u, tau[rows], warped)

    w = fades[j]
    a = np.clip((t - (offs[j + 1] - w / 2.0)) / w, 0.0, 1.0)
    mixed = mix_poses(clip.sample(source_time(j)), clip.sample(source_time(j + 1)), a)
    for x, m in zip(pose, mixed):
        x[rows] = m

    return AnimationClip(
        rate_hz=clip.rate_hz,
        bone_names=clip.bone_names,
        times=t_out,
        duration=float(offs[-1]),
        **dict(zip(POSE_FIELDS, pose)),
    )

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emarig.anim_db import AnimationClip, AnimationUnit, bake, build_unit_db
from emarig.collada_io import read_collada, write_collada
from emarig.errors import BadRequest, NoCandidate
from emarig.fixture import RIG_GRAPH_DOT, FixtureSpec, synthetic_motion
from emarig.ik_solver import IkParams
from emarig.rig import RigConfig, compile_rig, generate_default_mesh, parse_rig_graph
from emarig.unit_synth import (
    SynthesisPlan,
    SynthesisRequest,
    _boundaries,
    _join_matrix,
    check_timeline,
    join_cost,
    parse_request,
    render_plan,
    select_units,
    slot_costs,
    target_cost,
)

from conftest import prepare
from reference import (
    dp_slack,
    exhaustive_total,
    loop_exhaustive_total,
    per_row_render_plan,
    per_slot_costs,
    scalar_join_cost,
    tuple_state_select_units,
)


def make_unit(label, duration, source_index, first=None, last=None, fv=None, lv=None):
    zeros = np.zeros((7, 3))
    return AnimationUnit(
        label=label,
        start=source_index * 1.0,
        end=source_index * 1.0 + duration,
        source_index=source_index,
        first_positions=zeros if first is None else np.asarray(first, float),
        first_velocities=zeros if fv is None else np.asarray(fv, float),
        last_positions=zeros if last is None else np.asarray(last, float),
        last_velocities=zeros if lv is None else np.asarray(lv, float),
    )


def random_db(rng, n_units, labels=("a", "t", "m")):
    units = []
    for i in range(n_units):
        units.append(
            make_unit(
                labels[int(rng.integers(0, len(labels)))],
                float(rng.uniform(0.05, 0.5)),
                i,
                first=rng.normal(0, 1, (7, 3)),
                last=rng.normal(0, 1, (7, 3)),
                fv=rng.normal(0, 5, (7, 3)),
                lv=rng.normal(0, 5, (7, 3)),
            )
        )
    return units


def brute_force(db, request):
    candidates = []
    for label, _ in request.items:
        cands = sorted((u for u in db if u.label == label), key=lambda u: u.source_index)
        assert cands
        candidates.append(cands)
    best = None
    best_seq = None
    for combo in itertools.product(*candidates):
        tl = [target_cost(u, d) for u, (_, d) in zip(combo, request.items)]
        jl = [
            join_cost(a, b, request.velocity_weight)
            for a, b in zip(combo[:-1], combo[1:])
        ]
        total = request.w_target * sum(tl) + request.w_join * sum(jl)
        seq = tuple(u.source_index for u in combo)
        if best is None or (total, seq) < (best, best_seq):
            best, best_seq = total, seq
    return best, best_seq


@pytest.fixture(scope="module")
def fixture_model():
    """Rig, baked clip and tier of the 2 x 6000-frame fixture."""
    data = synthetic_motion(FixtureSpec(n_sweeps=2, frames_per_sweep=6000))
    prepared = prepare(data)
    rig = compile_rig(
        parse_rig_graph(RIG_GRAPH_DOT), prepared[0], data.roles,
        generate_default_mesh(), RigConfig(seeds=data.seeds),
    )
    return rig, bake(prepared, rig, data.roles, IkParams()), data.tier


@pytest.fixture(scope="module")
def fixture_db(fixture_model):
    """Unit DB of the 2 x 6000-frame fixture: 276 units, 28 per label."""
    _, clip, tier = fixture_model
    return build_unit_db(clip, tier)


def exported(rig, clip, tier):
    """The clip and unit DB as `synth` sees them, read back from model.dae.
    Its quaternions come from the matrix decode, so a mix with weight 0 or
    1 need not give a key's stored row back bit for bit."""
    clip = read_collada(write_collada(rig.mesh, rig.armature, clip))[2]
    return clip, build_unit_db(clip, tier)


@st.composite
def forced_ties(draw, weights, max_units=12):
    """A unit DB of up to `max_units` units and a request on which many
    assignments cost exactly the same: integer features drawn from a few
    shared arrays and two durations. The three request weights are drawn
    from `weights`."""
    n_shared = draw(st.integers(2, 4))
    shared = np.array(draw(st.lists(
        st.integers(0, 1), min_size=6 * n_shared, max_size=6 * n_shared
    )), dtype=float).reshape(n_shared, 2, 3)
    n_units = draw(st.integers(2, max_units))
    sources = draw(st.lists(
        st.integers(0, 15), min_size=n_units, max_size=n_units, unique=True
    ))
    feature = st.sampled_from(range(len(shared)))
    db = [
        make_unit(
            draw(st.sampled_from("ab")),
            draw(st.sampled_from((0.1, 0.2))),
            s,
            first=shared[draw(feature)],
            last=shared[draw(feature)],
            fv=shared[draw(feature)],
            lv=shared[draw(feature)],
        )
        for s in sources
    ]
    labels = sorted({u.label for u in db})
    items = tuple(
        (draw(st.sampled_from(labels)), draw(st.sampled_from((0.1, 0.2))))
        for _ in range(draw(st.integers(1, 6)))
    )
    weight = st.sampled_from(weights)
    request = SynthesisRequest(
        items=items,
        w_target=draw(weight),
        w_join=draw(weight),
        velocity_weight=draw(weight),
    )
    return db, request


def assert_same_plan(plan, reference):
    for field in dataclasses.fields(SynthesisPlan):
        assert getattr(plan, field.name) == getattr(reference, field.name), field.name


class TestTargetCost:
    def test_exact_match_zero(self):
        assert target_cost(make_unit("a", 0.2, 0), 0.2) == 0.0

    def test_double_is_log_two(self):
        assert abs(target_cost(make_unit("a", 0.1, 0), 0.2) - math.log(2)) < 1e-12

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d, r = rng.uniform(0.01, 2.0, 2)
            a = target_cost(make_unit("a", d, 0), r)
            b = target_cost(make_unit("a", r, 0), d)
            assert abs(a - b) < 1e-12


class TestJoinCost:
    def test_contiguous_zero(self):
        rng = np.random.default_rng(5)
        left = make_unit("a", 0.2, 3, last=rng.normal(0, 1, (7, 3)))
        right = make_unit("t", 0.1, 4, first=rng.normal(0, 1, (7, 3)))
        assert join_cost(left, right) == 0.0

    def test_identical_features_zero(self):
        feats = np.random.default_rng(7).normal(0, 1, (7, 3))
        left = make_unit("a", 0.2, 0, last=feats, lv=feats)
        right = make_unit("t", 0.1, 5, first=feats, fv=feats)
        assert join_cost(left, right) == 0.0

    def test_unit_gap_single_target(self):
        gap = np.zeros((7, 3))
        gap[2, 0] = 1.0  # (1,0,0) cm on one target only
        left = make_unit("a", 0.2, 0)
        right = make_unit("t", 0.1, 5, first=gap)
        assert abs(join_cost(left, right) - 1.0) < 1e-12

    def test_velocity_term(self):
        dv = np.zeros((7, 3))
        dv[0, 1] = 10.0
        left = make_unit("a", 0.2, 0)
        right = make_unit("t", 0.1, 5, fv=dv)
        assert abs(join_cost(left, right) - 0.01 * 10.0) < 1e-12


class TestJoinCosts:
    @staticmethod
    def assert_bitwise(left, right, velocity_weight):
        matrix = _join_matrix(_boundaries(left), _boundaries(right), velocity_weight)
        expect = np.array(
            [[scalar_join_cost(a, b, velocity_weight) for b in right] for a in left]
        )
        assert matrix.shape == (len(left), len(right))
        assert np.array_equal(matrix.view(np.uint64), expect.view(np.uint64))
        a, b = left[-1], right[0]
        assert join_cost(a, b, velocity_weight) == scalar_join_cost(a, b, velocity_weight)

    def test_fixture_db_every_pair(self, fixture_db):
        self.assert_bitwise(fixture_db, fixture_db, 0.01)

    @pytest.mark.parametrize("velocity_weight", [0.0, 0.01, 0.7])
    def test_random_features(self, velocity_weight):
        db = random_db(np.random.default_rng(23), 30)
        self.assert_bitwise(db[:13], db[7:], velocity_weight)


@st.composite
def drawn_requests(draw):
    """A unit DB of 1-20 units with random features, in shuffled order, and
    a request of 1-12 slots over its labels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    db = random_db(rng, draw(st.integers(1, 20)))
    db = [db[i] for i in rng.permutation(len(db))]
    labels = sorted({u.label for u in db})
    items = tuple(
        (draw(st.sampled_from(labels)), draw(st.floats(0.01, 1.0)))
        for _ in range(draw(st.integers(1, 12)))
    )
    return db, SynthesisRequest(items=items, velocity_weight=draw(st.sampled_from((0.0, 0.01, 0.7))))


def bits(array):
    return array.view(np.uint64)


class TestMatchesPerSlotCosts:
    @staticmethod
    def assert_same_costs(db, request):
        """`slot_costs` gives the frozen per-slot tables' candidates and bits,
        with each pair of labels' join costs shared and read-only."""
        cands, targets, joins = slot_costs(db, request)
        want_cands, want_targets, want_joins = per_slot_costs(db, request)
        assert [list(map(id, c)) for c in cands] == [list(map(id, c)) for c in want_cands]
        for got, want in zip(targets, want_targets, strict=True):
            assert got.dtype == want.dtype and np.array_equal(bits(got), bits(want))
        assert joins[0] is None and want_joins[0] is None
        for got, want in zip(joins[1:], want_joins[1:], strict=True):
            assert got.dtype == want.dtype and np.array_equal(bits(got), bits(want))
            assert not got.flags.writeable
        labels = [label for label, _ in request.items]
        shared = {}
        for pair, join in zip(zip(labels, labels[1:]), joins[1:]):
            assert shared.setdefault(pair, join) is join
        return joins

    @settings(max_examples=200, deadline=None, database=None)
    @given(case=drawn_requests())
    def test_drawn(self, case):
        self.assert_same_costs(*case)

    @pytest.mark.parametrize("n_slots", [1, 160])
    def test_fixture_db(self, fixture_db, n_slots):
        rng = np.random.default_rng(n_slots)
        labels = sorted({u.label for u in fixture_db})
        items = tuple(zip(
            rng.choice(labels, n_slots).tolist(),
            rng.uniform(0.06, 0.3, n_slots).tolist(),
        ))
        self.assert_same_costs(fixture_db, SynthesisRequest(items=items))

    def test_repeated_label_pairs(self):
        db = random_db(np.random.default_rng(29), 12)
        request = SynthesisRequest(items=parse_request("a 0.1; t 0.2; a 0.3; t 0.1; t 0.2; a 0.2; a 0.4"))
        joins = self.assert_same_costs(db, request)
        assert joins[1] is joins[3] and joins[2] is joins[5] and joins[4] is not joins[6]

    def test_one_slot(self):
        db = random_db(np.random.default_rng(31), 6)
        cands, targets, joins = slot_costs(db, SynthesisRequest(items=(("a", 0.2),)))
        assert joins == [None] and len(cands) == len(targets) == 1
        self.assert_same_costs(db, SynthesisRequest(items=(("a", 0.2),)))

    def test_no_candidate(self):
        db = random_db(np.random.default_rng(37), 6)
        request = SynthesisRequest(items=parse_request("a 0.1; t 0.2; zz 0.1; a 0.2"))
        for costs in (slot_costs, per_slot_costs):
            with pytest.raises(NoCandidate) as err:
                costs(db, request)
            assert err.value.label == "zz"

    def test_shared_joins_stay_unchanged(self):
        # Neither the DP nor the brute force can write to a join array that
        # later slots share.
        db = random_db(np.random.default_rng(41), 9)
        request = SynthesisRequest(items=parse_request("a 0.1; t 0.2; a 0.3; t 0.1; a 0.2"))
        joins = slot_costs(db, request)[2]
        with pytest.raises(ValueError):
            joins[1][0, 0] = 1.0
        plan = select_units(db, request)
        assert exhaustive_total(db, request)[0] <= plan.total
        assert_same_plan(plan, tuple_state_select_units(db, request))
        self.assert_same_costs(db, request)


class TestSelectUnits:
    def test_exact_reconstruction(self, compiled_model, small_fixture):
        _, clip, _ = compiled_model
        tier = small_fixture.tier
        db = build_unit_db(clip, tier)
        request = SynthesisRequest(items=tuple((s.label, s.duration) for s in tier))
        plan = select_units(db, request)
        assert [u.source_index for u in plan.units] == list(range(len(db)))
        assert plan.total == 0.0
        assert all(w == 1.0 for w in plan.warp_factors)

    def test_single_slot_min_target(self):
        db = [make_unit("a", 0.1, 0), make_unit("a", 0.2, 1), make_unit("a", 0.4, 2)]
        plan = select_units(db, SynthesisRequest(items=(("a", 0.19),)))
        assert plan.units[0].source_index == 1

    def test_no_candidate(self):
        db = [make_unit("a", 0.1, 0)]
        with pytest.raises(NoCandidate) as err:
            select_units(db, SynthesisRequest(items=(("zz", 0.1),)))
        assert err.value.label == "zz"

    def test_dp_equals_brute_force(self):
        rng = np.random.default_rng(11)
        for trial in range(60):
            db = random_db(rng, int(rng.integers(3, 13)))
            labels = sorted({u.label for u in db})
            n_slots = int(rng.integers(1, 6))
            items = tuple(
                (labels[int(rng.integers(0, len(labels)))], float(rng.uniform(0.05, 0.6)))
                for _ in range(n_slots)
            )
            request = SynthesisRequest(
                items=items,
                w_target=float(rng.uniform(0.2, 3.0)),
                w_join=float(rng.uniform(0.2, 3.0)),
            )
            if any(len([u for u in db if u.label == l]) > 5 for l, _ in items):
                continue
            plan = select_units(db, request)
            best, best_seq = brute_force(db, request)
            assert plan.total == best
            assert tuple(u.source_index for u in plan.units) == best_seq

    def test_tie_break_lexicographic(self):
        # identical candidates everywhere -> every sequence costs zero;
        # the lexicographically smallest one wins (units may repeat)
        db = [
            make_unit("a", 0.2, 0),
            make_unit("a", 0.2, 1),
            make_unit("a", 0.2, 2),
        ]
        plan = select_units(db, SynthesisRequest(items=(("a", 0.2), ("a", 0.2))))
        assert plan.total == 0.0
        assert tuple(u.source_index for u in plan.units) == (0, 0)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(13)
        db = random_db(rng, 10)
        labels = sorted({u.label for u in db})
        items = tuple((labels[i % len(labels)], 0.2) for i in range(4))
        base = select_units(db, SynthesisRequest(items=items, w_target=1.0, w_join=1.0))
        for c in (0.25, 2.0, 10.0):
            scaled = select_units(
                db, SynthesisRequest(items=items, w_target=c, w_join=c)
            )
            assert [u.source_index for u in scaled.units] == [
                u.source_index for u in base.units
            ]

    def test_monotone_in_candidate_cost(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            db = random_db(rng, 8)
            labels = sorted({u.label for u in db})
            items = tuple((labels[i % len(labels)], 0.25) for i in range(3))
            request = SynthesisRequest(items=items)
            plan = select_units(db, request)
            chosen = {u.source_index for u in plan.units}
            rejected = [u for u in db if u.source_index not in chosen]
            if not rejected:
                continue
            # worsen one rejected candidate's duration mismatch; the plan
            # must not change
            victim = rejected[0]
            worse = make_unit(
                victim.label, victim.duration * 4.0, victim.source_index,
                first=victim.first_positions, last=victim.last_positions,
                fv=victim.first_velocities, lv=victim.last_velocities,
            )
            db2 = [worse if u.source_index == victim.source_index else u for u in db]
            plan2 = select_units(db2, request)
            assert [u.source_index for u in plan2.units] == [
                u.source_index for u in plan.units
            ]

    def test_total_decomposition(self):
        rng = np.random.default_rng(19)
        db = random_db(rng, 9)
        labels = sorted({u.label for u in db})
        items = tuple((labels[i % len(labels)], 0.3) for i in range(4))
        request = SynthesisRequest(items=items, w_target=1.7, w_join=0.4)
        plan = select_units(db, request)
        recomputed = 1.7 * sum(plan.target_costs) + 0.4 * sum(plan.join_costs)
        assert abs(plan.total - recomputed) < 1e-12


class TestMatchesTupleStateDp:
    @pytest.mark.parametrize("n_slots", [10, 40, 160])
    def test_fixture_db(self, fixture_db, n_slots):
        rng = np.random.default_rng(n_slots)
        labels = sorted({u.label for u in fixture_db})
        items = tuple(zip(
            rng.choice(labels, n_slots).tolist(),
            np.round(rng.uniform(0.06, 0.3, n_slots), 4).tolist(),
        ))
        request = SynthesisRequest(items=items)
        assert_same_plan(
            select_units(fixture_db, request), tuple_state_select_units(fixture_db, request)
        )

    @settings(max_examples=500, deadline=None, database=None)
    @given(case=forced_ties((0.0, 0.5, 1.0)))
    def test_forced_ties(self, case):
        db, request = case
        plan = select_units(db, request)
        assert_same_plan(plan, tuple_state_select_units(db, request))
        # Rounding can let the DP prune a path that ties, or wins by an ulp,
        # only once summed to the end (see test_tie_found_after_pruning), so
        # the sequence may differ from the brute force's.
        total, _ = exhaustive_total(db, request)
        assert total <= plan.total <= total * (1 + dp_slack(len(request.items)))

    def test_tie_found_after_pruning(self):
        # Two sequences whose totals are the same float, though the DP had
        # dropped the lexicographically smaller one at the third slot, where
        # its partial total was an ulp dearer (1.414213562373099 against
        # 1.4142135623730987). The plan is the one the DP has always picked.
        shared = np.array([[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]])
        units = [
            ("a", 0.2, 10, 0, 1, 0, 1), ("a", 0.2, 1, 0, 1, 1, 0), ("b", 0.2, 12, 1, 0, 0, 1),
            ("a", 0.1, 5, 1, 1, 0, 1), ("b", 0.2, 0, 1, 0, 1, 1), ("a", 0.2, 15, 1, 1, 0, 0),
            ("a", 0.1, 3, 0, 1, 0, 1),
        ]
        db = [
            make_unit(label, d, s, first=shared[f], last=shared[l], fv=shared[fv], lv=shared[lv])
            for label, d, s, f, l, fv, lv in units
        ]
        request = SynthesisRequest(
            items=parse_request("a 0.2; b 0.2; b 0.2; b 0.1; a 0.1; b 0.1"),
            w_target=1.0, w_join=1.0, velocity_weight=1.0,
        )
        plan = select_units(db, request)
        assert_same_plan(plan, tuple_state_select_units(db, request))
        assert tuple(u.source_index for u in plan.units) == (10, 0, 0, 0, 1, 12)
        assert exhaustive_total(db, request) == (plan.total, (1, 12, 0, 0, 1, 12))
        assert plan.total == 4.907868666426026

    def test_total_an_ulp_above_minimum(self):
        # With weights that do not scale exactly, the sequence the DP pruned
        # sums to an ulp less than the plan: a case for `dp_slack` (the
        # `synth --exhaustive` cross-check, since removed, once reported it
        # as a mismatch).
        features = [
            ([0, 0, 0], [1, 0, 0], [0, 0, 0], [1, 1, 0]),
            ([0, 1, 1], [1, 0, 0], [1, 1, 1], [1, 0, 1]),
        ]
        db = [
            make_unit("a", 0.1, s, first=[f], last=[l], fv=[fv], lv=[lv])
            for s, (f, l, fv, lv) in enumerate(features)
        ]
        request = SynthesisRequest(
            items=parse_request("a 0.2; a 0.2; a 0.2; a 0.1; a 0.2"),
            w_target=0.5, w_join=1.0, velocity_weight=0.3,
        )
        plan = select_units(db, request)
        assert_same_plan(plan, tuple_state_select_units(db, request))
        assert tuple(u.source_index for u in plan.units) == (0, 1, 0, 0, 1)
        total, seq = exhaustive_total(db, request)
        assert (total, seq) == (4.234822498543746, (1, 0, 1, 0, 1))
        assert plan.total == math.nextafter(total, math.inf)
        assert plan.total <= total * (1 + dp_slack(5))


class TestMatchesLoopBruteForce:
    # Exact ties, and weights that do not scale exactly: the grid adds the
    # same numbers in the same order as the loop, so both the total and the
    # sequence it breaks ties to are the same bits. Up to 8 units keep the
    # loop under 2 s per example (8**6 sequences); 12**6 take 20 s.
    @settings(max_examples=300, deadline=None, database=None)
    @given(case=forced_ties((0.0, 0.3, 0.5, 1.0, 1.7), max_units=8))
    def test_forced_ties(self, case):
        db, request = case
        assert exhaustive_total(db, request) == loop_exhaustive_total(db, request)


_STEPS = st.sampled_from(("next", "same", "any"))
_ANY_DURATION = st.floats(0.005, 0.5)
_BLEND_WINDOWS = st.sampled_from((0.0, 0.04, 10.0))


@st.composite
def drawn_plans(draw, db):
    """Plans over `db`: units follow each other in the corpus, repeat, or
    jump; durations keep, double or replace the unit's own; windows are
    none, the default or longer than every unit."""
    index = st.integers(0, len(db) - 1)
    units = [db[draw(index)]]
    for _ in range(draw(st.integers(0, 11))):
        step = draw(_STEPS)
        if step == "next" and units[-1].source_index + 1 < len(db):
            units.append(db[units[-1].source_index + 1])
        elif step == "same":
            units.append(units[-1])
        else:
            units.append(db[draw(index)])
    requested = tuple(
        draw(st.one_of(st.just(u.duration), st.just(2.0 * u.duration), _ANY_DURATION))
        for u in units
    )
    return SynthesisPlan(
        units=tuple(units),
        warp_factors=tuple(d / u.duration for u, d in zip(units, requested)),
        requested=requested,
        target_costs=(),
        join_costs=(),
        total=0.0,
        blend_window=draw(_BLEND_WINDOWS),
    )


def assert_same_render(plan, clip):
    out, reference = render_plan(plan, clip), per_row_render_plan(plan, clip)
    for field in dataclasses.fields(AnimationClip):
        assert np.array_equal(getattr(out, field.name), getattr(reference, field.name)), field.name
    assert out.duration == reference.duration


class TestMatchesPerRowRender:
    @pytest.fixture(scope="class")
    def fixture_exported(self, fixture_model):
        return exported(*fixture_model)

    @pytest.fixture(scope="class")
    def small_exported(self, compiled_model, small_fixture):
        rig, clip, _ = compiled_model
        return exported(rig, clip, small_fixture.tier)

    @pytest.mark.parametrize("n_slots", [1, 10, 40, 160])
    def test_fixture_db(self, fixture_exported, n_slots):
        clip, db = fixture_exported
        rng = np.random.default_rng(100 + n_slots)
        labels = sorted({u.label for u in db})
        items = tuple(zip(
            rng.choice(labels, n_slots).tolist(),
            np.round(rng.uniform(0.06, 0.3, n_slots), 4).tolist(),
        ))
        assert_same_render(select_units(db, SynthesisRequest(items=items)), clip)

    def test_drawn_plans(self, small_exported):
        clip, db = small_exported

        @settings(max_examples=300, deadline=None, database=None)
        @given(plan=drawn_plans(db))
        def check(plan):
            assert_same_render(plan, clip)

        check()


class TestRenderPlan:
    def test_single_unit_identity_slice(self, compiled_model, small_fixture):
        _, clip, _ = compiled_model
        db = build_unit_db(clip, small_fixture.tier)
        unit = db[2]
        request = SynthesisRequest(items=((unit.label, unit.duration),))
        plan = select_units([unit], request)
        out = render_plan(plan, clip)
        a = clip.frame_index(unit.start)
        b = clip.frame_index(unit.end)
        assert np.array_equal(out.heads, clip.heads[a : b + 1])
        assert np.array_equal(out.quats, clip.quats[a : b + 1])
        assert np.array_equal(out.stretches, clip.stretches[a : b + 1])
        assert np.abs(out.times - (clip.times[a : b + 1] - unit.start)).max() < 1e-12

    def test_warp_doubles_key_times(self, compiled_model, small_fixture):
        _, clip, _ = compiled_model
        db = build_unit_db(clip, small_fixture.tier)
        unit = db[1]
        request = SynthesisRequest(items=((unit.label, unit.duration * 2.0),))
        plan = select_units([unit], request)
        out = render_plan(plan, clip)
        a = clip.frame_index(unit.start)
        b = clip.frame_index(unit.end)
        assert np.array_equal(out.heads, clip.heads[a : b + 1])  # values unchanged
        expect = (clip.times[a : b + 1] - unit.start) * 2.0
        assert np.abs(out.times - expect).max() < 1e-12

    def test_duration_additivity(self, compiled_model, small_fixture):
        _, clip, _ = compiled_model
        db = build_unit_db(clip, small_fixture.tier)
        request = SynthesisRequest(
            items=(("a", 0.21), ("t", 0.17), ("i", 0.33), ("a", 0.11))
        )
        plan = select_units(db, request)
        out = render_plan(plan, clip)
        assert abs(out.duration - (0.21 + 0.17 + 0.33 + 0.11)) < 1e-9
        assert out.times[0] == 0.0
        assert (np.diff(out.times) > 0).all()

    def test_junction_continuity(self, compiled_model, small_fixture):
        _, clip, _ = compiled_model
        db = build_unit_db(clip, small_fixture.tier)
        # consecutive corpus units share boundary poses exactly
        request = SynthesisRequest(
            items=((db[1].label, db[1].duration), (db[2].label, db[2].duration))
        )
        plan = select_units(db, request)
        assert [u.source_index for u in plan.units] == [1, 2]
        out = render_plan(plan, clip)
        steps = np.linalg.norm(np.diff(out.tails, axis=0), axis=2).max(axis=1)
        a1, b1 = clip.frame_index(db[1].start), clip.frame_index(db[1].end)
        a2, b2 = clip.frame_index(db[2].start), clip.frame_index(db[2].end)
        within = max(
            np.linalg.norm(np.diff(clip.tails[a1 : b1 + 1], axis=0), axis=2).max(),
            np.linalg.norm(np.diff(clip.tails[a2 : b2 + 1], axis=0), axis=2).max(),
        )
        assert steps.max() <= within + 1e-9


class TestParseRequest:
    def test_basic(self):
        assert parse_request("t 0.08; a 0.15; m 0.09") == (
            ("t", 0.08), ("a", 0.15), ("m", 0.09),
        )

    def test_trailing_semicolon(self):
        assert parse_request("a 0.1;") == (("a", 0.1),)

    def test_bad_item(self):
        with pytest.raises(ValueError):
            parse_request("a")
        with pytest.raises(ValueError):
            parse_request("a x")
        with pytest.raises(ValueError):
            parse_request("")

    def test_request_validation(self):
        with pytest.raises(ValueError):
            SynthesisRequest(items=())
        with pytest.raises(ValueError):
            SynthesisRequest(items=(("a", -0.1),))


class TestCheckTimeline:
    # A total in [10**e, 10**(e + 1)) prints to a step of 10**(e - 8), which
    # must stay below the frame period: the bound is the decade where it
    # reaches it, not a fixed number of seconds.
    @pytest.mark.parametrize(
        "rate_hz, longest, refused",
        [(200.0, 999999.99, 1e6), (1000.0, 99999.999, 1e5), (50.0, 9999999.9, 1e7)],
    )
    def test_bound_is_the_printed_step(self, rate_hz, longest, refused):
        check_timeline((("a", longest),), rate_hz)
        check_timeline((("a", longest - 0.1), ("t", 0.1)), rate_hz)
        for items in ((("a", refused),), (("a", refused - 0.1), ("t", 0.2))):
            with pytest.raises(BadRequest, match="key times print"):
                check_timeline(items, rate_hz)

    def test_overflowing_total_is_refused(self):
        with pytest.raises(BadRequest):
            check_timeline((("a", 1e308), ("t", 1e308)), 200.0)

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        rate_hz=st.floats(1.0, 1e4),
        total=st.floats(1e-3, 1e12),
    )
    def test_accepted_totals_print_frames_apart(self, rate_hz, total):
        # the last key and the key a frame before it print apart
        try:
            check_timeline((("a", total),), rate_hz)
        except BadRequest:
            return
        assert "%.9g" % total != "%.9g" % (total - 1.0 / rate_hz)

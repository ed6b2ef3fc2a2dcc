from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emarig.anim_db import (
    AnimationClip,
    AnimationUnit,
    Segment,
    SegmentTier,
    bake,
    build_unit_db,
    format_segmentation,
    parse_segmentation,
)
from emarig.errors import (
    BadNumber,
    EmptyTier,
    IncompatibleBundle,
    NonMonotonic,
    OverlapError,
)
from emarig.fixture import FixtureSpec, synthetic_motion
from emarig.rig import RigConfig, compile_rig, generate_default_mesh, parse_rig_graph
from emarig.fixture import RIG_GRAPH_DOT

from conftest import prepare
from reference import loop_build_unit_db, scalar_frame_index, scalar_sample


class TestBake:
    def test_one_second_sweep(self, small_fixture):
        data = synthetic_motion(FixtureSpec(n_sweeps=1, frames_per_sweep=200))
        prepared = prepare(data)
        graph = parse_rig_graph(RIG_GRAPH_DOT)
        rig = compile_rig(
            graph, prepared[0], data.roles, generate_default_mesh(),
            RigConfig(seeds=data.seeds),
        )
        clip = bake([prepared[0]], rig, data.roles)
        assert clip.n_keys == 200
        assert clip.duration == 1.0
        assert clip.times[0] == 0.0

    def test_static_sweep_constant_keys(self, small_fixture, compiled_model):
        rig, _, prepared = compiled_model
        data = small_fixture
        first = prepared[0]
        static = first.with_arrays(
            positions=np.repeat(first.positions[:1], 50, axis=0),
            phi=np.repeat(first.phi[:1], 50, axis=0),
            theta=np.repeat(first.theta[:1], 50, axis=0),
            rms=np.repeat(first.rms[:1], 50, axis=0),
            extra=np.repeat(first.extra[:1], 50, axis=0),
        )
        clip = bake([static], rig, data.roles)
        assert np.array_equal(clip.heads, np.repeat(clip.heads[:1], 50, axis=0))
        assert np.array_equal(clip.quats, np.repeat(clip.quats[:1], 50, axis=0))
        assert np.array_equal(
            clip.jaw_translations, np.repeat(clip.jaw_translations[:1], 50, axis=0)
        )

    def test_concatenation_offsets(self, compiled_model):
        rig, clip, prepared = compiled_model
        n1 = prepared[0].n_frames
        rate = prepared[0].rate_hz
        assert clip.n_keys == sum(s.n_frames for s in prepared)
        assert clip.times[n1] == n1 / rate
        offsets = clip.times[n1 : n1 + 100] - clip.times[:100]
        assert np.abs(offsets - n1 / rate).max() < 1e-12

    def test_duration_exact(self, compiled_model):
        _, clip, prepared = compiled_model
        total = sum(s.n_frames for s in prepared)
        assert clip.duration == total / prepared[0].rate_hz

    def test_jaw_rest_identity_at_frame_zero(self, compiled_model):
        _, clip, _ = compiled_model
        assert np.abs(clip.jaw_translations[0]).max() < 1e-9
        assert np.abs(clip.jaw_quats[0] - [1, 0, 0, 0]).max() < 1e-9

    def test_residual_metadata_present(self, compiled_model):
        _, clip, _ = compiled_model
        assert clip.residuals is not None
        assert clip.residuals.shape == (clip.n_keys,)
        assert clip.targets.shape == (clip.n_keys, 7, 3)

    def test_jaw_track_is_hinge_rotation(self, compiled_model):
        # the synthetic jaw swings about a hinge; the baked rigid track must
        # keep that hinge point fixed in mesh space
        from emarig.fixture import _JAW_HINGE
        from emarig.rotations import quat_to_mat

        _, clip, _ = compiled_model
        R = quat_to_mat(clip.jaw_quats)
        moved = np.einsum("fij,j->fi", R, _JAW_HINGE) + clip.jaw_translations
        assert np.abs(moved - _JAW_HINGE).max() < 1e-5  # .pos float32 noise


def random_clip(rng, n_keys, n_bones=3):
    """Random keys on an uneven grid. Every third key repeats the rotations
    of the one before it, and some rotations flip sign, so both the
    near-identical and the shortest-path branches of slerp are taken."""
    steps = rng.choice([1e-3, 0.005, 1 / 3], n_keys - 1)
    quats = rng.normal(size=(n_keys, n_bones, 4))
    quats /= np.linalg.norm(quats, axis=-1, keepdims=True)
    quats[2::3] = quats[1:-1:3]
    quats[rng.random((n_keys, n_bones)) < 0.3] *= -1.0
    jaw = rng.normal(size=(n_keys, 4))
    jaw /= np.linalg.norm(jaw, axis=-1, keepdims=True)
    return AnimationClip(
        rate_hz=200.0,
        bone_names=tuple(f"B{i}" for i in range(n_bones)),
        times=np.concatenate([[0.0], np.cumsum(steps)]),
        quats=quats,
        heads=rng.normal(size=(n_keys, n_bones, 3)),
        stretches=rng.uniform(0.5, 2.0, (n_keys, n_bones)),
        tails=rng.normal(size=(n_keys, n_bones, 3)),
        jaw_quats=jaw,
        jaw_translations=rng.normal(size=(n_keys, 3)),
        duration=float(np.sum(steps)) + 0.005,
    )


class TestSample:
    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_matches_scalar_sample(self, data):
        n_keys = data.draw(st.integers(2, 30))
        clip = random_clip(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), n_keys)
        times = clip.times.tolist()
        gap = st.integers(0, n_keys - 2)
        t = data.draw(st.lists(
            st.one_of(
                st.sampled_from(times),  # exact keys
                gap.map(lambda i: (times[i] + times[i + 1]) / 2),  # midpoints
                st.floats(-1.0, 0.0, exclude_max=True),  # before the first key
                st.floats(0.0, 1.0, exclude_min=True).map(lambda x: times[-1] + x),
                st.floats(0.0, times[-1]),
            ),
            min_size=1, max_size=40,
        ))
        sampled = clip.sample(np.array(t))
        reference = [scalar_sample(clip, x) for x in t]
        for channel, values in enumerate(sampled):
            expect = np.stack([r[channel] for r in reference])
            assert values.dtype == expect.dtype and values.shape == expect.shape
            assert values.tobytes() == expect.tobytes(), channel


class TestSegmentation:
    def test_parse_two_segments(self):
        tier = parse_segmentation("0.0 0.25 t\n0.25 0.60 a\n")
        assert len(tier) == 2
        assert tier.segments[0] == Segment(0.0, 0.25, "t")
        assert tier.segments[1].label == "a"

    def test_comments_and_blanks(self):
        tier = parse_segmentation("# header\n\n0.0 0.5 sil  # silence\n")
        assert len(tier) == 1
        assert tier.segments[0].label == "sil"

    def test_overlap(self):
        with pytest.raises(OverlapError):
            parse_segmentation("0.0 0.5 a\n0.4 0.8 b\n")

    def test_non_monotonic(self):
        with pytest.raises(NonMonotonic):
            parse_segmentation("0.5 0.4 a\n")
        with pytest.raises(NonMonotonic):
            parse_segmentation("-0.1 0.4 a\n")

    def test_bad_number(self):
        with pytest.raises(BadNumber):
            parse_segmentation("zero 0.4 a\n")
        with pytest.raises(BadNumber):
            parse_segmentation("0.0 0.4\n")

    def test_round_trip_canonicalizes(self):
        messy = "0.00 0.25   t\n0.25\t0.6 a\n"
        tier = parse_segmentation(messy)
        canon = format_segmentation(tier)
        assert parse_segmentation(canon) == tier
        assert format_segmentation(parse_segmentation(canon)) == canon

    def test_round_trip_random_tiers(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            t = 0.0
            segments = []
            for i in range(int(rng.integers(1, 12))):
                t += float(rng.uniform(0.0, 0.2))  # possible gap
                dur = float(rng.uniform(0.05, 0.5))
                segments.append(Segment(t, t + dur, f"ph{i % 4}"))
                t += dur
            tier = SegmentTier(segments=tuple(segments))
            assert parse_segmentation(format_segmentation(tier)) == tier

    def test_labels_with_spaces(self):
        tier = parse_segmentation("0.0 0.5 a b\n")
        assert tier.segments[0].label == "a b"
        assert parse_segmentation(format_segmentation(tier)) == tier


class TestUnitDb:
    def test_units_match_segments(self, compiled_model, small_fixture):
        _, clip, _ = compiled_model
        tier = small_fixture.tier
        db = build_unit_db(clip, tier)
        assert len(db) == len(tier)
        for unit, seg in zip(db, tier):
            assert unit.label == seg.label
            assert unit.duration == seg.duration
            assert np.isfinite(unit.first_positions).all()
            assert np.isfinite(unit.last_velocities).all()

    def test_adjacent_segments_share_boundary_sample(self, compiled_model, small_fixture):
        _, clip, _ = compiled_model
        db = build_unit_db(clip, small_fixture.tier)
        for left, right in zip(db[:-1], db[1:]):
            if left.end == right.start:
                assert np.array_equal(left.last_positions, right.first_positions)
                assert np.array_equal(left.last_velocities, right.first_velocities)

    def test_velocity_central_difference_oracle(self, compiled_model, small_fixture):
        _, clip, _ = compiled_model
        db = build_unit_db(clip, small_fixture.tier)
        rate = clip.rate_hz
        unit = db[1]  # interior boundaries
        a = clip.frame_index(unit.start)
        delta = 1.0 / rate
        expect = (clip.tails[a + 1] - clip.tails[a - 1]) / (2.0 * delta)
        assert np.allclose(unit.first_velocities, expect, atol=1e-9)

    def test_one_sided_at_clip_edges(self, compiled_model, small_fixture):
        _, clip, _ = compiled_model
        db = build_unit_db(clip, small_fixture.tier)
        first = db[0]
        expect = (clip.tails[1] - clip.tails[0]) * clip.rate_hz
        assert np.allclose(first.first_velocities, expect, atol=1e-9)

    def test_empty_tier(self, compiled_model):
        _, clip, _ = compiled_model
        with pytest.raises(EmptyTier):
            build_unit_db(clip, SegmentTier(segments=()))

    def test_tier_must_fit_clip(self, compiled_model):
        _, clip, _ = compiled_model
        tier = SegmentTier(segments=(Segment(0.0, clip.duration + 1.0, "x"),))
        with pytest.raises(IncompatibleBundle, match="tier ends at"):
            build_unit_db(clip, tier)


@st.composite
def grid_tiers(draw):
    """A clip keyed densely at a drawn rate, and a tier over it whose edges
    sit on frames, exactly on half frames (power-of-two rates make k + 0.5
    exact, so rounding ties to even) or anywhere, with gaps between some
    segments and the last edge possibly at the clip's end."""
    rate = draw(st.sampled_from([128.0, 256.0, 200.0, 100.0, 60.0]))
    n = draw(st.integers(2, 40))
    clip = random_clip(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    clip = replace(clip, rate_hz=rate, times=np.arange(n) / rate, duration=n / rate)
    edge = st.one_of(
        st.integers(0, n).map(lambda k: k / rate),
        st.integers(0, n - 1).map(lambda k: (k + 0.5) / rate),
        st.floats(0.0, n / rate),
    )
    edges = sorted(draw(st.lists(edge, min_size=2, max_size=12, unique=True)))
    segments = [
        Segment(start, end, f"s{i}")
        for i, (start, end) in enumerate(zip(edges[:-1], edges[1:]))
        if draw(st.booleans()) or i == 0
    ]
    return clip, SegmentTier(segments=tuple(segments))


class TestUnitDbFrames:
    @settings(max_examples=300, deadline=None, database=None)
    @given(grid_tiers())
    def test_matches_per_segment_loop(self, case):
        clip, tier = case
        times = [t for seg in tier for t in (seg.start, seg.end)]
        expect = [scalar_frame_index(clip, t) for t in times]
        assert clip.frame_index(times).tolist() == expect
        assert [clip.frame_index(t) for t in times] == expect

        got, ref = build_unit_db(clip, tier), loop_build_unit_db(clip, tier)
        assert len(got) == len(ref)
        for u, r in zip(got, ref):
            for f in fields(AnimationUnit):
                x, y = getattr(u, f.name), getattr(r, f.name)
                if isinstance(y, np.ndarray):
                    assert np.array_equal(x, y, equal_nan=True)
                else:
                    assert x == y

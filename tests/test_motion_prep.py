import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emarig.ema_io import EmaSweep, orientation_vector
from emarig.errors import (
    AllInvalidChannel,
    DegenerateConfiguration,
    WindowTooLarge,
)
from emarig.fixture import FixtureSpec, synthetic_motion
from emarig.motion_prep import (
    SmoothingSpec,
    fill_dropouts,
    normalize_head,
    rigid_align,
    similarity_align,
    smooth,
)
from emarig.rotations import axis_angle_matrix

from conftest import prepare
from reference import old_batched_rigid_align, old_rigid_align


def make_sweep(positions, rate=200.0, phi=None, theta=None):
    positions = np.asarray(positions, dtype=np.float64)
    n, c = positions.shape[:2]
    zeros = np.zeros((n, c))
    return EmaSweep(
        rate_hz=rate,
        channels=tuple(f"C{i}" for i in range(c)),
        positions=positions,
        phi=zeros if phi is None else phi,
        theta=zeros.copy() if theta is None else theta,
        rms=np.zeros((n, c), np.float32),
        extra=np.zeros((n, c), np.float32),
    )


def brute_force_rotation(moving, fixed, rounds=12, grid=9):
    """Independent oracle: multiresolution grid search over Euler angles for
    the least-squares rotation (translation solved from centroids)."""
    mc = moving - moving.mean(axis=0)
    fc = fixed - fixed.mean(axis=0)

    def cost(ax, ay, az):
        R = (
            axis_angle_matrix([0, 0, 1], az)
            @ axis_angle_matrix([0, 1, 0], ay)
            @ axis_angle_matrix([1, 0, 0], ax)
        )
        d = mc @ R.T - fc
        return np.sum(d * d), R

    center = np.zeros(3)
    span = np.pi
    best_R = None
    for _ in range(rounds):
        best = None
        for ax in np.linspace(center[0] - span, center[0] + span, grid):
            for ay in np.linspace(center[1] - span, center[1] + span, grid):
                for az in np.linspace(center[2] - span, center[2] + span, grid):
                    c, R = cost(ax, ay, az)
                    if best is None or c < best[0]:
                        best = (c, np.array([ax, ay, az]), R)
        center = best[1]
        best_R = best[2]
        span = span * 2.0 / (grid - 1)
    return best_R


def apply(R, t, points):
    """The rigid map x -> R @ x + t on an (n, 3) point set."""
    return points @ R.T + t


def fit(moving, fixed):
    """rigid_align on one point set: the stack with F = 1."""
    R, t = rigid_align(moving[None], fixed)
    assert R.shape == (1, 3, 3) and t.shape == (1, 3)
    return R[0], t[0]


class TestRigidAlign:
    POINTS = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])

    def test_identity(self):
        R, t = fit(self.POINTS, self.POINTS)
        assert np.allclose(R, np.eye(3), atol=1e-12)
        assert np.allclose(t, 0.0, atol=1e-12)

    def test_pure_translation(self):
        moving = self.POINTS + np.array([2.0, 0.0, 0.0])
        R, t = fit(moving, self.POINTS)
        assert np.allclose(R, np.eye(3), atol=1e-12)
        assert np.allclose(t, [-2.0, 0.0, 0.0], atol=1e-12)

    def test_constructed_rotation_and_brute_force(self):
        R_true = axis_angle_matrix([0, 0, 1], np.pi / 6)
        rng = np.random.default_rng(5)
        moving = rng.normal(0, 2, (6, 3))
        fixed = moving @ R_true.T
        R, _ = fit(moving, fixed)
        assert np.abs(R - R_true).max() < 1e-9
        R_search = brute_force_rotation(moving, fixed)
        assert np.abs(R - R_search).max() < 1e-4

    def test_no_reflection_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            moving = rng.normal(0, 1, (4, 3))
            fixed = rng.normal(0, 1, (4, 3))
            R, _ = fit(moving, fixed)
            assert abs(np.linalg.det(R) - 1.0) < 1e-9

    def test_left_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            moving = rng.normal(0, 1, (5, 3))
            fixed = rng.normal(0, 1, (5, 3))
            axis = rng.normal(0, 1, 3)
            Re = axis_angle_matrix(axis, rng.uniform(-np.pi, np.pi))
            te = rng.normal(0, 2, 3)
            R, t = fit(moving, fixed)
            R2, t2 = fit(apply(Re, te, moving), fixed)
            # the fit of E(moving), composed after E, is the fit of moving
            assert np.abs(R - R2 @ Re).max() < 1e-9
            assert np.abs(t - (R2 @ te + t2)).max() < 1e-9

    def test_collinear_degenerate(self):
        line = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
        with pytest.raises(DegenerateConfiguration):
            fit(line, line)

    def test_collinear_frame_is_named(self):
        rng = np.random.default_rng(19)
        fixed = rng.normal(0, 1, (4, 3))
        moving = rng.normal(0, 1, (9, 4, 3))
        moving[6] = [[0.0, 0, 0], [1, 1, 0], [2, 2, 0], [-1, -1, 0]]
        moving[8, 1] = moving[8, 0]  # a later coincident pair is not named
        moving[8, 2] = moving[8, 0]
        with pytest.raises(DegenerateConfiguration, match=r"at frame 6 \("):
            rigid_align(moving, fixed)
        # without the bad frames the stack fits
        R, t = rigid_align(moving[:6], fixed)
        assert R.shape == (6, 3, 3) and t.shape == (6, 3)

    def test_least_squares_optimality_vs_noise(self):
        rng = np.random.default_rng(17)
        moving = rng.normal(0, 1, (8, 3))
        R_true = axis_angle_matrix([1, 2, 3], 0.7)
        fixed = moving @ R_true.T + np.array([0.5, -1, 2]) + rng.normal(0, 0.01, (8, 3))
        R, t = fit(moving, fixed)
        base = np.sum((apply(R, t, moving) - fixed) ** 2)
        for _ in range(50):
            axis = rng.normal(0, 1, 3)
            Rp = axis_angle_matrix(axis, rng.normal(0, 0.05))
            tp = rng.normal(0, 0.05, 3)
            # the fit perturbed by P: P after (R, t)
            perturbed = apply(Rp @ R, Rp @ t + tp, moving)
            assert np.sum((perturbed - fixed) ** 2) >= base - 1e-12

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            rigid_align(self.POINTS, self.POINTS)  # not a stack
        with pytest.raises(ValueError):
            rigid_align(self.POINTS[None, :2], self.POINTS[:2])  # 2 points


def rejected_frame(align, moving, fixed):
    """The frame `align` names as degenerate, or None when it fits."""
    try:
        align(moving, fixed)
    except DegenerateConfiguration as exc:
        return int(re.search(r"at frame (\d+)", str(exc)).group(1))
    return None


class TestRigidAlignEquivalence:
    @settings(max_examples=500, deadline=None, database=None)
    @given(data=st.data())
    def test_matches_old_fits(self, data):
        F = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(3, 7))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scale = data.draw(st.sampled_from([1e-3, 1.0, 30.0]))
        fixed = rng.normal(0, scale, (n, 3))
        moving = rng.normal(0, scale, (F, n, 3)) + rng.normal(0, 5 * scale, 3)
        for f in range(F):
            # Squash a frame onto a line through its first two points, leaving
            # an off-line residue from exactly zero to well above the
            # degeneracy threshold.
            residue = data.draw(st.sampled_from(
                [None, 0.0, 1e-16, 1e-12, 1e-10, 1e-9, 2e-9, 1e-8, 1e-6, 1e-3]
            ))
            if residue is not None:
                a, b = moving[f, 0], moving[f, 1]
                along = rng.uniform(-2, 2, n)
                along[:2] = [0.0, 1.0]
                moving[f] = a + along[:, None] * (b - a) + residue * (moving[f] - a)

        # bitwise equal to the old batched fit, rejecting the same frame
        bad = rejected_frame(old_batched_rigid_align, moving, fixed)
        assert rejected_frame(rigid_align, moving, fixed) == bad
        if bad is None:
            R, t = rigid_align(moving, fixed)
            R_old, t_old = old_batched_rigid_align(moving, fixed)
            assert np.array_equal(R, R_old) and np.array_equal(t, t_old)

        # Frame by frame at F = 1: the single-frame fit rejects the same
        # frames and agrees within 1e-12 on a frame that spans a plane well
        # (s1 >= s0 / 10). A thinner frame leaves the turn about its line
        # ill-conditioned, so there the bound grows as s0 / s1.
        for f in range(F):
            one = moving[f : f + 1]
            try:
                R_old, t_old = old_rigid_align(moving[f], fixed)
            except DegenerateConfiguration:
                assert rejected_frame(rigid_align, one, fixed) == 0
                continue
            R, t = rigid_align(one, fixed)
            s = np.linalg.svd(moving[f] - moving[f].mean(axis=0), compute_uv=False)
            tol = 1e-12 * max(1.0, 0.1 * s[0] / s[1])
            size = max(1.0, np.abs(moving[f]).max(), np.abs(fixed).max())
            assert np.abs(R[0] - R_old).max() <= tol
            assert np.abs(t[0] - t_old).max() <= tol * size
class TestSimilarityAlign:
    def test_recovers_construction(self):
        rng = np.random.default_rng(23)
        moving = rng.normal(0, 2, (7, 3))
        R = axis_angle_matrix([0.3, 1, -0.2], 0.9)
        scale = 1.37
        t = np.array([4.0, -1.0, 2.5])
        fixed = scale * (moving @ R.T) + t
        sim = similarity_align(moving, fixed)
        assert abs(sim.scale - scale) < 1e-9
        assert np.abs(sim.rotation - R).max() < 1e-9
        assert np.abs(sim.apply(moving) - fixed).max() < 1e-9

    @pytest.mark.parametrize("which", ["moving", "fixed"])
    def test_collinear_seeds(self, which):
        spread = np.random.default_rng(29).normal(0, 2, (4, 3))
        line = np.outer([0.0, 1.0, 2.5, -1.0], [1.0, 2.0, -0.5]) + 3.0
        pair = {"moving": (line, spread), "fixed": (spread, line)}[which]
        with pytest.raises(DegenerateConfiguration, match=f"^{which} points"):
            similarity_align(*pair)


class TestNormalizeHead:
    def _roles_and_sweep(self, n=50):
        from emarig.ema_io import CoilRoles

        rng = np.random.default_rng(31)
        positions = np.empty((n, 5, 3))
        positions[:, 0] = [0.0, 0, 5]
        positions[:, 1] = [2.0, 1, 5]
        positions[:, 2] = [-2.0, 1, 5]
        positions[:, 3] = rng.normal(0, 0.1, (n, 3)) + [1.0, 0, 0]
        positions[:, 4] = rng.normal(0, 0.1, (n, 3)) + [0.0, 1, 0]
        sweep = make_sweep(positions)
        roles = CoilRoles.from_channels(
            sweep.channels, reference=("C0", "C1", "C2"), tongue=("C3", "C4")
        )
        return sweep, roles

    def test_stationary_is_identity(self):
        sweep, roles = self._roles_and_sweep()
        out = normalize_head(sweep, roles)
        assert np.abs(out.positions - sweep.positions).max() < 1e-12

    def test_recovers_ground_truth(self):
        data = synthetic_motion(FixtureSpec(n_sweeps=1, frames_per_sweep=200))
        normalized = normalize_head(data.sweeps[0], data.roles)
        truth = data.truth_sweeps[0]
        assert np.abs(normalized.positions - truth.positions).max() < 1e-9

    def test_reference_coils_become_stationary(self):
        data = synthetic_motion(FixtureSpec(n_sweeps=1, frames_per_sweep=200))
        normalized = normalize_head(data.sweeps[0], data.roles)
        idx = [data.layout.channels.index(n) for n in data.roles.reference]
        ref = normalized.positions[:, idx, :]
        assert ref.std(axis=0).max() < 1e-9

    def test_idempotent(self):
        data = synthetic_motion(FixtureSpec(n_sweeps=1, frames_per_sweep=100))
        once = normalize_head(data.sweeps[0], data.roles)
        idx = [data.layout.channels.index(n) for n in data.roles.reference]
        again = normalize_head(once, data.roles, np.array(once.positions[0, idx, :]))
        assert np.abs(again.positions - once.positions).max() < 1e-12

    def test_preserves_intercoil_distances(self):
        data = synthetic_motion(FixtureSpec(n_sweeps=1, frames_per_sweep=150))
        sweep = data.sweeps[0]
        normalized = normalize_head(sweep, data.roles)

        def pairwise(p):
            return np.linalg.norm(p[:, :, None, :] - p[:, None, :, :], axis=-1)

        assert np.abs(
            pairwise(normalized.positions) - pairwise(sweep.positions)
        ).max() < 1e-9

    def test_orientation_vectors_rotate_with_head(self):
        data = synthetic_motion(FixtureSpec(n_sweeps=1, frames_per_sweep=120))
        normalized = normalize_head(data.sweeps[0], data.roles)
        truth = data.truth_sweeps[0]
        got = orientation_vector(normalized.phi, normalized.theta)
        want = orientation_vector(truth.phi, truth.theta)
        assert np.abs(got - want).max() < 1e-9

    def test_collinear_reference_frame(self):
        sweep, roles = self._roles_and_sweep()
        line = np.array([[0.0, 0, 5], [1, 1, 5], [3, 3, 5]])
        with pytest.raises(
            DegenerateConfiguration, match=r"^reference-frame points .*collinear"
        ):
            normalize_head(sweep, roles, line)

    def test_no_valid_reference_frame(self):
        from emarig.errors import NoValidReferenceFrame
        from emarig.ema_io import CoilRoles

        positions = np.ones((5, 4, 3))
        positions[:, 0] = np.nan  # one reference coil never valid
        sweep = make_sweep(positions)
        roles = CoilRoles.from_channels(
            sweep.channels, reference=("C0", "C1", "C2"), tongue=("C3",)
        )
        with pytest.raises(NoValidReferenceFrame):
            normalize_head(sweep, roles)


class TestFillDropouts:
    def test_no_invalid_is_identity(self):
        sweep = make_sweep(np.ones((5, 2, 3)))
        out = fill_dropouts(sweep)
        assert out is sweep

    def test_linear_midpoint(self):
        positions = np.ones((3, 1, 3))
        positions[0, 0] = 1.0
        positions[1, 0] = np.nan
        positions[2, 0] = 3.0
        out = fill_dropouts(make_sweep(positions))
        assert np.allclose(out.positions[1, 0], 2.0)

    def test_leading_gap_constant(self):
        positions = np.ones((4, 1, 3))
        positions[0, 0] = np.nan
        positions[1, 0] = np.nan
        positions[2, 0] = 7.0
        positions[3, 0] = 9.0
        out = fill_dropouts(make_sweep(positions))
        assert np.allclose(out.positions[0, 0], 7.0)
        assert np.allclose(out.positions[1, 0], 7.0)

    def test_all_invalid_channel(self):
        positions = np.full((3, 1, 3), np.nan)
        with pytest.raises(AllInvalidChannel):
            fill_dropouts(make_sweep(positions))

    def test_rms_ceiling(self):
        positions = np.ones((3, 1, 3))
        positions[1, 0] = 5.0
        sweep = make_sweep(positions)
        rms = np.array(sweep.rms)
        rms[1, 0] = 99.0
        sweep = sweep.with_arrays(rms=rms)
        out = fill_dropouts(sweep, rms_ceiling=10.0)
        assert np.allclose(out.positions[1, 0], 1.0)  # interpolated, not 5.0


class TestSmooth:
    def test_constant_preserved_exactly(self):
        positions = np.full((30, 2, 3), 1.2345678901234567)
        sweep = make_sweep(positions)
        out = smooth(sweep, SmoothingSpec(window_frames=9))
        assert np.array_equal(out.positions, sweep.positions)

    def test_window_of_one_identity(self):
        sweep = make_sweep(np.random.default_rng(0).normal(0, 1, (20, 1, 3)))
        assert smooth(sweep, SmoothingSpec(window_frames=1)) is sweep

    def test_impulse_against_convolution_oracle(self):
        n = 31
        positions = np.zeros((n, 1, 3))
        positions[15, 0, 0] = 1.0
        sweep = make_sweep(positions)
        out = smooth(sweep, SmoothingSpec(window_frames=5))
        assert np.allclose(out.positions[13:18, 0, 0], 0.2, atol=1e-12)
        assert np.allclose(out.positions[:13, 0, 0], 0.0, atol=1e-12)

        # independent oracle: explicit reflection padding + convolution
        signal = positions[:, 0, 0]
        padded = np.pad(signal, 2, mode="reflect")
        expect = np.convolve(padded, np.ones(5) / 5.0, mode="valid")
        assert np.allclose(out.positions[:, 0, 0], expect, atol=1e-12)

    @settings(max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_moving_average_matches_frozen_scipy_oracle(self, data):
        # smooth() keeps the arithmetic of the scipy filter it replaced,
        # bit for bit; a window of 1 leaves the sweep as it is.
        from scipy.ndimage import uniform_filter1d

        n = data.draw(st.integers(1, 40))
        half = (n - 1) // 2
        w = 2 * data.draw(st.one_of(st.just(half), st.integers(0, half))) + 1  # odd, <= n
        cols = 3 * data.draw(st.integers(1, 8))
        exponents = data.draw(st.lists(st.floats(-3, 3), min_size=cols, max_size=cols))
        constant = data.draw(st.lists(st.booleans(), min_size=cols, max_size=cols))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        flat = rng.normal(rng.normal(0.0, 5.0, cols), 1.0, (n, cols)) * 10.0 ** np.array(exponents)
        flat[:, constant] = flat[0, constant]

        out = smooth(make_sweep(flat.reshape(n, -1, 3)), SmoothingSpec(window_frames=w))
        expect = flat
        if w > 1:
            mean = flat.mean(axis=0)
            expect = uniform_filter1d(flat - mean, w, axis=0, mode="mirror") + mean
        assert np.array_equal(out.positions.reshape(n, cols), expect)

    def test_window_too_large(self):
        sweep = make_sweep(np.zeros((5, 1, 3)))
        with pytest.raises(WindowTooLarge):
            smooth(sweep, SmoothingSpec(window_frames=7))

    def test_length_unchanged(self):
        rng = np.random.default_rng(41)
        sweep = make_sweep(rng.normal(0, 1, (50, 3, 3)))
        out = smooth(sweep, SmoothingSpec(window_frames=9))
        assert out.n_frames == sweep.n_frames

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SmoothingSpec(window_frames=4)
        with pytest.raises(ValueError):
            SmoothingSpec(window_frames=0)


def test_prepare_pipeline_order(small_fixture):
    prepared = prepare(small_fixture)
    assert len(prepared) == 2
    for sweep in prepared:
        assert sweep.valid_mask().all()

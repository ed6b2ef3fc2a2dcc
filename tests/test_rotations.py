import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from emarig.rotations import axis_angle_matrix, mat_to_quat, minimal_rotation, norm

import reference
from conftest import traced_peak
from reference import four_branch_mat_to_quat


unit = st.floats(-1.0, 1.0, allow_nan=False)
tiny = st.sampled_from([0.0, 1e-300, 5e-324, 1e-16, 2.2e-16, 1e-12, 1e-8])


@st.composite
def matrices(draw):
    """One 3x3 matrix: a rotation, possibly a quarter or half turn about a
    coordinate axis (where the trace ties with a diagonal entry, or two
    diagonal entries tie), nudged by a tiny angle or a last-bit step, then
    possibly scaled, sheared, replaced by raw entries or zeroed."""
    kind = draw(st.sampled_from(["any", "quarter", "half"]))
    if kind == "any":
        axis = np.array([draw(unit), draw(unit), draw(unit)])
        if not norm(axis) > 1e-6:
            axis = np.array([0.0, 0.0, 1.0])
        angle = draw(st.floats(-np.pi, np.pi))
    else:
        axis = np.eye(3)[draw(st.integers(0, 2))]
        angle = (np.pi / 2 if kind == "quarter" else np.pi) * draw(st.sampled_from([1, -1]))
    angle += draw(tiny) * draw(st.sampled_from([1, -1]))
    M = axis_angle_matrix(axis, angle)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        M[i, j] = np.nextafter(M[i, j], draw(st.sampled_from([-np.inf, np.inf])))
    shape = draw(st.sampled_from(["rotation", "scaled", "sheared", "raw", "zero"]))
    if shape == "scaled":
        M = M * draw(st.sampled_from([0.5, 2.0, -1.0, 1e-3, 1e3]))
    elif shape == "sheared":
        shear = np.eye(3)
        shear[draw(st.integers(0, 1)), 2] = draw(unit)
        M = M @ shear
    elif shape == "raw":
        M = np.array([draw(st.floats(-3.0, 3.0)) for _ in range(9)]).reshape(3, 3)
    elif shape == "zero":
        M = np.zeros((3, 3))
    return M


class TestMatToQuat:
    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(matrices(), min_size=1, max_size=24), st.sampled_from([(-1,), (-1, 2), ()]))
    def test_matches_four_branch_reference(self, mats, batch):
        R = np.array(mats)
        if batch == ():
            R = R[0]
        elif batch == (-1, 2):
            R = np.concatenate([R, R[::-1]]).reshape(-1, 2, 3, 3)
        assert np.array_equal(mat_to_quat(R), four_branch_mat_to_quat(R), equal_nan=True)

    def test_every_branch_and_tie(self):
        # Identity (trace), half turns about x, y and z (each diagonal entry
        # in turn) and a half turn about (1, 1, 0), whose m00 and m11 tie.
        R = np.stack(
            [np.eye(3), np.diag([1.0, -1, -1]), np.diag([-1.0, 1, -1]), np.diag([-1.0, -1, 1])]
            + [axis_angle_matrix([1.0, 1.0, 0.0], np.pi), np.zeros((3, 3))]
        )
        q = mat_to_quat(R)
        assert np.array_equal(q, four_branch_mat_to_quat(R), equal_nan=True)
        assert np.array_equal(q[:4], np.eye(4))


class TestAxisAngleMatrix:
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3).filter(
            lambda v: norm(np.array(v)) > 1e-3
        ),
        st.sampled_from([(), (5,), (3, 4)]),
        st.data(),
    )
    def test_batch_equals_stack_of_scalar_calls(self, axis, shape, data):
        # Non-unit axes; angles of shape (), (n,) and (n, m).
        n = int(np.prod(shape))
        angles = np.array(
            data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
        ).reshape(shape)
        got = axis_angle_matrix(axis, angles)
        assert got.shape == shape + (3, 3)
        scalar = [axis_angle_matrix(axis, a) for a in angles.reshape(-1)]
        frozen = [reference.axis_angle_matrix(axis, a) for a in angles.reshape(-1)]
        assert all(m.shape == (3, 3) for m in scalar)
        assert np.array_equal(got, np.array(scalar).reshape(shape + (3, 3)))
        assert np.array_equal(got, np.array(frozen).reshape(shape + (3, 3)))

    def test_scalar_angle_gives_one_matrix(self):
        M = axis_angle_matrix([0.0, 0.0, 2.0], np.pi / 2)
        assert M.shape == (3, 3)
        assert np.allclose(M @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)


def unit_rows(rng, shape):
    v = rng.normal(size=shape + (3,))
    return v / norm(v)[..., None]


class TestMinimalRotation:
    @settings(max_examples=300, deadline=None, database=None)
    @given(st.integers(1, 7), st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_matches_9f05ce2(self, n_bones, n_frames, seed):
        # Rest directions broadcast against posed ones, as the solver calls
        # it; rows are random, identical, antiparallel, or antiparallel up to
        # a turn of about 1e-9 (inside the 1e-12 band of 1 + cos) or 1e-5
        # (just outside it).
        rng = np.random.default_rng(seed)
        u = np.broadcast_to(unit_rows(rng, (n_bones,)), (n_frames, n_bones, 3))
        v = unit_rows(rng, (n_frames, n_bones))
        kind = rng.integers(0, 5, (n_frames, n_bones))
        v[kind == 1] = u[kind == 1]
        v[kind == 2] = -u[kind == 2]
        for k, turn in ((3, 1e-9), (4, 1e-5)):
            near = -u[kind == k] + rng.normal(0.0, turn, ((kind == k).sum(), 3))
            v[kind == k] = near / norm(near)[..., None]
        assert np.array_equal(minimal_rotation(u, v), reference.minimal_rotation(u, v))

    def test_single_vectors_match_9f05ce2(self):
        rng = np.random.default_rng(5)
        for u, v in [(unit_rows(rng, ()), unit_rows(rng, ())), ([0.0, 0, 1], [0.0, 0, -1])]:
            assert np.array_equal(minimal_rotation(u, v), reference.minimal_rotation(u, v))

    def test_peak_memory(self):
        # The Rodrigues sum ran through four temporaries of the output's size
        # (5.7 times the output in all); in place it needs K alone.
        rng = np.random.default_rng(6)
        u = np.broadcast_to(unit_rows(rng, (7,)), (2000, 7, 3))
        R, peak = traced_peak(minimal_rotation, u, unit_rows(rng, (2000, 7)))
        assert peak < 3.5 * R.nbytes

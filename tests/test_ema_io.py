import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emarig.ema_io import (
    CoilRoles,
    EmaSweep,
    PosLayout,
    angles_from_vector,
    format_layout,
    orientation_vector,
    parse_layout,
    read_pos,
    write_pos,
)
from emarig.errors import BadLayout, BadRoles, ChannelMismatch, TruncatedFrame


def random_sweep_bytes(rng, n_channels, n_frames, dropout_rate=0.0):
    raw = rng.normal(0.0, 40.0, size=(n_frames, n_channels, 7)).astype("<f4")
    raw[:, :, 5] = np.abs(raw[:, :, 5])
    if dropout_rate and n_frames:
        mask = rng.random((n_frames, n_channels)) < dropout_rate
        raw[mask] = np.nan
    return raw.tobytes()


def make_layout(n_channels, rate=200.0):
    return PosLayout(channels=tuple(f"C{i}" for i in range(n_channels)), rate_hz=rate)


class TestReadPos:
    def test_twelve_channel_single_frame(self):
        layout = make_layout(12)
        data = np.arange(84, dtype="<f4").tobytes()
        sweep = read_pos(data, layout)
        assert sweep.n_frames == 1
        assert len(sweep.channels) == 12
        # first channel: 0,1,2 mm -> 0, 0.1, 0.2 cm
        assert np.allclose(sweep.positions[0, 0], [0.0, 0.1, 0.2])

    def test_empty_stream(self):
        sweep = read_pos(b"", make_layout(3))
        assert sweep.n_frames == 0

    def test_truncated(self):
        layout = make_layout(2)
        with pytest.raises(TruncatedFrame):
            read_pos(b"\x00" * 55, layout)

    def test_bad_layout(self):
        with pytest.raises(BadLayout):
            PosLayout(channels=())
        for rate in (0.0, -200.0, np.inf, np.nan):
            with pytest.raises(BadLayout):
                PosLayout(channels=("A",), rate_hz=rate)
        with pytest.raises(BadLayout):
            PosLayout(channels=("A", "A"))

    def test_sweep_rate_must_be_finite_and_positive(self):
        sweep = read_pos(b"", make_layout(1))
        for rate in (0.0, -200.0, np.inf, np.nan):
            with pytest.raises(BadLayout):
                replace(sweep, rate_hz=rate)

    def test_invalid_samples_flagged_not_rejected(self):
        layout = make_layout(1)
        raw = np.full((2, 1, 7), np.nan, dtype="<f4")
        raw[1] = 1.0
        sweep = read_pos(raw.tobytes(), layout)
        assert not sweep.valid_mask()[0, 0]
        assert sweep.valid_mask()[1, 0]
        # the invalid frame is kept, its samples passed through as NaN
        assert sweep.n_frames == 2
        assert np.isnan(sweep.positions[0, 0]).all()

    def test_signalling_nan_is_a_quiet_dropout(self):
        # x, phi and rms hold a signalling NaN. The float64 casts of x and phi
        # must not warn (under -W error a warning escapes as a traceback); the
        # sample is a dropout, and x and phi come back quieted while the raw
        # float32 rms keeps its bits.
        bits = np.array([0x7F800001, 0x3F800000, 0, 0x7F800001, 0, 0x7F800001, 0], "<u4")
        layout = make_layout(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = read_pos(bits.tobytes(), layout)
        assert not sweep.valid_mask()[0, 0]
        assert np.isnan(sweep.positions[0, 0, 0]) and np.isnan(sweep.phi[0, 0])
        back = np.frombuffer(write_pos(sweep, layout), "<u4")
        assert back.tolist() == [0x7FC00001, 0x3F800000, 0, 0x7FC00001, 0, 0x7F800001, 0]


class TestWritePos:
    def test_unit_conversion(self):
        layout = make_layout(1)
        positions = np.array([[[1.0, 2.0, 3.0]]])
        zeros = np.zeros((1, 1))
        sweep = EmaSweep(
            rate_hz=200.0,
            channels=layout.channels,
            positions=positions,
            phi=zeros,
            theta=zeros.copy(),
            rms=zeros.astype(np.float32),
            extra=zeros.astype(np.float32),
        )
        data = write_pos(sweep, layout)
        assert len(data) == 28
        values = np.frombuffer(data, dtype="<f4")
        assert np.allclose(values[:3], [10.0, 20.0, 30.0])  # cm -> mm

    def test_empty_sweep(self):
        layout = make_layout(2)
        sweep = read_pos(b"", layout)
        assert write_pos(sweep, layout) == b""

    def test_channel_mismatch(self):
        sweep = read_pos(b"", make_layout(2))
        with pytest.raises(ChannelMismatch):
            write_pos(sweep, make_layout(3))

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            n_channels = int(rng.integers(1, 13))
            n_frames = int(rng.integers(0, 80))
            data = random_sweep_bytes(rng, n_channels, n_frames, dropout_rate=0.05)
            layout = make_layout(n_channels)
            assert write_pos(read_pos(data, layout), layout) == data

    def test_stream_length_formula(self):
        rng = np.random.default_rng(7)
        layout = make_layout(5)
        data = random_sweep_bytes(rng, 5, 17)
        sweep = read_pos(data, layout)
        assert sweep.n_frames * len(sweep.channels) * 28 == len(data)

    def test_sweep_level_round_trip(self):
        # read -> write -> read reproduces every in-memory array exactly
        rng = np.random.default_rng(8)
        layout = make_layout(6)
        sweep = read_pos(random_sweep_bytes(rng, 6, 40, dropout_rate=0.03), layout)
        again = read_pos(write_pos(sweep, layout), layout)
        assert np.array_equal(again.positions, sweep.positions, equal_nan=True)
        assert np.array_equal(again.phi, sweep.phi, equal_nan=True)
        assert np.array_equal(again.theta, sweep.theta, equal_nan=True)
        assert again.rms.tobytes() == sweep.rms.tobytes()
        assert again.extra.tobytes() == sweep.extra.tobytes()


class TestOrientationVector:
    def test_conventions(self):
        assert np.allclose(orientation_vector(0.0, 0.0), [1, 0, 0])
        assert np.allclose(orientation_vector(np.pi / 2, 0.0), [0, 1, 0])
        assert np.allclose(orientation_vector(0.0, np.pi / 2), [0, 0, 1])

    def test_unit_norm(self):
        rng = np.random.default_rng(2)
        phi = rng.uniform(-np.pi, np.pi, 500)
        theta = rng.uniform(-np.pi / 2, np.pi / 2, 500)
        vec = orientation_vector(phi, theta)
        assert np.abs(np.linalg.norm(vec, axis=-1) - 1.0).max() < 1e-12

    def test_angles_round_trip(self):
        rng = np.random.default_rng(3)
        phi = rng.uniform(-np.pi, np.pi, 100)
        theta = rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6, 100)
        p2, t2 = angles_from_vector(orientation_vector(phi, theta))
        assert np.allclose(p2, phi, atol=1e-12)
        assert np.allclose(t2, theta, atol=1e-12)


class TestRoles:
    def test_partition(self):
        channels = tuple("ABCDEFG")
        roles = CoilRoles.from_channels(
            channels, reference=("A", "B", "C"), jaw=("D",), tongue=("E", "F")
        )
        assert roles.ignored == ("G",)

    def test_requires_three_reference(self):
        with pytest.raises(BadRoles):
            CoilRoles(reference=("A", "B"))

    def test_disjoint(self):
        with pytest.raises(BadRoles):
            CoilRoles(reference=("A", "B", "C"), tongue=("A",))

    def test_missing_channel(self):
        roles = CoilRoles(reference=("A", "B", "Z"))
        with pytest.raises(BadRoles):
            roles.validate_against(("A", "B", "C"))

    def test_too_many_tongue(self):
        with pytest.raises(BadRoles):
            CoilRoles(
                reference=("R1", "R2", "R3"),
                tongue=tuple(f"T{i}" for i in range(9)),
            )


class TestLayoutSidecar:
    def test_parse(self):
        layout = parse_layout(
            "channels = TTipC, TBladeL\nrate_hz = 250\nunits = mm_deg\n"
        )
        assert layout.channels == ("TTipC", "TBladeL")
        assert layout.rate_hz == 250.0

    def test_round_trip(self):
        layout = PosLayout(channels=("A", "B", "C"), rate_hz=200.0)
        assert "rate_hz = 200\n" in format_layout(layout)
        assert parse_layout(format_layout(layout)) == layout

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        st.one_of(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            st.sampled_from([199.99999, 333.3333, 1e-300, 5e-324, 1e300]),
        )
    )
    def test_rate_round_trips(self, rate):
        # `:g` kept 6 digits, so 199.99999 came back as 200 and 333.3333
        # as 333.333.
        layout = PosLayout(channels=("A",), rate_hz=rate)
        assert parse_layout(format_layout(layout)).rate_hz == rate

    def test_unknown_key(self):
        with pytest.raises(BadLayout):
            parse_layout("channels = A\nbogus = 1\n")

    def test_missing_channels(self):
        with pytest.raises(BadLayout):
            parse_layout("rate_hz = 200\n")

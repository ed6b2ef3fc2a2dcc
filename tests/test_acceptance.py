"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Tolerances are pinned here, not configurable: byte-identity for .pos round
trips, 1e-9 cm for head normalization and the volume law, 1e-6 for the
analytic IK oracle and COLLADA round trips, 1e-2 cm for the end-to-end
seed-vertex check, exact equality for unit-selection optimality, and the
stated wall-clock budgets.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from emarig.cli import main
from emarig.ema_io import read_pos, write_pos
from emarig.fixture import FixtureSpec, synthetic_motion, write_fixture
from emarig.ik_solver import IkParams, solve_track
from emarig.motion_prep import SmoothingSpec, normalize_head, rigid_align
from emarig.pipeline import build_bundle, compile_model, load_config, validate_model
from emarig.rotations import axis_angle_matrix
from emarig.unit_synth import SynthesisRequest, join_cost, select_units, target_cost

from conftest import make_chain_armature
from test_ema_io import make_layout, random_sweep_bytes
from test_collada_io import quat_close, random_clip, random_mesh, random_tree_armature
from test_ik_solver import two_link_oracle
from test_unit_synth import make_unit


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_pos_round_trip():
    rng = np.random.default_rng(20240101)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        n_channels = int(rng.integers(1, 13))
        n_frames = int(rng.integers(0, 501))
        data = random_sweep_bytes(rng, n_channels, n_frames, dropout_rate=0.02)
        layout = make_layout(n_channels)
        if write_pos(read_pos(data, layout), layout) != data:
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(1, "pos round trip x1000 byte-identical", ok, f"{elapsed:.2f}s")


def test_criterion_2_head_normalization():
    data = synthetic_motion(FixtureSpec(n_sweeps=1, frames_per_sweep=400))
    normalized = normalize_head(data.sweeps[0], data.roles)
    truth = data.truth_sweeps[0]

    ref_idx = [data.layout.channels.index(n) for n in data.roles.reference]
    ref_dev = float(normalized.positions[:, ref_idx, :].std(axis=0).max())

    tongue_idx = [data.layout.channels.index(n) for n in data.roles.tongue]
    traj_err = float(
        np.abs(
            normalized.positions[:, tongue_idx, :] - truth.positions[:, tongue_idx, :]
        ).max()
    )

    rng = np.random.default_rng(7)
    rot_err = 0.0
    for _ in range(50):
        R = axis_angle_matrix(rng.normal(0, 1, 3), rng.uniform(-np.pi, np.pi))
        t = rng.normal(0, 3, 3)
        moving = rng.normal(0, 2, (5, 3))
        R_fit, _ = rigid_align(moving[None], moving @ R.T + t)
        rot_err = max(rot_err, float(np.abs(R_fit[0] - R).max()))

    ok = ref_dev < 1e-9 and traj_err < 1e-9 and rot_err < 1e-9
    _report(
        2,
        "head normalization vs ground truth",
        ok,
        f"ref dev {ref_dev:.2e}, traj err {traj_err:.2e}, rot err {rot_err:.2e}",
    )


def test_criterion_3_ik(compiled_model):
    rig, _, _ = compiled_model
    arm = rig.armature
    assert arm.n_bones == 7

    rest = solve_track(arm, arm.tails[None])
    rest_ok = rest.iterations[0] == 1 and rest.max_residual()[0] == 0.0

    chain = make_chain_armature([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    target = np.array([1.0, 1.0, 0.0])
    pose = solve_track(
        chain,
        np.array([[[1.0, 0.0, 0.0], target]]),
        IkParams(tolerance=1e-9, max_iterations=100),
    )
    elbow = two_link_oracle(1.0, 1.0, target, elbow_hint=[1.0, 0.0, 0.0])
    two_link_ok = (
        np.abs(pose.tails[0, 0] - elbow).max() < 1e-6
        and np.abs(pose.tails[0, 1] - target).max() < 1e-6
    )

    rng = np.random.default_rng(31337)
    targets = arm.tails[None] + rng.normal(0, 0.45, (10000, arm.n_bones, 3))
    start = time.perf_counter()
    track = solve_track(arm, targets, IkParams())
    elapsed = time.perf_counter() - start
    law = track.stretches * arm.rest_lengths * track.cross_scales**2
    law_err = float(np.abs(law - arm.rest_lengths).max())
    law_ok = law_err < 1e-9 and elapsed < 10.0

    ok = rest_ok and two_link_ok and law_ok
    _report(
        3,
        "IK rest/two-bone/volume-law",
        ok,
        f"law err {law_err:.2e} over 10000 frames in {elapsed:.2f}s",
    )


def test_criterion_4_end_to_end_seed_tracking(tmp_path):
    write_fixture(tmp_path, FixtureSpec(n_sweeps=2, frames_per_sweep=400))
    config = dataclasses.replace(
        load_config(tmp_path / "config.cfg"), smoothing=SmoothingSpec(window_frames=1)
    )
    result = compile_model(config)
    bundle = build_bundle(result, tmp_path / "bundle")
    from emarig.bundle import read_bundle

    loaded = read_bundle(bundle.path)
    report = validate_model(loaded, config)
    ok = report.max_rms <= 1e-2
    _report(
        4,
        "seed-vertex vs source-coil RMS <= 1e-2 cm",
        ok,
        f"max rms {report.max_rms:.2e} cm",
    )


def test_criterion_5_unit_selection():
    rng = np.random.default_rng(55555)
    exact = 0
    for _ in range(200):
        labels = ("a", "t", "m")
        counts = {label: 1 for label in labels}
        picks = list(labels)
        while len(picks) < 9:
            label = labels[int(rng.integers(0, 3))]
            if counts[label] >= 5:
                continue
            counts[label] += 1
            picks.append(label)
        rng.shuffle(picks)
        db = [
            make_unit(
                label,
                float(rng.uniform(0.05, 0.5)),
                i,
                first=rng.normal(0, 1, (7, 3)),
                last=rng.normal(0, 1, (7, 3)),
                fv=rng.normal(0, 5, (7, 3)),
                lv=rng.normal(0, 5, (7, 3)),
            )
            for i, label in enumerate(picks)
        ]
        n_slots = int(rng.integers(1, 6))
        items = tuple(
            (labels[int(rng.integers(0, 3))], float(rng.uniform(0.05, 0.6)))
            for _ in range(n_slots)
        )
        request = SynthesisRequest(
            items=items,
            w_target=float(rng.uniform(0.3, 2.0)),
            w_join=float(rng.uniform(0.3, 2.0)),
        )
        plan = select_units(db, request)

        candidates = [
            sorted((u for u in db if u.label == l), key=lambda u: u.source_index)
            for l, _ in items
        ]
        best = None
        for combo in itertools.product(*candidates):
            tl = [target_cost(u, d) for u, (_, d) in zip(combo, items)]
            jl = [
                join_cost(x, y, request.velocity_weight)
                for x, y in zip(combo[:-1], combo[1:])
            ]
            total = request.w_target * sum(tl) + request.w_join * sum(jl)
            if best is None or total < best:
                best = total
        if plan.total == best:
            exact += 1

    data = synthetic_motion(FixtureSpec(n_sweeps=1, frames_per_sweep=300))
    from conftest import prepare
    from emarig.anim_db import bake, build_unit_db
    from emarig.fixture import RIG_GRAPH_DOT
    from emarig.rig import RigConfig, compile_rig, generate_default_mesh, parse_rig_graph

    prepared = prepare(data)
    rig = compile_rig(
        parse_rig_graph(RIG_GRAPH_DOT), prepared[0], data.roles,
        generate_default_mesh(), RigConfig(seeds=data.seeds),
    )
    clip = bake(prepared, rig, data.roles)
    db = build_unit_db(clip, data.tier)
    recon = select_units(
        db, SynthesisRequest(items=tuple((s.label, s.duration) for s in data.tier))
    )
    recon_ok = recon.total == 0.0 and [u.source_index for u in recon.units] == list(
        range(len(db))
    )

    ok = exact == 200 and recon_ok
    _report(
        5,
        "unit-selection DP == exhaustive, reconstruction cost 0",
        ok,
        f"{exact}/200 exact, reconstruction total {recon.total}",
    )


def test_criterion_6_collada_round_trip():
    from emarig.collada_io import read_collada, write_collada

    rng = np.random.default_rng(66666)
    worst = 0.0
    ok = True
    for _ in range(10):
        n_bones = int(rng.integers(1, 9))
        arm = random_tree_armature(rng, n_bones)
        mesh = random_mesh(rng, n_bones)
        clip = random_clip(rng, arm, int(rng.integers(2, 15)))
        m2, a2, c2 = read_collada(write_collada(mesh, arm, clip))
        if not (
            np.array_equal(m2.triangles, mesh.triangles)
            and a2.bone_names == arm.bone_names
            and np.array_equal(a2.parents, arm.parents)
        ):
            ok = False
            break
        errs = [
            np.abs(c2.times - clip.times).max(),
            np.abs(c2.heads - clip.heads).max(),
            np.abs(c2.stretches - clip.stretches).max(),
            np.abs(m2.vertices - mesh.vertices).max(),
        ]
        worst = max(worst, float(max(errs)))
        if not quat_close(c2.quats, clip.quats, 1e-6):
            ok = False
            break
    ok = ok and worst < 1e-6
    _report(6, "COLLADA round trip", ok, f"worst numeric err {worst:.2e}")


def test_criterion_7_throughput(tmp_path):
    write_fixture(tmp_path, FixtureSpec(n_sweeps=2, frames_per_sweep=6000))
    config = load_config(tmp_path / "config.cfg")
    start = time.perf_counter()
    result = compile_model(config)
    build_bundle(result, tmp_path / "bundle")
    elapsed = time.perf_counter() - start
    n_vertices = result.rig.mesh.n_vertices
    ok = (
        elapsed < 60.0
        and result.clip.n_keys == 12000
        and result.rig.armature.n_bones == 7
        and n_vertices >= 5000
    )
    _report(
        7,
        "compile 60s of 200Hz EMA under 60s",
        ok,
        f"{result.clip.n_keys} frames, {n_vertices} vertices in {elapsed:.1f}s",
    )


def test_criterion_8_determinism(tmp_path):
    write_fixture(tmp_path / "corpus", FixtureSpec(n_sweeps=2, frames_per_sweep=300))
    cfg = str(tmp_path / "corpus" / "config.cfg")
    for name in ("one", "two"):
        assert main(["compile", "--config", cfg, "--out", str(tmp_path / name)]) == 0
    m1 = (tmp_path / "one" / "manifest.txt").read_bytes()
    m2 = (tmp_path / "two" / "manifest.txt").read_bytes()
    ok = m1 == m2 and len(m1) > 0
    _report(8, "reproducible compile manifests", ok)

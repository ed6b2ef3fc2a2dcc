import hashlib
import os
import re
import shutil
from dataclasses import fields, replace

import numpy as np
import pytest

from emarig.anim_db import build_unit_db
from emarig.bundle import read_bundle
from emarig.cli import main
from emarig.collada_io import read_collada
from emarig.ema_io import parse_layout, read_pos, write_pos
from emarig.fixture import FixtureSpec, write_fixture
from emarig.ik_solver import IkParams, skin_trajectories
from emarig.motion_prep import SmoothingSpec
from emarig.pipeline import (
    SynthesisDefaults,
    ValidationReport,
    _layout_and_roles,
    compile_model,
    load_config,
    prepare_sweeps,
    validate_model,
)
from emarig.rig import MeshParams, RigConfig, generate_default_mesh, load_mesh, save_obj
from emarig.unit_synth import SynthesisRequest, render_plan, select_units

from reference import exhaustive_total

# sha256 of model.dae compiled from `emarig fixture` with its defaults.
GOLDEN_MODEL_SHA256 = "b2ddbb5343aaecfb65678f3d3cf3a1e87078f5154e050b20865ff9c93d3f4ee5"
# sha256 of `synth --out` for GOLDEN_SYNTH_REQUEST against that bundle.
GOLDEN_SYNTH_REQUEST = "t 0.08; a 0.15; m 0.09; i 0.12; a 0.2"
GOLDEN_SYNTH_SHA256 = "5ebf038fab9b13970c994093579bb773742b82eff8636437e2c3c482e86a2cfa"


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    write_fixture(out, FixtureSpec(n_sweeps=2, frames_per_sweep=300))
    return out


@pytest.fixture(scope="module")
def bundle_dir(fixture_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("bundles") / "model"
    rc = main(["compile", "--config", str(fixture_dir / "config.cfg"), "--out", str(out)])
    assert rc == 0
    return out


def check_output_replaced(path, run):
    """`run` writes `path` as a new file: a handle on the old file keeps its
    bytes and inode, and running again gives the same bytes."""
    path.write_bytes(b"stale output\n")
    with open(path, "rb") as stale:
        assert run() == 0
        assert os.fstat(stale.fileno()).st_ino != path.stat().st_ino
        assert stale.read() == b"stale output\n"
    first = path.read_bytes()
    assert first != b"stale output\n"
    assert run() == 0
    assert path.read_bytes() == first


_DEEP_CHAIN = b"".join(
    b'<node sid="D%d" type="JOINT"><matrix sid="transform">1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1</matrix>'
    b'<extra><technique profile="emarig"><tail>0 0 1</tail></technique></extra>' % i
    for i in range(1199)
) + b'<node sid="D1199" type="JOINT">' + b"</node>" * 1200


def rewrite_rehashed(bundle, name, data):
    """Replace a bundle file and re-hash it in the manifest, so the bundle
    still verifies."""
    target = bundle / name
    old = target.read_bytes()
    target.write_bytes(data)
    manifest = bundle / "manifest.txt"
    manifest.write_text(manifest.read_text().replace(
        hashlib.sha256(old).hexdigest(), hashlib.sha256(data).hexdigest()
    ))


def synth_fails_tagged(bundle, tmp_path, capsys, tag):
    """`synth` on the bundle exits 2 with one `tag` line and no output file."""
    out = tmp_path / "clip.dae"
    rc = main(["synth", "--bundle", str(bundle), "--request", "a 0.2", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(tag), captured.err
    assert not out.exists()


class TestConfig:
    def test_load(self, fixture_dir):
        config = load_config(fixture_dir / "config.cfg")
        assert len(config.ema_paths) == 2
        assert config.tongue == (
            "TBackC", "TMidC", "TTipC", "TMidL", "TBladeL", "TMidR", "TBladeR",
        )
        assert config.smoothing.window_frames == 9
        assert "TTipC" in config.rig.seeds

    def test_dataclasses_supply_the_defaults(self, fixture_dir, tmp_path):
        # a config with only [paths] and [roles] loads every other section
        # as its dataclass's defaults
        text = (fixture_dir / "config.cfg").read_text()
        cfg = tmp_path / "minimal.cfg"
        cfg.write_text(text[: text.index("[smoothing]")])
        config = load_config(cfg)
        assert config.smoothing == SmoothingSpec()
        assert config.ik == IkParams()
        assert config.synthesis == SynthesisDefaults()
        assert config.mesh_params == MeshParams()
        rig = RigConfig()
        for f in fields(RigConfig):
            if f.name == "root_offset":
                assert np.array_equal(config.rig.root_offset, rig.root_offset)
            else:
                assert getattr(config.rig, f.name) == getattr(rig, f.name)

    def test_missing_file(self, tmp_path):
        from emarig.errors import ConfigError

        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    @staticmethod
    def compile_fails_as(fixture_dir, tmp_path, capsys, old, new, error):
        # The config is rejected while it is read, before any path in it is.
        # `old` is a pattern for the one line that `new` replaces.
        text, n = re.subn(old, new, (fixture_dir / "config.cfg").read_text(), count=1)
        assert n == 1
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        rc = main(["compile", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert rc == 2
        # not the missing-file error that the paths, relative to `cfg`, give
        assert capsys.readouterr().err.startswith(error)
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize(
        "old, new, error",
        [
            ("window_frames = 9", "window_frames = nine", "bad value in config:"),
            ("n_lat = 52", "n_lat = 2", "bad value in config:"),
            # out of range: each of these used to compile (the NaN ones into
            # model.dae) or fail later with an untagged numpy error; the rig
            # keys that took them are gone, so they fail as unknown keys
            ("\\[rig\\]\n", "[rig]\ninfluence_cap = 0\n", "unknown [rig] key 'influence_cap'"),
            ("\\[rig\\]\n", "[rig]\ninfluence_cap = -1\n", "unknown [rig] key 'influence_cap'"),
            ("\\[rig\\]\n", "[rig]\ninfluence_cap = 5\n", "unknown [rig] key 'influence_cap'"),
            ("\\[rig\\]\n", "[rig]\ndistance_floor = 0\n", "unknown [rig] key 'distance_floor'"),
            ("\\[rig\\]\n", "[rig]\ndistance_floor = inf\n", "unknown [rig] key 'distance_floor'"),
            ("\\[rig\\]\n", "[rig]\nweight_exponent = nan\n", "unknown [rig] key 'weight_exponent'"),
            ("root_offset = [^\n]*", "root_offset = nan, 0, 0", "bad value in config:"),
            ("seed.TTipC = [^\n]*", "seed.TTipC = nan, 0, 1", "bad value in config:"),
            ("extents = [^\n]*", "extents = nan, 1.0, 1.0", "bad value in config:"),
            ("extents = [^\n]*", "extents = 3.0, inf, 1.8", "bad value in config:"),
            # these used to pass the config check: the first failed only in
            # `synth --config`, the second switched the ceiling off and the
            # third failed as an all-invalid channel
            ("w_join = [^\n]*", "w_join = -1", "bad value in config:"),
            ("\\[smoothing\\]\n", "[smoothing]\nrms_ceiling = nan\n", "bad value in config:"),
            ("\\[smoothing\\]\n", "[smoothing]\nrms_ceiling = -1\n", "bad value in config:"),
        ],
        ids=[
            "rig_bad_number", "mesh_bad_value", "influence_cap_0", "influence_cap_-1",
            "influence_cap_5", "distance_floor_0", "distance_floor_inf",
            "weight_exponent_nan", "root_offset_nan", "seed_nan", "extents_nan",
            "extents_inf", "w_join_-1", "rms_ceiling_nan", "rms_ceiling_-1",
        ],
    )
    def test_bad_rig_or_mesh_value_is_config_error(
        self, fixture_dir, tmp_path, capsys, old, new, error
    ):
        self.compile_fails_as(
            fixture_dir, tmp_path, capsys, old, new, "error:cli:config: " + error
        )

    @pytest.mark.parametrize(
        "section, key, value",
        [
            # keys of removed options
            ("smoothing", "polynomial_order", "2"),
            ("smoothing", "kind", "none"),
            ("rig", "snap_seeds", "false"),
            ("mesh", "arch_radius", "3.2"),
            ("mesh", "arch_width", "0.7"),
            ("mesh", "arch_height", "0.9"),
            ("mesh", "arch_segments", "24"),
            ("mesh", "maxilla_z", "2.1"),
            ("mesh", "mandible_z", "-1.4"),
            ("ik", "max_iterations", "50"),
            # misspelt keys, which used to be ignored
            ("ik", "max_iteration", "5"),
            ("smoothing", "window_frame", "99999"),
            ("synthesis", "w_joint", "7"),
        ],
    )
    def test_unknown_key_is_config_error(
        self, fixture_dir, tmp_path, capsys, section, key, value
    ):
        self.compile_fails_as(
            fixture_dir, tmp_path, capsys, f"\\[{section}\\]\n", f"[{section}]\n{key} = {value}\n",
            f"error:cli:config: unknown [{section}] key {key!r}\n",
        )

    def test_unknown_section_is_config_error(self, fixture_dir, tmp_path, capsys):
        for old, new, section in [
            ("\\[synthesis\\]", "[synthesys]", "synthesys"),
            # configparser's defaults section would copy its keys into every
            # section, and an empty one would pass unseen
            ("\\[paths\\]\n", "[DEFAULT]\nw_join = 2.0\n\n[paths]\n", "DEFAULT"),
            ("\\[paths\\]\n", "[DEFAULT]\n[paths]\n", "DEFAULT"),
        ]:
            self.compile_fails_as(
                fixture_dir, tmp_path, capsys, old, new,
                f"error:cli:config: unknown section [{section}]\n",
            )

    def test_missing_reference_coil_fails_before_processing(self, fixture_dir, tmp_path):
        text = (fixture_dir / "config.cfg").read_text()
        broken = text.replace("reference = REF_L, REF_R, REF_N", "reference = REF_L, REF_R, GHOST")
        cfg_path = tmp_path / "broken.cfg"
        cfg_path.write_text(
            broken.replace("ema = ", f"ema = {fixture_dir}/").replace(
                "layout = ", f"layout = {fixture_dir}/"
            ).replace("rig_graph = ", f"rig_graph = {fixture_dir}/").replace(
                "segmentation = ", f"segmentation = {fixture_dir}/"
            ).replace("audio = ", f"audio = {fixture_dir}/")
        )
        rc = main(["compile", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
        assert rc == 2
        assert not (tmp_path / "b").exists()


class TestCompile:
    def test_bundle_contents(self, bundle_dir):
        assert (bundle_dir / "model.dae").exists()
        assert (bundle_dir / "segmentation.txt").exists()
        assert (bundle_dir / "layout.cfg").exists()
        assert (bundle_dir / "manifest.txt").exists()
        assert (bundle_dir / "audio" / "utt_01.wav").exists()

    def test_audio_copied_verbatim(self, fixture_dir, bundle_dir):
        src = (fixture_dir / "audio" / "utt_01.wav").read_bytes()
        dst = (bundle_dir / "audio" / "utt_01.wav").read_bytes()
        assert src == dst

    def test_audio_files_sharing_a_name_are_refused(self, fixture_dir, tmp_path, capsys):
        # The bundle keeps audio by file name: the second file used to
        # replace the first, and compile exited 0.
        corpus = tmp_path / "corpus"
        shutil.copytree(fixture_dir, corpus)
        (corpus / "other").mkdir()
        (corpus / "other" / "utt_01.wav").write_bytes(b"another take")
        cfg = corpus / "config.cfg"
        text = cfg.read_text()
        assert "audio = audio/utt_01.wav\n" in text
        cfg.write_text(text.replace(
            "audio = audio/utt_01.wav\n", "audio = audio/utt_01.wav, other/utt_01.wav\n"
        ))
        rc = main(["compile", "--config", str(cfg), "--out", str(tmp_path / "b")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:cli:config: audio files ") and len(err.splitlines()) == 1
        assert str(corpus / "audio" / "utt_01.wav") in err
        assert str(corpus / "other" / "utt_01.wav") in err
        assert not (tmp_path / "b").exists()

    def test_reproducible_manifests(self, fixture_dir, tmp_path):
        cfg = str(fixture_dir / "config.cfg")
        for name in ("r1", "r2"):
            assert main(["compile", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        m1 = (tmp_path / "r1" / "manifest.txt").read_bytes()
        m2 = (tmp_path / "r2" / "manifest.txt").read_bytes()
        assert m1 == m2

    def test_golden_model_digest(self, tmp_path):
        # The default fixture's model.dae bytes, pinned across changes.
        # Measured with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1.
        assert main(["fixture", "--out", str(tmp_path / "f")]) == 0
        assert main([
            "compile", "--config", str(tmp_path / "f" / "config.cfg"),
            "--out", str(tmp_path / "b"),
        ]) == 0
        digest = hashlib.sha256((tmp_path / "b" / "model.dae").read_bytes()).hexdigest()
        assert digest == GOLDEN_MODEL_SHA256

    def test_report_residuals_match_recomputation(self, fixture_dir):
        config = load_config(fixture_dir / "config.cfg")
        result = compile_model(config)
        clip = result.clip
        recomputed = np.linalg.norm(clip.tails - clip.targets, axis=2).max(axis=1)
        assert np.array_equal(result.report.residuals, recomputed)
        assert result.report.max_residual == recomputed.max()

    def test_report_file(self, fixture_dir, tmp_path):
        rc = main([
            "compile", "--config", str(fixture_dir / "config.cfg"),
            "--out", str(tmp_path / "b"), "--report", str(tmp_path / "resid.txt"),
        ])
        assert rc == 0
        lines = (tmp_path / "resid.txt").read_text().splitlines()
        assert lines[0] == "frame\tmax_residual_cm"
        assert len(lines) == 601
        # plain Python float reprs, which parse back (not `np.float64(0.0)`)
        assert all(float(line.split("\t")[1]) >= 0.0 for line in lines[1:])

    def test_report_file_replaced(self, fixture_dir, tmp_path):
        report = tmp_path / "resid.txt"
        check_output_replaced(report, lambda: main([
            "compile", "--config", str(fixture_dir / "config.cfg"),
            "--out", str(tmp_path / "b"), "--report", str(report),
        ]))

    def test_collinear_reference_coils_are_tagged(self, fixture_dir, tmp_path, capsys):
        # REF_N moved onto REF_L at frame 50 of the first sweep: the three
        # reference coils give no head pose there.
        corpus = tmp_path / "corpus"
        shutil.copytree(fixture_dir, corpus)
        config = load_config(corpus / "config.cfg")
        layout = parse_layout(config.layout_path.read_text(encoding="utf-8"))
        left, nose = layout.channels.index("REF_L"), layout.channels.index("REF_N")
        path = config.ema_paths[0]
        sweep = read_pos(path.read_bytes(), layout)
        positions = np.array(sweep.positions)
        assert np.isfinite(positions[50, left]).all()
        positions[50, nose] = positions[50, left]
        path.write_bytes(write_pos(replace(sweep, positions=positions), layout))
        out = tmp_path / "b"
        rc = main(["compile", "--config", str(corpus / "config.cfg"), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:motion_prep:degenerate_configuration:")
        assert re.search(r"at frame 50\b", err)
        assert not out.exists()

    @pytest.mark.parametrize("number", ["inf", "nan", "-1e999"])
    def test_non_finite_mesh_vertex_is_tagged(self, fixture_dir, tmp_path, capsys, number):
        # The default mesh as an OBJ file, with one more vertex that no face
        # uses: compile must refuse it rather than write a model that
        # read_collada rejects.
        corpus = tmp_path / "corpus"
        shutil.copytree(fixture_dir, corpus)
        obj = save_obj(generate_default_mesh()) + f"v {number} 0 0\n"
        (corpus / "mesh.obj").write_text(obj)
        config = corpus / "config.cfg"
        config.write_text(config.read_text().replace("[paths]\n", "[paths]\nmesh = mesh.obj\n"))
        out = tmp_path / "b"
        rc = main(["compile", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        line = len(obj.splitlines())
        assert err == f"error:rig:parse_error: OBJ line {line}: non-finite vertex number\n"
        assert not out.exists()

    def test_ik_stop_counts(self, fixture_dir, tmp_path, capsys):
        corpus = tmp_path / "noisy"
        shutil.copytree(fixture_dir, corpus)
        config = load_config(corpus / "config.cfg")
        layout = parse_layout(config.layout_path.read_text(encoding="utf-8"))
        tip = layout.channels.index("TTipC")
        rng = np.random.default_rng(5)
        for path in config.ema_paths:
            # Jitter everywhere, and the tongue tip pulled out of reach for
            # a block of frames.
            sweep = read_pos(path.read_bytes(), layout)
            positions = sweep.positions + rng.normal(0, 0.02, sweep.positions.shape)
            positions[100:160, tip, 0] += 6.0
            path.write_bytes(write_pos(replace(sweep, positions=positions), layout))

        report = compile_model(config).report
        counts = report.stop_counts
        assert list(counts) == ["converged", "rolled_back", "unreached"]
        assert sum(counts.values()) == report.n_frames
        assert counts["rolled_back"] + counts["unreached"] == report.nonconvergent_frames
        assert report.nonconvergent_frames > 0

        assert main(["compile", "--config", str(corpus / "config.cfg"),
                     "--out", str(tmp_path / "b")]) == 0
        out = capsys.readouterr().out
        assert (
            f"ik stop           converged {counts['converged']}  "
            f"rolled_back {counts['rolled_back']}  unreached {counts['unreached']}\n"
        ) in out


class TestSynth:
    def test_corpus_reconstruction_zero_cost(self, fixture_dir, bundle_dir, tmp_path, capsys):
        loaded = read_bundle(bundle_dir)
        items = tuple((s.label, s.duration) for s in loaded.tier.segments[:5])
        request = "; ".join(f"{label} {duration!r}" for label, duration in items)
        rc = main([
            "synth", "--bundle", str(bundle_dir), "--request", request,
            "--out", str(tmp_path / "clip.dae"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "total cost 0" in out
        # The printed plan is the brute-force minimum over every sequence.
        db = build_unit_db(loaded.clip, loaded.tier)
        best, seq = exhaustive_total(db, SynthesisRequest(items=items))
        rows = out.splitlines()[1 : 1 + len(items)]
        assert tuple(int(row.split()[2]) for row in rows) == seq
        assert f"total cost {best:.6g}\n" in out
        assert (tmp_path / "clip.dae").exists()

    @pytest.mark.parametrize("request_text", ["a 1e6; t 0.1", "a 1e16; t 0.1"])
    def test_request_no_clip_can_hold_fails_tagged(
        self, bundle_dir, tmp_path, capsys, request_text
    ):
        # Both used to exit 0: the first with a clip whose key times print
        # alike, which read_collada rejects, the second with the t slot's
        # keys dropped. Now both fail before any unit is selected.
        out = tmp_path / "clip.dae"
        rc = main(["synth", "--bundle", str(bundle_dir), "--request", request_text,
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:unit_synth:bad_request: request lasts ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""
        assert not out.exists()

    def test_long_request_reads_back(self, bundle_dir, tmp_path):
        out = tmp_path / "clip.dae"
        assert main(["synth", "--bundle", str(bundle_dir), "--request", "a 1e5; t 0.1",
                     "--out", str(out)]) == 0
        loaded = read_bundle(bundle_dir)
        request = SynthesisRequest(items=(("a", 1e5), ("t", 0.1)))
        plan = select_units(build_unit_db(loaded.clip, loaded.tier), request)
        rendered = render_plan(plan, loaded.clip)
        _, _, clip = read_collada(out.read_text(encoding="utf-8"))
        assert clip.n_keys == rendered.n_keys
        assert np.allclose(clip.times, rendered.times, rtol=1e-8, atol=0.0)

    def test_unprintable_key_times_fail_tagged(self, bundle_dir, tmp_path, capsys):
        # The t slot, warped to 0.01 s after 1e5 s, has keys that print
        # alike at 9 significant digits. This used to exit 0 with a clip
        # that read_collada rejects; now the writer refuses it.
        out = tmp_path / "clip.dae"
        rc = main(["synth", "--bundle", str(bundle_dir), "--request", "a 1e5; t 0.01",
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:export:non_monotonic: key times")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_golden_synth_digest(self, tmp_path):
        # The bundle is read back and the rendered clip written out again,
        # so this pins the COLLADA read -> write path byte for byte.
        # Measured with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1.
        assert main(["fixture", "--out", str(tmp_path / "f")]) == 0
        assert main([
            "compile", "--config", str(tmp_path / "f" / "config.cfg"),
            "--out", str(tmp_path / "b"),
        ]) == 0
        out = tmp_path / "clip.dae"
        assert main([
            "synth", "--bundle", str(tmp_path / "b"),
            "--request", GOLDEN_SYNTH_REQUEST, "--out", str(out),
        ]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SYNTH_SHA256

    def test_exhaustive_flag_is_gone(self, bundle_dir, tmp_path, capsys):
        # The brute-force cross-check left the package for the tests.
        out = tmp_path / "clip.dae"
        rc = main([
            "synth", "--bundle", str(bundle_dir), "--request", "a 0.2; a 0.2",
            "--out", str(out), "--exhaustive",
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:cli:usage: ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--request", "a nan"],
        ["--request", "a inf"],
        ["--request", "a -0.1"],
        ["--request", "a x"],
        ["--request", "a"],
        ["--request", "a 0.2", "--w-join", "nan"],
        ["--request", "a 0.2", "--w-join", "-1"],
        ["--request", "a 0.2", "--w-target", "inf"],
        ["--request", "a 0.2", "--velocity-weight", "-5"],
        ["--request", "a 0.2", "--blend-window", "-0.01"],
    ], ids=lambda args: " ".join(args[1:]))
    def test_bad_request(self, bundle_dir, tmp_path, capsys, args):
        out = tmp_path / "clip.dae"
        rc = main(["synth", "--bundle", str(bundle_dir), "--out", str(out), *args])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:unit_synth:bad_request:")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "pattern, repl",
        [
            # weight index out of range
            (rb"<v>(\d+) \d+ ", rb"<v>\1 99999 "),
            # a required element removed
            (rb"<p>[^<]*</p>", b""),
            (rb"<vcount>[^<]*</vcount>", b""),
            (rb"<accessor.*?</accessor>", b""),
            (rb"<float_array[^>]*>[^<]*</float_array>", b""),
            (rb"<channel [^>]*/>", b""),
            (rb"<vertex_weights.*?</vertex_weights>", b""),
            (rb'<source id="mesh-positions">.*?</source>', b""),
            (rb"<controller.*?</controller>", b""),
            # a counted number with too many, too few or bad values
            (rb"<rate_hz>[^<]*</rate_hz>", b"<rate_hz/>"),
            (rb'<matrix sid="transform">', b'<matrix sid="transform">1 '),
            (rb"<tail>[^ ]+ ", b"<tail>"),
            (rb"<rate_hz>[^<]*</rate_hz>", b"<rate_hz>x</rate_hz>"),
            (rb"<rate_hz>[^<]*</rate_hz>", b"<rate_hz>0</rate_hz>"),
            (rb"<duration>[^<]*</duration>", b"<duration>-1</duration>"),
            # clip data that used to be guessed from the key times, or the
            # jaw frozen at rest, when it was missing
            (rb"<rate_hz>[^<]*</rate_hz>", b""),
            (rb"<duration>[^<]*</duration>", b""),
            (rb'<animation id="anim-Jaw">.*?</animation>', b""),
            # an integer in Python's grammar only, which read as 10
            (rb"<p>\d+ ", b"<p>1_0 "),
            # transforms that are not affine, or a node <matrix> that scales;
            # a key's last row was dropped, moving the bone's heads and tails,
            # and a node <matrix> kept only its translation
            (rb'(id="anim-TMidC-output-array" count="\d+">(?:\S+ ){15})1 ', rb"\g<1>2 "),
            # a key whose 3x3 block is zeroed, so its stretch is 0: synth and
            # validate used to exit 0, validate with `nan cm` for every coil
            (
                rb'(id="anim-TMidC-output-array" count="\d+">)'
                rb"(?:\S+ ){3}(\S+ )(?:\S+ ){3}(\S+ )(?:\S+ ){3}",
                rb"\g<1>0 0 0 \g<2>0 0 0 \g<3>0 0 0 ",
            ),
            (rb'(id="node-TMidC"[^>]*>\s*<matrix sid="transform">(?:\S+ ){15})1<', rb"\g<1>2<"),
            (rb'(id="node-TMidC"[^>]*>\s*<matrix sid="transform">)1 ', rb"\g<1>2 "),
            # a character reference, a comment or a CDATA section in a
            # number array, outside the lexical subset the reader takes
            (rb'(id="skin-weights-array" count="\d+">\S+ )', rb"\g<1>&#32;"),
            (rb"<p>\d+ ", rb"\g<0><!-- c --> "),
            (rb"<v>\d+ ", rb"\g<0><![CDATA[ ]]>"),
            # a chain of 1200 joint nodes under the skeleton root, deeper
            # than Python's recursion limit, whose innermost has no <matrix>
            (rb'<node id="node-TRoot"[^>]*>\s*<matrix[^>]*>[^<]*</matrix>', rb"\g<0>" + _DEEP_CHAIN),
        ],
        ids=[
            "weight_index", "no_p", "no_vcount", "no_accessor", "no_float_array",
            "no_channel", "no_vertex_weights", "no_mesh_source", "no_controller",
            "empty_rate", "matrix_17_values", "tail_2_values", "rate_not_a_number",
            "rate_zero", "negative_duration", "no_rate", "no_duration",
            "no_jaw_animation", "p_underscore",
            "key_last_row", "key_zero_block", "node_last_row", "node_scaled",
            "char_ref_in_weights", "comment_in_p", "cdata_in_v", "deep_joint_chain",
        ],
    )
    def test_tampered_model_is_tagged(self, bundle_dir, tmp_path, capsys, pattern, repl):
        # The first match in model.dae replaced, with the manifest re-hashed
        # so the bundle still verifies.
        bundle = tmp_path / "b"
        shutil.copytree(bundle_dir, bundle)
        old = (bundle / "model.dae").read_bytes()
        new = re.sub(pattern, repl, old, count=1, flags=re.S)
        assert new != old
        rewrite_rehashed(bundle, "model.dae", new)
        synth_fails_tagged(bundle, tmp_path, capsys, "error:export:parse_error:")

    def test_equal_key_times_are_tagged(self, bundle_dir, tmp_path, capsys):
        # The second key time of every animation's (shared) time source set
        # to the first's, with the manifest re-hashed.
        bundle = tmp_path / "b"
        shutil.copytree(bundle_dir, bundle)
        old = (bundle / "model.dae").read_bytes()
        new, n = re.subn(rb'(-input-array" count="\d+">\S+ )\S+', rb"\g<1>0", old)
        assert n > 1
        rewrite_rehashed(bundle, "model.dae", new)
        synth_fails_tagged(
            bundle, tmp_path, capsys, "error:export:parse_error: key times must be strictly increasing"
        )

    @pytest.mark.parametrize("token", [b"nan", b"inf", b"1e999"])
    @pytest.mark.parametrize("array", [b"mesh-positions", b"anim-TBackC-output"])
    def test_non_finite_number_is_tagged(self, bundle_dir, tmp_path, capsys, array, token):
        # The first value of the array replaced, with the manifest re-hashed.
        bundle = tmp_path / "b"
        shutil.copytree(bundle_dir, bundle)
        old = (bundle / "model.dae").read_bytes()
        pattern = rb'(<float_array id="%s-array" count="\d+">)[^ ]+' % array
        new, n = re.subn(pattern, rb"\g<1>" + token, old, count=1)
        assert n == 1
        rewrite_rehashed(bundle, "model.dae", new)
        synth_fails_tagged(bundle, tmp_path, capsys, "error:export:parse_error:")

    @pytest.mark.parametrize("name", ["manifest.txt", "segmentation.txt"])
    def test_non_utf8_text_is_tagged(self, bundle_dir, tmp_path, capsys, name):
        # Two bytes that are not UTF-8 appended; a companion file is
        # re-hashed, so only its decoding can fail.
        bundle = tmp_path / "b"
        shutil.copytree(bundle_dir, bundle)
        data = (bundle / name).read_bytes() + b"\xff\xfe"
        if name == "manifest.txt":
            (bundle / name).write_bytes(data)
        else:
            rewrite_rehashed(bundle, name, data)
        synth_fails_tagged(bundle, tmp_path, capsys, f"error:export:bundle: {name} is not UTF-8")

    def test_clip_shorter_than_tier_is_tagged(self, bundle_dir, tmp_path, capsys):
        # The model's <duration> halved, with the manifest re-hashed: the
        # segmentation now runs past the end of the clip.
        bundle = tmp_path / "b"
        shutil.copytree(bundle_dir, bundle)
        old = (bundle / "model.dae").read_bytes()
        match = re.search(rb"<duration>([^<]*)</duration>", old)
        new = old.replace(
            match.group(0), b"<duration>%r</duration>" % (float(match.group(1)) / 2)
        )
        assert new != old
        rewrite_rehashed(bundle, "model.dae", new)
        synth_fails_tagged(
            bundle, tmp_path, capsys, "error:cli:incompatible_bundle: tier ends at"
        )

    def test_no_candidate(self, bundle_dir, tmp_path, capsys):
        rc = main([
            "synth", "--bundle", str(bundle_dir), "--request", "zz 0.1",
            "--out", str(tmp_path / "clip.dae"),
        ])
        assert rc == 2
        assert "error:unit_synth:no_candidate:" in capsys.readouterr().err

    def test_rendered_clip_loads(self, bundle_dir, tmp_path):
        rc = main([
            "synth", "--bundle", str(bundle_dir), "--request", "a 0.2; t 0.1",
            "--out", str(tmp_path / "clip.dae"),
        ])
        assert rc == 0
        from emarig.collada_io import read_collada

        mesh, armature, clip = read_collada((tmp_path / "clip.dae").read_text())
        assert abs(clip.duration - 0.3) < 1e-9

    def test_request_file(self, bundle_dir, tmp_path):
        req = tmp_path / "req.txt"
        req.write_text("a 0.2; t 0.1;\n")
        rc = main([
            "synth", "--bundle", str(bundle_dir), "--request-file", str(req),
            "--out", str(tmp_path / "clip.dae"),
        ])
        assert rc == 0

    def test_synth_from_zip_bundle(self, fixture_dir, tmp_path):
        out = tmp_path / "model.zip"
        assert main([
            "compile", "--config", str(fixture_dir / "config.cfg"), "--out", str(out)
        ]) == 0
        rc = main([
            "synth", "--bundle", str(out), "--request", "a 0.2",
            "--out", str(tmp_path / "clip.dae"),
        ])
        assert rc == 0

    def test_out_file_replaced(self, bundle_dir, tmp_path):
        out = tmp_path / "clip.dae"
        check_output_replaced(out, lambda: main([
            "synth", "--bundle", str(bundle_dir), "--request", "a 0.2; a 0.2",
            "--out", str(out),
        ]))

    def test_usage_needs_request(self, bundle_dir, tmp_path):
        rc = main(["synth", "--bundle", str(bundle_dir), "--out", str(tmp_path / "c.dae")])
        assert rc == 1

    def test_config_supplies_synthesis_defaults(self, fixture_dir, bundle_dir, tmp_path, capsys):
        # a flag overrides its own key of the config and no other: a zero
        # join weight overridden by --w-join runs as the config that sets it
        text = (fixture_dir / "config.cfg").read_text()
        assert "w_join = 1.0" in text and "blend_window = 0.04" in text

        def synth(name, w_join, *flags):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text.replace("w_join = 1.0", f"w_join = {w_join}").replace(
                "blend_window = 0.04", "blend_window = 0.01"
            ))
            out = tmp_path / f"{name}.dae"
            assert main([
                "synth", "--bundle", str(bundle_dir), "--config", str(cfg), *flags,
                "--request", "a 0.2; t 0.1; a 0.2", "--out", str(out),
            ]) == 0
            totals = [l for l in capsys.readouterr().out.splitlines() if l.startswith("total cost")]
            assert len(totals) == 1
            return totals[0], out.read_bytes()

        flagged = synth("flagged", "0.0", "--w-join", "5.0")
        assert flagged == synth("config", "5.0")
        assert flagged != synth("unflagged", "0.0")


class TestValidate:
    def test_fixture_passes_threshold(self, fixture_dir, bundle_dir):
        rc = main([
            "validate", "--bundle", str(bundle_dir),
            "--config", str(fixture_dir / "config.cfg"), "--threshold", "0.01",
        ])
        assert rc == 0

    def test_infinite_threshold_always_ok(self, fixture_dir, bundle_dir):
        rc = main([
            "validate", "--bundle", str(bundle_dir),
            "--config", str(fixture_dir / "config.cfg"),
        ])
        assert rc == 0

    @pytest.mark.parametrize("threshold", ["nan", "-0.01"])
    def test_bad_threshold_is_usage_error(self, fixture_dir, tmp_path, capsys, threshold):
        # `max_rms > nan` is false, so NaN used to pass every bundle; the
        # threshold is checked before the (here missing) bundle is read
        rc = main([
            "validate", "--bundle", str(tmp_path / "none"),
            "--config", str(fixture_dir / "config.cfg"), "--threshold", threshold,
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:cli:usage: --threshold") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("first", [True, False])
    def test_nan_rms_fails(self, fixture_dir, bundle_dir, monkeypatch, capsys, first):
        # `nan > threshold` is false, and max() skips a NaN after a number:
        # a NaN RMS, first or not, used to pass.
        def nan_report(loaded, config):
            rms = [float("nan"), 0.001] if first else [0.001, float("nan")]
            return ValidationReport(per_coil_rms=dict(zip(("A", "B"), rms)), n_frames=1)

        monkeypatch.setattr("emarig.cli.validate_model", nan_report)
        rc = main([
            "validate", "--bundle", str(bundle_dir),
            "--config", str(fixture_dir / "config.cfg"), "--threshold", "0.01",
        ])
        assert rc == 3
        assert capsys.readouterr().out.endswith(
            "max rms  nan cm over 1 frames\nFAIL: max rms nan cm is not a finite number\n"
        )

    def test_unrelated_ema_fails(self, fixture_dir, bundle_dir, tmp_path, capsys):
        # regenerate a corpus with different motion by scaling the fixture:
        # simplest unrelated source = fixture with different frame count
        # per sweep would change key count; instead corrupt the sweeps by
        # swapping two tongue channels in the config roles
        text = (fixture_dir / "config.cfg").read_text()
        swapped = text.replace(
            "tongue = TBackC, TMidC, TTipC, TMidL, TBladeL, TMidR, TBladeR",
            "tongue = TBackC, TMidC, TTipC, TMidL, TBladeL, TMidR, TBladeR",
        ).replace("seed.TTipC", "seed.__tmp__").replace(
            "seed.TBackC", "seed.TTipC"
        ).replace("seed.__tmp__", "seed.TBackC")
        cfg = tmp_path / "swapped.cfg"
        cfg.write_text(swapped)
        # resolve relative paths against the original fixture dir
        import shutil

        for name in ("sweep_01.pos", "sweep_02.pos", "layout.cfg", "tongue.dot",
                     "segmentation.txt"):
            shutil.copy(fixture_dir / name, tmp_path / name)
        (tmp_path / "audio").mkdir(exist_ok=True)
        shutil.copy(fixture_dir / "audio" / "utt_01.wav", tmp_path / "audio" / "utt_01.wav")
        rc = main([
            "validate", "--bundle", str(bundle_dir), "--config", str(cfg),
            "--threshold", "0.05",
        ])
        assert rc == 3
        assert "FAIL" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "graph", ["Root -> TTipC", "Root -> TBackC -> TTipC"], ids=["1coil", "2coil"]
    )
    def test_few_coil_rig(self, fixture_dir, tmp_path, capsys, graph):
        # Fewer than 3 coils: compile and validate both register with the
        # identity, so the bundle validates against its own sources.
        corpus = tmp_path / "corpus"
        shutil.copytree(fixture_dir, corpus)
        (corpus / "tongue.dot").write_text(f"digraph tongue {{ {graph}; }}\n")
        cfg = str(corpus / "config.cfg")
        assert main(["compile", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        rc = main([
            "validate", "--bundle", str(tmp_path / "b"), "--config", cfg,
            "--threshold", "0.01",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        max_line = [l for l in out.splitlines() if l.startswith("max rms")]
        assert float(max_line[0].split()[2]) <= 1e-2

    @pytest.mark.parametrize("command", ["compile", "dump"])
    def test_no_coil_rig(self, fixture_dir, tmp_path, capsys, command):
        # A graph of the root alone has no bones: a tagged parse error, with
        # no traceback and no output. (The coils dump reads no rig graph.)
        corpus = tmp_path / "corpus"
        shutil.copytree(fixture_dir, corpus)
        (corpus / "tongue.dot").write_text("digraph tongue { TRoot; }\n")
        out = tmp_path / "out"
        args = {"compile": [], "dump": ["--kind", "ik_targets"]}[command]
        rc = main([command, "--config", str(corpus / "config.cfg"), *args, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "error:rig:parse_error: rig graph declares no bones\n"
        assert captured.out == ""
        assert not out.exists()


    def test_seed_vertices_shared_with_compile(self, fixture_dir, tmp_path):
        # A box-shaped tongue of 8 vertices: several coils share their
        # nearest vertex, and compile gives each coil the nearest vertex not
        # taken by an earlier coil. Validate must measure those same
        # vertices.
        corpus = tmp_path / "corpus"
        shutil.copytree(fixture_dir, corpus)
        corners = [(x, y, z) for x in (-2.4, 2.6) for y in (-1.4, 1.6) for z in (0.2, 2.1)]
        faces = [(1, 2, 4, 3), (5, 7, 8, 6), (1, 5, 6, 2), (3, 4, 8, 7), (1, 3, 7, 5), (2, 6, 8, 4)]
        (corpus / "box.obj").write_text(
            "o Tongue\n"
            + "".join(f"v {x} {y} {z}\n" for x, y, z in corners)
            + "".join(f"f {a} {b} {c} {d}\n" for a, b, c, d in faces)
        )
        text = (corpus / "config.cfg").read_text()
        text = text.replace("[paths]\n", "[paths]\nmesh = box.obj\n")
        (corpus / "config.cfg").write_text(text)
        config = load_config(corpus / "config.cfg")
        assert main(["compile", "--config", str(corpus / "config.cfg"),
                     "--out", str(tmp_path / "b")]) == 0

        result = compile_model(config)
        rig, clip = result.rig, result.clip
        names = rig.armature.bone_names
        seeds = np.array([rig.seed_map[n] for n in names])
        box = load_mesh((corpus / "box.obj").read_text()).vertices  # unsnapped
        nearest = [
            int(np.argmin(np.sum((box - tail) ** 2, axis=1)))
            for tail in rig.armature.tails
        ]
        assert nearest != list(seeds)  # the nearest-any-vertex rule differs

        tracks = skin_trajectories(
            rig.mesh, rig.armature, clip.quats, clip.heads, clip.stretches, seeds
        )
        layout, roles = _layout_and_roles(config)
        idx = [layout.channels.index(n) for n in names]
        source = np.concatenate([
            rig.registration.apply(s.positions[:, idx, :])
            for s in prepare_sweeps(config, layout, roles)
        ])
        rms = np.sqrt(np.mean(np.sum((tracks - source) ** 2, axis=2), axis=0))

        report = validate_model(read_bundle(tmp_path / "b"), config)
        assert list(report.per_coil_rms) == list(names)
        for name, expected in zip(names, rms):
            assert report.per_coil_rms[name] == pytest.approx(expected, abs=1e-5)


class TestDump:
    def test_coils_dump_matches_sources(self, fixture_dir, tmp_path):
        rc = main([
            "dump", "--config", str(fixture_dir / "config.cfg"), "--kind", "coils",
            "--out", str(tmp_path / "coils.pos"),
        ])
        assert rc == 0
        expected = (fixture_dir / "sweep_01.pos").read_bytes() + (
            fixture_dir / "sweep_02.pos"
        ).read_bytes()
        assert (tmp_path / "coils.pos").read_bytes() == expected

    def test_coils_dump_reads_only_the_sweeps(self, fixture_dir, tmp_path):
        # With a rig graph of no bones and an empty second sweep, nothing
        # compiles; the coils dump still re-encodes the sweeps as read.
        corpus = tmp_path / "corpus"
        shutil.copytree(fixture_dir, corpus)
        (corpus / "tongue.dot").write_text("digraph tongue { TRoot; }\n")
        (corpus / "sweep_02.pos").write_bytes(b"")
        out = tmp_path / "coils.pos"
        cfg = str(corpus / "config.cfg")
        assert main(["dump", "--config", cfg, "--kind", "coils", "--out", str(out)]) == 0
        assert out.read_bytes() == (fixture_dir / "sweep_01.pos").read_bytes()

    def test_out_file_replaced(self, fixture_dir, tmp_path):
        out = tmp_path / "coils.pos"
        check_output_replaced(out, lambda: main([
            "dump", "--config", str(fixture_dir / "config.cfg"), "--kind", "coils",
            "--out", str(out),
        ]))

    def test_seed_vertices_dump(self, fixture_dir, tmp_path):
        rc = main([
            "dump", "--config", str(fixture_dir / "config.cfg"),
            "--kind", "seed_vertices",
            "--out", str(tmp_path / "seeds.pos"),
        ])
        assert rc == 0
        assert (tmp_path / "seeds.pos").stat().st_size == 600 * 7 * 28


class TestCliBasics:
    def test_usage_error_exit_code(self):
        assert main(["compile"]) == 1
        assert main(["--bogus"]) == 1
        # [smoothing] window_frames = 1 is the one way to switch smoothing off
        assert main(["compile", "--config", "c", "--out", "o", "--no-smoothing"]) == 1
        assert main(["dump", "--config", "c", "--kind", "verts", "--out", "o"]) == 1

    def test_fixture_command(self, tmp_path):
        rc = main(["fixture", "--out", str(tmp_path / "f"), "--frames", "120", "--sweeps", "1"])
        assert rc == 0
        assert (tmp_path / "f" / "config.cfg").exists()
        assert (tmp_path / "f" / "sweep_01.pos").stat().st_size == 120 * 12 * 28

    @pytest.mark.parametrize(
        "flags",
        [
            ["--frames", "0"], ["--sweeps", "0"], ["--frames", "-3"],
            ["--rate", "0"], ["--rate", "-200"], ["--rate", "inf"], ["--rate", "nan"],
        ],
    )
    def test_fixture_rejects_what_it_cannot_produce(self, tmp_path, capsys, flags):
        # Each of these used to exit 0 with a corpus that `compile` rejects,
        # or fail as an untagged I/O error.
        out = tmp_path / "f"
        assert main(["fixture", "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:cli:usage: ") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["199.99999", "333.3333"])
    def test_fixture_rate_reaches_the_model(self, tmp_path, rate):
        # The layout printed 6 digits: the first corpus failed to compile
        # (its segmentation outlasted the clip), the second compiled at 333.333 Hz.
        out = tmp_path / "f"
        assert main([
            "fixture", "--out", str(out), "--rate", rate, "--frames", "300", "--sweeps", "1",
        ]) == 0
        assert main(["compile", "--config", str(out / "config.cfg"), "--out", str(tmp_path / "b")]) == 0
        loaded = read_bundle(tmp_path / "b")
        assert loaded.clip.rate_hz == float(rate)
        # the manifest printed 6 digits too, so it disagreed with layout.cfg
        assert loaded.bundle.rate_hz == loaded.layout.rate_hz == float(rate)

    @pytest.mark.parametrize("frames", ["1", "4", "8"])
    def test_small_fixture_compiles(self, tmp_path, frames):
        # The config used to set a 9-frame smoothing window whatever the
        # sweep length, so `compile` rejected every sweep under 9 frames.
        out = tmp_path / "f"
        assert main(["fixture", "--out", str(out), "--frames", frames, "--sweeps", "1"]) == 0
        assert main(["compile", "--config", str(out / "config.cfg"), "--out", str(tmp_path / "b")]) == 0

    @pytest.mark.parametrize("command", ["compile", "validate", "dump"])
    @pytest.mark.parametrize(
        "empty, error",
        [
            # the first sweep's first frame is the session's head frame
            ("sweep_01.pos", "error:motion_prep:no_valid_reference_frame: "),
            ("sweep_02.pos", "error:motion_prep:window_too_large: "),
        ],
        ids=["first", "later"],
    )
    def test_empty_sweep_fails_tagged(
        self, fixture_dir, bundle_dir, tmp_path, capsys, command, empty, error
    ):
        corpus = tmp_path / "corpus"
        shutil.copytree(fixture_dir, corpus)
        (corpus / empty).write_bytes(b"")
        out = tmp_path / "out"
        args = {
            "compile": ["--out", str(out)],
            "validate": ["--bundle", str(bundle_dir)],
            # the coils dump prepares no sweep, so it takes one that compiles
            "dump": ["--kind", "ik_targets", "--out", str(out)],
        }[command]
        rc = main([command, "--config", str(corpus / "config.cfg"), *args])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(error) and len(err.splitlines()) == 1
        assert not out.exists()

    def test_machine_parsable_diagnostics(self, tmp_path, capsys):
        rc = main(["compile", "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path / "b")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:cli:config:")

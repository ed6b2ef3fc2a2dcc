import hashlib
import os
import re
import sys
import threading
import zipfile

import numpy as np
import pytest

import emarig.bundle
from emarig.bundle import (
    SLICE_CHARS,
    _write_slices,
    open_bundle,
    read_bundle,
    verify_bundle,
    write_bundle,
    write_new_file,
)
from emarig.collada_io import write_collada
from emarig.ema_io import PosLayout, read_pos
from emarig.errors import BundleError, EmarigError
from emarig.fixture import FixtureSpec, write_fixture
from emarig.pipeline import (
    _layout_and_roles,
    compile_model,
    dump_trajectories,
    load_config,
    prepare_sweeps,
)

import reference
from conftest import traced_peak


@pytest.fixture()
def model_text(compiled_model):
    rig, clip, _ = compiled_model
    return write_collada(rig.mesh, rig.armature, clip)


def edit_entry(path, name, edit):
    """Replace the bytes of file `name` of the bundle at `path` by
    `edit(bytes)`, or delete the file where that is None."""
    if path.suffix == ".zip":
        with zipfile.ZipFile(path) as zf:
            files = {n: zf.read(n) for n in zf.namelist()}
        files[name] = edit(files[name])
        with zipfile.ZipFile(path, "w") as zf:
            for n, data in files.items():
                if data is not None:
                    zf.writestr(n, data)
    else:
        data = edit((path / name).read_bytes())
        if data is None:
            (path / name).unlink()
        else:
            (path / name).write_bytes(data)


def edit_manifest(path, edit):
    """Replace the manifest text of the bundle at `path` by `edit(text)`."""
    edit_entry(path, "manifest.txt", lambda data: edit(data.decode()).encode())


class TestWriteBundle:
    def test_model_only(self, tmp_path, model_text):
        bundle = write_bundle(
            tmp_path / "b", model_text, channels=("A", "B"), rate_hz=200.0
        )
        assert set(bundle.entries) == {"model.dae"}
        assert (tmp_path / "b" / "manifest.txt").exists()
        assert not (tmp_path / "b" / "segmentation.txt").exists()

    def test_audio_pass_through(self, tmp_path, model_text):
        payload = bytes(range(256)) * 11
        write_bundle(
            tmp_path / "b",
            model_text,
            channels=("A",),
            rate_hz=200.0,
            audio={"take1.wav": payload},
        )
        assert (tmp_path / "b" / "audio" / "take1.wav").read_bytes() == payload

    def test_verify_clean(self, tmp_path, model_text):
        write_bundle(
            tmp_path / "b",
            model_text,
            channels=("A",),
            rate_hz=200.0,
            segmentation_text="0.0 0.5 a\n",
        )
        assert verify_bundle(tmp_path / "b") == []

    def test_single_byte_corruption_detected(self, tmp_path, model_text):
        write_bundle(
            tmp_path / "b",
            model_text,
            channels=("A",),
            rate_hz=200.0,
            segmentation_text="0.0 0.5 a\n",
        )
        target = tmp_path / "b" / "segmentation.txt"
        data = bytearray(target.read_bytes())
        data[3] ^= 0x01
        target.write_bytes(bytes(data))
        assert verify_bundle(tmp_path / "b") == ["segmentation.txt"]
        with pytest.raises(BundleError):
            read_bundle(tmp_path / "b")

    def test_missing_file_detected(self, tmp_path, model_text):
        write_bundle(
            tmp_path / "b", model_text, channels=("A",), rate_hz=200.0,
            layout_text="channels = A\n",
        )
        (tmp_path / "b" / "layout.cfg").unlink()
        assert verify_bundle(tmp_path / "b") == ["layout.cfg"]

    def test_zip_bundle(self, tmp_path, model_text):
        path = tmp_path / "b.zip"
        write_bundle(
            path,
            model_text,
            channels=("A",),
            rate_hz=200.0,
            segmentation_text="0.0 0.5 a\n",
        )
        assert zipfile.is_zipfile(path)
        assert verify_bundle(path) == []
        loaded = read_bundle(path)
        assert loaded.tier is not None

    def test_zip_deterministic(self, tmp_path, model_text):
        a = tmp_path / "a.zip"
        b = tmp_path / "b.zip"
        for p in (a, b):
            write_bundle(p, model_text, channels=("A",), rate_hz=200.0)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("escape", ["relative", "absolute"])
    @pytest.mark.parametrize("name", ["b", "b.zip"])
    def test_manifest_entry_outside_bundle_rejected(
        self, tmp_path, model_text, name, escape
    ):
        # A tampered manifest naming a file beyond the bundle, with that
        # file's true digest, must not get it read and hashed.
        path = tmp_path / name
        write_bundle(path, model_text, channels=("A",), rate_hz=200.0)
        outside = tmp_path / "outside.txt"
        outside.write_bytes(b"not part of the bundle\n")
        entry = "../outside.txt" if escape == "relative" else str(outside)
        line = f"{entry}\t{hashlib.sha256(outside.read_bytes()).hexdigest()}\n"
        edit_manifest(path, lambda text: text + line)
        with pytest.raises(BundleError, match="outside the bundle"):
            verify_bundle(path)
        with pytest.raises(BundleError, match="outside the bundle"):
            read_bundle(path)

    @pytest.mark.parametrize(
        "old, new",
        [("format_version = 1", "format_version = x"), ("rate_hz = 200", "rate_hz = abc")],
        ids=["format_version", "rate_hz"],
    )
    @pytest.mark.parametrize("name", ["b", "b.zip"])
    def test_bad_manifest_number_rejected(self, tmp_path, model_text, name, old, new):
        path = tmp_path / name
        write_bundle(path, model_text, channels=("A",), rate_hz=200.0)
        edit_manifest(path, lambda text: text.replace(old, new))
        with pytest.raises(BundleError, match="bad number"):
            verify_bundle(path)
        with pytest.raises(BundleError, match="bad number"):
            read_bundle(path)

    @pytest.mark.parametrize(
        "old, new",
        [
            # A wrong digest listed before the right one must not be overridden.
            ("model.dae\t", "model.dae\t" + "0" * 64 + "\nmodel.dae\t"),
            ("rate_hz = 200", "rate_hz = 100\nrate_hz = 200"),
            ("channels = A", "channels = A\nchannels = A"),
            ("format_version = 1", "format_version = 0"),
            ("format_version = 1", "format_version = -1"),
        ],
        ids=[
            "entry_twice", "rate_hz_twice", "channels_twice", "format_version_0", "format_version_-1",
        ],
    )
    @pytest.mark.parametrize("name", ["b", "b.zip"])
    def test_ambiguous_or_invalid_manifest_rejected(self, tmp_path, model_text, name, old, new):
        path = tmp_path / name
        write_bundle(path, model_text, channels=("A",), rate_hz=200.0)
        edit_manifest(path, lambda text: text.replace(old, new, 1))
        for check in (open_bundle, verify_bundle, read_bundle):
            with pytest.raises(BundleError) as err:
                check(path)
            assert err.value.diagnostic().startswith("error:export:bundle:")

    @pytest.mark.parametrize(
        "old, new",
        [
            ("rate_hz = 200\n", ""),
            ("rate_hz = 200", "rate_hz = nan"),
            ("rate_hz = 200", "rate_hz = inf"),
            ("rate_hz = 200", "rate_hz = 0"),
            ("rate_hz = 200", "rate_hz = -200"),
        ],
        ids=["missing", "nan", "inf", "zero", "negative"],
    )
    @pytest.mark.parametrize("name", ["b", "b.zip"])
    def test_bad_manifest_rate_rejected(self, tmp_path, model_text, name, old, new):
        path = tmp_path / name
        write_bundle(path, model_text, channels=("A",), rate_hz=200.0)
        edit_manifest(path, lambda text: text.replace(old, new, 1))
        for check in (open_bundle, verify_bundle, read_bundle):
            with pytest.raises(BundleError, match="rate_hz") as err:
                check(path)
            assert err.value.diagnostic().startswith("error:export:bundle:")

    @pytest.mark.parametrize(
        "old, new",
        [
            ("rate_hz = 200", "rate_hz = 100"),
            ("rate_hz = 200", "rate_hz = 200.000001"),
            ("channels = A,B", "channels = A"),
            ("channels = A,B", "channels = B,A"),
            ("channels = A,B", "channels = A,X"),
        ],
        ids=["rate", "rate_last_digit", "channel_missing", "channel_order", "channel_name"],
    )
    @pytest.mark.parametrize("name", ["b", "b.zip"])
    def test_manifest_disagreeing_with_layout_rejected(
        self, tmp_path, model_text, name, old, new
    ):
        # The hashes still verify: the metadata is checked against layout.cfg
        # when the bundle is read.
        path = tmp_path / name
        layout = "channels = A,B\nrate_hz = 200\nunits = mm_deg\n"
        write_bundle(path, model_text, channels=("A", "B"), rate_hz=200.0, layout_text=layout)
        assert read_bundle(path).layout.channels == ("A", "B")
        edit_manifest(path, lambda text: text.replace(old, new, 1))
        assert verify_bundle(path) == []
        with pytest.raises(BundleError, match="layout.cfg") as err:
            read_bundle(path)
        assert err.value.diagnostic().startswith("error:export:bundle:")

    @pytest.mark.parametrize("name", ["b", "b.zip"])
    def test_rewrite_replaces_files(self, tmp_path, model_text, name):
        path = tmp_path / name
        model = path / "model.dae" if path.suffix != ".zip" else path
        write = lambda text: write_bundle(
            path, text, channels=("A",), rate_hz=200.0, segmentation_text="0.0 0.5 a\n"
        )

        def snapshot():
            if path.suffix == ".zip":
                return path.read_bytes()
            return {p.name: p.read_bytes() for p in sorted(path.iterdir())}

        write(model_text)
        first = snapshot()
        with open(model, "rb") as old:
            write(model_text + "<!-- v2 -->\n")
            assert os.fstat(old.fileno()).st_ino != model.stat().st_ino
            old_bytes = old.read()
        assert old_bytes == (first if path.suffix == ".zip" else first["model.dae"])
        assert snapshot() != first
        assert verify_bundle(path) == []

        write(model_text)
        assert snapshot() == first

    def test_symlinked_output_replaced_not_followed(self, tmp_path, model_text):
        elsewhere = tmp_path / "elsewhere.dae"
        elsewhere.write_bytes(b"not a bundle file\n")
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "model.dae").symlink_to(elsewhere)
        write_bundle(tmp_path / "b", model_text, channels=("A",), rate_hz=200.0)
        assert not (tmp_path / "b" / "model.dae").is_symlink()
        assert elsewhere.read_bytes() == b"not a bundle file\n"
        assert verify_bundle(tmp_path / "b") == []

    def test_manifest_metadata(self, tmp_path, model_text):
        write_bundle(
            tmp_path / "b", model_text, channels=("X", "Y"), rate_hz=250.0
        )
        bundle = open_bundle(tmp_path / "b")
        assert bundle.channels == ("X", "Y")
        assert bundle.rate_hz == 250.0
        assert bundle.format_version == 1


class TestSlicedWrite:
    def test_text_across_slices(self, tmp_path):
        # Two-byte characters on both sides of a slice boundary.
        text = "a" * (SLICE_CHARS - 1) + "é" * 3 + "z" * (SLICE_CHARS + 7)
        digest = hashlib.sha256()
        with open(tmp_path / "t", "wb") as f:
            _write_slices(f, text, digest)
        assert (tmp_path / "t").read_bytes() == text.encode("utf-8")
        write_new_file(tmp_path / "u", text)
        assert (tmp_path / "u").read_bytes() == text.encode("utf-8")
        assert digest.hexdigest() == hashlib.sha256(text.encode("utf-8")).hexdigest()

    def test_directory_bundle_peak_memory(self, tmp_path):
        # A directory bundle encodes, hashes and writes its model a slice at a
        # time, so at its peak it holds the text it was given plus a fixed
        # allowance, however long the text: a slice, its UTF-8 bytes and the
        # previous slice's bytes, 3 bytes per slice character for ASCII text.
        # Encoding the whole text at once held a second copy of it.
        allowance = 4 * SLICE_CHARS
        text = "<float_array>0.123456789 -1.5e-07</float_array>\n" * 270_000
        assert len(text) > 3 * allowance
        bundle, peak = traced_peak(
            write_bundle, tmp_path / "b", text, channels=("A",), rate_hz=200.0
        )
        assert peak < allowance
        assert (tmp_path / "b" / "model.dae").read_bytes() == text.encode("utf-8")
        assert bundle.entries["model.dae"] == hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert verify_bundle(tmp_path / "b") == []

    def test_zip_write_peak_memory(self, tmp_path):
        # Each archive entry is encoded, hashed and written a slice at a time
        # as well. Building the archive in memory peaked at 2.13 times the text.
        text = "<float_array>0.123456789 -1.5e-07</float_array>\n" * 340_000
        path = tmp_path / "b.zip"
        bundle, peak = traced_peak(write_bundle, path, text, channels=("A",), rate_hz=200.0)
        assert len(text) > 16_000_000
        assert peak <= 4_000_000
        with zipfile.ZipFile(path) as zf:
            assert zf.read("model.dae") == text.encode("utf-8")
        assert bundle.entries["model.dae"] == hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert verify_bundle(path) == []

    @pytest.mark.parametrize("corpus", ["small", "default_with_audio"])
    def test_zip_matches_in_memory_archive(self, request, tmp_path, model_text, corpus):
        if corpus == "small":
            files = dict(segmentation_text="0.0 0.5 a\n", layout_text="channels = A\n")
        else:
            default = request.getfixturevalue("default_bundle")
            model_text = (default / "model.dae").read_text(encoding="utf-8")
            files = dict(
                segmentation_text=(default / "segmentation.txt").read_text(encoding="utf-8"),
                layout_text=(default / "layout.cfg").read_text(encoding="utf-8"),
                audio={"take1.wav": bytes(range(256)) * 11, "empty.wav": b""},
            )
        bundle = write_bundle(
            tmp_path / "b.zip", model_text, channels=("A",), rate_hz=200.0, **files
        )
        entries = reference.in_memory_zip_bundle(
            tmp_path / "ref.zip", model_text, channels=("A",), rate_hz=200.0, **files
        )
        assert (tmp_path / "b.zip").read_bytes() == (tmp_path / "ref.zip").read_bytes()
        assert bundle.entries == entries


class TestReadBundle:
    def test_full_round_trip(self, tmp_path, compiled_model, small_fixture):
        rig, clip, _ = compiled_model
        from emarig.anim_db import format_segmentation
        from emarig.ema_io import format_layout

        write_bundle(
            tmp_path / "b",
            write_collada(rig.mesh, rig.armature, clip),
            channels=small_fixture.layout.channels,
            rate_hz=small_fixture.layout.rate_hz,
            segmentation_text=format_segmentation(small_fixture.tier),
            layout_text=format_layout(small_fixture.layout),
        )
        loaded = read_bundle(tmp_path / "b")
        assert loaded.armature.bone_names == rig.armature.bone_names
        assert loaded.clip.n_keys == clip.n_keys
        assert loaded.tier == small_fixture.tier
        assert loaded.layout == small_fixture.layout


@pytest.mark.parametrize("name", ["b", "b.zip"])
class TestReadModelOnce:
    """`read_bundle` reads model.dae once, hashes it on a second thread while
    it parses, and reports a tampered bundle before any parse error."""

    def test_reads_model_once(self, monkeypatch, tmp_path, model_text, name):
        path = tmp_path / name
        write_bundle(path, model_text, channels=("A",), rate_hz=200.0, segmentation_text="0.0 0.5 a\n")
        reads = []
        read_file = emarig.bundle._read_file

        def spy(bundle_path, entry):
            reads.append(entry)
            return read_file(bundle_path, entry)

        monkeypatch.setattr(emarig.bundle, "_read_file", spy)
        loaded = read_bundle(path)
        assert reads.count("model.dae") == 1
        assert reads.count("segmentation.txt") == 2  # hashed, then parsed
        assert loaded.clip.n_keys > 0
        assert not any(t.name == "emarig-hash" for t in threading.enumerate())

    @pytest.mark.parametrize("model", ["tampered", "tampered_malformed", "malformed"])
    def test_verified_before_parse_errors(self, tmp_path, model_text, name, model):
        path = tmp_path / name
        write_bundle(path, model_text, channels=("A",), rate_hz=200.0)
        if model == "malformed":  # listed with its digest: verifies, then fails to parse
            write_bundle(path, model_text[:1000], channels=("A",), rate_hz=200.0)
        else:
            cut = 1000 if model == "tampered_malformed" else len(model_text)
            edit_entry(path, "model.dae", lambda data: data[:cut].replace(b"emarig", b"emariG", 1))
        with pytest.raises(EmarigError) as err:
            read_bundle(path)
        want = "error:export:parse_error:" if model == "malformed" else "error:export:bundle:"
        assert err.value.diagnostic().startswith(want)
        if model != "malformed":
            assert str(err.value) == "bundle fails verification: model.dae"
        assert not any(t.name == "emarig-hash" for t in threading.enumerate())

    @pytest.mark.parametrize("listed", [True, False], ids=["listed", "unlisted"])
    def test_missing_model(self, tmp_path, model_text, name, listed):
        path = tmp_path / name
        write_bundle(path, model_text, channels=("A",), rate_hz=200.0)
        edit_entry(path, "model.dae", lambda data: None)
        if not listed:
            edit_manifest(path, lambda text: re.sub(r"model\.dae\t.*\n", "", text))
        with pytest.raises(BundleError) as err:
            read_bundle(path)
        if listed:
            assert str(err.value) == "bundle fails verification: model.dae"
        else:
            assert str(err.value) == "bundle is missing 'model.dae'"

    def test_missing_model_and_tampered_companion(self, tmp_path, model_text, name):
        path = tmp_path / name
        write_bundle(path, model_text, channels=("A",), rate_hz=200.0, segmentation_text="0.0 0.5 a\n")
        edit_entry(path, "model.dae", lambda data: None)
        edit_entry(path, "segmentation.txt", lambda data: data + b"0.5 0.6 e\n")
        edit_manifest(path, lambda text: re.sub(r"model\.dae\t.*\n", "", text))
        with pytest.raises(BundleError, match=r"^bundle fails verification: segmentation.txt$"):
            read_bundle(path)

    @pytest.mark.parametrize("digest", ["matching", "tampered"])
    def test_model_not_utf8(self, tmp_path, model_text, name, digest):
        path = tmp_path / name
        bad = model_text.encode("utf-8").replace(b"emarig", b"emar\xffg", 1)
        write_bundle(path, bad, channels=("A",), rate_hz=200.0)
        if digest == "tampered":
            edit_entry(path, "model.dae", lambda data: data.replace(b"\xff", b"\xfe", 1))
        with pytest.raises(BundleError) as err:
            read_bundle(path)
        if digest == "matching":
            assert str(err.value).startswith("model.dae is not UTF-8 text: ")
        else:
            assert str(err.value) == "bundle fails verification: model.dae"

    def test_concurrent_reads(self, tmp_path, model_text, name):
        # Callers on several threads, with the interpreter switching threads
        # as often as it can: each read gets its own model's digest, so the
        # clean bundles load and the tampered ones fail.
        clean, tampered = tmp_path / "clean", tmp_path / "tampered"
        for d in (clean, tampered):
            write_bundle(d / name, model_text, channels=("A",), rate_hz=200.0)
        edit_entry(tampered / name, "model.dae", lambda data: data.replace(b"emarig", b"emariG", 1))
        outcomes = {}

        def read(i):
            try:
                outcomes[i] = read_bundle((clean if i % 2 else tampered) / name).clip.n_keys
            except BundleError as exc:
                outcomes[i] = str(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=read, args=(i,)) for i in range(6)]
            for t in readers:
                t.start()
            for t in readers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers)
        n_keys = read_bundle(clean / name).clip.n_keys
        assert outcomes == {
            i: n_keys if i % 2 else "bundle fails verification: model.dae" for i in range(6)
        }

    def test_peak_memory(self, tmp_path, default_bundle, name):
        # read_bundle holds the model's bytes until they are decoded and
        # hashed, and its text while read_collada adds its arrays (1.6 times
        # the text on this model). So it peaks at 2.64 times the text when
        # the hash thread is done first, as it usually is, and at 3.64 when
        # the thread still holds the bytes at read_collada's peak.
        text = (default_bundle / "model.dae").read_text(encoding="utf-8")
        path = tmp_path / name
        write_bundle(path, text, channels=("A",), rate_hz=200.0)
        loaded, peak = traced_peak(read_bundle, path)
        assert loaded.clip.n_keys > 0
        assert peak < READ_BUNDLE_PEAK_PER_CHAR * len(text)


# The traced peak of `read_bundle` above its entry, per character of the
# model's text (which is ASCII).
READ_BUNDLE_PEAK_PER_CHAR = 3.75


@pytest.fixture(scope="module")
def pipeline_result(tmp_path_factory):
    """A model compiled from a 2x300-frame fixture corpus."""
    corpus = tmp_path_factory.mktemp("corpus")
    config = write_fixture(corpus, FixtureSpec(n_sweeps=2, frames_per_sweep=300))
    return compile_model(load_config(config))


class TestDumps:
    def test_coils_identity(self, pipeline_result):
        dumped = dump_trajectories("coils", pipeline_result.config)
        assert dumped == b"".join(p.read_bytes() for p in pipeline_result.config.ema_paths)

    def test_ik_targets_equal_registered_coils(self, pipeline_result):
        config, rig, clip = pipeline_result.config, pipeline_result.rig, pipeline_result.clip
        dumped = dump_trajectories("ik_targets", pipeline_result.config)
        sweep = read_pos(dumped, PosLayout(channels=clip.bone_names, rate_hz=clip.rate_hz))
        # registered = similarity applied to the prepared (head-normalized) coils
        layout, roles = _layout_and_roles(config)
        idx = [layout.channels.index(n) for n in clip.bone_names]
        registered = np.concatenate([
            rig.registration.apply(s.positions[:, idx, :])
            for s in prepare_sweeps(config, layout, roles)
        ])
        # .pos stores float32 mm, so equality holds to quantization
        assert np.abs(sweep.positions - registered).max() < 1e-5

    def test_seed_vertices_close_to_targets(self, pipeline_result):
        clip = pipeline_result.clip
        layout = PosLayout(channels=clip.bone_names, rate_hz=clip.rate_hz)
        sweep = read_pos(dump_trajectories("seed_vertices", pipeline_result.config), layout)
        tsweep = read_pos(dump_trajectories("ik_targets", pipeline_result.config), layout)
        err = np.linalg.norm(sweep.positions - tsweep.positions, axis=2)
        assert err.max() <= 1e-3 + 1e-4  # solver tolerance + registration residual

"""Golden digests on dirty input: the path where dropout fill, smoothing
over filled runs, out-of-reach IK targets, stretch clamps and budget stops
do real work (the clean goldens converge every frame with residual 0).

The corpus is the default fixture at 2 x 600 frames, damaged in place by
the benchmark's own `bench/dirty.py` transform with seed 7: 28 dropped
samples, 2 overreach bursts and jitter on every coil.
"""

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from emarig.cli import main
from emarig.ema_io import parse_layout, read_pos
from emarig.fixture import FixtureSpec, write_fixture
from emarig.motion_prep import detect_dropouts
from emarig.pipeline import compile_model, load_config

from test_pipeline_cli import GOLDEN_SYNTH_REQUEST

DIRTY_SEED = 7

# sha256 of what the CLI writes for the dirty corpus: model.dae, compile's
# stdout without its `bundle` line (the path differs per run), the
# `--report` residual file, and `synth --out` for GOLDEN_SYNTH_REQUEST
# against the bundle. The documents print 9 significant digits, which hide
# a last-bit change, so "clip" hashes the bytes of every array of
# `compile_model`'s clip as well. Measured with Python 3.11.7 and numpy 2.4.6.
GOLDEN_DIRTY_SHA256 = {
    "clip": "62d7cb307c02e6d4139e0c152c03eaf01dfbe280a7e139c37e5c9dd4ea35b3ed",
    "model.dae": "8532eae33cdceb5df7dfb71084f30238a0758dc5fa4391ca725f2d6797f27a5e",
    "stdout": "59beed3ff08c6c2610a48d78b172bfdf1f16bb0d7231e66f61dca760c4180b4d",
    "report": "f6c3875acdfacf2b34e0364b88b9b31a7b47222d157f9aee38a072b63d1b4caa",
    "synth": "d9fc4cd5c9f491ad103ed7b60287cd6ccb38a0a41d6ba39ac6d9abe6aeeafa53",
}


def _dirty_corpus():
    """`dirty_corpus` from bench/dirty.py, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / "dirty.py"
    spec = importlib.util.spec_from_file_location("bench_dirty", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.dirty_corpus


@pytest.fixture(scope="module")
def dirty_run(tmp_path_factory):
    """(config, compile_model's result, {name: sha256}) of the dirty corpus,
    compiled and synthesized through the CLI."""
    tmp = tmp_path_factory.mktemp("dirty")
    corpus = tmp / "corpus"
    config_path = write_fixture(corpus, FixtureSpec(n_sweeps=2, frames_per_sweep=600))
    config = load_config(config_path)
    _dirty_corpus()(corpus, [p.name for p in config.ema_paths], DIRTY_SEED)

    capture = {}
    bundle, report, clip = tmp / "b", tmp / "resid.txt", tmp / "clip.dae"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([
            "compile", "--config", str(config_path), "--out", str(bundle),
            "--report", str(report),
        ]) == 0
    lines = out.getvalue().splitlines(keepends=True)
    capture["stdout"] = "".join(line for line in lines if not line.startswith("bundle ")).encode()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([
            "synth", "--bundle", str(bundle), "--request", GOLDEN_SYNTH_REQUEST,
            "--out", str(clip),
        ]) == 0
    capture["model.dae"] = (bundle / "model.dae").read_bytes()
    capture["report"] = report.read_bytes()
    capture["synth"] = clip.read_bytes()
    result = compile_model(config)
    capture["clip"] = b"".join(
        np.ascontiguousarray(getattr(result.clip, f.name)).tobytes()
        for f in dataclasses.fields(result.clip)
        if isinstance(getattr(result.clip, f.name), np.ndarray)
    )
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in capture.items()}
    return config, result, digests


def test_golden_dirty_digests(dirty_run):
    _, _, digests = dirty_run
    assert digests == GOLDEN_DIRTY_SHA256


def test_golden_dirty_corpus_covers_the_hard_path(dirty_run):
    # Each digest above only guards a path that the corpus takes. The
    # stalled (rolled-back) IK stop is not among them: no dirty_corpus seed
    # from 0 to 15 stalls a frame at this size, so that stop is covered by
    # the solver's unit tests alone.
    config, result, _ = dirty_run
    layout = parse_layout(config.layout_path.read_text(encoding="utf-8"))
    filled = sum(
        int(detect_dropouts(read_pos(p.read_bytes(), layout)).sum()) for p in config.ema_paths
    )
    assert filled > 0

    assert result.report.stop_counts["budget"] > 0
    # the clip's stretches are the solver's PoseTrack.stretches
    stretches = result.clip.stretches
    clamps = (stretches == config.ik.s_min) | (stretches == config.ik.s_max)
    assert int(clamps.sum()) > 0
    assert np.isfinite(result.report.residuals).all()

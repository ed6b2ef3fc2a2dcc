import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from emarig.anim_db import bake
from emarig.fixture import FixtureSpec, synthetic_motion, RIG_GRAPH_DOT
from emarig.ik_solver import IkParams
from emarig.motion_prep import fill_dropouts, normalize_head
from emarig.rig import (
    Armature,
    RigConfig,
    compile_rig,
    generate_default_mesh,
    parse_rig_graph,
)

# Built on hypothesis's own `ci` profile: derandomized, with no example
# database, so every run, local or on CI, replays the same examples of each
# drawn test. A failure prints the `@reproduce_failure` blob of its example;
# the tests' own `@settings` override the rest.
settings.register_profile("emarig", parent=settings.get_profile("ci"), print_blob=True)
settings.load_profile("emarig")

FIG_GRAPH = (
    "digraph{TRoot->TBackC; TBackC->TMidC; TMidC->TTipC; "
    "TBackC->TMidL; TMidL->TBladeL; TBackC->TMidR; TMidR->TBladeR;}"
)


def make_chain_armature(points, names=None) -> Armature:
    """Straight bone chain through the given joint positions."""
    points = np.asarray(points, dtype=np.float64)
    K = len(points) - 1
    names = tuple(names) if names else tuple(f"B{i}" for i in range(K))
    heads, tails = points[:-1], points[1:]
    return Armature(
        bone_names=names,
        parents=np.arange(-1, K - 1, dtype=np.int32),
        heads=heads,
        tails=tails,
        root_point=points[0],
    )


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak of the allocations traced during the
    call above those traced before it)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def prepare(data, smoothing=None):
    """Fill + head-normalize the fixture sweeps against a common head frame."""
    from emarig.motion_prep import smooth

    prepared = []
    ref_frame = None
    ref_idx = [data.layout.channels.index(n) for n in data.roles.reference]
    for sweep in data.sweeps:
        filled = fill_dropouts(sweep)
        if ref_frame is None:
            ref_frame = np.array(filled.positions[0, ref_idx, :])
        out = normalize_head(filled, data.roles, ref_frame)
        if smoothing is not None:
            out = smooth(out, smoothing)
        prepared.append(out)
    return prepared


@pytest.fixture(scope="session")
def default_bundle(tmp_path_factory):
    """The bundle directory that `emarig compile` writes from the `emarig
    fixture` default corpus (2 x 600 frames)."""
    from emarig.cli import main

    tmp = tmp_path_factory.mktemp("default")
    assert main(["fixture", "--out", str(tmp / "f")]) == 0
    config = str(tmp / "f" / "config.cfg")
    assert main(["compile", "--config", config, "--out", str(tmp / "b")]) == 0
    return tmp / "b"


@pytest.fixture(scope="session")
def small_fixture():
    return synthetic_motion(FixtureSpec(n_sweeps=2, frames_per_sweep=300))


@pytest.fixture(scope="session")
def compiled_model(small_fixture):
    """(rig, clip, prepared sweeps) for the small synthetic corpus,
    unsmoothed so trajectories match the analytic construction."""
    data = small_fixture
    prepared = prepare(data)
    graph = parse_rig_graph(RIG_GRAPH_DOT)
    mesh = generate_default_mesh()
    rig = compile_rig(graph, prepared[0], data.roles, mesh, RigConfig(seeds=data.seeds))
    clip = bake(prepared, rig, data.roles, IkParams())
    return rig, clip, prepared

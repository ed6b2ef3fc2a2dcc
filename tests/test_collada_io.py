import dataclasses
import hashlib
import math
import re
import sys
import warnings
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emarig.anim_db import AnimationClip
from emarig.cli import main
from emarig.collada_io import (
    _CHUNK,
    _E_MAX,
    _E_MIN,
    _affine_rows,
    _bone_channels,
    _decimal,
    _decompose_world,
    _fmt_array,
    _fmt_matrices,
    _local_rows,
    _numbers,
    read_collada,
    write_collada,
)
from emarig.errors import BadNumber, InconsistentRig, ParseError, UnsupportedFeature
from emarig.rig import Armature, SkinnedMesh, load_mesh
from emarig.ik_solver import _pose_affines, stretch_matrices
from emarig.rotations import axis_angle_matrix, mat_to_quat, norm, quat_to_mat

import reference
from conftest import make_chain_armature, traced_peak
from test_pipeline_cli import GOLDEN_SYNTH_REQUEST
from test_rotations import four_branch_mat_to_quat


def quat_close(a, b, atol):
    direct = np.abs(a - b).max(axis=-1)
    flipped = np.abs(a + b).max(axis=-1)
    return (np.minimum(direct, flipped) < atol).all()


def random_tree_armature(rng, n_bones):
    # random tree, then relabeled so bones sit in DFS preorder (the
    # documented Armature invariant)
    raw_parents = [-1] + [int(rng.integers(-1, k)) for k in range(1, n_bones)]
    children = {k: [] for k in range(-1, n_bones)}
    for k, p in enumerate(raw_parents):
        children[p].append(k)
    order = []
    stack = list(reversed(children[-1]))
    while stack:
        k = stack.pop()
        order.append(k)
        stack.extend(reversed(children[k]))
    remap = {old: new for new, old in enumerate(order)}
    parents = np.array(
        [-1 if raw_parents[old] < 0 else remap[raw_parents[old]] for old in order],
        dtype=np.int32,
    )
    root_point = rng.normal(0, 2, 3)
    heads = np.empty((n_bones, 3))
    tails = np.empty((n_bones, 3))
    for k in range(n_bones):
        heads[k] = root_point if parents[k] < 0 else tails[parents[k]]
        tails[k] = heads[k] + rng.normal(0, 1.5, 3) + 0.3
    deltas = tails - heads
    lengths = np.sqrt(np.sum(deltas * deltas, axis=-1))
    return Armature(
        bone_names=tuple(f"J{k}" for k in range(n_bones)),
        parents=parents,
        heads=heads,
        tails=tails,
        rest_lengths=lengths,
        rest_dirs=deltas / lengths[:, None],
        root_point=root_point,
        root_name="Base",
    )


def random_mesh(rng, n_bones, n_tongue=10, n_mand=4, n_max=4):
    n = n_tongue + n_mand + n_max
    vertices = rng.normal(0, 2, (n, 3))
    tris = []
    for base, count in ((0, n_tongue), (n_tongue, n_mand), (n_tongue + n_mand, n_max)):
        for i in range(count - 2):
            tris.append((base + i, base + i + 1, base + i + 2))
    groups = {
        "tongue": np.arange(n_tongue, dtype=np.int64),
        "mandible": np.arange(n_tongue, n_tongue + n_mand, dtype=np.int64),
        "maxilla": np.arange(n_tongue + n_mand, n, dtype=np.int64),
    }
    weight_bones = np.full((n, 4), -1, dtype=np.int32)
    weight_values = np.zeros((n, 4))
    for v in range(n_tongue):
        cnt = int(rng.integers(1, min(4, n_bones) + 1))
        picks = rng.choice(n_bones, size=cnt, replace=False)
        w = rng.uniform(0.1, 1.0, cnt)
        w /= w.sum()
        weight_bones[v, :cnt] = np.sort(picks)
        weight_values[v, :cnt] = w
    return SkinnedMesh(
        vertices=vertices,
        triangles=np.asarray(tris, dtype=np.int32),
        groups=groups,
        weight_bones=weight_bones,
        weight_values=weight_values,
    )


def random_clip(rng, armature, n_keys):
    K = armature.n_bones
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.004, 0.01, n_keys - 1))])
    stretches = rng.uniform(0.5, 2.0, (n_keys, K))
    quats = mat_to_quat(
        np.stack(
            [
                np.stack(
                    [
                        axis_angle_matrix(rng.normal(0, 1, 3), rng.uniform(-1, 1))
                        for _ in range(K)
                    ]
                )
                for _ in range(n_keys)
            ]
        )
    )
    heads = np.empty((n_keys, K, 3))
    tails = np.empty((n_keys, K, 3))
    # heads must be tree-consistent: child head = parent posed tail
    for f in range(n_keys):
        A, _ = _pose_affines(armature, quats[f], np.zeros((K, 3)), stretches[f])
        for k in range(K):
            p = armature.parents[k]
            heads[f, k] = armature.root_point if p < 0 else tails[f, p]
            tails[f, k] = heads[f, k] + A[k] @ (armature.tails[k] - armature.heads[k])
    jaw_quats = mat_to_quat(
        np.stack(
            [axis_angle_matrix(rng.normal(0, 1, 3), rng.uniform(-0.3, 0.3)) for _ in range(n_keys)]
        )
    )
    jaw_trans = rng.normal(0, 0.5, (n_keys, 3))
    return AnimationClip(
        rate_hz=200.0,
        bone_names=armature.bone_names,
        times=times,
        quats=quats,
        heads=heads,
        stretches=stretches,
        tails=tails,
        jaw_quats=jaw_quats,
        jaw_translations=jaw_trans,
        duration=float(times[-1] + 0.005),
    )


# --- the per-vertex skin-weight loops, kept as the codec's reference ----------

_GROUP_ORDER = ("tongue", "mandible", "maxilla")


def loop_encode_weights(mesh, K):
    """(vcounts, pairs, weights) as lists, one vertex at a time."""
    vertex_group = np.full(mesh.n_vertices, -1, dtype=np.int64)
    for gi, gname in enumerate(_GROUP_ORDER):
        vertex_group[mesh.group_indices(gname)] = gi
    weights: list[float] = [1.0]
    vcounts: list[int] = []
    pairs: list[int] = []
    for v in range(mesh.n_vertices):
        bones = mesh.weight_bones[v]
        active = bones >= 0
        if active.any():
            idxs = bones[active]
            vals = mesh.weight_values[v][active]
            vcounts.append(len(idxs))
            for bi, wv in zip(idxs, vals):
                pairs.extend([int(bi), len(weights)])
                weights.append(float(wv))
        elif vertex_group[v] == 1:
            vcounts.append(1)
            pairs.extend([K, 0])
        elif vertex_group[v] == 2:
            vcounts.append(1)
            pairs.extend([K + 1, 0])
        else:
            vcounts.append(0)
    return vcounts, pairs, weights


def loop_decode_weights(vcount, v, joint_names, bone_names, weights_arr, n_vertices):
    """(weight_bones, weight_values), one vertex at a time."""
    joint_to_bone = {}
    for j, name in enumerate(joint_names):
        if name in bone_names:
            joint_to_bone[j] = bone_names.index(name)
    weight_bones = np.full((n_vertices, 4), -1, dtype=np.int32)
    weight_values = np.zeros((n_vertices, 4))
    cursor = 0
    for vi, cnt in enumerate(vcount):
        slot = 0
        for _ in range(cnt):
            j, wi = int(v[cursor]), int(v[cursor + 1])
            cursor += 2
            if j in joint_to_bone:
                if slot >= 4:
                    raise UnsupportedFeature("more than 4 bone influences per vertex")
                weight_bones[vi, slot] = joint_to_bone[j]
                weight_values[vi, slot] = weights_arr[wi]
                slot += 1
        if slot:
            weight_values[vi, :slot] /= weight_values[vi, :slot].sum()
    return weight_bones, weight_values


def skin_texts(doc):
    """The joint names and the <vcount>, <v> and skin-weights texts."""
    root = ET.fromstring(doc)
    ns = {"c": "http://www.collada.org/2005/11/COLLADASchema"}
    return (
        root.find(".//c:Name_array[@id='skin-joints-array']", ns).text.split(),
        root.find(".//c:vertex_weights/c:vcount", ns).text or "",
        root.find(".//c:vertex_weights/c:v", ns).text or "",
        root.find(".//c:float_array[@id='skin-weights-array']", ns).text,
    )


@st.composite
def skinned_meshes(draw, n_bones):
    """Meshes whose triangles come in blocks, one per group and one
    ungrouped, each block using only its own vertices, so triangles and
    groups survive the batching unchanged; some vertices sit in no
    triangle at all. Influences fill random slots (gaps included) of some
    tongue vertices and, more rarely, of other vertices, so a mandible or
    maxilla vertex gets its anchor only when it has none."""
    sizes = [draw(st.integers(0, 6)) for _ in range(4)]  # tongue, mand, max, none
    n = sum(sizes) + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tris, groups, base = [], {}, 0
    for name, size in zip(_GROUP_ORDER + (None,), sizes):
        block = np.arange(base, base + size)
        base += size
        block_tris = [rng.choice(block, 3) for _ in range(draw(st.integers(0, 4)) if size else 0)]
        tris.extend(block_tris)
        if name is not None and block_tris:
            groups[name] = np.unique(block_tris).astype(np.int64)
    p_weighted = np.full(n, draw(st.sampled_from((0.0, 0.3))))
    p_weighted[: sizes[0]] = draw(st.sampled_from((0.0, 0.5, 1.0)))
    p_slot = draw(st.sampled_from((0.4, 1.0)))
    weight_bones = np.full((n, 4), -1, dtype=np.int32)
    weight_values = np.zeros((n, 4))
    for v in np.flatnonzero(rng.random(n) < p_weighted):
        slots = rng.random(4) < p_slot
        weight_bones[v, slots] = rng.integers(0, n_bones, slots.sum())
        weight_values[v, slots] = rng.uniform(0.05, 1.0, slots.sum())
    return SkinnedMesh(
        vertices=rng.normal(0, 2, (n, 3)),
        triangles=np.asarray(tris, dtype=np.int32).reshape(-1, 3),
        groups=groups,
        weight_bones=weight_bones,
        weight_values=weight_values,
    )


# --- the per-float number codec, kept as the reference ----------------------


def loop_fmt_array(values):
    return " ".join(format(float(v), ".9g") for v in np.asarray(values).ravel())


def loop_affine_to_matrix16(A, t):
    M = np.zeros(A.shape[:-2] + (4, 4))
    M[..., :3, :3] = A
    M[..., :3, 3] = t
    M[..., 3, 3] = 1.0
    return M.reshape(A.shape[:-2] + (16,))


# Every float64 bit pattern (subnormals, +-0.0, inf and nan among them),
# +-1e+-300, integral floats, and values whose 10th significant digit is a
# 5, so that printing them rounds at the 9th.
any_float = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, np.inf, np.nan]),
    st.integers(-(2**63), 2**63).map(float),
    st.builds(
        lambda m, e, sign: sign * (m + 0.5) * 10.0**e,
        st.integers(10**8, 10**9 - 1),
        st.integers(-30, 30),
        st.sampled_from([1.0, -1.0]),
    ),
)
finite_float = any_float.filter(np.isfinite)


# Digits, signs, points, exponents, every ASCII control character and DEL,
# non-ASCII whitespace and digits, and junk.
_SHORT_TEXT_ALPHABET = (
    list("0123456789+-.eE ") + [chr(c) for c in range(32)] + ["\x7f"]
    + ["\xa0", "\x85", "\u2028", "\u3000", "\u0661"]
    + ["x", ",", "_", "#", "0x", "inf", "nan", "infinity", "1e999"]
)
# Whitespace runs longer than a decoder slice; the last ones hold no space.
_LONG_RUNS = [" " * 65536, " " * 65537, " " * 70001, " \n" * 33000, "\t" * 65537, "\n" * 70000]


def decoded(decoder, text):
    """The dtype and bytes that `decoder` gives for `text`, or its diagnostic."""
    try:
        values = decoder(text)
    except ParseError as err:
        return err.diagnostic()
    return values.dtype.str, values.tobytes()


class TestNumberCodec:
    @settings(max_examples=500, deadline=None, database=None)
    @given(st.lists(any_float, max_size=40))
    def test_fmt_array_matches_per_float_format(self, values):
        assert _fmt_array(np.array(values)) == loop_fmt_array(np.array(values))

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.integers(0, 6).flatmap(
        lambda n: st.tuples(
            st.lists(any_float, min_size=9 * n, max_size=9 * n),
            st.lists(any_float, min_size=3 * n, max_size=3 * n),
        )
    ))
    def test_matrix_rows_match_full_matrices(self, entries):
        A = np.array(entries[0]).reshape(-1, 3, 3)
        t = np.array(entries[1]).reshape(-1, 3)
        expected = loop_fmt_array(loop_affine_to_matrix16(A, t))
        assert _fmt_matrices(_affine_rows(A, t)) == expected

    @settings(max_examples=500, deadline=None, database=None)
    @given(
        st.lists(
            st.tuples(finite_float, st.sampled_from(["%.9g", "%r"])), min_size=1, max_size=40
        ),
        st.lists(
            st.sampled_from([" ", "  ", "\t", "\n", " \n  ", "\r\n", "\t \n"]),
            min_size=39,
            max_size=39,
        ),
        st.sampled_from(["", " ", "\n", "\n    ", "\t"]),
        st.sampled_from(["", " ", "\n", "\n  ", "\t\n"]),
    )
    def test_decoder_matches_split(self, tokens, gaps, lead, trail):
        # %.9g tokens as written, and repr tokens as in <duration>.
        words = [template % x for x, template in tokens]
        text = lead + words[0] + "".join(g + w for g, w in zip(gaps, words[1:])) + trail
        expected = np.array(text.split(), dtype=np.float64)
        assert _numbers(text).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text", [None, "", " ", "\n", " \t\n  "])
    def test_blank_text_is_empty(self, text):
        assert _numbers(text).shape == (0,)
        assert _numbers(text, np.int64).shape == (0,)
        assert _numbers(text, np.int64).dtype == np.int64

    @settings(max_examples=500, deadline=None, database=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(-(2**63) + 1, 2**63 - 2), st.sampled_from(["%d", "%+d", "%03d"])
            ),
            min_size=1,
            max_size=40,
        ),
        st.lists(st.sampled_from([" ", "  ", "\t", "\n", " \n  ", "\r\n"]), min_size=39, max_size=39),
        st.sampled_from(["", " ", "\n  "]),
        st.sampled_from(["", " ", "\n"]),
    )
    def test_int_decoder_matches_split(self, tokens, gaps, lead, trail):
        words = [template % x for x, template in tokens]
        text = lead + words[0] + "".join(g + w for g, w in zip(gaps, words[1:])) + trail
        expected = np.array(text.split(), dtype=np.int64)
        got = _numbers(text, np.int64)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "text",
        [
            "1 2 x", "1,2", "0x10", "1_0", "\u0661", "1\xa02", "nan", "1 inf", "-inf 2", "1e999",
            # Whitespace to str.isspace, but not to C's isspace.
            "1\x1c2", "1\x1f", "1\x852",
        ],
    )
    def test_bad_float_text_fails(self, text):
        with pytest.raises(ParseError) as err:
            _numbers(text)
        assert err.value.diagnostic().startswith("error:export:parse_error:")

    def test_numpy_1_prefix_with_warning_fails(self, monkeypatch):
        # numpy 1.x only warns on text it cannot read to the end and
        # returns the numbers before it; the caller's filter must not matter.
        def fromstring_1x(text, dtype, sep):
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
            return np.array([1, 2], dtype)

        monkeypatch.setattr(np, "fromstring", fromstring_1x)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ParseError):
                _numbers("1 2 x", np.int64)

    @settings(max_examples=400, deadline=None, database=None)
    @given(
        st.lists(
            st.sampled_from(list("0123456789+-.e  ")) | st.sampled_from(_SHORT_TEXT_ALPHABET),
            max_size=24,
        ).map("".join)
    )
    def test_matches_fromstring_on_short_texts(self, text):
        assert decoded(_numbers, text) == decoded(reference.fromstring_floats, text)

    @settings(max_examples=20, deadline=None, database=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 30000),
        st.sampled_from(["%.9g", "%r"]),
        st.lists(st.tuples(st.floats(0, 1), st.sampled_from(_LONG_RUNS)), max_size=3),
        st.none() | st.sampled_from(["nan", "-inf", "1e999", "x", "1,2", "\x1c", "\xa0", "\u0661"]),
    )
    def test_matches_fromstring_on_long_texts(self, seed, n, template, runs, bad):
        # Thousands of tokens, some of them past the slice length, with runs
        # of whitespace longer than a slice, and maybe one bad token.
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
        values = np.where(np.isfinite(bits) & (rng.random(n) < 0.5), bits, rng.normal(0, 3, n))
        words = [template % x for x in values.tolist()]
        gaps = rng.choice([" ", " ", " ", "  ", "\t", "\n", " \r\n "], n + 1).tolist()
        gaps[0], gaps[-1] = gaps[0].strip(" "), gaps[-1].strip(" \t")
        for where, run in runs:
            gaps[int(where * n)] += run
        if bad is not None:
            words[rng.integers(n)] = bad
        text = "".join(g + w for g, w in zip(gaps, words)) + gaps[-1]
        assert decoded(_numbers, text) == decoded(reference.fromstring_floats, text)

    @pytest.mark.parametrize(
        "text",
        [
            "9223372036854775808", "1 -9223372036854775809", "1.5",
            # Past int64 reads as the int64 maximum, so both limits fail.
            "-9223372036854775809", "9223372036854775807", "-9223372036854775808",
            "1_0", "\u0660", "\u0661 2", "1e3", "0x10", "1 2 x", "1,2", "1\xa02",
            # A sign with no digit after it reads as 0 or joins the next number.
            "-", "+", "1 -", "- 1", "1 + 2",
        ],
    )
    def test_bad_int_text_fails(self, text):
        with pytest.raises(ParseError) as err:
            _numbers(text, np.int64)
        assert err.value.diagnostic().startswith("error:export:parse_error:")


# --- the array float printer against the per-float format -------------------


def _neighbours(x):
    return [x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)]


_sign = st.sampled_from([1.0, -1.0])
_decade = st.integers(-45, 45)
# Each of these, with both of its float neighbours and either sign, is a place
# where a printer of 9 digits can go wrong.
_hard_float = st.one_of(
    # a 10th significant digit of 5: a rounding tie in decimal
    st.builds(lambda n, k: (n + 0.5) * 10.0 ** (k - 8), st.integers(10**8, 10**9 - 1), _decade),
    # powers of ten, where log10 is off by one
    st.builds(lambda k: 10.0**k, st.integers(-330, 308)),
    # the 9-digit carry: 999999999.5 rounds up to a new decade
    st.builds(lambda k: 999999999.5 * 10.0 ** (k - 8), _decade),
    # the %g switches between fixed and exponent notation
    st.builds(
        lambda m, k: m * 10.0**k,
        st.sampled_from([1.0, 9.9999999, 9.99999999, 9.999999995, 9.9999999949]),
        st.sampled_from([-6, -5, -4, 7, 8, 9]),
    ),
    # the two-step scaling (the model's rotation noise) and past it
    st.builds(lambda m, k: m * 10.0**k, st.floats(1.0, 10.0), st.integers(-48, -20)),
    st.builds(lambda m, k: m * 10.0**k, st.floats(1.0, 10.0), st.integers(20, 35)),
    st.sampled_from([0.0, 5e-324, sys.float_info.min, sys.float_info.max]),
).flatmap(lambda x: st.sampled_from(_neighbours(x))).flatmap(
    lambda x: _sign.map(lambda s: s * x)
)
kernel_float = st.one_of(any_float, _hard_float)


class TestFloatKernel:
    @settings(max_examples=500, deadline=None, database=None)
    @given(st.lists(kernel_float, max_size=60))
    def test_matches_per_float_format(self, values):
        assert _fmt_array(np.array(values)) == loop_fmt_array(values)

    @settings(max_examples=20, deadline=None, database=None)
    @given(st.integers(0, 2**32 - 1))
    def test_decimal_ties_in_bulk(self, seed):
        # Thousands of (n + 0.5) * 10**k at once, with both float neighbours:
        # the values nearest to where the scaled product rounds either way.
        rng = np.random.default_rng(seed)
        n = rng.integers(10**8, 10**9, 3000) + 0.5
        ties = n * 10.0 ** (rng.integers(-45, 46, 3000) - 8.0) * rng.choice([-1.0, 1.0], 3000)
        x = np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)])
        assert _fmt_array(x) == loop_fmt_array(x)

    @settings(max_examples=25, deadline=None, database=None)
    @given(
        st.integers(1, 3),
        st.integers(0, 60),
        st.lists(kernel_float, min_size=1, max_size=40),
        st.integers(0, 2**32 - 1),
    )
    def test_chunk_edges(self, n_chunks, shift, values, seed):
        # Drawn values around every chunk edge of a longer array.
        x = np.random.default_rng(seed).normal(0, 100, n_chunks * _CHUNK + 2 * shift + 1)
        for edge in range(_CHUNK, len(x), _CHUNK):
            lo = max(edge - shift, 0)
            x[lo : lo + len(values)] = values[: len(x) - lo]
        assert _fmt_array(x) == loop_fmt_array(x)

    @settings(max_examples=25, deadline=None, database=None)
    @given(st.integers(0, 3), st.lists(kernel_float, min_size=1, max_size=24), st.integers(0, 2**32 - 1))
    def test_matrix_chunk_edges(self, n_extra, values, seed):
        n = _CHUNK // 12 + n_extra
        rows = np.random.default_rng(seed).normal(0, 1, (2 * n, 3, 4))
        rows.reshape(-1)[12 * n - 12 : 12 * n - 12 + len(values)] = values
        expected = loop_fmt_array(loop_affine_to_matrix16(rows[..., :3], rows[..., 3]))
        assert _fmt_matrices(rows) == expected

    def test_special_values(self):
        values = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310]
        assert _fmt_array(np.array(values)) == (
            "0 -0 nan nan inf -inf 4.94065646e-324 -4.94065646e-324 1e-310"
        )
        assert _fmt_array(np.array([])) == ""
        assert _fmt_array(np.float64(2.5)) == "2.5"

    @settings(max_examples=500, deadline=None, database=None)
    @given(st.lists(kernel_float.filter(np.isfinite), min_size=1, max_size=40))
    def test_fast_path_covers_all_but_near_ties(self, values):
        # Only values outside the printed exponents (before or after rounding
        # to 9 digits), subnormals, and values whose exact scaled fraction is
        # near one half go one at a time.
        x = np.array(values)
        fallback = _decimal(x)[2]
        for v, slow in zip(values, fallback.tolist()):
            if v == 0:
                assert not slow
                continue
            e = Fraction(abs(v))
            k = 0
            while e >= 10:
                e, k = e / 10, k + 1
            while e < 1:
                e, k = e * 10, k - 1
            scaled = e * 10**8
            near_tie = abs(scaled - int(scaled) - Fraction(1, 2)) <= Fraction(1, 2**19)
            printed_k = k + (round(scaled) == 10**9)  # 9.999999999e30 prints as 1e+31
            normal = abs(v) >= sys.float_info.min
            if _E_MIN <= k and printed_k <= _E_MAX and normal and not near_tie:
                assert not slow, v
            elif not _E_MIN - 1 <= k <= _E_MAX:
                assert slow, v


class TestSkinCodec:
    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_matches_per_vertex_loops(self, data):
        n_bones = data.draw(st.integers(1, 7))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        arm = random_tree_armature(rng, n_bones)
        mesh = data.draw(skinned_meshes(n_bones))
        doc = write_collada(mesh, arm, random_clip(rng, arm, 2))

        vcounts, pairs, weights = loop_encode_weights(mesh, n_bones)
        joint_names, vcount_text, v_text, weights_text = skin_texts(doc)
        assert vcount_text == " ".join(str(c) for c in vcounts)
        assert v_text == " ".join(str(i) for i in pairs)
        assert weights_text == _fmt_array(np.asarray(weights))

        m2, a2, _ = read_collada(doc)
        ref_bones, ref_values = loop_decode_weights(
            [int(c) for c in vcount_text.split()],
            [int(i) for i in v_text.split()],
            joint_names,
            a2.bone_names,
            np.array(weights_text.split(), dtype=np.float64),
            m2.n_vertices,
        )
        assert np.array_equal(m2.weight_bones, ref_bones)
        assert m2.weight_values.tobytes() == ref_values.tobytes()

        assert np.array_equal(m2.triangles, mesh.triangles)
        assert set(m2.groups) == set(mesh.groups)
        for name, members in mesh.groups.items():
            assert np.array_equal(m2.group_indices(name), members)


class TestWriter:
    def test_reference_rig_joint_nodes(self, compiled_model):
        rig, clip, _ = compiled_model
        doc = write_collada(rig.mesh, rig.armature, clip)
        root = ET.fromstring(doc)
        ns = {"c": "http://www.collada.org/2005/11/COLLADASchema"}
        troot = root.find(".//c:node[@id='node-TRoot']", ns)
        assert troot is not None
        joints = troot.findall(".//c:node[@type='JOINT']", ns)
        assert len(joints) == 7

    def test_deterministic(self, compiled_model):
        rig, clip, _ = compiled_model
        assert write_collada(rig.mesh, rig.armature, clip) == write_collada(
            rig.mesh, rig.armature, clip
        )

    def test_inconsistent_rig(self):
        rng = np.random.default_rng(3)
        arm = make_chain_armature([[0, 0, 0], [1, 0, 0]])
        mesh = random_mesh(rng, n_bones=5)  # references bones beyond the armature
        with pytest.raises(InconsistentRig):
            write_collada(mesh, arm, random_clip(rng, arm, 2))

    @pytest.mark.parametrize(
        "part, field, index, bad",
        [
            (part, field, index, bad)
            for part, field, index in [
                ("mesh", "vertices", (5, 1)),
                ("mesh", "weight_values", (np.s_[:], 0)),
                ("armature", "tails", (2, 0)),
                ("armature", "root_point", 2),
                ("clip", "quats", (7, 1, 0)),
                ("clip", "stretches", (0, 0)),
                ("clip", "jaw_quats", (9, 3)),
                ("clip", "jaw_translations", (3, 2)),
                ("clip", "rate_hz", ()),
                ("clip", "duration", ()),
            ]
            for bad in [np.nan, np.inf, -np.inf]
            if field != "duration" or bad == np.inf  # AnimationClip refuses the others
        ],
    )
    def test_non_finite_value_is_refused(self, compiled_model, part, field, index, bad):
        # read_collada rejects nan and infinities, so the writer must not print them.
        rig, clip, _ = compiled_model
        parts = {"mesh": rig.mesh, "armature": rig.armature, "clip": clip}
        value = np.array(getattr(parts[part], field), dtype=np.float64)
        value[index] = bad
        if value.ndim == 0:
            value = float(value)
        parts[part] = dataclasses.replace(parts[part], **{field: value})
        with pytest.raises(BadNumber) as err:
            write_collada(parts["mesh"], parts["armature"], parts["clip"])
        assert err.value.diagnostic().startswith("error:export:bad_number:")

    def test_units_and_up_axis(self, compiled_model):
        rig, clip, _ = compiled_model
        doc = write_collada(rig.mesh, rig.armature, clip)
        assert '<unit meter="0.01" name="centimeter" />' in doc
        assert "<up_axis>Z_UP</up_axis>" in doc


def batched_local_rows(armature, clip):
    """The node matrices (n_keys, K, 3, 4) as `write_collada` computed them
    for all bones at once up to 09e8b7f, kept verbatim as the reference."""
    K = armature.n_bones
    A, b = _pose_affines(armature, clip.quats, clip.heads, clip.stretches)
    locals_ = np.empty((clip.n_keys, K, 3, 4))
    S_inv = stretch_matrices(
        armature.rest_dirs, 1.0 / clip.stretches, np.sqrt(clip.stretches)
    )
    R = quat_to_mat(clip.quats)
    A_inv = S_inv @ np.swapaxes(R, -1, -2)
    for k in range(K):
        p = armature.parents[k]
        if p < 0:
            locals_[:, k] = _affine_rows(A[:, k], clip.heads[:, k] - armature.root_point)
        else:
            rel = clip.heads[:, k] - clip.heads[:, p]
            A_inv_p = np.ascontiguousarray(A_inv[:, p])
            locals_[:, k, :, :3] = A_inv_p @ A[:, k]
            locals_[:, k, :, 3] = np.einsum("fij,fj->fi", A_inv_p, rel)
    return locals_


class TestLocalRows:
    @settings(max_examples=100, deadline=None, database=None)
    @given(st.integers(1, 7), st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_matches_batched_reference(self, n_bones, n_keys, seed):
        rng = np.random.default_rng(seed)
        arm = random_tree_armature(rng, n_bones)
        clip = random_clip(rng, arm, n_keys)
        got = np.stack([_local_rows(arm, clip, k) for k in range(n_bones)], axis=1)
        assert np.array_equal(got, batched_local_rows(arm, clip))


class TestRoundTrip:
    def test_randomized(self):
        rng = np.random.default_rng(42)
        for trial in range(8):
            n_bones = int(rng.integers(1, 8))
            arm = random_tree_armature(rng, n_bones)
            mesh = random_mesh(rng, n_bones)
            clip = random_clip(rng, arm, int(rng.integers(2, 12)))
            doc = write_collada(mesh, arm, clip)
            m2, a2, c2 = read_collada(doc)

            assert np.array_equal(m2.triangles, mesh.triangles)
            assert m2.n_vertices == mesh.n_vertices
            for g in ("tongue", "mandible", "maxilla"):
                assert np.array_equal(m2.group_indices(g), mesh.group_indices(g))
            assert np.abs(m2.vertices - mesh.vertices).max() < 1e-6
            assert np.array_equal(m2.weight_bones, mesh.weight_bones)
            assert np.abs(m2.weight_values - mesh.weight_values).max() < 1e-6

            assert a2.bone_names == arm.bone_names
            assert np.array_equal(a2.parents, arm.parents)
            assert np.abs(a2.heads - arm.heads).max() < 1e-6
            assert np.abs(a2.tails - arm.tails).max() < 1e-6
            assert a2.root_name == arm.root_name

            assert np.abs(c2.times - clip.times).max() < 1e-6
            assert np.abs(c2.heads - clip.heads).max() < 1e-6
            assert np.abs(c2.stretches - clip.stretches).max() < 1e-6
            assert quat_close(c2.quats, clip.quats, 1e-6)
            assert np.abs(c2.tails - clip.tails).max() < 1e-6
            assert quat_close(c2.jaw_quats, clip.jaw_quats, 1e-6)
            assert np.abs(c2.jaw_translations - clip.jaw_translations).max() < 1e-6
            assert abs(c2.duration - clip.duration) < 1e-9
            assert c2.rate_hz == clip.rate_hz

    def test_ungrouped_triangles_kept(self):
        # A face outside the three groups is written as a <triangles> batch
        # with no material and read back into no group.
        obj = (
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nv 2 2 2\n"
            "o Tongue\nf 1 2 3\nf 1 3 4\no Palate\nf 5 2 3\n"
        )
        mesh = load_mesh(obj)
        arm = make_chain_armature([[0, 0, 0], [1, 0, 0]])
        doc = write_collada(mesh, arm, random_clip(np.random.default_rng(0), arm, 2))
        assert '<triangles count="1">' in doc
        m2, _, _ = read_collada(doc)
        assert np.array_equal(m2.triangles, [[0, 1, 2], [0, 2, 3], [4, 1, 2]])
        assert set(m2.groups) == {"tongue"}
        assert np.array_equal(m2.group_indices("tongue"), [0, 1, 2, 3])


def strided_bone_channels(worlds, armature):
    """The reader's bone-channel math as it ran on the strided 3x3 view of
    the world matrices, kept verbatim as the reference."""
    heads_t = worlds[:, :, :3, 3]
    A = worlds[:, :, :3, :3]
    stretches = norm(np.einsum("fkij,kj->fki", A, armature.rest_dirs))
    R = A @ stretch_matrices(armature.rest_dirs, 1.0 / stretches, np.sqrt(stretches))
    quats = four_branch_mat_to_quat(R)
    tails_t = heads_t + np.einsum(
        "fkij,kj->fki", A, armature.tails - armature.heads
    )
    return quats, stretches, tails_t


class TestBoneChannels:
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        st.integers(1, 7),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["posed", "raw"]),
        st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_matches_strided_reference(self, n_bones, n_keys, seed, kind, scale):
        # Posed worlds are rotation times stretch along the rest direction,
        # as the writer bakes them; raw worlds are arbitrary 3x4 entries.
        rng = np.random.default_rng(seed)
        arm = random_tree_armature(rng, n_bones)
        worlds = np.zeros((n_keys, n_bones, 4, 4))
        worlds[..., 3, 3] = 1.0
        worlds[..., :3, 3] = rng.normal(0, 2, (n_keys, n_bones, 3))
        if kind == "posed":
            stretch = rng.uniform(0.5, 2.0, (n_keys, n_bones))
            S = stretch_matrices(arm.rest_dirs, stretch, 1.0 / np.sqrt(stretch))
            R = np.array([
                axis_angle_matrix(rng.normal(0, 1, 3), rng.uniform(-np.pi, np.pi))
                for _ in range(n_keys * n_bones)
            ]).reshape(n_keys, n_bones, 3, 3)
            worlds[..., :3, :3] = scale * (R @ S)
        else:
            worlds[..., :3, :3] = rng.normal(0, scale, (n_keys, n_bones, 3, 3))
        per_bone = [_decompose_world(worlds[:, k], arm, k) for k in range(n_bones)]
        stacked = [np.stack(channel, axis=1) for channel in zip(*per_bone)]
        for got, ref in zip(stacked, strided_bone_channels(worlds, arm)):
            assert np.array_equal(got, ref, equal_nan=True)


def posed_locals(rng, armature, n_keys):
    """Per bone, (n_keys, 4, 4) local matrices as the writer bakes them: a
    rotation times a stretch along the rest direction, and an offset."""
    locals_ = []
    for k in range(armature.n_bones):
        q = rng.normal(size=(n_keys, 4))
        s = rng.uniform(0.5, 2.0, (n_keys, 1))
        S = stretch_matrices(armature.rest_dirs[k : k + 1], s, 1.0 / np.sqrt(s))[:, 0]
        m = np.zeros((n_keys, 4, 4))
        m[:, :3, :3] = quat_to_mat(q / norm(q)[:, None]) @ S
        m[:, :3, 3] = rng.normal(0, 2, (n_keys, 3))
        m[:, 3, 3] = 1.0
        locals_.append(m)
    return locals_


class TestBoneComposition:
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.integers(1, 7), st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_matches_9f05ce2(self, n_bones, n_keys, seed):
        rng = np.random.default_rng(seed)
        arm = random_tree_armature(rng, n_bones)
        locals_ = posed_locals(rng, arm, n_keys)
        ref = reference.compose_bone_channels(locals_, arm)
        consumed = list(locals_)
        got = _bone_channels(consumed, arm)
        assert consumed == [None] * n_bones
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)

    def test_reader_matches_9f05ce2(self, compiled_model):
        # The clip `read_collada` returns against the frozen composition of
        # the document's own node animations.
        rig, clip, _ = compiled_model
        doc = write_collada(rig.mesh, rig.armature, clip)
        _, arm, got = read_collada(doc)
        ns = {"c": "http://www.collada.org/2005/11/COLLADASchema"}
        root = ET.fromstring(doc)
        locals_ = [
            np.fromstring(
                root.find(f".//c:float_array[@id='anim-{name}-output-array']", ns).text, sep=" "
            ).reshape(-1, 4, 4)
            for name in arm.bone_names
        ]
        ref = reference.compose_bone_channels(locals_, arm)
        for g, r in zip((got.heads, got.quats, got.stretches, got.tails), ref):
            assert np.array_equal(g, r)


class TestReaderErrors:
    def test_malformed_xml(self):
        with pytest.raises(ParseError):
            read_collada("<COLLADA><broken")

    def test_not_collada(self):
        with pytest.raises(ParseError):
            read_collada("<model/>")

    def test_unknown_library(self, compiled_model):
        rig, clip, _ = compiled_model
        doc = write_collada(rig.mesh, rig.armature, clip)
        doc = doc.replace(
            "<library_geometries>",
            "<library_lights><light/></library_lights><library_geometries>",
        )
        with pytest.raises(UnsupportedFeature):
            read_collada(doc)

    def test_unsupported_primitive(self, compiled_model):
        rig, clip, _ = compiled_model
        doc = write_collada(rig.mesh, rig.armature, clip)
        doc = doc.replace("<triangles", "<polylist", 1).replace(
            "</triangles>", "</polylist>", 1
        )
        with pytest.raises(UnsupportedFeature):
            read_collada(doc)

    @pytest.mark.parametrize(
        "pattern, repl",
        [
            # <v> weight index one past the skin-weights array
            (r"<v>(\d+) \d+ ", r"<v>\1 {n_weights} "),
            # odd-length <v>
            (r"<v>\d+ ", "<v>"),
            # joint index one past the joint names, or negative
            (r"<v>\d+ ", "<v>{n_joints} "),
            (r"<v>\d+ ", "<v>-1 "),
            # non-numeric number tokens
            (r'(id="mesh-positions-array" count="\d+">)', r"\1x"),
            (r"<v>\d+ ", "<v>one "),
            # triangle vertex index one past the positions, or negative
            (r"<p>\d+ ", "<p>{n_vertices} "),
            (r"<p>\d+ ", "<p>-1 "),
            # arrays whose size disagrees with their declared count
            (r"<p>\d+ ", "<p>"),
            (r"<vcount>", "<vcount>1 "),
            (r'(id="mesh-positions-array" count="\d+">)', r"\g<1>1 "),
            # a bone's or the jaw's first animation key ending in 0 0 0 2
            (r'(id="anim-TMidC-output-array" count="\d+">(?:\S+ ){15})1 ', r"\g<1>2 "),
            (r'(id="anim-Jaw-output-array" count="\d+">(?:\S+ ){15})1 ', r"\g<1>2 "),
            # a bone node <matrix> ending in 0 0 0 2, scaled, or sheared
            (r'(id="node-TMidC"[^>]*>\s*<matrix sid="transform">(?:\S+ ){15})1<', r"\g<1>2<"),
            (r'(id="node-TMidC"[^>]*>\s*<matrix sid="transform">)1 ', r"\g<1>2 "),
            (r'(id="node-TMidC"[^>]*>\s*<matrix sid="transform">\S+ )0 ', r"\g<1>0.5 "),
            # the skeleton root's <matrix> turned a quarter about z
            (
                r'(id="node-TRoot"[^>]*>\s*<matrix sid="transform">)1 0 0 (\S+) 0 1 0 ',
                r"\g<1>0 -1 0 \2 1 0 0 ",
            ),
            # no animation library, no animation in it, the jaw's twice, or
            # a second non-bone one
            (r"(?s)<library_animations>.*</library_animations>", ""),
            (r"(?s)<library_animations>.*</library_animations>", "<library_animations />"),
            (r'(?s)<animation id="anim-Jaw">.*?</animation>', r"\g<0>\g<0>"),
            (
                r'(?s)(<animation id="anim-)Jaw(">.*?target="node-)Jaw'
                r'(/transform" />\s*</animation>)',
                r"\g<0>\g<1>Skull\g<2>Skull\g<3>",
            ),
            # the clip's rate and duration under another technique profile
            (r'<technique profile="emarig">(\s*<rate_hz>)', r'<technique profile="other">\1'),
        ],
        ids=[
            "weight_index", "odd_v", "joint_index", "negative_joint",
            "float_token", "int_token", "triangle_index", "negative_triangle",
            "triangle_count", "vcount_count", "positions_count",
            "bone_key_last_row", "jaw_key_last_row", "node_last_row", "node_scaled",
            "node_sheared", "root_rotated", "no_animation_library", "no_animations",
            "jaw_animation_twice",
            "second_non_bone_animation", "no_clip_technique",
        ],
    )
    def test_tampered_arrays_are_tagged(self, compiled_model, pattern, repl):
        rig, clip, _ = compiled_model
        doc = write_collada(rig.mesh, rig.armature, clip)
        sizes = {
            "n_weights": re.search(r'"skin-weights-array" count="(\d+)"', doc)[1],
            "n_joints": re.search(r'"skin-joints-array" count="(\d+)"', doc)[1],
            "n_vertices": str(rig.mesh.n_vertices),
        }
        doc, n = re.subn(pattern, repl.format(**sizes), doc, count=1)
        assert n == 1
        with pytest.raises(ParseError) as err:
            read_collada(doc)
        assert err.value.diagnostic().startswith("error:export:parse_error:")


# --- golden read-back ---------------------------------------------------------

# sha256 over every field `read_collada` returns (mesh, armature, clip) for
# the `emarig fixture` default model.dae, then for the `synth --out` clip of
# the golden synth request against that bundle. The document digests cannot
# prove a bit-identical reader, because %.9g hides last-bit changes.
GOLDEN_READ_SHA256 = "555fb481b418f52c421c457798b0bed538b0196c0d21110b5874fbc2e2e25f99"


def _hash_fields(h, obj):
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        h.update(f.name.encode())
        if isinstance(value, dict):
            for key in sorted(value):
                h.update(key.encode())
                _hash_value(h, value[key])
        else:
            _hash_value(h, value)


def _hash_value(h, value):
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())


def test_golden_read_digest(tmp_path):
    assert main(["fixture", "--out", str(tmp_path / "f")]) == 0
    assert main([
        "compile", "--config", str(tmp_path / "f" / "config.cfg"), "--out", str(tmp_path / "b"),
    ]) == 0
    out = tmp_path / "clip.dae"
    assert main([
        "synth", "--bundle", str(tmp_path / "b"), "--request", GOLDEN_SYNTH_REQUEST,
        "--out", str(out),
    ]) == 0
    h = hashlib.sha256()
    for path in (tmp_path / "b" / "model.dae", out):
        for part in read_collada(path.read_text(encoding="utf-8")):
            _hash_fields(h, part)
    assert h.hexdigest() == GOLDEN_READ_SHA256


# --- memory -------------------------------------------------------------------

# Peak traced allocations per character of the default model.dae. Reading
# holds the element tree's text, which shrinks as the arrays are decoded,
# plus the arrays; writing holds the tree's text plus the joined document.
# The codec that parsed the whole text at once, kept every array text and
# concatenated the serialized document twice measured 4.6 (read) and 4.8
# (write) on this model.
READ_PEAK_PER_CHAR = 3.0
WRITE_PEAK_PER_CHAR = 3.0


@pytest.fixture(scope="module")
def default_model(tmp_path_factory):
    """The text of the `emarig fixture` default (2 x 600 frames) model.dae."""
    tmp = tmp_path_factory.mktemp("default")
    assert main(["fixture", "--out", str(tmp / "f")]) == 0
    config = str(tmp / "f" / "config.cfg")
    assert main(["compile", "--config", config, "--out", str(tmp / "b")]) == 0
    return (tmp / "b" / "model.dae").read_text(encoding="utf-8")


def test_read_peak_memory(default_model):
    _, peak = traced_peak(read_collada, default_model)
    assert peak < READ_PEAK_PER_CHAR * len(default_model)


def test_float_decode_peak_memory():
    # 2.3 MB of text; one np.loadtxt call on all of it peaks near 15 MB.
    text = _fmt_array(np.random.default_rng(0).normal(0, 3, 192000))
    _, peak = traced_peak(_numbers, text)
    assert peak <= 4_000_000


def test_write_peak_memory(default_model):
    mesh, armature, clip = read_collada(default_model)
    _, peak = traced_peak(write_collada, mesh, armature, clip)
    assert peak < WRITE_PEAK_PER_CHAR * len(default_model)


def test_read_clip_owns_heads_and_jaw_translations(default_model):
    # Views would keep the composed (n, K, 4, 4) world matrices and the
    # jaw's decoded matrices alive for as long as the clip lives.
    _, _, clip = read_collada(default_model)
    assert clip.heads.base is None
    assert clip.jaw_translations.base is None

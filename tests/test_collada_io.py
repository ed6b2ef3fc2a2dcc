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
import emarig.collada_io
from emarig.collada_io import (
    _CHUNK,
    _E_MAX,
    _E_MIN,
    _PLACEHOLDER,
    _affine_rows,
    _bone_channels,
    _cut_arrays,
    _decimal,
    _decompose_world,
    _fmt_array,
    _fmt_matrices,
    _local_rows,
    _numbers,
    read_collada,
    write_collada,
)
from emarig.errors import BadNumber, EmarigError, InconsistentRig, ParseError, UnsupportedFeature
from emarig.rig import GROUPS, Armature, SkinnedMesh, load_mesh
from emarig.ik_solver import _pose_affines, stretch_matrices
from emarig.rotations import axis_angle_matrix, mat_to_quat, norm, quat_to_mat

import reference
from conftest import make_chain_armature, traced_peak
from reference import (
    batched_local_rows,
    loop_affine_to_matrix16,
    loop_decode_weights,
    loop_encode_weights,
    loop_fmt_array,
    strided_bone_channels,
    whole_document_read,
)
from test_pipeline_cli import GOLDEN_SYNTH_REQUEST


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
    for name, size in zip(GROUPS + (None,), sizes):
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
# Digits, signs, points, exponents, separators, every ASCII control
# character and DEL, non-ASCII whitespace and digits, and tokens past int64,
# at its limits and zero-padded (after a space, so that most stand alone).
_INT_TEXT_ALPHABET = (
    list("0123456789+-.e_, ") + [chr(c) for c in range(32)] + ["\x7f"]
    + ["\xa0", "\x85", "\u3000", "\u0661"]
    + [" 9223372036854775807", " -9223372036854775808", " 9223372036854775808"]
    + [" -9223372036854775809", " 18446744073709551616", " 0009223372036854775806", " -0042"]
)


def spaced(rng, words, runs, bad):
    """`words` with random ASCII whitespace between and around them, each
    (where, run) of `runs` added to the gap at `where` (0-1), and one word
    replaced by `bad` unless it is None."""
    n = len(words)
    gaps = rng.choice([" ", " ", " ", "  ", "\t", "\n", " \r\n "], n + 1).tolist()
    gaps[0], gaps[-1] = gaps[0].strip(" "), gaps[-1].strip(" \t")
    for where, run in runs:
        gaps[int(where * n)] += run
    if bad is not None:
        words[rng.integers(n)] = bad
    return "".join(g + w for g, w in zip(gaps, words)) + gaps[-1]


def decoded(decoder, text):
    """The dtype and bytes that `decoder` gives for `text`, or its diagnostic."""
    try:
        values = decoder(text)
    except ParseError as err:
        return err.diagnostic()
    return values.dtype.str, values.tobytes()


def one_blank_rule(reference_decoder, dtype):
    """`reference_decoder`, except that text which ``str.isspace`` calls
    blank, but which holds more than C's ASCII whitespace, is refused, as
    the same characters are next to a number."""

    def decode(text):
        if text and text.isspace() and text.strip(" \t\n\v\f\r"):
            raise ParseError(f"bad {np.dtype(dtype)} in array text", module="export")
        return reference_decoder(text)

    return decode


fromstring_floats = one_blank_rule(reference.fromstring_floats, np.float64)
fromstring_ints = one_blank_rule(reference.fromstring_ints, np.int64)


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
            # Whitespace to str.isspace, but not to C's isspace, with a number
            # or alone.
            "1\x1c2", "1\x1f", "1\x852", "\x1c", "\x1f \x1e", "\u3000", "\xa0", " \x85\n",
        ],
    )
    def test_bad_float_text_fails(self, text):
        with pytest.raises(ParseError) as err:
            _numbers(text)
        assert err.value.diagnostic().startswith("error:export:parse_error:")

    def test_numpy_1_prefix_with_warning_fails(self, monkeypatch):
        # numpy 1.x np.loadtxt reads an integer token it cannot parse
        # through a float, warns and returns the truncated number; the
        # caller's filter must not matter.
        def loadtxt_1x(rows, dtype, comments, ndmin):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            return np.array([1, 2], dtype)

        monkeypatch.setattr(np, "loadtxt", loadtxt_1x)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ParseError):
                _numbers("1 2.5", np.int64)

    @settings(max_examples=400, deadline=None, database=None)
    @given(
        st.lists(
            st.sampled_from(list("0123456789+-.e  ")) | st.sampled_from(_SHORT_TEXT_ALPHABET),
            max_size=24,
        ).map("".join)
    )
    def test_matches_fromstring_on_short_texts(self, text):
        assert decoded(_numbers, text) == decoded(fromstring_floats, text)

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
        text = spaced(rng, [template % x for x in values.tolist()], runs, bad)
        assert decoded(_numbers, text) == decoded(fromstring_floats, text)

    @pytest.mark.parametrize(
        "text",
        [
            "9223372036854775808", "1 -9223372036854775809", "1.5",
            # Past int64 reads as the int64 maximum, so both limits fail.
            "-9223372036854775809", "9223372036854775807", "-9223372036854775808",
            "1_0", "\u0660", "\u0661 2", "1e3", "0x10", "1 2 x", "1,2", "1\xa02",
            # A sign with no digit after it reads as 0 or joins the next number.
            "-", "+", "1 -", "- 1", "1 + 2",
            # Whitespace to str.isspace, but not to C's isspace, alone.
            "\u3000", "\x1c", "\n\x85 ",
        ],
    )
    def test_bad_int_text_fails(self, text):
        with pytest.raises(ParseError) as err:
            _numbers(text, np.int64)
        assert err.value.diagnostic().startswith("error:export:parse_error:")

    @settings(max_examples=400, deadline=None, database=None)
    @given(
        st.lists(
            st.sampled_from(list("0123456789+-  ")) | st.sampled_from(_INT_TEXT_ALPHABET),
            max_size=24,
        ).map("".join)
    )
    def test_ints_match_fromstring_on_short_texts(self, text):
        assert decoded(lambda t: _numbers(t, np.int64), text) == decoded(fromstring_ints, text)

    @settings(max_examples=20, deadline=None, database=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 30000),
        st.sampled_from(["%d", "%+d", "%05d"]),
        st.lists(st.tuples(st.floats(0, 1), st.sampled_from(_LONG_RUNS)), max_size=3),
        st.none() | st.sampled_from(
            ["9223372036854775807", "-9223372036854775808", "-9223372036854775809", "1.5", "1e3",
             "-", "x", "\x1c", "\xa0"]
        ),
    )
    def test_ints_match_fromstring_on_long_texts(self, seed, n, template, runs, bad):
        # Thousands of tokens, the longest 20 characters, with runs of
        # whitespace longer than a slice, and maybe one bad token.
        rng = np.random.default_rng(seed)
        big = rng.integers(-(2**63) + 1, 2**63 - 1, n)
        values = np.where(rng.random(n) < 0.5, big, rng.integers(-999, 1000, n))
        text = spaced(rng, [template % x for x in values.tolist()], runs, bad)
        assert decoded(lambda t: _numbers(t, np.int64), text) == decoded(fromstring_ints, text)

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        st.lists(st.sampled_from(_SHORT_TEXT_ALPHABET + _INT_TEXT_ALPHABET), max_size=24).map("".join),
        st.integers(0, 30),
        st.integers(0, 30),
        st.sampled_from([np.float64, np.int64]),
    )
    def test_decodes_a_span_in_place(self, text, lo, length, dtype):
        lo = min(lo, len(text))
        hi = min(lo + length, len(text))
        in_place = decoded(lambda t: _numbers(t, dtype, lo, hi), text)
        assert in_place == decoded(lambda t: _numbers(t, dtype), text[lo:hi])

    @settings(max_examples=6, deadline=None, database=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.floats(0, 1), st.sampled_from(_LONG_RUNS)), max_size=2),
        st.none() | st.sampled_from(["nan", "x", "\x1c", "\xa0", "\u0661"]),
        st.floats(0, 1),
        st.floats(0, 1),
    )
    def test_decodes_a_long_span_in_place(self, seed, runs, bad, start, end):
        # Spans over several decoder slices, inside a text with numbers,
        # and maybe a bad token, on both sides of them.
        rng = np.random.default_rng(seed)
        words = ["%.9g" % x for x in rng.normal(0, 3, 30000).tolist()]
        text = spaced(rng, words, runs, bad)
        lo, hi = sorted(int(f * len(text)) for f in (start, end))
        in_place = decoded(lambda t: _numbers(t, np.float64, lo, hi), text)
        assert in_place == decoded(_numbers, text[lo:hi])


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


class TestLocalRows:
    @settings(max_examples=100, deadline=None, database=None)
    @given(st.integers(1, 7), st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_matches_batched_reference(self, n_bones, n_keys, seed):
        rng = np.random.default_rng(seed)
        arm = random_tree_armature(rng, n_bones)
        clip = random_clip(rng, arm, n_keys)
        got = np.stack([_local_rows(arm, clip, k) for k in range(n_bones)], axis=1)
        assert np.array_equal(got, batched_local_rows(arm, clip))

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.integers(1, 7), st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_shared_inverses_match_batched_reference(self, n_bones, n_keys, seed):
        # As write_collada calls it: bones in order, sharing one dict of
        # inverse poses, each dropped once its bone's last child is written.
        rng = np.random.default_rng(seed)
        arm = random_tree_armature(rng, n_bones)
        clip = random_clip(rng, arm, n_keys)
        inverses = {}
        got = np.stack([_local_rows(arm, clip, k, inverses) for k in range(n_bones)], axis=1)
        assert np.array_equal(got, batched_local_rows(arm, clip))
        assert inverses == {}


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
            # float and name arrays whose own count disagrees with their size,
            # and an interpolation array of one name in a clip of many keys
            (r'(id="mesh-positions-array" count=")\d+', r"\g<1>{n_positions_plus_7}"),
            (r'(id="skin-joints-array" count=")\d+', r"\g<1>{n_joints_plus_3}"),
            (r'(id="anim-TMidC-interp-array" count=")\d+(">)LINEAR[^<]*', r"\g<1>1\g<2>LINEAR"),
            # an empty triangle batch whose <p> holds a non-ASCII space only
            (r'(<triangles[^>]*count=")\d+("[^>]*>\s*<input[^>]*>\s*<p>)[^<]*', "\\g<1>0\\g<2>\u3000"),
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
            # name-array accessors whose count or stride disagrees with the
            # array, and the weight index read from another offset of <v>
            (r'(<accessor source="#skin-joints-array" count=")\d+', r"\g<1>{n_joints_plus_3}"),
            (r'(<accessor source="#anim-TMidC-interp-array" count=")\d+', r"\g<1>{n_keys_plus_5}"),
            (r'(<accessor source="#anim-TMidC-interp-array" count="\d+" stride=")1', r"\g<1>2"),
            (r'(<input semantic="WEIGHT" source="#skin-weights" offset=")1', r"\g<1>5"),
            # inputs and a channel that name another element than the one
            # read: another bone's keys, the weights as joints, the bind
            # poses as weights, and the triangles' vertices at another offset
            (r'(<input semantic="OUTPUT" source="#anim-)TMidC(-output")', r"\g<1>TMidL\g<2>"),
            (r'(<channel source="#anim-)TMidC(-sampler")', r"\g<1>TMidL\g<2>"),
            (r'(<joints>\s*<input semantic="JOINT" source=")#skin-joints', r"\g<1>#skin-weights"),
            (r'(<input semantic="WEIGHT" source=")#skin-weights', r"\g<1>#skin-bind-poses"),
            (r'(<input semantic="VERTEX" source="#mesh-vertices" offset=")0', r"\g<1>1"),
            # the bind shape and inverse bind poses: a bind pose that is no
            # number, a bind-poses count that disagrees with its array, a
            # bind shape that scales, holds 15 numbers or ends in 0 0 0 2, a
            # bind pose ending in 0 0 0 2, one bind pose fewer than joints,
            # and the inverse bind input naming the weights
            (r'(id="skin-bind-poses-array" count="\d+">)\S+', r"\1x"),
            (r'(id="skin-bind-poses-array" count=")\d+', r"\g<1>7"),
            (r"(<bind_shape_matrix>)1 ", r"\g<1>5 "),
            (r"(<bind_shape_matrix>)\S+ ", r"\1"),
            (r"(<bind_shape_matrix>(?:\S+ ){15})1<", r"\g<1>2<"),
            (r'(id="skin-bind-poses-array" count="\d+">(?:\S+ ){15})1 ', r"\g<1>2 "),
            (
                r'(?s)(id="skin-bind-poses-array" count=")\d+(">)(?:\S+ ){16}'
                r'(.*?<accessor source="#skin-bind-poses-array" count=")\d+',
                r"\g<1>{n_bind_values_minus_16}\g<2>\g<3>{n_joints_minus_1}",
            ),
            (r'(<input semantic="INV_BIND_MATRIX" source=")#skin-bind-poses', r"\g<1>#skin-weights"),
        ],
        ids=[
            "weight_index", "odd_v", "joint_index", "negative_joint",
            "float_token", "int_token", "triangle_index", "negative_triangle",
            "triangle_count", "vcount_count", "positions_count",
            "positions_array_count", "joints_array_count", "one_interpolation",
            "blank_non_ascii_triangles",
            "bone_key_last_row", "jaw_key_last_row", "node_last_row", "node_scaled",
            "node_sheared", "root_rotated", "no_animation_library", "no_animations",
            "jaw_animation_twice",
            "second_non_bone_animation", "no_clip_technique",
            "joints_accessor_count", "interpolation_accessor_count",
            "interpolation_accessor_stride", "weight_offset",
            "sampler_output_of_other_bone", "channel_of_other_bone", "joints_input_weights",
            "weight_input_bind_poses", "vertex_offset",
            "bind_pose_token", "bind_poses_array_count", "bind_shape_scaled",
            "bind_shape_short", "bind_shape_last_row", "bind_pose_last_row",
            "bind_poses_one_short", "bind_input_weights",
        ],
    )
    def test_tampered_arrays_are_tagged(self, compiled_model, pattern, repl):
        rig, clip, _ = compiled_model
        doc = write_collada(rig.mesh, rig.armature, clip)
        n_joints = int(re.search(r'"skin-joints-array" count="(\d+)"', doc)[1])
        n_positions = int(re.search(r'"mesh-positions-array" count="(\d+)"', doc)[1])
        sizes = {
            "n_weights": re.search(r'"skin-weights-array" count="(\d+)"', doc)[1],
            "n_joints": str(n_joints),
            "n_vertices": str(rig.mesh.n_vertices),
            "n_positions_plus_7": str(n_positions + 7),
            "n_joints_plus_3": str(n_joints + 3),
            "n_keys_plus_5": str(clip.n_keys + 5),
            "n_joints_minus_1": str(n_joints - 1),
            "n_bind_values_minus_16": str(16 * (n_joints - 1)),
        }
        doc, n = re.subn(pattern, repl.format(**sizes), doc, count=1)
        assert n == 1
        with pytest.raises(ParseError) as err:
            read_collada(doc)
        assert err.value.diagnostic().startswith("error:export:parse_error:")


# --- the markup path --------------------------------------------------------

_NUMBER_ARRAY = re.compile(r"<(?:float_array|p|vcount|v)[ >]")


def outcome(read, document):
    """The digest of every field `read` returns for `document`, or the
    exception it raises."""
    try:
        parts = read(document)
    except Exception as exc:
        return exc
    h = hashlib.sha256()
    for part in parts:
        _hash_fields(h, part)
    return h.hexdigest()


def message(result):
    """An `outcome`, with an exception as its type and message."""
    return (type(result).__name__, str(result)) if isinstance(result, Exception) else result


@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    """The text of the model.dae that `emarig compile` writes from a 1 x 60
    frame fixture corpus."""
    tmp = tmp_path_factory.mktemp("small")
    assert main(["fixture", "--out", str(tmp / "f"), "--frames", "60", "--sweeps", "1"]) == 0
    assert main(["compile", "--config", str(tmp / "f" / "config.cfg"), "--out", str(tmp / "b")]) == 0
    return (tmp / "b" / "model.dae").read_text(encoding="utf-8")


# Each is put into or around a number array's text, or, for the attributes,
# into its start tag.
_INJECTIONS = {
    "char_ref": "&#32;",
    "entity_ref": "&amp;",
    "undefined_entity": "&e;",
    "comment": "<!-- c -->",
    "cdata": "<![CDATA[ ]]>",
    "crlf": "\r\n",
    "cr": "\r",
    "vertical_tab": "\x0b",
    "control": "\x01",
    "cdata_end": "]]>",
    "commented_array": "<!-- <float_array>1 2</float_array> -->",
}
_ATTRIBUTES = {"gt_attribute": ' note="a>b"', "tag_attribute": ' note="<float_array>"'}
_KINDS = sorted(_INJECTIONS) + sorted(_ATTRIBUTES)
_SITES = ["start", "inside", "end", "before", "after"]
# The kinds that take a document out of the lexical subset that the reader
# takes, though the whole-document parse may read it.
_OUTSIDE_SUBSET = {
    "char_ref", "entity_ref", "comment", "cdata", "commented_array", "gt_attribute",
    "tag_attribute",
}


def injected(document, edits):
    """`document` with the `edit`s applied."""
    for at, text in sorted(edits, reverse=True):
        document = document[:at] + text + document[at:]
    return document


def edit(document, cut, kind, site, pad=""):
    """(position, text) that puts `kind` at `site` of the number array whose
    `_cut_arrays` entry is `cut`: a named site, or, for a position in its
    text, the first space at or after it. Attributes go into the start tag."""
    tag, lo, hi = cut
    if kind in _ATTRIBUTES:
        return lo - 1, _ATTRIBUTES[kind]
    if isinstance(site, int):
        at = document.find(" ", site, hi)
    else:
        at = {
            "start": lo,
            "end": hi,
            "before": document.rfind("<", 0, lo),
            "after": hi + len(f"</{tag}>"),
        }[site]
    return hi if at < 0 else at, pad + _INJECTIONS[kind] + pad


@st.composite
def injections(draw, document):
    """`document` with 1-3 injections at drawn sites of drawn arrays, and
    the set of their kinds."""
    cuts = list(_cut_arrays(document)[1].values())
    edits, kinds = [], set()
    for _ in range(draw(st.integers(1, 3))):
        cut = draw(st.sampled_from(cuts))
        kind = draw(st.sampled_from(_KINDS))
        site = draw(st.sampled_from(_SITES))
        if site == "inside":
            site = draw(st.integers(cut[1], cut[2]))
        edits.append(edit(document, cut, kind, site, draw(st.sampled_from(["", " "]))))
        kinds.add(kind)
    return injected(document, edits), kinds


def check_against_reference(document, kinds):
    """The reader's contract with the whole-document parse on `document`,
    which injections of `kinds` made; returns both outcomes."""
    got, want = outcome(read_collada, document), outcome(whole_document_read, document)
    if isinstance(got, str):  # accepted: the reference's fields, bit for bit
        assert got == want
    elif isinstance(want, str):  # refused, though the reference reads it
        assert isinstance(got, ParseError) and kinds & _OUTSIDE_SUBSET, (kinds, got)
    else:
        assert isinstance(got, EmarigError) and got.diagnostic().startswith("error:export:"), got
    if kinds <= {"crlf", "cr"}:  # inside the subset: the same outcome, message for message
        assert message(got) == message(want)
    return got, want


def refused_tagged(result):
    """Whether an `outcome` is a refusal tagged ``error:export:parse_error``."""
    return isinstance(result, ParseError) and result.diagnostic().startswith("error:export:parse_error:")


class TestMarkupPath:
    def test_writer_documents_are_cut_whole(self, monkeypatch, default_bundle, tmp_path):
        # expat sees the markup only, with every number array's text cut,
        # on the default model and a synth clip.
        clip = tmp_path / "clip.dae"
        assert main([
            "synth", "--bundle", str(default_bundle), "--request", GOLDEN_SYNTH_REQUEST,
            "--out", str(clip),
        ]) == 0
        parsed = []
        parse_xml = emarig.collada_io._parse_xml

        def spy(text):
            parsed.append(text)
            return parse_xml(text)

        monkeypatch.setattr(emarig.collada_io, "_parse_xml", spy)
        for path in (default_bundle / "model.dae", clip):
            document = path.read_text(encoding="utf-8")
            parsed.clear()
            read_collada(document)
            [markup] = parsed
            texts = re.findall(r"<(?:float_array|p|vcount|v)(?: [^>]*)?>([^<]*)<", markup)
            assert len(texts) == len(_NUMBER_ARRAY.findall(document)) >= 24
            assert all(t.startswith(_PLACEHOLDER) and t[1:].isdigit() for t in texts)
            assert len(markup) < 0.2 * len(document)

    @settings(max_examples=30, deadline=None, database=None)
    @given(data=st.data())
    def test_matches_whole_document_parse(self, small_model, data):
        check_against_reference(*data.draw(injections(small_model)))

    @pytest.mark.parametrize("kind", _KINDS)
    def test_each_injection_kind(self, small_model, kind):
        # One injection in the middle of the skin weights' text (an attribute:
        # in its start tag), so that each rule of the contract is met on
        # every run: the whole-document parse reads what XML allows there,
        # and the reader refuses whatever is outside the subset.
        lo = small_model.index(">", small_model.index('id="skin-weights-array"')) + 1
        hi = small_model.index("<", lo)
        at_middle = edit(small_model, ("float_array", lo, hi), kind, (lo + hi) // 2, " ")
        document = injected(small_model, [at_middle])
        got, want = check_against_reference(document, {kind})
        assert isinstance(got, str) if kind in ("crlf", "cr") else refused_tagged(got)
        if kind in ("comment", "cdata"):  # the decoded text is split, so it was not cut
            assert str(got) == "<float_array> text is not plain characters"
        xml_allows = {"crlf", "cr", "char_ref", "comment", "cdata", "commented_array", "gt_attribute"}
        assert isinstance(want, str) == (kind in xml_allows)

    def test_cut_in_a_comment(self, small_model):
        # The "<p>" in a comment of an ignored <p> starts a cut that the
        # comment's end falls into, so in the markup that comment runs on to
        # the "-->" of a later ignored <p> and hides the first triangle batch.
        # The whole-document parse reads the document; the reader finds that
        # cut in no element's text and refuses it.
        vertices = '<input semantic="POSITION" source="#mesh-positions" />'
        document = small_model.replace(vertices, vertices + "<p> <!-- <p> --> </p>", 1)
        document = document.replace("</triangles>", "</triangles><vertices><p><?x?> --> </p></vertices>", 1)
        assert isinstance(outcome(whole_document_read, document), str)
        assert refused_tagged(outcome(read_collada, document))

    @pytest.mark.parametrize(
        "array, text",
        [("skin-bind-poses", t) for t in ["\x01", "\x0b", "]]>", "&e;", "\ufffe", "\ud800", " \r\n"]]
        + [("skin-weights", t) for t in ["\x0b", "\x0c", "\x01", "&#32;"]],
    )
    def test_characters_xml_forbids(self, small_model, array, text):
        # In the bind poses or the weights, which both readers decode. Both
        # refuse a character XML forbids; the reader refuses the character
        # reference too, which the whole-document parse reads as a space, and
        # both read the CR LF alike.
        document, n = re.subn(f'(id="{array}-array"[^>]*>\\S+ )', lambda m: m[1] + text, small_model)
        assert n == 1
        got, want = outcome(read_collada, document), outcome(whole_document_read, document)
        if text == " \r\n":
            assert isinstance(got, str) and got == want
        else:
            assert refused_tagged(got)
            assert isinstance(want, str) if text == "&#32;" else refused_tagged(want)

    @pytest.mark.parametrize("text", ["1", "\x01"], ids=["number", "control"])
    def test_skipped_array_text(self, small_model, text):
        # A number array that the reader never decodes, here in a skin source
        # that no input names, must still be XML text.
        source = f'<source id="unused"><float_array id="unused-array" count="1">{text}</float_array></source>'
        document = small_model.replace('<skin source="#mesh">', '<skin source="#mesh">' + source, 1)
        assert document != small_model
        got = outcome(read_collada, document)
        assert got == outcome(read_collada, small_model) if text == "1" else refused_tagged(got)


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
# holds the markup (the document with its number arrays' texts cut out),
# its element tree and the decoded arrays; the arrays are decoded in place
# from the document, in slices. Writing holds the tree's text plus the
# joined document. The codec that parsed the whole text at once, kept every
# array text and concatenated the serialized document twice measured 4.6
# (read) and 4.8 (write) on this model.
READ_PEAK_PER_CHAR = 3.0
WRITE_PEAK_PER_CHAR = 3.0


@pytest.fixture(scope="module")
def default_model(default_bundle):
    """The text of the `emarig fixture` default (2 x 600 frames) model.dae."""
    return (default_bundle / "model.dae").read_text(encoding="utf-8")


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

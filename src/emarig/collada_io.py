"""COLLADA 1.4.1 subset writer and reader for the animated model.

The subset is the smallest document that carries a skinned, baked rig:
one geometry with per-group triangle batches, one skin controller whose
joints are the tongue bones plus rigid jaw/skull anchors, a joint node
hierarchy mirroring the armature tree, and per-node baked matrix samplers
with LINEAR interpolation on a shared time source. Stretch is baked into
the node matrices as anisotropic scale, so generic consumers replay the
volume-preserving deformation with no custom semantics.

Numbers are printed with 9 significant digits and element order is fixed,
so identical inputs produce byte-identical documents. Bone rest tails and
the clip timing, which plain COLLADA cannot carry, ride along in ``extra``
blocks under the ``emarig`` technique profile; the reader requires them.
"""

from __future__ import annotations

import functools
import re
import warnings
import xml.etree.ElementTree as ET
from types import SimpleNamespace
from xml.etree.ElementTree import Element, SubElement

import numpy as np

from .anim_db import AnimationClip
from .errors import BadNumber, InconsistentRig, NonMonotonic, ParseError, UnsupportedFeature
from .ik_solver import stretch_matrices
from .rig import GROUP_MANDIBLE, GROUP_MAXILLA, Armature, SkinnedMesh, groups_from_triangles
from .rotations import mat_to_quat, quat_to_mat, norm

NS = "http://www.collada.org/2005/11/COLLADASchema"
PROFILE = "emarig"
_TRANSFORM = [("TRANSFORM", "float4x4")]


# --- float text -------------------------------------------------------------------
#
# `_fmt_array` prints float64 values as the exact bytes of
# " ".join("%.9g" % x for x in values), a chunk at a time in numpy. Per value
# it finds the decimal exponent e and the 9-digit mantissa m (the value times
# 10**(8 - e), rounded), and looks up three 8-byte slots of ASCII padded with
# NUL: separator, sign and any "0.000" lead; digits 1-6 with the point; digits
# 7-9 with any "e+XX". The NULs are then dropped. The scaled value carries at
# most two roundings, so it is within 2**-22 of the exact product, and rint
# gives the correctly rounded mantissa unless the fraction is within 2**-20
# of one half. Such near-ties, exponents outside [_E_MIN, _E_MAX],
# subnormals, nan and infinities are printed by "%.9g" one at a time.

_E_MIN, _E_MAX = -36, 30
_NEAR_TIE = 0.5 - 2.0**-20
_CHUNK = 16384  # values per chunk, which bounds the temporaries


def _ascii_slots(texts) -> np.ndarray:
    """Each text as one little-endian uint64 of its bytes padded with NUL."""
    return np.frombuffer(b"".join(t.encode("ascii").ljust(8, b"\0") for t in texts), "<u8")


def _float_tables():
    # The value times 10**k, k = 8 - e, is a * mul[i] / div[i] * mul2[i] for
    # i = e - _E_MIN, with exact powers of ten: one rounding for |k| <= 22,
    # two up to k = 44.
    k = 8 - np.arange(_E_MIN, _E_MAX + 1)
    mul, div, mul2 = (
        np.array([float(10**n) for n in np.clip(j, 0, 22).tolist()]) for j in (k, -k, k - 22)
    )
    # Digit groups: group g (000-999) as c digits with a point after the q-th
    # (q = 0: none), at index 16 g + 4 c + q.
    groups = _ascii_slots(
        d[:q] + "." + d[q:c] if 1 <= q <= c else d[:c]
        for d in ("%03d" % g for g in range(1000))
        for c in range(4)
        for q in range(4)
    )
    trailing_zeros = np.array([3 - len(("%03d" % g).rstrip("0")) for g in range(1000)])
    # Per (e, s) with s the significant digits left after trailing zeros are
    # stripped (s = 0 for zero): each group's 4 c + q, the exponent, and the
    # lead for either sign.
    layout = np.zeros((3, len(k) * 10), np.intp)
    exponent, lead = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        fixed = -4 <= e < 9
        point = e + 1 if fixed and e >= 0 else int(not fixed)  # digits before the point
        zeros = "0." + "0" * (-e - 1) if fixed and e < 0 else ""
        for s in range(10):
            kept = max(s, point) if s else 0
            for j in range(3):
                q = point - 3 * j
                layout[j, (e - _E_MIN) * 10 + s] = 4 * min(max(kept - 3 * j, 0), 3) + (
                    q if 1 <= q <= 3 and kept > point else 0
                )
            exponent.append("" if fixed or not s else "e%+03d" % e)
            lead += [" " + zeros, " -" + zeros] if s else [" 0", " -0"]
    shift = np.uint64(32)
    return (
        mul, div, mul2, groups, groups << shift, trailing_zeros, layout,
        _ascii_slots(exponent) << shift, _ascii_slots(lead),
    )


(
    _MUL, _DIV, _MUL2, _GROUP, _GROUP_HI, _TRAILING_ZEROS, _LAYOUT, _EXPONENT_HI, _LEAD,
) = _float_tables()
# The last row of every 4x4 matrix the writer prints.
_MATRIX_TAIL = _ascii_slots([" 0 0 0 1"])[0]


def _decimal(x: np.ndarray) -> tuple:
    """Per value of the 1-D float64 `x`: the 9-digit mantissa m as a float
    (0 for zero), the exponent e as the index e - _E_MIN, and whether the
    value must be printed by "%.9g" instead (m and the index are then 0 and
    in range, but meaningless)."""
    a = np.abs(x)
    zero = a == 0
    regular = ~zero & (a < np.inf)
    a = np.where(regular, a, 1.0)
    top = _E_MAX - _E_MIN
    i = np.clip(np.floor(np.log10(a)).astype(np.intp) - _E_MIN, 0, top)
    p = a * _MUL[i] / _DIV[i] * _MUL2[i]
    off = np.flatnonzero((p < 1e8) | (p >= 1e9))  # log10 one off, or e out of range
    if len(off):
        i[off] = np.clip(i[off] + np.where(p[off] < 1e8, -1, 1), 0, top)
        io = i[off]
        p[off] = a[off] * _MUL[io] / _DIV[io] * _MUL2[io]
    m = np.rint(p)
    fallback = (np.abs(p - m) >= _NEAR_TIE) | (p < 1e8) | (p >= 1e9) | (~regular & ~zero)
    carry = m == 1e9
    m[carry] = 1e8
    i[carry] += 1
    fallback |= i > top
    m[zero | fallback] = 0
    np.minimum(i, top, out=i)
    return m, i, fallback


def _fmt_chunk(x: np.ndarray, tail_every: int) -> str:
    """The text of the 1-D float64 `x`, each value preceded by a space, with
    ``_MATRIX_TAIL`` after every `tail_every` values (0: never)."""
    m, i, fallback = _decimal(x)
    m = m.astype(np.int64)
    g0 = m // 1000000
    m -= g0 * 1000000
    g1 = m // 1000
    g2 = m - g1 * 1000
    tz = np.where(
        g2 != 0,
        _TRAILING_ZEROS[g2],
        3 + np.where(g1 != 0, _TRAILING_ZEROS[g1], 3 + _TRAILING_ZEROS[g0]),
    )
    key = i * 10 + (9 - tz)
    slots = [
        _LEAD[2 * key + np.signbit(x)],
        _GROUP[16 * g0 + _LAYOUT[0, key]] | _GROUP_HI[16 * g1 + _LAYOUT[1, key]],
        _GROUP[16 * g2 + _LAYOUT[2, key]] | _EXPONENT_HI[key],
    ]
    for j in np.flatnonzero(fallback).tolist():
        text = (" %.9g" % x[j]).encode("ascii").ljust(24, b"\0")
        for slot, word in zip(slots, np.frombuffer(text, "<u8")):
            slot[j] = word

    if tail_every:
        record = np.empty((len(x) // tail_every, 3 * tail_every + 1), "<u8")
        record[:, -1] = _MATRIX_TAIL
    else:
        tail_every = 1
        record = np.empty((len(x), 3), "<u8")
    for j, slot in enumerate(slots):
        record[:, j : 3 * tail_every : 3] = slot.reshape(-1, tail_every)
    return record.tobytes().translate(None, b"\0").decode("ascii")


def _fmt_array(values: np.ndarray, tail_every: int = 0) -> str:
    """`values` printed as " ".join("%.9g" % x for x in values.ravel()), with
    " 0 0 0 1" after every `tail_every` values (0: never)."""
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    step = _CHUNK - _CHUNK % tail_every if tail_every else _CHUNK
    texts = [_fmt_chunk(flat[lo : lo + step], tail_every) for lo in range(0, len(flat), step)]
    if texts:
        texts[0] = texts[0][1:]  # the separator before the first value
    return "".join(texts)


def _fmt_ints(values: np.ndarray) -> str:
    flat = np.asarray(values).ravel().tolist()
    return " ".join(["%d"] * len(flat)) % tuple(flat)


def _fmt_matrices(rows: np.ndarray) -> str:
    """Row-major 4x4 matrices from their top three rows (..., 3, 4)."""
    return _fmt_array(rows, 12)


def _finite(values, what: str):
    """`values`, which must be finite, since read_collada rejects nan and
    infinities: otherwise BadNumber."""
    if not np.isfinite(values).all():
        raise BadNumber(f"{what} is not finite", module="export")
    return values


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.\-]", "_", name)


def _affine_rows(A: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Stack (..., 3, 3) + (..., 3) into the top three 4x4 rows (..., 3, 4)."""
    return np.concatenate([A, t[..., None]], axis=-1)


def _bone_pose(armature: Armature, clip: AnimationClip, k: int, inverse: bool) -> np.ndarray:
    """Bone k's pose map A = R S of ``_pose_affines`` over the clip, or with
    `inverse` its inverse S^-1 R^T, as (n_keys, 3, 3)."""
    bone = slice(k, k + 1)  # a bone axis of length 1: the all-bones arithmetic, bit for bit
    R = quat_to_mat(clip.quats[:, bone])
    s = clip.stretches[:, bone]
    dirs = armature.rest_dirs[bone]
    if inverse:
        return (stretch_matrices(dirs, 1.0 / s, np.sqrt(s)) @ np.swapaxes(R, -1, -2))[:, 0]
    return (R @ stretch_matrices(dirs, s, 1.0 / np.sqrt(s)))[:, 0]


def _local_rows(armature: Armature, clip: AnimationClip, k: int) -> np.ndarray:
    """Bone k's node matrices over the clip, relative to its parent's pose,
    as top three rows (n_keys, 3, 4). One bone at a time, which bounds the
    temporaries to one bone's."""
    A = _bone_pose(armature, clip, k, inverse=False)
    p = armature.parents[k]
    if p < 0:
        return _affine_rows(A, clip.heads[:, k] - armature.root_point)
    A_inv_p = _bone_pose(armature, clip, p, inverse=True)
    rows = np.empty((clip.n_keys, 3, 4))
    rows[:, :, :3] = A_inv_p @ A
    rows[:, :, 3] = np.einsum("fij,fj->fi", A_inv_p, clip.heads[:, k] - clip.heads[:, p])
    return rows


def _float_source(parent: Element, sid: str, text: str, count: int, params) -> None:
    """A <source> of `count` elements of `params`, printed as `text`."""
    stride = sum(1 if p[1] != "float4x4" else 16 for p in params)
    src = SubElement(parent, "source", id=sid)
    arr = SubElement(src, "float_array", id=f"{sid}-array", count=str(count * stride))
    arr.text = text
    tc = SubElement(src, "technique_common")
    acc = SubElement(tc, "accessor", source=f"#{sid}-array", count=str(count), stride=str(stride))
    for name, typ in params:
        SubElement(acc, "param", type=typ, name=name)


def _name_source(parent: Element, sid: str, text: str, count: int, param_name: str) -> None:
    src = SubElement(parent, "source", id=sid)
    arr = SubElement(src, "Name_array", id=f"{sid}-array", count=str(count))
    arr.text = text
    tc = SubElement(src, "technique_common")
    acc = SubElement(tc, "accessor", source=f"#{sid}-array", count=str(count), stride="1")
    SubElement(acc, "param", name=param_name, type="name")


def write_collada(mesh: SkinnedMesh, armature: Armature, clip: AnimationClip) -> str:
    """Serialize mesh, armature and a baked clip to document text.

    Refuses a value that is not finite (BadNumber) and key times that print
    alike at 9 significant digits (NonMonotonic), since read_collada would
    reject the document."""
    times_text = _fmt_array(_finite(clip.times, "a key time"))
    if (np.diff(_numbers(times_text)) <= 0).any():
        raise NonMonotonic(
            "key times do not stay strictly increasing at 9 significant digits",
            module="export",
        )
    K = armature.n_bones
    if (mesh.weight_bones >= K).any():
        raise InconsistentRig("skin weights reference bones outside the armature")
    if len(set(armature.bone_names)) != K:
        raise InconsistentRig("bone names must be unique")
    if tuple(clip.bone_names) != tuple(armature.bone_names):
        raise InconsistentRig("clip channels do not match the armature bones")

    bone_sids = [_sanitize(n) for n in armature.bone_names]
    if len(set(bone_sids)) != K:
        raise InconsistentRig("bone names collide after id sanitization")
    root_sid = _sanitize(armature.root_name)
    jaw_sid = "Jaw"
    skull_sid = "Skull"
    while jaw_sid in bone_sids or jaw_sid == root_sid:
        jaw_sid += "_"
    while skull_sid in bone_sids or skull_sid == root_sid:
        skull_sid += "_"
    joint_sids = bone_sids + [jaw_sid, skull_sid]

    root = Element("COLLADA", xmlns=NS, version="1.4.1")
    asset = SubElement(root, "asset")
    contributor = SubElement(asset, "contributor")
    SubElement(contributor, "authoring_tool").text = "emarig"
    SubElement(asset, "unit", meter="0.01", name="centimeter")
    SubElement(asset, "up_axis").text = "Z_UP"

    # geometry -----------------------------------------------------------
    lg = SubElement(root, "library_geometries")
    geom = SubElement(lg, "geometry", id="mesh", name="mesh")
    m = SubElement(geom, "mesh")
    xyz = [("X", "float"), ("Y", "float"), ("Z", "float")]
    positions = _fmt_array(_finite(mesh.vertices, "a mesh vertex"))
    _float_source(m, "mesh-positions", positions, mesh.n_vertices, xyz)
    verts = SubElement(m, "vertices", id="mesh-vertices")
    SubElement(verts, "input", semantic="POSITION", source="#mesh-positions")

    for name, tris in mesh.triangle_batches():
        material = {} if name is None else {"material": name}
        t = SubElement(m, "triangles", material, count=str(len(tris)))
        SubElement(t, "input", semantic="VERTEX", source="#mesh-vertices", offset="0")
        SubElement(t, "p").text = _fmt_ints(tris)

    # skin controller ------------------------------------------------------
    lc = SubElement(root, "library_controllers")
    controller = SubElement(lc, "controller", id="skin")
    skin = SubElement(controller, "skin", source="#mesh")
    SubElement(skin, "bind_shape_matrix").text = _fmt_matrices(np.eye(3, 4))
    _name_source(skin, "skin-joints", " ".join(joint_sids), len(joint_sids), "JOINT")

    inv_binds = np.tile(np.eye(3, 4), (K + 2, 1, 1))
    inv_binds[:K, :, 3] = -armature.heads
    inv_binds_text = _fmt_matrices(_finite(inv_binds, "a bone head"))
    _float_source(skin, "skin-bind-poses", inv_binds_text, K + 2, _TRANSFORM)

    # Per vertex, (joint, weight index) pairs: its bone influences, whose
    # weights get indices 1.. in vertex then slot order, or else its Jaw
    # (K) or Skull (K + 1) anchor with the constant weight 0.
    active = mesh.weight_bones >= 0
    anchor = np.full(mesh.n_vertices, -1)
    anchor[mesh.group_indices(GROUP_MANDIBLE)] = K
    anchor[mesh.group_indices(GROUP_MAXILLA)] = K + 1
    used = np.column_stack([active, ~active.any(axis=1) & (anchor >= 0)])
    weight_index = np.zeros(used.shape, dtype=np.int64)
    weight_index[:, :4][active] = np.arange(1, active.sum() + 1)
    pair_joints = np.column_stack([mesh.weight_bones, anchor])[used]
    weights = np.concatenate([[1.0], mesh.weight_values[active]])
    weights_text = _fmt_array(_finite(weights, "a skin weight"))
    _float_source(skin, "skin-weights", weights_text, len(weights), [("WEIGHT", "float")])
    joints = SubElement(skin, "joints")
    SubElement(joints, "input", semantic="JOINT", source="#skin-joints")
    SubElement(joints, "input", semantic="INV_BIND_MATRIX", source="#skin-bind-poses")
    vw = SubElement(skin, "vertex_weights", count=str(mesh.n_vertices))
    SubElement(vw, "input", semantic="JOINT", source="#skin-joints", offset="0")
    SubElement(vw, "input", semantic="WEIGHT", source="#skin-weights", offset="1")
    SubElement(vw, "vcount").text = _fmt_ints(used.sum(axis=1))
    SubElement(vw, "v").text = _fmt_ints(np.column_stack([pair_joints, weight_index[used]]))

    # animations -----------------------------------------------------------
    la = SubElement(root, "library_animations")

    # Every animation shares the clip's time source and interpolation names.
    interp_text = " ".join(["LINEAR"] * clip.n_keys)

    def emit_animation(node_sid: str, rows: np.ndarray):
        aid = f"anim-{node_sid}"
        anim = SubElement(la, "animation", id=aid)
        _float_source(anim, f"{aid}-input", times_text, clip.n_keys, [("TIME", "float")])
        rows_text = _fmt_matrices(_finite(rows, f"a {node_sid} key matrix"))
        _float_source(anim, f"{aid}-output", rows_text, clip.n_keys, _TRANSFORM)
        _name_source(anim, f"{aid}-interp", interp_text, clip.n_keys, "INTERPOLATION")
        sampler = SubElement(anim, "sampler", id=f"anim-{node_sid}-sampler")
        SubElement(sampler, "input", semantic="INPUT", source=f"#anim-{node_sid}-input")
        SubElement(sampler, "input", semantic="OUTPUT", source=f"#anim-{node_sid}-output")
        SubElement(
            sampler, "input", semantic="INTERPOLATION", source=f"#anim-{node_sid}-interp"
        )
        SubElement(
            anim,
            "channel",
            source=f"#anim-{node_sid}-sampler",
            target=f"node-{node_sid}/transform",
        )

    # A matrix that is not finite is refused, with no warning on the way.
    with np.errstate(all="ignore"):
        for k, sid in enumerate(bone_sids):
            emit_animation(sid, _local_rows(armature, clip, k))
        emit_animation(jaw_sid, _affine_rows(quat_to_mat(clip.jaw_quats), clip.jaw_translations))

    # visual scene -----------------------------------------------------------
    lvs = SubElement(root, "library_visual_scenes")
    scene = SubElement(lvs, "visual_scene", id="Scene", name="Scene")

    root_node = SubElement(
        scene, "node", id=f"node-{root_sid}", name=root_sid, sid=root_sid, type="JOINT"
    )
    mat = SubElement(root_node, "matrix", sid="transform")
    mat.text = _fmt_matrices(_finite(_affine_rows(np.eye(3), armature.root_point), "the root"))

    node_elems = {-1: root_node}
    for k, sid in enumerate(bone_sids):
        parent = node_elems[int(armature.parents[k])]
        node = SubElement(
            parent, "node", id=f"node-{sid}", name=sid, sid=sid, type="JOINT"
        )
        m_el = SubElement(node, "matrix", sid="transform")
        p = int(armature.parents[k])
        parent_head = armature.root_point if p < 0 else armature.heads[p]
        offset = _affine_rows(np.eye(3), armature.heads[k] - parent_head)
        m_el.text = _fmt_matrices(_finite(offset, f"bone {sid}'s offset"))
        extra = SubElement(node, "extra")
        tech = SubElement(extra, "technique", profile=PROFILE)
        SubElement(tech, "tail").text = _fmt_array(_finite(armature.tails[k], f"bone {sid}'s tail"))
        length = _finite(armature.rest_lengths[k], f"bone {sid}'s rest length")
        SubElement(tech, "rest_length").text = _fmt_array(length)
        node_elems[k] = node

    for sid in (jaw_sid, skull_sid):
        n = SubElement(scene, "node", id=f"node-{sid}", name=sid, sid=sid, type="JOINT")
        SubElement(n, "matrix", sid="transform").text = _fmt_matrices(np.eye(3, 4))

    model = SubElement(scene, "node", id="model", name="model")
    ic = SubElement(model, "instance_controller", url="#skin")
    SubElement(ic, "skeleton").text = f"#node-{root_sid}"

    s_extra = SubElement(scene, "extra")
    s_tech = SubElement(s_extra, "technique", profile=PROFILE)
    SubElement(s_tech, "rate_hz").text = _fmt_array(_finite(clip.rate_hz, "the clip rate"))
    SubElement(s_tech, "duration").text = repr(float(_finite(clip.duration, "the clip duration")))

    sc = SubElement(root, "scene")
    SubElement(sc, "instance_visual_scene", url="#Scene")

    ET.indent(root, space="  ")
    # The serializer's pieces, the array texts among them, are joined once.
    parts = ['<?xml version="1.0" encoding="utf-8"?>\n']
    ET.ElementTree(root).write(SimpleNamespace(write=parts.append), encoding="unicode")
    parts.append("\n")
    return "".join(parts)


# --- reader ---------------------------------------------------------------------


def _strip_ns(tag: str) -> str:
    return tag.split("}", 1)[1] if tag.startswith("{") else tag


def _local(elem: Element) -> str:
    return _strip_ns(elem.tag)


def _children(elem: Element, name: str) -> list[Element]:
    return [c for c in elem if _local(c) == name]


def _child(elem: Element, name: str) -> Element:
    """The first `name` child of `elem`, which the subset requires."""
    found = _children(elem, name)
    if not found:
        raise ParseError(f"<{_local(elem)}> has no <{name}>", module="export")
    return found[0]


def _annotation(elem: Element, name: str) -> Element:
    """The first `name` in an emarig <technique> of `elem`'s <extra> blocks,
    which the subset requires."""
    for extra in _children(elem, "extra"):
        for tech in _children(extra, "technique"):
            if tech.get("profile") == PROFILE and _children(tech, name):
                return _children(tech, name)[0]
    raise ParseError(f"<{_local(elem)}> has no {PROFILE} <{name}>", module="export")


_INT64 = np.iinfo(np.int64)
# A sign that no digit follows, which ``np.fromstring`` reads as 0 or joins
# to the next number.
_LONE_SIGN = re.compile(r"[+-](?![0-9])")
# Characters per ``np.loadtxt`` call: it holds 6-7 bytes per character.
_FLOAT_SLICE = 1 << 16
# Whitespace to ``np.loadtxt`` (as to ``str.isspace``), but not to C's isspace.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _floats(text: str) -> np.ndarray:
    """The float64 numbers of `text` as ``np.fromstring(text, sep=" ")``
    reads them, bit for bit, decoded by ``np.loadtxt`` in slices cut at a
    space, each slice one row.

    ``np.loadtxt`` takes non-ASCII spaces and ``_SEPARATORS`` for
    whitespace, so text holding them raises ValueError; it ends a row at CR
    and LF, so they become spaces; and it warns on a row with no number, so
    a slice of whitespace only is skipped."""
    if not text.isascii() or any(c in text for c in _SEPARATORS):
        raise ValueError
    pieces = []
    lo = 0
    while lo < len(text):
        cut = text.find(" ", lo + _FLOAT_SLICE)
        cut = len(text) if cut < 0 else cut
        piece = text[lo:cut].replace("\n", " ").replace("\r", " ")
        if not piece.isspace():
            pieces.append(np.loadtxt([piece], dtype=np.float64, comments=None, ndmin=1))
        lo = cut
    return np.concatenate(pieces)


def _numbers(text: str | None, dtype=np.float64) -> np.ndarray:
    """The numbers of `text`, separated by ASCII whitespace.

    Floats must be finite; integers are ASCII digits with an optional sign,
    inside int64. Floats are decoded by ``_floats`` and integers by
    ``np.fromstring``, which gives ``[-1.]`` for blank text, and raises
    (numpy 2) or warns and returns a prefix (numpy 1) on text it cannot
    read to the end. It saturates integers past int64 in both directions to
    the int64 maximum, so both int64 limits are refused.
    """
    if not text or text.isspace():
        return np.empty(0, dtype)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            if dtype is np.float64:
                values = _floats(text)
            else:
                values = np.fromstring(text, dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        raise ParseError(f"bad {np.dtype(dtype)} in array text", module="export") from None
    if dtype is np.float64:
        if not np.isfinite(values).all():
            raise ParseError("non-finite number in array text", module="export")
    elif (
        ("-" in text or "+" in text) and _LONE_SIGN.search(text)
    ) or ((values == _INT64.max) | (values == _INT64.min)).any():
        raise ParseError("bad int64 in array text", module="export")
    return values


def _take_text(elem: Element) -> str | None:
    """`elem`'s text, which is dropped from the tree: the reader decodes each
    array text once, so the tree's text shrinks as the arrays grow."""
    text, elem.text = elem.text, None
    return text


def _values(elem: Element, n: int) -> np.ndarray:
    """The `n` finite numbers that `elem` must hold."""
    values = _numbers(elem.text)
    if values.shape != (n,):
        raise ParseError(f"<{_local(elem)}> must hold {n} finite numbers", module="export")
    return values


def _rows(values: np.ndarray, elem: Element, width: int) -> np.ndarray:
    """`values` as (count, width) rows, count being the ``count`` of `elem`."""
    count = _numbers(elem.get("count"), np.int64)
    if count.shape != (1,) or len(values) != count[0] * width:
        raise ParseError(f"<{_local(elem)}> count does not match its array", module="export")
    return values.reshape(-1, width)


def _source_rows(src: Element, width: int, numbers=_numbers) -> np.ndarray:
    """A <source>'s float_array as rows, checked against its accessor."""
    accessor = _child(_child(src, "technique_common"), "accessor")
    if accessor.get("stride") != str(width):
        raise ParseError(f"source {src.get('id')!r} needs stride {width}", module="export")
    return _rows(numbers(_take_text(_child(src, "float_array"))), accessor, width)


def _affine(matrices: np.ndarray, what: str) -> np.ndarray:
    """`matrices` (..., 4, 4), each of which must end in the row 0 0 0 1."""
    if not (matrices[..., 3, :] == (0.0, 0.0, 0.0, 1.0)).all():
        raise ParseError(f"{what} must end in the row 0 0 0 1", module="export")
    return matrices


def _translation(elem: Element) -> np.ndarray:
    """The offset of a node <matrix>, which must be a pure translation."""
    m = _affine(_values(elem, 16).reshape(4, 4), "a node <matrix>")
    if not (m[:3, :3] == np.eye(3)).all():
        raise ParseError("a node <matrix> must not rotate or scale", module="export")
    return m[:3, 3]


def _decompose_world(world: np.ndarray, armature: Armature, k: int) -> tuple:
    """Quaternions (n, 4), stretches (n,) and tails (n, 3) of bone k's world
    matrices (n, 4, 4)."""
    bone = slice(k, k + 1)  # a bone axis of length 1: the all-bones arithmetic, bit for bit
    dirs = armature.rest_dirs[bone]
    A = np.ascontiguousarray(world[:, None, :3, :3])
    s = norm(np.einsum("fkij,kj->fki", A, dirs))
    R = A @ stretch_matrices(dirs, 1.0 / s, np.sqrt(s))
    offset = armature.tails[bone] - armature.heads[bone]
    tails = world[:, None, :3, 3] + np.einsum("fkij,kj->fki", A, offset)
    return mat_to_quat(R)[:, 0], s[:, 0], tails[:, 0]


def _bone_channels(locals_: list, armature: Armature) -> tuple:
    """Heads, quaternions, stretches and tails over the keys, from each
    bone's local matrices (n, 4, 4) in `locals_`, which it empties.

    Bone by bone in preorder: a bone's world matrix, its parent's times its
    local, is decomposed at once and kept only until its last child is
    composed, and each local is dropped once used. So no (n, K, 4, 4)
    array is built, and the channels grow only as the locals shrink."""
    base = np.eye(4)
    base[:3, 3] = armature.root_point
    last_child = {int(p): k for k, p in enumerate(armature.parents)}
    worlds = {}
    per_bone = []
    for k, p in enumerate(armature.parents.tolist()):
        world = (base if p < 0 else worlds[p]) @ locals_[k]
        locals_[k] = None
        if p >= 0 and last_child[p] == k:
            del worlds[p]
        if k in last_child:
            worlds[k] = world
        per_bone.append((world[:, :3, 3].copy(), *_decompose_world(world, armature, k)))
    return tuple(np.stack(channel, axis=1) for channel in zip(*per_bone))


_SLICE = 1 << 20  # characters per XMLParser.feed


def _parse_xml(document: str) -> Element:
    """The element tree of `document`, fed to the parser in slices so that it
    never copies the whole document; its buffer is freed on return."""
    parser = ET.XMLParser()
    try:
        for lo in range(0, len(document), _SLICE):
            parser.feed(document[lo : lo + _SLICE])
        return parser.close()
    except ET.ParseError as exc:
        raise ParseError(f"malformed XML: {exc}", module="export") from None


_KNOWN_LIBRARIES = {
    "asset",
    "library_geometries",
    "library_controllers",
    "library_animations",
    "library_visual_scenes",
    "scene",
    "extra",
}


def read_collada(document: str) -> tuple[SkinnedMesh, Armature, AnimationClip]:
    """Parse a document produced by write_collada (subset only).

    Raises ParseError on malformed XML, a missing required element (the
    animations, with exactly one jaw channel, and the clip's rate_hz and
    duration among them) or a clip that AnimationClip rejects (key times
    not strictly increasing), and UnsupportedFeature on any element outside
    the written subset.
    """
    root = _parse_xml(document)
    if _local(root) != "COLLADA":
        raise ParseError("not a COLLADA document", module="export")
    for child in root:
        if _local(child) not in _KNOWN_LIBRARIES:
            raise UnsupportedFeature(f"unsupported element <{_local(child)}>")

    # geometry
    lg = _children(root, "library_geometries")
    if not lg or not _children(lg[0], "geometry"):
        raise UnsupportedFeature("document has no geometry")
    mesh_el = _children(_children(lg[0], "geometry")[0], "mesh")
    if not mesh_el:
        raise UnsupportedFeature("geometry without <mesh>")
    mesh_el = mesh_el[0]
    for child in mesh_el:
        if _local(child) not in ("source", "vertices", "triangles"):
            raise UnsupportedFeature(f"unsupported geometry element <{_local(child)}>")
    positions = _source_rows(_child(mesh_el, "source"), 3)

    batches = []
    materials = []
    for tri_el in _children(mesh_el, "triangles"):
        inputs = _children(tri_el, "input")
        if len(inputs) != 1 or inputs[0].get("semantic") != "VERTEX":
            raise UnsupportedFeature("triangles must carry a single VERTEX input")
        batches.append(_rows(_numbers(_take_text(_child(tri_el, "p")), np.int64), tri_el, 3))
        materials.append(tri_el.get("material"))
    tris = np.concatenate([np.empty((0, 3), np.int64)] + batches)
    if ((tris < 0) | (tris >= len(positions))).any():
        raise ParseError("triangle vertex index out of range", module="export")
    tris = tris.astype(np.int32)
    group_arrays = groups_from_triangles(
        tris, np.repeat(np.array(materials, dtype=object), [len(b) for b in batches])
    )

    # skin
    lc = _children(root, "library_controllers")
    if not lc:
        raise UnsupportedFeature("document has no skin controller")
    skin = _child(_child(lc[0], "controller"), "skin")
    joint_names: list[str] = []
    weights_arr = np.empty(0)
    for s in _children(skin, "source"):
        name_arr = _children(s, "Name_array")
        if name_arr and "joints" in (s.get("id") or ""):
            joint_names = (name_arr[0].text or "").split()
        if _children(s, "float_array") and "weights" in (s.get("id") or ""):
            weights_arr = _source_rows(s, 1)[:, 0]

    vw = _child(skin, "vertex_weights")
    vcount = _rows(_numbers(_take_text(_child(vw, "vcount")), np.int64), vw, 1)[:, 0]
    if len(vcount) != len(positions):
        raise ParseError("<vertex_weights> count is not the vertex count", module="export")
    v = _numbers(_take_text(_child(vw, "v")), np.int64)

    # scene hierarchy
    lvs = _children(root, "library_visual_scenes")
    if not lvs or not _children(lvs[0], "visual_scene"):
        raise UnsupportedFeature("document has no visual scene")
    vscene = _children(lvs[0], "visual_scene")[0]

    skeleton_root_id = None
    for node in vscene.iter():
        if _local(node) == "skeleton":
            skeleton_root_id = (node.text or "").lstrip("#")
    if skeleton_root_id is None:
        raise UnsupportedFeature("no skeleton reference in the scene")

    def find_node(elem, node_id):
        for n in elem.iter():
            if _local(n) == "node" and n.get("id") == node_id:
                return n
        return None

    root_node = find_node(vscene, skeleton_root_id)
    if root_node is None:
        raise ParseError(f"skeleton root {skeleton_root_id!r} not found", module="export")
    root_name = root_node.get("sid") or root_node.get("name") or "Root"
    root_point = _translation(_child(root_node, "matrix"))

    bone_names: list[str] = []
    parents: list[int] = []
    offsets: list[np.ndarray] = []
    tails: list[np.ndarray] = []

    def walk(elem: Element, parent_idx: int):
        for child in _children(elem, "node"):
            if child.get("type") != "JOINT":
                continue
            sid = child.get("sid") or child.get("name")
            k = len(bone_names)
            bone_names.append(sid)
            parents.append(parent_idx)
            offsets.append(_translation(_child(child, "matrix")))
            tails.append(_values(_annotation(child, "tail"), 3))
            walk(child, k)

    walk(root_node, -1)
    K = len(bone_names)
    if K == 0:
        raise UnsupportedFeature("skeleton has no bone joints")

    heads = np.empty((K, 3))
    for k in range(K):
        p = parents[k]
        base = root_point if p < 0 else heads[p]
        heads[k] = base + offsets[k]
    tails_arr = np.asarray(tails)
    deltas = tails_arr - heads
    rest_lengths = np.sqrt(np.sum(deltas * deltas, axis=-1))
    armature = Armature(
        bone_names=tuple(bone_names),
        parents=np.array(parents, dtype=np.int32),
        heads=heads,
        tails=tails_arr,
        rest_lengths=rest_lengths,
        rest_dirs=deltas / rest_lengths[:, None],
        root_point=root_point,
        root_name=root_name,
    )

    # Weights back onto the mesh: influences of joints that are no bone
    # (the anchors) are dropped, the rest renormalized per vertex.
    joint_bone = np.array([bone_names.index(n) if n in bone_names else -1 for n in joint_names])
    if (vcount < 0).any() or len(v) != 2 * vcount.sum():
        raise ParseError("<v> does not hold one index pair per <vcount>", module="export")
    joint, index = v.reshape(-1, 2).T
    if ((joint < 0) | (joint >= len(joint_bone)) | (index < 0) | (index >= len(weights_arr))).any():
        raise ParseError("<v> has a joint or weight index out of range", module="export")
    keep = joint_bone[joint] >= 0
    vertex = np.repeat(np.arange(len(vcount)), vcount)[keep]
    slot = np.arange(len(vertex)) - np.searchsorted(vertex, vertex)  # rank within vertex
    if (slot >= 4).any():
        raise UnsupportedFeature("more than 4 bone influences per vertex")
    weight_bones = np.full((len(positions), 4), -1, dtype=np.int32)
    weight_values = np.zeros((len(positions), 4))
    weight_bones[vertex, slot] = joint_bone[joint[keep]]
    weight_values[vertex, slot] = weights_arr[index[keep]]
    weighted = weight_bones[:, 0] >= 0
    weight_values[weighted] /= weight_values[weighted].sum(axis=1, keepdims=True)
    mesh = SkinnedMesh(
        vertices=positions,
        triangles=tris,
        groups=group_arrays,
        weight_bones=weight_bones,
        weight_values=weight_values,
    )

    # animation channels
    la = _children(root, "library_animations")
    if not la:
        raise ParseError("document has no <library_animations>", module="export")
    channels: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    # The animations share one time-source text: parse it once.
    time_numbers = functools.cache(_numbers)
    for anim in _children(la[0], "animation"):
        chan = _child(anim, "channel")
        target = (chan.get("target") or "").split("/")[0]
        times = None
        mats = None
        for s in _children(anim, "source"):
            sid = s.get("id") or ""
            fa = _children(s, "float_array")
            na = _children(s, "Name_array")
            if fa and sid.endswith("-input"):
                times = _source_rows(s, 1, time_numbers)[:, 0]
            elif fa and sid.endswith("-output"):
                mats = _affine(_source_rows(s, 16).reshape(-1, 4, 4), f"source {sid!r}")
            elif na and sid.endswith("-interp"):
                kinds = set((na[0].text or "").split())
                if kinds - {"LINEAR"}:
                    raise UnsupportedFeature(
                        f"unsupported interpolation {sorted(kinds - {'LINEAR'})}"
                    )
        if times is None or mats is None:
            raise UnsupportedFeature("animation without matrix sampler")
        if target in channels:
            raise ParseError(f"two animations target {target!r}", module="export")
        channels[target] = (times, mats)
    if not channels:
        raise ParseError("<library_animations> has no <animation>", module="export")

    ref_times = next(iter(channels.values()))[0]
    for times, _ in channels.values():
        if len(times) != len(ref_times) or not np.array_equal(times, ref_times):
            raise UnsupportedFeature("animations must share one time source")

    locals_ = []
    for sid in bone_names:
        key = f"node-{sid}"
        if key not in channels:
            raise UnsupportedFeature(f"bone {sid!r} has no animation channel")
        locals_.append(channels[key][1])
    # The bones' matrices are in `locals_` now; what is left is the jaw's.
    for sid in bone_names:
        channels.pop(f"node-{sid}", None)
    if len(channels) != 1:
        raise ParseError(f"expected one jaw animation, found {len(channels)}", module="export")
    jaw_m = channels.popitem()[1][1]
    # A copy, so the clip does not keep `jaw_m` alive.
    jaw_quats = mat_to_quat(jaw_m[:, :3, :3])
    jaw_trans = np.ascontiguousarray(jaw_m[:, :3, 3])
    del jaw_m
    heads_t, quats, stretches, tails_t = _bone_channels(locals_, armature)

    rate = float(_values(_annotation(vscene, "rate_hz"), 1)[0])
    duration = float(_values(_annotation(vscene, "duration"), 1)[0])
    if not (rate > 0 and duration > 0):
        raise ParseError("clip rate and duration must be > 0", module="export")

    try:
        clip = AnimationClip(
            rate_hz=rate,
            bone_names=tuple(bone_names),
            times=ref_times,
            quats=quats,
            heads=heads_t,
            stretches=stretches,
            tails=tails_t,
            jaw_quats=jaw_quats,
            jaw_translations=jaw_trans,
            duration=duration,
        )
    except ValueError as exc:
        raise ParseError(str(exc), module="export") from None
    return mesh, armature, clip

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

FLOAT_DIGITS = 9  # significant digits of every float printed: the 9 of "%.9g"
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
        text = (" %.*g" % (FLOAT_DIGITS, x[j])).encode("ascii").ljust(24, b"\0")
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


def _fmt_chunks(values: np.ndarray, tail_every: int = 0) -> list[str]:
    """The text of `_fmt_array` as its chunk texts, in order."""
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    step = _CHUNK - _CHUNK % tail_every if tail_every else _CHUNK
    texts = [_fmt_chunk(flat[lo : lo + step], tail_every) for lo in range(0, len(flat), step)]
    if texts:
        texts[0] = texts[0][1:]  # the separator before the first value
    return texts


def _fmt_array(values: np.ndarray, tail_every: int = 0) -> str:
    """`values` printed as " ".join("%.9g" % x for x in values.ravel()), with
    " 0 0 0 1" after every `tail_every` values (0: never; 12 prints row-major
    4x4 matrices from their top three rows)."""
    return "".join(_fmt_chunks(values, tail_every))


# --- integer text ---------------------------------------------------------------
#
# `_fmt_ints` prints each value as its 3-digit groups from `_GROUP`'s slots,
# one 4-byte slot per group, right-aligned to the largest value's groups:
# inner groups with their leading zeros, the leading group without them, and
# NUL where a value has no group. Index g + 1000 picks inner group g, index g
# the leading one (g * 10**(3 - c) as its first c digits); 0 is no group.

_INT_GROUPS = np.concatenate([
    _GROUP[[16 * g * 10 ** (3 - len(str(g))) + 4 * len(str(g)) for g in range(1000)]],
    _GROUP[16 * np.arange(1000) + 12],
]).astype("<u4")
_INT_GROUPS[0] = 0


def _fmt_ints(values: np.ndarray) -> str:
    """The non-negative integers `values` printed as
    " ".join(map(str, values.ravel()))."""
    flat = np.asarray(values, dtype=np.int64).ravel()
    if not len(flat):
        return ""
    if flat.min() < 0:
        raise ValueError("only non-negative integers are printed")
    width = -(-len(str(flat.max())) // 3)
    record = np.empty((len(flat), width + 1), "<u4")
    record[:, 0] = ord(" ")
    record[0, 0] = 0  # no separator before the first value
    rest = flat
    for j in range(width, 0, -1):
        rest, group = np.divmod(rest, 1000)
        record[:, j] = _INT_GROUPS[group + 1000 * (rest > 0)]
    record[flat == 0, width] = ord("0")
    return record.tobytes().translate(None, b"\0").decode("ascii")


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


def _bone_pose(armature: Armature, clip: AnimationClip, k: int, inverse: bool) -> tuple:
    """Bone k's pose map A = R S of ``_pose_affines`` over the clip and, with
    `inverse`, its inverse S^-1 R^T (else None), each (n_keys, 3, 3), from
    one rotation R."""
    bone = slice(k, k + 1)  # a bone axis of length 1: the all-bones arithmetic, bit for bit
    R = quat_to_mat(clip.quats[:, bone])
    s = clip.stretches[:, bone]
    dirs = armature.rest_dirs[bone]
    A = (R @ stretch_matrices(dirs, s, 1.0 / np.sqrt(s)))[:, 0]
    if not inverse:
        return A, None
    return A, (stretch_matrices(dirs, 1.0 / s, np.sqrt(s)) @ np.swapaxes(R, -1, -2))[:, 0]


def _local_rows(
    armature: Armature, clip: AnimationClip, k: int, inverses: dict | None = None
) -> np.ndarray:
    """Bone k's node matrices over the clip, relative to its parent's pose,
    as top three rows (n_keys, 3, 4). One bone at a time, which bounds the
    temporaries to one bone's.

    `inverses` carries inverse poses from bone to bone when the bones are
    written in order: bone k's is kept in it until its last child is
    written, so each is computed once. A parent's inverse pose that it
    lacks is computed here."""
    inverses = {} if inverses is None else inverses
    parents = armature.parents.tolist()
    last_child = {p: j for j, p in enumerate(parents)}
    A, A_inv = _bone_pose(armature, clip, k, inverse=k in last_child)
    if A_inv is not None:
        inverses[k] = A_inv
    p = parents[k]
    if p < 0:
        return _affine_rows(A, clip.heads[:, k] - armature.root_point)
    A_inv_p = inverses.get(p)
    if A_inv_p is None:
        A_inv_p = _bone_pose(armature, clip, p, inverse=True)[1]
    if last_child[p] == k:
        inverses.pop(p, None)
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


class _HeldTexts:
    """The writer's number-array texts, held as their chunk texts until the
    document is joined, as the reader cuts them out of the markup: each
    array's element gets a placeholder text, which ElementTree writes as a
    piece of its own with no escaping to do (a NUL, a count and a NUL), and
    `serialize` puts the chunks in its place and joins the document once."""

    def __init__(self):
        self.chunks: dict[str, list[str]] = {}

    def hold(self, chunks: list[str]) -> str:
        """A placeholder for the text "".join(chunks), or "" for no text,
        so an empty element is still written as <tag />."""
        if not any(chunks):
            return ""
        key = f"\0{len(self.chunks)}\0"
        self.chunks[key] = chunks
        return key

    def floats(self, values: np.ndarray, tail_every: int = 0) -> str:
        return self.hold(_fmt_chunks(values, tail_every))

    def ints(self, values: np.ndarray) -> str:
        return self.hold([_fmt_ints(values)])

    def serialize(self, root: Element) -> str:
        parts = ['<?xml version="1.0" encoding="utf-8"?>\n']
        ET.ElementTree(root).write(SimpleNamespace(write=parts.append), encoding="unicode")
        parts.append("\n")
        return "".join([chunk for part in parts for chunk in self.chunks.get(part, (part,))])


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

    held = _HeldTexts()
    times = held.hold([times_text])
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
    positions = held.floats(_finite(mesh.vertices, "a mesh vertex"))
    _float_source(m, "mesh-positions", positions, mesh.n_vertices, xyz)
    verts = SubElement(m, "vertices", id="mesh-vertices")
    SubElement(verts, "input", semantic="POSITION", source="#mesh-positions")

    for name, tris in mesh.triangle_batches():
        material = {} if name is None else {"material": name}
        t = SubElement(m, "triangles", material, count=str(len(tris)))
        SubElement(t, "input", semantic="VERTEX", source="#mesh-vertices", offset="0")
        SubElement(t, "p").text = held.ints(tris)

    # skin controller ------------------------------------------------------
    lc = SubElement(root, "library_controllers")
    controller = SubElement(lc, "controller", id="skin")
    skin = SubElement(controller, "skin", source="#mesh")
    SubElement(skin, "bind_shape_matrix").text = held.floats(np.eye(3, 4), 12)
    _name_source(skin, "skin-joints", " ".join(joint_sids), len(joint_sids), "JOINT")

    inv_binds = np.tile(np.eye(3, 4), (K + 2, 1, 1))
    inv_binds[:K, :, 3] = -armature.heads
    inv_binds_text = held.floats(_finite(inv_binds, "a bone head"), 12)
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
    weights_text = held.floats(_finite(weights, "a skin weight"))
    _float_source(skin, "skin-weights", weights_text, len(weights), [("WEIGHT", "float")])
    joints = SubElement(skin, "joints")
    SubElement(joints, "input", semantic="JOINT", source="#skin-joints")
    SubElement(joints, "input", semantic="INV_BIND_MATRIX", source="#skin-bind-poses")
    vw = SubElement(skin, "vertex_weights", count=str(mesh.n_vertices))
    SubElement(vw, "input", semantic="JOINT", source="#skin-joints", offset="0")
    SubElement(vw, "input", semantic="WEIGHT", source="#skin-weights", offset="1")
    SubElement(vw, "vcount").text = held.ints(used.sum(axis=1))
    SubElement(vw, "v").text = held.ints(np.column_stack([pair_joints, weight_index[used]]))

    # animations -----------------------------------------------------------
    la = SubElement(root, "library_animations")

    # Every animation shares the clip's time source and interpolation names.
    interp_text = " ".join(["LINEAR"] * clip.n_keys)

    def emit_animation(node_sid: str, rows: np.ndarray):
        aid = f"anim-{node_sid}"
        anim = SubElement(la, "animation", id=aid)
        _float_source(anim, f"{aid}-input", times, clip.n_keys, [("TIME", "float")])
        rows_text = held.floats(_finite(rows, f"a {node_sid} key matrix"), 12)
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
        inverses: dict = {}
        for k, sid in enumerate(bone_sids):
            emit_animation(sid, _local_rows(armature, clip, k, inverses))
        emit_animation(jaw_sid, _affine_rows(quat_to_mat(clip.jaw_quats), clip.jaw_translations))

    # visual scene -----------------------------------------------------------
    lvs = SubElement(root, "library_visual_scenes")
    scene = SubElement(lvs, "visual_scene", id="Scene", name="Scene")

    root_node = SubElement(
        scene, "node", id=f"node-{root_sid}", name=root_sid, sid=root_sid, type="JOINT"
    )
    mat = SubElement(root_node, "matrix", sid="transform")
    mat.text = held.floats(_finite(_affine_rows(np.eye(3), armature.root_point), "the root"), 12)

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
        m_el.text = held.floats(_finite(offset, f"bone {sid}'s offset"), 12)
        extra = SubElement(node, "extra")
        tech = SubElement(extra, "technique", profile=PROFILE)
        SubElement(tech, "tail").text = held.floats(_finite(armature.tails[k], f"bone {sid}'s tail"))
        length = _finite(armature.rest_lengths[k], f"bone {sid}'s rest length")
        SubElement(tech, "rest_length").text = held.floats(length)
        node_elems[k] = node

    for sid in (jaw_sid, skull_sid):
        n = SubElement(scene, "node", id=f"node-{sid}", name=sid, sid=sid, type="JOINT")
        SubElement(n, "matrix", sid="transform").text = held.floats(np.eye(3, 4), 12)

    model = SubElement(scene, "node", id="model", name="model")
    ic = SubElement(model, "instance_controller", url="#skin")
    SubElement(ic, "skeleton").text = f"#node-{root_sid}"

    s_extra = SubElement(scene, "extra")
    s_tech = SubElement(s_extra, "technique", profile=PROFILE)
    SubElement(s_tech, "rate_hz").text = held.floats(_finite(clip.rate_hz, "the clip rate"))
    SubElement(s_tech, "duration").text = repr(float(_finite(clip.duration, "the clip duration")))

    sc = SubElement(root, "scene")
    SubElement(sc, "instance_visual_scene", url="#Scene")

    ET.indent(root, space="  ")
    return held.serialize(root)


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
# Characters per ``np.loadtxt`` call: it holds 6-7 bytes per character.
_FLOAT_SLICE = 1 << 16
# Whitespace to ``np.loadtxt`` (as to ``str.isspace``), but not to C's isspace.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _numbers(text: str | None, dtype=np.float64, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """The numbers of ``text[lo:hi]``, separated by ASCII whitespace, as
    ``np.fromstring(text[lo:hi], dtype, sep=" ")`` read them, bit for bit;
    blank text is empty. Floats must be finite; integers are ASCII digits
    with an optional sign, strictly inside int64 (``np.fromstring``
    saturated both ways to the int64 maximum).

    ``np.loadtxt`` decodes the text in slices cut at a space, each one row,
    so the text is never copied whole. It takes non-ASCII spaces and
    ``_SEPARATORS`` for whitespace, so a slice holding them is refused,
    blank or not; it ends a row at CR and LF, so they become spaces; it
    warns on a row with no number, so a blank slice is skipped; and numpy
    1.x reads an integer token it cannot parse through a float and warns
    DeprecationWarning, a refusal here.
    """
    text = text or ""
    hi = len(text) if hi is None else hi
    pieces = [np.empty(0, dtype)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            while lo < hi:
                cut = text.find(" ", lo + _FLOAT_SLICE, hi)
                cut = hi if cut < 0 else cut
                piece = text[lo:cut]
                if not piece.isascii() or any(c in piece for c in _SEPARATORS):
                    raise ValueError
                piece = piece.replace("\n", " ").replace("\r", " ")
                if not piece.isspace():
                    pieces.append(np.loadtxt([piece], dtype=dtype, comments=None, ndmin=1))
                lo = cut
    except (ValueError, DeprecationWarning):
        raise ParseError(f"bad {np.dtype(dtype)} in array text", module="export") from None
    values = np.concatenate(pieces)
    del pieces  # before the checks' temporaries
    if dtype is np.float64:
        if not np.isfinite(values).all():
            raise ParseError("non-finite number in array text", module="export")
    elif ((values == _INT64.max) | (values == _INT64.min)).any():
        raise ParseError("bad int64 in array text", module="export")
    return values


def _take_text(elem: Element) -> str | None:
    """`elem`'s text, which is dropped from the tree: the reader decodes each
    array text once, so the tree's text shrinks as the arrays grow."""
    text, elem.text = elem.text, None
    return text


class _ArrayTexts:
    """Each number array's text, taken once as the span of `document` that
    its placeholder text names in `spans` (as ``_cut_arrays`` returns them);
    the spans never taken are left in ``spans``."""

    def __init__(self, document: str, spans: dict):
        self.document = document
        self.spans = spans

    def take(self, elem: Element) -> tuple[int, int]:
        """The span (lo, hi) of `document` that is `elem`'s text."""
        text = _take_text(elem)
        if text is not None and text not in self.spans:  # a comment, CDATA or PI split it
            raise ParseError(f"<{_local(elem)}> text is not plain characters", module="export")
        _, lo, hi = self.spans.pop(text, ("", 0, 0))  # no text: an empty element, like <p />
        return lo, hi

    def numbers(self, elem: Element, dtype=np.float64) -> np.ndarray:
        """The numbers of `elem`'s text, decoded where it lies."""
        return _numbers(self.document, dtype, *self.take(elem))

    def text(self, elem: Element) -> str:
        """`elem`'s text as a string of its own."""
        lo, hi = self.take(elem)
        return self.document[lo:hi]


def _values(elem: Element, n: int) -> np.ndarray:
    """The `n` finite numbers that `elem` must hold."""
    values = _numbers(elem.text)
    if values.shape != (n,):
        raise ParseError(f"<{_local(elem)}> must hold {n} finite numbers", module="export")
    return values


def _counted(values, elem: Element, width: int = 1):
    """`values`, which must number `width` times the ``count`` of `elem`."""
    count = _numbers(elem.get("count"), np.int64)
    if count.shape != (1,) or len(values) != count[0] * width:
        raise ParseError(f"<{_local(elem)}> count does not match its array", module="export")
    return values


def _accessor(src: Element, width: int) -> Element:
    """A <source>'s accessor, which must read rows of `width` values."""
    accessor = _child(_child(src, "technique_common"), "accessor")
    if accessor.get("stride") != str(width):
        raise ParseError(f"source {src.get('id')!r} needs stride {width}", module="export")
    return accessor


def _names(src: Element, split=str.split):
    """A <source>'s Name_array, split by `split`, checked against its own
    count and its accessor's."""
    accessor = _accessor(src, 1)
    array = _child(src, "Name_array")
    return _counted(_counted(split(_take_text(array) or ""), array), accessor)


def _source_rows(src: Element, width: int, numbers) -> np.ndarray:
    """A <source>'s float_array, decoded by `numbers`, as rows, checked
    against its own count and its accessor's."""
    accessor = _accessor(src, width)
    array = _child(src, "float_array")
    values = _counted(numbers(array), array)
    return _counted(values, accessor, width).reshape(-1, width)


def _ref(elem: Element | None) -> str | None:
    """The ``#id`` by which an <input> or <channel> names `elem`, if it can."""
    return None if elem is None or elem.get("id") is None else "#" + elem.get("id")


def _inputs(parent: Element) -> list[tuple[str, str, str]]:
    """`parent`'s <input>s as sorted (semantic, source, offset), with ""
    for a missing attribute."""
    return sorted(
        (i.get("semantic", ""), i.get("source", ""), i.get("offset", ""))
        for i in _children(parent, "input")
    )


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
    matrices (n, 4, 4), whose stretches must be finite and > 0."""
    bone = slice(k, k + 1)  # a bone axis of length 1: the all-bones arithmetic, bit for bit
    dirs = armature.rest_dirs[bone]
    A = np.ascontiguousarray(world[:, None, :3, :3])
    with np.errstate(all="ignore"):
        s = norm(np.einsum("fkij,kj->fki", A, dirs))
    if not ((s > 0) & (s < np.inf)).all():
        target = f"node-{armature.bone_names[k]}"
        raise ParseError(f"{target!r} has a key stretch not finite and > 0", module="export")
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
    except (ET.ParseError, UnicodeEncodeError) as exc:  # a lone surrogate is no XML
        raise ParseError(f"malformed XML: {exc}", module="export") from None


# --- the markup path ---------------------------------------------------------
#
# Most of a model's text is number arrays (94 % on the 2x6000-frame benchmark
# model). `_cut_arrays` cuts the text of each out of the document and leaves a
# placeholder, so expat parses only the markup, and the reader decodes each
# text where it lies in the document. In the lexical subset the writer emits
# (no entity or character reference, and number-array texts of plain
# characters), an element's text is its raw characters, with CR LF and CR
# read as LF, which the decoder reads as spaces anyway. So the result is the
# whole-document parse's, provided each placeholder comes back as the whole
# text of an element of its tag (which proves that the cut text was that
# element's content) and each cut text is XML text: `np.loadtxt` refuses
# every character XML forbids in it, except \x0b and \x0c, and expat checks
# the texts that the reader never decodes.

# A number array's start tag; its text runs to the next "<".
_ARRAY_TAG = re.compile(r"<(float_array|p|vcount|v)(?:\s[^<>]*)?>")
# Placeholders are this private-use character and a number, so a document
# must not hold it; an ASCII document cannot, which `in` finds at once.
_PLACEHOLDER = "\ue000"
# A reference, the whitespace that np.loadtxt reads and XML forbids, and the
# placeholder character: outside the subset.
_NOT_CUT = "&\x0b\x0c" + _PLACEHOLDER


def _cut_arrays(document: str) -> tuple[str, dict[str, tuple[str, int, int]]]:
    """`document` with the text of each number array that its end tag
    directly follows replaced by a placeholder, and per placeholder the
    array's tag and the span of its text in `document`."""
    pieces, cuts, copied, pos = [], {}, 0, 0
    while (m := _ARRAY_TAG.search(document, pos)) is not None:
        lo = pos = m.end()
        hi = document.find("<", lo)
        if hi >= 0 and document.startswith(f"</{m[1]}>", hi):
            placeholder = f"{_PLACEHOLDER}{len(cuts)}"
            pieces += [document[copied:lo], placeholder]
            cuts[placeholder] = (m[1], lo, hi)
            copied = pos = hi
    pieces.append(document[copied:])
    return "".join(pieces), cuts


def read_collada(document: str) -> tuple[SkinnedMesh, Armature, AnimationClip]:
    """Parse a document produced by write_collada (subset only).

    Raises ParseError on malformed XML, text outside the lexical subset (an
    entity or character reference, \\x0b, \\x0c or U+E000, or a comment,
    CDATA section or PI in a number array read), a missing required element
    (the animations, with exactly one jaw channel, and the clip's rate_hz
    and duration among them), an <input> or <channel> that does not name
    the source or sampler read, a bind shape other than the identity,
    inverse bind poses that are not one 4x4 matrix ending in 0 0 0 1 per
    joint, or a clip that AnimationClip rejects (key times not strictly
    increasing), and UnsupportedFeature on any element outside the written
    subset.
    """
    if any(c in document for c in _NOT_CUT):
        raise ParseError("the document holds '&', '\\x0b', '\\x0c' or U+E000", module="export")
    markup, cuts = _cut_arrays(document)
    root = _parse_xml(markup)
    del markup
    placed = sorted((e.text, _local(e)) for e in root.iter() if e.text in cuts)
    if placed != sorted((p, tag) for p, (tag, _, _) in cuts.items()):
        raise ParseError("a number array's text is not its element's whole text", module="export")
    arrays = _ArrayTexts(document, cuts)
    result = _read_tree(root, arrays)
    try:
        for _, lo, hi in arrays.spans.values():  # the texts the reader skipped
            ET.fromstring(f"<_>{document[lo:hi]}</_>")  # raises unless XML text
    except (ET.ParseError, UnicodeEncodeError) as exc:
        raise ParseError(f"malformed XML in an array text: {exc}", module="export") from None
    return result


_KNOWN_LIBRARIES = {
    "asset",
    "library_geometries",
    "library_controllers",
    "library_animations",
    "library_visual_scenes",
    "scene",
    "extra",
}


def _read_tree(root: Element, arrays: _ArrayTexts) -> tuple[SkinnedMesh, Armature, AnimationClip]:
    """`read_collada`'s result from the element tree `root`, with the
    number arrays' texts taken from `arrays`."""
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
    positions_src = _child(mesh_el, "source")
    positions = _source_rows(positions_src, 3, arrays.numbers)
    vertices = _child(mesh_el, "vertices")
    if _inputs(vertices) != [("POSITION", _ref(positions_src), "")]:
        raise ParseError(
            "<vertices> must hold one POSITION input naming the positions", module="export"
        )

    batches = []
    materials = []
    for tri_el in _children(mesh_el, "triangles"):
        inputs = _children(tri_el, "input")
        if len(inputs) != 1 or inputs[0].get("semantic") != "VERTEX":
            raise UnsupportedFeature("triangles must carry a single VERTEX input")
        if _inputs(tri_el) != [("VERTEX", _ref(vertices), "0")]:
            raise ParseError("a VERTEX input must name <vertices> at offset 0", module="export")
        p = arrays.numbers(_child(tri_el, "p"), np.int64)
        batches.append(_counted(p, tri_el, 3).reshape(-1, 3))
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
    joints_src = weights_src = None
    for s in _children(skin, "source"):
        if _children(s, "Name_array") and "joints" in (s.get("id") or ""):
            joints_src, joint_names = s, _names(s)
        if _children(s, "float_array") and "weights" in (s.get("id") or ""):
            weights_src, weights_arr = s, _source_rows(s, 1, arrays.numbers)[:, 0]

    joints = _inputs(_child(skin, "joints"))
    if [i for i in joints if i[0] == "JOINT"] != [("JOINT", _ref(joints_src), "")]:
        raise ParseError("<joints> must hold one JOINT input naming the joints", module="export")
    # The bind shape and the inverse bind poses are checked but not used: the
    # mesh is read as bound, and the rest pose comes from the joint nodes.
    if not (_values(_child(skin, "bind_shape_matrix"), 16) == np.eye(4).ravel()).all():
        raise ParseError("the <bind_shape_matrix> must be the identity", module="export")
    bind_inputs = [i for i in joints if i[0] == "INV_BIND_MATRIX"]
    bind_srcs = [
        s for s in _children(skin, "source") if bind_inputs == [("INV_BIND_MATRIX", _ref(s), "")]
    ]
    if len(bind_srcs) != 1:
        raise ParseError(
            "<joints> must hold one INV_BIND_MATRIX input naming a skin <source>", module="export"
        )
    bind_poses = _source_rows(bind_srcs[0], 16, arrays.numbers)
    if len(bind_poses) != len(joint_names):
        raise ParseError("the bind poses must hold one matrix per joint", module="export")
    _affine(bind_poses.reshape(-1, 4, 4), "a bind pose")
    vw = _child(skin, "vertex_weights")
    if _inputs(vw) != [("JOINT", _ref(joints_src), "0"), ("WEIGHT", _ref(weights_src), "1")]:
        raise ParseError(
            "<vertex_weights> inputs must be JOINT at offset 0 and WEIGHT at offset 1, naming"
            " the joints and the weights",
            module="export",
        )
    vcount = _counted(arrays.numbers(_child(vw, "vcount"), np.int64), vw)
    if len(vcount) != len(positions):
        raise ParseError("<vertex_weights> count is not the vertex count", module="export")
    v = arrays.numbers(_child(vw, "v"), np.int64)

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

    # The joint nodes in preorder, with a stack, so no depth is too deep.
    stack = [(child, -1) for child in reversed(_children(root_node, "node"))]
    while stack:
        child, parent_idx = stack.pop()
        if child.get("type") != "JOINT":
            continue
        k = len(bone_names)
        bone_names.append(child.get("sid") or child.get("name"))
        parents.append(parent_idx)
        offsets.append(_translation(_child(child, "matrix")))
        tails.append(_values(_annotation(child, "tail"), 3))
        stack += [(grandchild, k) for grandchild in reversed(_children(child, "node"))]
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
    # The animations share one time-source text and one interpolation text:
    # each is decoded, or split and checked, once.
    time_numbers = functools.cache(_numbers)
    split_names = functools.cache(lambda text: tuple(text.split()))
    unsupported = functools.cache(lambda names: sorted(set(names) - {"LINEAR"}))
    for anim in _children(la[0], "animation"):
        chan = _child(anim, "channel")
        target = (chan.get("target") or "").split("/")[0]
        times = mats = interps = None
        read = {}  # the source read per sampler semantic
        for s in _children(anim, "source"):
            sid = s.get("id") or ""
            fa = _children(s, "float_array")
            na = _children(s, "Name_array")
            if fa and sid.endswith("-input"):
                read["INPUT"] = s
                times = _source_rows(s, 1, lambda a: time_numbers(arrays.text(a)))[:, 0]
            elif fa and sid.endswith("-output"):
                read["OUTPUT"] = s
                mats = _source_rows(s, 16, arrays.numbers).reshape(-1, 4, 4)
                mats = _affine(mats, f"source {sid!r}")
            elif na and sid.endswith("-interp"):
                read["INTERPOLATION"] = s
                interps = _names(s, split_names)
                kinds = unsupported(interps)
                if kinds:
                    raise UnsupportedFeature(f"unsupported interpolation {kinds}")
        if times is None or mats is None:
            raise UnsupportedFeature("animation without matrix sampler")
        samplers = [s for s in _children(anim, "sampler") if _ref(s) == chan.get("source", "")]
        if len(samplers) != 1:
            raise ParseError(f"{target!r} channel must name one <sampler>", module="export")
        if _inputs(samplers[0]) != sorted((k, _ref(s), "") for k, s in read.items()):
            raise ParseError(f"{target!r} sampler inputs must name its sources", module="export")
        if interps is not None and len(interps) != len(times):
            raise ParseError(f"{target!r} needs one interpolation per key", module="export")
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

"""Rig compilation: armature graph, mesh ingestion, bone placement, skinning.

The tongue armature is declared as a tiny GraphViz digraph whose non-root
nodes name tongue coils. Bone tails are pinned to the coils' first-frame
positions after a similarity registration from device space into mesh
space, the rest pose is read off those positions, and skinning weights are
assigned by inverse-square distance to the bone segments.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .ema_io import CoilRoles, EmaSweep, orientation_vector
from .errors import (
    CycleDetected,
    DegenerateBone,
    MissingGroup,
    MissingSeed,
    MultipleRoots,
    ParseError,
    UnknownCoilNode,
)
from .motion_prep import Similarity, similarity_align

GROUP_TONGUE = "tongue"
GROUP_MANDIBLE = "mandible"
GROUP_MAXILLA = "maxilla"
# The canonical vertex groups, in the order meshes are written out.
GROUPS = (GROUP_TONGUE, GROUP_MANDIBLE, GROUP_MAXILLA)


# --- rig graph ---------------------------------------------------------------

@dataclass(frozen=True)
class RigGraph:
    """Directed tree of armature nodes; all non-root nodes name tongue coils."""

    nodes: tuple[str, ...]        # DFS preorder from the root
    edges: tuple[tuple[str, str], ...]  # (parent, child) in source order
    root: str

    def children(self, node: str) -> tuple[str, ...]:
        return tuple(c for p, c in self.edges if p == node)

    def parent(self, node: str) -> str | None:
        for p, c in self.edges:
            if c == node:
                return p
        return None


_TOKEN_RE = re.compile(r"->|[{}\[\];=,]|[A-Za-z_][A-Za-z0-9_]*|\"[^\"]*\"|[0-9.]+")


def _tokenize_dot(text: str) -> list[str]:
    # Strip /* */ blocks, then // and # line comments.
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    text = re.sub(r"(//|#)[^\n]*", " ", text)
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if text[pos : m.start()].strip():
            raise ParseError(
                f"unexpected characters {text[pos:m.start()].strip()!r} in rig graph"
            )
        tokens.append(m.group(0))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"unexpected characters {text[pos:].strip()!r} in rig graph")
    return tokens


def parse_rig_graph(text: str) -> RigGraph:
    """Parse the supported GraphViz subset into a validated tree.

    Accepted statements are identifier chains ``A -> B -> C;`` plus bare
    node declarations; attribute lists in brackets are tolerated and
    ignored. The edge set must form a single-rooted tree.
    """
    toks = _tokenize_dot(text)
    i = 0

    def peek():
        return toks[i] if i < len(toks) else None

    def take(expected: str | None = None) -> str:
        nonlocal i
        if i >= len(toks):
            raise ParseError("unexpected end of rig graph")
        tok = toks[i]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, got {tok!r}")
        i += 1
        return tok

    def skip_attrs():
        nonlocal i
        while peek() == "[":
            depth = 0
            while True:
                tok = take()
                if tok == "[":
                    depth += 1
                elif tok == "]":
                    depth -= 1
                    if depth == 0:
                        break

    if peek() == "strict":
        take()
    kind = take()
    if kind != "digraph":
        raise ParseError(f"expected a digraph, got {kind!r}")
    if peek() not in ("{",):
        take()  # optional graph name
    take("{")

    order: list[str] = []
    edges: list[tuple[str, str]] = []

    def note(name: str):
        if name not in order:
            order.append(name)

    while True:
        tok = peek()
        if tok is None:
            raise ParseError("rig graph is missing its closing brace")
        if tok == "}":
            take()
            break
        if tok in ("graph", "node", "edge"):
            take()
            skip_attrs()
            if peek() == ";":
                take()
            continue
        name = take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*|\"[^\"]*\"", name):
            raise ParseError(f"unexpected token {name!r} in rig graph")
        name = name.strip('"')
        note(name)
        while peek() == "->":
            take()
            nxt = take().strip('"')
            note(nxt)
            edges.append((name, nxt))
            name = nxt
        skip_attrs()
        if peek() == ";":
            take()

    if not order:
        raise ParseError("rig graph declares no nodes")

    parents: dict[str, list[str]] = {n: [] for n in order}
    for p, c in edges:
        parents[c].append(p)
    multi = [n for n, ps in parents.items() if len(ps) > 1]
    if multi:
        raise ParseError(
            f"node {multi[0]!r} has {len(parents[multi[0]])} parents; "
            "the armature graph must be a tree"
        )
    roots = [n for n, ps in parents.items() if not ps]
    if len(roots) == 0:
        raise CycleDetected("every node has a parent; the rig graph contains a cycle")
    if len(roots) > 1:
        raise MultipleRoots(f"rig graph has multiple roots: {', '.join(sorted(roots))}")
    root = roots[0]

    children: dict[str, list[str]] = {n: [] for n in order}
    for p, c in edges:
        children[p].append(c)

    dfs: list[str] = []
    stack = [root]
    while stack:
        node = stack.pop()
        dfs.append(node)
        stack.extend(reversed(children[node]))
    if len(dfs) != len(order):
        leftover = sorted(set(order) - set(dfs))
        raise CycleDetected(
            f"nodes unreachable from root {root!r} (cycle): {', '.join(leftover)}"
        )
    if len(dfs) < 2:
        raise ParseError("rig graph declares no bones")

    return RigGraph(nodes=tuple(dfs), edges=tuple(edges), root=root)


# --- meshes ------------------------------------------------------------------

@dataclass(frozen=True)
class SkinnedMesh:
    """Triangle mesh with named vertex groups and optional bone weights.

    weight_bones/-values are (n, 4) with bone index -1 marking unused
    influence slots; rows of non-tongue vertices are all -1.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    groups: dict[str, np.ndarray]
    weight_bones: np.ndarray = field(default=None)  # type: ignore[assignment]
    weight_values: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        n = self.vertices.shape[0]
        if self.vertices.shape != (n, 3):
            raise ValueError("vertices must be (n, 3)")
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= n
        ):
            raise ValueError("triangle indices out of range")
        if self.weight_bones is None:
            object.__setattr__(self, "weight_bones", np.full((n, 4), -1, dtype=np.int32))
        if self.weight_values is None:
            object.__setattr__(self, "weight_values", np.zeros((n, 4)))

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def group_indices(self, name: str) -> np.ndarray:
        return self.groups.get(name, np.empty(0, dtype=np.int64))

    def triangle_batches(self) -> list[tuple[str | None, np.ndarray]]:
        """Triangles batched by the last of GROUPS holding their first
        vertex: the non-empty groups in order, then the ungrouped
        triangles under None."""
        vertex_group = np.full(self.n_vertices, len(GROUPS))
        for gi, name in enumerate(GROUPS):
            vertex_group[self.group_indices(name)] = gi
        tri_group = vertex_group[self.triangles[:, 0]]
        return [
            (name, self.triangles[tri_group == gi])
            for gi, name in enumerate(GROUPS + (None,))
            if (tri_group == gi).any()
        ]


def groups_from_triangles(
    triangles: np.ndarray, labels: Sequence[str | None]
) -> dict[str, np.ndarray]:
    """The vertex groups spanned by labelled triangles: each of GROUPS
    that labels at least one triangle, as the sorted indices of its
    triangles' vertices. Other labels belong to no group."""
    labels = np.asarray(labels, dtype=object)
    groups = {}
    for name in GROUPS:
        members = triangles[labels == name]
        if len(members):
            groups[name] = np.unique(members).astype(np.int64)
    return groups


def mesh_volume(vertices: np.ndarray, triangles: np.ndarray) -> float:
    """Signed enclosed volume of an oriented triangle mesh (divergence theorem)."""
    v0 = vertices[triangles[:, 0]]
    v1 = vertices[triangles[:, 1]]
    v2 = vertices[triangles[:, 2]]
    return float(np.einsum("ij,ij->i", v0, np.cross(v1, v2)).sum() / 6.0)


_DEFAULT_GROUP_PATTERNS = (
    (GROUP_TONGUE, ("tongue",)),
    (GROUP_MANDIBLE, ("mandible", "lower")),
    (GROUP_MAXILLA, ("maxilla", "upper")),
)


def _canonical_group(name: str, group_map: dict[str, str] | None) -> str | None:
    if group_map is not None:
        return group_map.get(name)
    low = name.lower()
    for canonical, needles in _DEFAULT_GROUP_PATTERNS:
        if any(n in low for n in needles):
            return canonical
    return None


def load_mesh(obj_text: str, group_map: dict[str, str] | None = None) -> SkinnedMesh:
    """Load the Wavefront OBJ subset: ``v``, ``f`` (fan-triangulated), ``o``/``g``.

    Object/group names are mapped onto the canonical tongue/mandible/maxilla
    groups either through `group_map` or by substring match; a resolvable
    tongue group is required.
    """
    vertices: list[list[float]] = []
    triangles: list[tuple[int, int, int]] = []
    tri_groups: list[str | None] = []
    current: str | None = None  # canonical group of the current o/g name

    for lineno, raw in enumerate(obj_text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "v":
            if len(parts) < 4:
                raise ParseError(f"OBJ line {lineno}: vertex needs 3 coordinates")
            try:
                vertex = [float(x) for x in parts[1:4]]
            except ValueError:
                raise ParseError(f"OBJ line {lineno}: bad vertex number") from None
            if not all(map(math.isfinite, vertex)):
                raise ParseError(f"OBJ line {lineno}: non-finite vertex number")
            vertices.append(vertex)
        elif tag in ("o", "g"):
            current = _canonical_group(parts[1], group_map) if len(parts) > 1 else None
        elif tag == "f":
            if len(parts) < 4:
                raise ParseError(f"OBJ line {lineno}: face needs >= 3 vertices")
            idx = []
            for spec in parts[1:]:
                head = spec.split("/", 1)[0]
                try:
                    k = int(head)
                except ValueError:
                    raise ParseError(f"OBJ line {lineno}: bad face index {spec!r}") from None
                idx.append(k - 1 if k > 0 else len(vertices) + k)
            for a, b in zip(idx[1:-1], idx[2:]):
                triangles.append((idx[0], a, b))
                tri_groups.append(current)
        else:
            continue  # vn/vt/s/usemtl/mtllib etc. carry nothing we keep

    verts = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    tris = np.asarray(triangles, dtype=np.int32).reshape(-1, 3)
    if tris.size and (tris.min() < 0 or tris.max() >= len(verts)):
        raise ParseError("OBJ face references a vertex that was never declared")

    groups = groups_from_triangles(tris, tri_groups)
    if GROUP_TONGUE not in groups:
        raise MissingGroup("no tongue group resolvable from the OBJ source")
    return SkinnedMesh(vertices=verts, triangles=tris, groups=groups)


def save_obj(mesh: SkinnedMesh) -> str:
    """Serialize a mesh to the OBJ subset understood by load_mesh.

    Vertex coordinates use shortest round-tripping decimal form, so
    load_mesh(save_obj(m)) reproduces the geometry exactly.
    """
    lines = []
    for v in mesh.vertices:
        lines.append(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")

    for name, tris in mesh.triangle_batches():
        lines.append(f"o {(name or 'ungrouped').capitalize()}")
        for tri in tris:
            lines.append(f"f {tri[0] + 1} {tri[1] + 1} {tri[2] + 1}")
    return "\n".join(lines) + "\n"


# The procedural stand-in's dental arches (cm): two horseshoe prisms of
# this radius, cross-section and segment count, centred at these heights.
ARCH_RADIUS = 3.2
ARCH_WIDTH = 0.7
ARCH_HEIGHT = 0.9
ARCH_SEGMENTS = 24
MAXILLA_Z = 2.1
MANDIBLE_Z = -1.4


@dataclass(frozen=True)
class MeshParams:
    """Controls for the procedural stand-in's tongue (lengths in cm)."""

    extents: tuple[float, float, float] = (3.0, 2.25, 1.8)
    n_long: int = 96
    n_lat: int = 52

    def __post_init__(self):
        if not (np.isfinite(self.extents).all() and min(self.extents) > 0):
            raise ValueError("extents must be finite and positive")
        if self.n_long < 8 or self.n_lat < 4:
            raise ValueError("resolution too coarse")


def _half_ellipsoid(a: float, b: float, c: float, n_long: int, n_lat: int):
    phis = 2.0 * np.pi * np.arange(n_long) / n_long
    thetas = 0.5 * np.pi * np.arange(n_lat) / n_lat
    ct = np.cos(thetas)[:, None]
    st = np.sin(thetas)[:, None]
    ring = np.stack(
        [
            a * ct * np.cos(phis)[None, :],
            b * ct * np.sin(phis)[None, :],
            c * st * np.ones_like(phis)[None, :],
        ],
        axis=-1,
    ).reshape(-1, 3)
    pole = np.array([[0.0, 0.0, c]])
    base_center = np.array([[0.0, 0.0, 0.0]])
    verts = np.vstack([ring, pole, base_center])
    pole_i = n_long * n_lat
    center_i = pole_i + 1

    tris = []
    for j in range(n_lat - 1):
        for i in range(n_long):
            i2 = (i + 1) % n_long
            v00 = j * n_long + i
            v10 = j * n_long + i2
            v01 = (j + 1) * n_long + i
            v11 = (j + 1) * n_long + i2
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    top = (n_lat - 1) * n_long
    for i in range(n_long):
        tris.append((top + i, top + (i + 1) % n_long, pole_i))
    for i in range(n_long):
        tris.append((center_i, (i + 1) % n_long, i))
    return verts, np.asarray(tris, dtype=np.int32)


def _arch_prism(z_center):
    n_seg = ARCH_SEGMENTS
    alphas = np.linspace(-0.5 * np.pi, 0.5 * np.pi, n_seg + 1)
    u = np.stack([np.cos(alphas), np.sin(alphas), np.zeros_like(alphas)], axis=-1)
    center = u * ARCH_RADIUS + np.array([0.3, 0.0, z_center])
    zhat = np.array([0.0, 0.0, 1.0])
    corners = [
        (+0.5 * ARCH_WIDTH, -0.5 * ARCH_HEIGHT),
        (+0.5 * ARCH_WIDTH, +0.5 * ARCH_HEIGHT),
        (-0.5 * ARCH_WIDTH, +0.5 * ARCH_HEIGHT),
        (-0.5 * ARCH_WIDTH, -0.5 * ARCH_HEIGHT),
    ]
    verts = np.concatenate(
        [center + du * u + dz * zhat for du, dz in corners], axis=0
    ).reshape(4, n_seg + 1, 3)
    verts = np.transpose(verts, (1, 0, 2)).reshape(-1, 3)

    def vid(station, corner):
        return station * 4 + corner

    tris = []
    for k in range(n_seg):
        for c in range(4):
            c2 = (c + 1) % 4
            a, b = vid(k, c), vid(k, c2)
            a2, b2 = vid(k + 1, c), vid(k + 1, c2)
            tris.append((a, b, b2))
            tris.append((a, b2, a2))
    tris.append((vid(0, 0), vid(0, 1), vid(0, 2)))
    tris.append((vid(0, 0), vid(0, 2), vid(0, 3)))
    tris.append((vid(n_seg, 0), vid(n_seg, 2), vid(n_seg, 1)))
    tris.append((vid(n_seg, 0), vid(n_seg, 3), vid(n_seg, 2)))
    tris = np.asarray(tris, dtype=np.int32)
    if mesh_volume(verts, tris) < 0:
        tris = tris[:, ::-1]
    return verts, tris


def generate_default_mesh(params: MeshParams = MeshParams()) -> SkinnedMesh:
    """Deterministic procedural tongue/teeth stand-in.

    A watertight half-ellipsoid (flat side down, long axis +x anterior)
    forms the tongue; two horseshoe prisms above and below stand in for the
    dental arches. Enclosed tongue volume converges to (2/3)*pi*a*b*c with
    resolution.
    """
    a, b, c = params.extents
    tongue_v, tongue_t = _half_ellipsoid(a, b, c, params.n_long, params.n_lat)
    mand_v, mand_t = _arch_prism(MANDIBLE_Z)
    max_v, max_t = _arch_prism(MAXILLA_Z)

    n0 = len(tongue_v)
    n1 = n0 + len(mand_v)
    verts = np.vstack([tongue_v, mand_v, max_v])
    tris = np.vstack([tongue_t, mand_t + n0, max_t + n1])
    groups = {
        GROUP_TONGUE: np.arange(n0, dtype=np.int64),
        GROUP_MANDIBLE: np.arange(n0, n1, dtype=np.int64),
        GROUP_MAXILLA: np.arange(n1, len(verts), dtype=np.int64),
    }
    return SkinnedMesh(vertices=verts, triangles=tris, groups=groups)


def default_seed_points(params: MeshParams = MeshParams()) -> dict[str, np.ndarray]:
    """Mesh-space seed coordinates for the canonical seven-coil layout,
    placed on the procedural tongue surface."""
    a, b, c = params.extents

    def on_surface(x, y):
        r2 = (x / a) ** 2 + (y / b) ** 2
        return np.array([x, y, c * np.sqrt(max(0.0, 1.0 - r2))])

    return {
        "TBackC": on_surface(-1.8, 0.0),
        "TMidC": on_surface(0.2, 0.0),
        "TTipC": on_surface(2.2, 0.0),
        "TMidL": on_surface(0.2, 1.1),
        "TMidR": on_surface(0.2, -1.1),
        "TBladeL": on_surface(1.3, 0.8),
        "TBladeR": on_surface(1.3, -0.8),
    }


# --- rig configuration and compilation ----------------------------------------

@dataclass(frozen=True)
class RigConfig:
    seeds: dict[str, np.ndarray] = field(default_factory=dict)
    root_offset: np.ndarray = field(
        default_factory=lambda: np.array([-1.0, 0.0, -1.0])
    )
    group_map: dict[str, str] | None = None

    def __post_init__(self):
        seeds = [(f"seed.{coil}", point) for coil, point in self.seeds.items()]
        for name, point in [("root_offset", self.root_offset), *seeds]:
            if np.shape(point) != (3,) or not np.isfinite(point).all():
                raise ValueError(f"{name} must be three finite numbers")


@dataclass(frozen=True)
class Armature:
    """Bone tree in DFS preorder (parents precede children).

    Bone k runs from heads[k] to tails[k]; its name is the coil it tracks.
    parents[k] indexes another bone, or -1 for bones emanating from the
    root point. Rest lengths and directions are derived from the heads and
    tails with no floating-point warning (the writer and the reader refuse
    what is not finite); a bone of rest length <= 1e-9 is DegenerateBone.
    """

    bone_names: tuple[str, ...]
    parents: np.ndarray
    heads: np.ndarray
    tails: np.ndarray
    rest_lengths: np.ndarray = field(init=False)
    rest_dirs: np.ndarray = field(init=False)
    root_point: np.ndarray
    root_name: str = "Root"

    def __post_init__(self):
        with np.errstate(all="ignore"):
            deltas = self.tails - self.heads
            rest_lengths = np.sqrt(np.sum(deltas * deltas, axis=-1))
            rest_dirs = deltas / rest_lengths[:, None]
        short = rest_lengths <= 1e-9
        if short.any():
            raise DegenerateBone(
                f"bone {self.bone_names[int(np.argmax(short))]!r} has zero rest length"
            )
        object.__setattr__(self, "rest_lengths", rest_lengths)
        object.__setattr__(self, "rest_dirs", rest_dirs)

    @property
    def n_bones(self) -> int:
        return len(self.bone_names)

    def children_of(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.parents == k)


@dataclass(frozen=True)
class CompiledRig:
    """Everything the baking and export stages need, in mesh space."""

    armature: Armature
    mesh: SkinnedMesh
    seed_map: dict[str, int]
    registration: Similarity
    registration_rms: float
    jaw_rest_position: np.ndarray | None = None
    jaw_rest_axis: np.ndarray | None = None


def _segment_distances(points: np.ndarray, heads: np.ndarray, tails: np.ndarray):
    """Distances from each point to each bone segment: (n_points, n_bones)."""
    d = tails - heads
    L2 = np.maximum(np.einsum("kj,kj->k", d, d), 1e-30)
    rel = points[:, None, :] - heads[None, :, :]
    t = np.clip(np.einsum("nkj,kj->nk", rel, d) / L2, 0.0, 1.0)
    closest = heads[None, :, :] + t[:, :, None] * d[None, :, :]
    diff = points[:, None, :] - closest
    return np.sqrt(np.einsum("nkj,nkj->nk", diff, diff))


def register_first_frame(
    first: np.ndarray, coils: Sequence[str], seeds: dict[str, np.ndarray]
) -> tuple[Similarity, np.ndarray, float]:
    """Register first-frame coil positions (coils, 3) into mesh space.

    Three or more coils get the least-squares similarity onto their
    configured seeds; with fewer there is no similarity to fit, so device
    space is taken as mesh space. Returns the registration, the mapped
    positions and the fit RMS (cm).
    """
    if len(coils) < 3:
        return Similarity.identity(), first, 0.0
    missing = [n for n in coils if n not in seeds]
    if missing:
        raise MissingSeed(f"no mesh-space seed configured for coils: {', '.join(missing)}")
    targets = np.stack([seeds[n] for n in coils])
    registration = similarity_align(first, targets)
    mapped = registration.apply(first)
    rms = float(np.sqrt(np.mean(np.sum((mapped - targets) ** 2, axis=1))))
    return registration, mapped, rms


def seed_vertices(mesh: SkinnedMesh, points: np.ndarray) -> np.ndarray:
    """The seed vertex of each point (n, 3): the nearest tongue vertex not
    already taken by an earlier point, with ties to the lower index."""
    tongue_idx = mesh.group_indices(GROUP_TONGUE)
    if not len(tongue_idx):
        raise MissingGroup("mesh has no tongue group")
    tongue = mesh.vertices[tongue_idx]
    seeds: list[int] = []
    for point in points:
        dist = np.sqrt(np.sum((tongue - point) ** 2, axis=1))
        for j in np.argsort(dist, kind="stable"):
            if int(tongue_idx[j]) not in seeds:
                seeds.append(int(tongue_idx[j]))
                break
        else:
            raise MissingSeed("fewer tongue vertices than coils")
    return np.array(seeds, dtype=np.int64)


def compile_rig(
    graph: RigGraph,
    sweep: EmaSweep,
    roles: CoilRoles,
    mesh: SkinnedMesh,
    config: RigConfig = RigConfig(),
) -> CompiledRig:
    """Build the armature rest pose and skinning weights from first-frame data.

    First-frame coil positions are registered into mesh space
    (register_first_frame); bone tails sit at the mapped coil
    positions and the root bone head at the first root-child coil offset by
    `config.root_offset`. Each coil's seed vertex (seed_vertices) is moved
    exactly onto its bone tail, so seed vertices track coils with no
    standing offset. Each tongue vertex is then weighted to its up to 4
    nearest bone segments by inverse-square distance, floored at 1e-3 cm.
    """
    roles.validate_against(sweep.channels)
    coil_nodes = [n for n in graph.nodes if n != graph.root]
    unknown = [n for n in coil_nodes if n not in roles.tongue]
    if unknown:
        raise UnknownCoilNode(
            f"rig nodes with no matching tongue channel: {', '.join(unknown)}"
        )
    if sweep.n_frames == 0:
        raise ValueError("sweep has no frames to place the rest pose from")

    chan_idx = [sweep.channel_index(n) for n in coil_nodes]
    first = sweep.positions[0, chan_idx, :]
    if not np.isfinite(first).all():
        raise ValueError(
            "first frame contains invalid tongue samples; run fill_dropouts first"
        )

    registration, mapped, registration_rms = register_first_frame(
        first, coil_nodes, config.seeds
    )

    # Bones are the graph edges, named and ordered by their child (DFS order).
    bone_names = tuple(coil_nodes)
    name_to_bone = {n: k for k, n in enumerate(bone_names)}
    tails = {n: mapped[k] for k, n in enumerate(coil_nodes)}

    root_children = graph.children(graph.root)
    root_point = tails[root_children[0]] + np.asarray(config.root_offset, dtype=np.float64)

    parents = np.empty(len(bone_names), dtype=np.int32)
    heads = np.empty((len(bone_names), 3))
    tail_arr = np.empty((len(bone_names), 3))
    for k, n in enumerate(bone_names):
        p = graph.parent(n)
        if p == graph.root:
            parents[k] = -1
            heads[k] = root_point
        else:
            parents[k] = name_to_bone[p]
            heads[k] = tails[p]
        tail_arr[k] = tails[n]

    armature = Armature(
        bone_names=bone_names,
        parents=parents,
        heads=heads,
        tails=tail_arr,
        root_point=root_point,
        root_name=graph.root,
    )

    seeds = seed_vertices(mesh, tail_arr)
    seed_map = {n: int(v) for n, v in zip(bone_names, seeds)}
    vertices = np.array(mesh.vertices)
    vertices[seeds] = tail_arr
    tongue_idx = mesh.group_indices(GROUP_TONGUE)

    # 4 influences, as SkinnedMesh holds them.
    cap = min(4, len(bone_names))
    dist = _segment_distances(vertices[tongue_idx], heads, tail_arr)
    dist = np.maximum(dist, 1e-3)
    order = np.argsort(dist, axis=1, kind="stable")[:, :cap]
    picked = np.take_along_axis(dist, order, axis=1)
    w = picked ** -2.0
    w /= w.sum(axis=1, keepdims=True)

    weight_bones = np.full((mesh.n_vertices, 4), -1, dtype=np.int32)
    weight_values = np.zeros((mesh.n_vertices, 4))
    weight_bones[tongue_idx, :cap] = order
    weight_values[tongue_idx, :cap] = w

    skinned = replace(
        mesh,
        vertices=vertices,
        weight_bones=weight_bones,
        weight_values=weight_values,
    )

    jaw_rest_position = None
    jaw_rest_axis = None
    if roles.jaw:
        j = sweep.channel_index(roles.jaw[0])
        jaw_rest_position = registration.apply(sweep.positions[0, j])
        axis = orientation_vector(sweep.phi[0, j], sweep.theta[0, j])
        jaw_rest_axis = registration.rotate(axis)

    return CompiledRig(
        armature=armature,
        mesh=skinned,
        seed_map=seed_map,
        registration=registration,
        registration_rms=registration_rms,
        jaw_rest_position=jaw_rest_position,
        jaw_rest_axis=jaw_rest_axis,
    )

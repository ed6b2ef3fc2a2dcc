import numpy as np
import pytest

from emarig.ema_io import CoilRoles, EmaSweep
from emarig.errors import (
    ConfigError,
    CycleDetected,
    DegenerateBone,
    MissingGroup,
    MissingSeed,
    MultipleRoots,
    ParseError,
    UnknownCoilNode,
)
from emarig.rig import (
    ARCH_SEGMENTS,
    MeshParams,
    RigConfig,
    compile_rig,
    default_seed_points,
    generate_default_mesh,
    load_mesh,
    mesh_volume,
    parse_rig_graph,
    save_obj,
)
from emarig.pipeline import load_config

from conftest import FIG_GRAPH


class TestRigGraph:
    def test_reference_layout(self):
        g = parse_rig_graph(FIG_GRAPH)
        assert len(g.nodes) == 8
        assert len(g.edges) == 7
        assert g.root == "TRoot"
        # DFS preorder with children in source order
        assert g.nodes == (
            "TRoot", "TBackC", "TMidC", "TTipC", "TMidL", "TBladeL", "TMidR", "TBladeR",
        )
        assert g.children("TBackC") == ("TMidC", "TMidL", "TMidR")

    def test_two_node_tree(self):
        g = parse_rig_graph("digraph{A->B;}")
        assert g.nodes == ("A", "B")
        assert g.root == "A"

    def test_smallest_cycle(self):
        with pytest.raises(CycleDetected):
            parse_rig_graph("digraph{A->B; B->A;}")

    def test_unreachable_cycle(self):
        with pytest.raises(CycleDetected):
            parse_rig_graph("digraph{A->B; C->D; D->C;}")

    def test_multiple_roots(self):
        with pytest.raises(MultipleRoots):
            parse_rig_graph("digraph{A->B; C->D;}")

    def test_multiple_parents(self):
        with pytest.raises(ParseError):
            parse_rig_graph("digraph{A->B; A->C; B->D; C->D;}")

    def test_attributes_and_comments_ignored(self):
        text = """
        // armature
        digraph tongue {
          node [shape=ellipse];
          A -> B [weight=2];  /* chain */
          B -> C;
          # trailing comment
        }
        """
        g = parse_rig_graph(text)
        assert g.nodes == ("A", "B", "C")

    def test_edge_chain(self):
        g = parse_rig_graph("digraph{A -> B -> C;}")
        assert g.edges == (("A", "B"), ("B", "C"))

    def test_not_a_digraph(self):
        with pytest.raises(ParseError):
            parse_rig_graph("graph{A -- B;}")

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_rig_graph("digraph{A -> @;}")


CUBE_OBJ = """o Tongue
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
v 0 0 1
v 1 0 1
v 1 1 1
v 0 1 1
f 1 2 3 4
f 5 8 7 6
f 1 5 6 2
f 2 6 7 3
f 3 7 8 4
f 4 8 5 1
"""


class TestObjMesh:
    def test_cube_fan_triangulation(self):
        mesh = load_mesh(CUBE_OBJ)
        assert mesh.n_vertices == 8
        assert len(mesh.triangles) == 12
        assert len(mesh.group_indices("tongue")) == 8

    def test_empty_is_missing_group(self):
        with pytest.raises(MissingGroup):
            load_mesh("")

    def test_group_map(self):
        text = CUBE_OBJ.replace("o Tongue", "o Lingua")
        with pytest.raises(MissingGroup):
            load_mesh(text)
        mesh = load_mesh(text, group_map={"Lingua": "tongue"})
        assert len(mesh.group_indices("tongue")) == 8

    def test_face_index_forms(self):
        text = "o Tongue\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1 2/2/2 3//3\n"
        mesh = load_mesh(text)
        assert np.array_equal(mesh.triangles, [[0, 1, 2]])

    def test_bad_face_index(self):
        with pytest.raises(ParseError):
            load_mesh("v 0 0 0\nf 1 2 x\n")

    def test_save_load_round_trip(self):
        mesh = generate_default_mesh()
        again = load_mesh(save_obj(mesh))
        assert np.array_equal(again.vertices, mesh.vertices)
        assert np.array_equal(again.triangles, mesh.triangles)
        for name in ("tongue", "mandible", "maxilla"):
            assert np.array_equal(
                again.group_indices(name), mesh.group_indices(name)
            )


class TestDefaultMesh:
    def test_vertex_count_formula(self):
        params = MeshParams()
        mesh = generate_default_mesh(params)
        expected = params.n_long * params.n_lat + 2 + 2 * 4 * (ARCH_SEGMENTS + 1)
        assert mesh.n_vertices == expected
        assert mesh.n_vertices >= 5000

    def test_deterministic(self):
        a = generate_default_mesh()
        b = generate_default_mesh()
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.triangles, b.triangles)

    def test_tongue_volume_matches_half_ellipsoid(self):
        params = MeshParams()
        mesh = generate_default_mesh(params)
        tongue = mesh.group_indices("tongue")
        mask = np.isin(mesh.triangles[:, 0], tongue)
        volume = mesh_volume(mesh.vertices, mesh.triangles[mask])
        a, b, c = params.extents
        analytic = (2.0 / 3.0) * np.pi * a * b * c
        assert abs(volume - analytic) / analytic < 0.02

    def test_arches_watertight_positive_volume(self):
        mesh = generate_default_mesh()
        for group in ("mandible", "maxilla"):
            idx = mesh.group_indices(group)
            mask = np.isin(mesh.triangles[:, 0], idx)
            assert mesh_volume(mesh.vertices, mesh.triangles[mask]) > 0


def _sweep_with_coils(channel_positions: dict, rate=200.0):
    channels = tuple(channel_positions)
    positions = np.zeros((1, len(channels), 3))
    for i, name in enumerate(channels):
        positions[0, i] = channel_positions[name]
    zeros = np.zeros((1, len(channels)))
    return EmaSweep(
        rate_hz=rate,
        channels=channels,
        positions=positions,
        phi=zeros,
        theta=zeros.copy(),
        rms=np.zeros((1, len(channels)), np.float32),
        extra=np.zeros((1, len(channels)), np.float32),
    )


class TestCompileRig:
    def _compiled(self):
        graph = parse_rig_graph(FIG_GRAPH)
        seeds = default_seed_points()
        coil_pos = {"R1": (-5, 3, 6), "R2": (-5, -3, 6), "R3": (1, 0, 8)}
        for name in seeds:
            coil_pos[name] = seeds[name]
        sweep = _sweep_with_coils(coil_pos)
        roles = CoilRoles.from_channels(
            sweep.channels, reference=("R1", "R2", "R3"), tongue=tuple(seeds)
        )
        mesh = generate_default_mesh()
        return compile_rig(graph, sweep, roles, mesh, RigConfig(seeds=seeds)), seeds

    def test_reference_armature_structure(self):
        rig, _ = self._compiled()
        arm = rig.armature
        assert arm.bone_names == (
            "TBackC", "TMidC", "TTipC", "TMidL", "TBladeL", "TMidR", "TBladeR",
        )
        name = {n: i for i, n in enumerate(arm.bone_names)}
        assert arm.parents[name["TBackC"]] == -1
        for child, parent in [
            ("TMidC", "TBackC"), ("TTipC", "TMidC"), ("TMidL", "TBackC"),
            ("TBladeL", "TMidL"), ("TMidR", "TBackC"), ("TBladeR", "TMidR"),
        ]:
            assert arm.parents[name[child]] == name[parent]

    def test_bones_connected(self):
        rig, _ = self._compiled()
        arm = rig.armature
        for k in range(arm.n_bones):
            p = arm.parents[k]
            expect = arm.root_point if p < 0 else arm.tails[p]
            assert np.allclose(arm.heads[k], expect, atol=1e-12)

    def test_root_point_offset(self):
        rig, seeds = self._compiled()
        assert np.allclose(
            rig.armature.root_point, seeds["TBackC"] + np.array([-1.0, 0.0, -1.0])
        )

    def test_single_bone(self):
        graph = parse_rig_graph("digraph{Root->A;}")
        sweep = _sweep_with_coils({"R1": (0, 0, 5), "R2": (1, 0, 5), "R3": (0, 1, 5), "A": (1, 0, 0)})
        roles = CoilRoles.from_channels(
            sweep.channels, reference=("R1", "R2", "R3"), tongue=("A",)
        )
        mesh = generate_default_mesh()
        rig = compile_rig(
            graph, sweep, roles, mesh,
            RigConfig(root_offset=np.array([-1.0, 0.0, 0.0])),
        )
        assert rig.armature.n_bones == 1
        assert np.allclose(rig.armature.root_point, [0.0, 0.0, 0.0])
        assert np.allclose(rig.armature.rest_lengths, [1.0])

    def test_weights_sum_to_one_capped(self):
        rig, _ = self._compiled()
        mesh = rig.mesh
        tongue = mesh.group_indices("tongue")
        sums = mesh.weight_values[tongue].sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-9
        assert ((mesh.weight_bones[tongue] >= 0).sum(axis=1) <= 4).all()
        assert (mesh.weight_values >= 0).all()

    def test_weight_locality(self):
        from emarig.rig import _segment_distances

        rig, _ = self._compiled()
        mesh = rig.mesh
        arm = rig.armature
        tongue = mesh.group_indices("tongue")
        dist = _segment_distances(mesh.vertices[tongue], arm.heads, arm.tails)
        top = mesh.weight_bones[tongue, 0]
        best = np.argmin(dist, axis=1)
        ranks = np.argsort(np.argsort(dist, axis=1, kind="stable"), axis=1)
        got = ranks[np.arange(len(tongue)), top]
        assert (got < 4).all()
        assert (dist[np.arange(len(tongue)), top] <= dist[np.arange(len(tongue)), best] + 1e-9).all()

    def test_mandible_maxilla_carry_no_bone_weights(self):
        rig, _ = self._compiled()
        mesh = rig.mesh
        for group in ("mandible", "maxilla"):
            idx = mesh.group_indices(group)
            assert (mesh.weight_bones[idx] == -1).all()

    def test_seed_vertices_snapped_onto_tails(self):
        rig, _ = self._compiled()
        for k, name in enumerate(rig.armature.bone_names):
            v = rig.seed_map[name]
            assert np.allclose(rig.mesh.vertices[v], rig.armature.tails[k], atol=1e-12)

    def test_deterministic(self):
        a, _ = self._compiled()
        b, _ = self._compiled()
        assert np.array_equal(a.mesh.weight_values, b.mesh.weight_values)
        assert np.array_equal(a.armature.tails, b.armature.tails)
        assert a.seed_map == b.seed_map

    def test_unknown_coil_node(self):
        graph = parse_rig_graph("digraph{Root->Ghost;}")
        sweep = _sweep_with_coils({"R1": (0, 0, 5), "R2": (1, 0, 5), "R3": (0, 1, 5), "A": (1, 0, 0)})
        roles = CoilRoles.from_channels(
            sweep.channels, reference=("R1", "R2", "R3"), tongue=("A",)
        )
        with pytest.raises(UnknownCoilNode):
            compile_rig(graph, sweep, roles, generate_default_mesh(), RigConfig())

    def test_degenerate_bone(self):
        graph = parse_rig_graph("digraph{Root->A; A->B;}")
        sweep = _sweep_with_coils(
            {"R1": (0, 0, 5), "R2": (1, 0, 5), "R3": (0, 1, 5),
             "A": (1, 0, 0), "B": (1, 0, 0), "C": (0, 1, 0)}
        )
        roles = CoilRoles.from_channels(
            sweep.channels, reference=("R1", "R2", "R3"), tongue=("A", "B", "C")
        )
        seeds = {"A": np.array([1.0, 0, 0]), "B": np.array([1.0, 0, 0]), "C": np.array([0.0, 1, 0])}
        with pytest.raises(DegenerateBone):
            compile_rig(graph, sweep, roles, generate_default_mesh(), RigConfig(seeds=seeds))

    def test_missing_seed(self):
        graph = parse_rig_graph(FIG_GRAPH)
        seeds = default_seed_points()
        coil_pos = {"R1": (-5, 3, 6), "R2": (-5, -3, 6), "R3": (1, 0, 8)}
        coil_pos.update({name: seeds[name] for name in seeds})
        sweep = _sweep_with_coils(coil_pos)
        roles = CoilRoles.from_channels(
            sweep.channels, reference=("R1", "R2", "R3"), tongue=tuple(seeds)
        )
        with pytest.raises(MissingSeed):
            compile_rig(graph, sweep, roles, generate_default_mesh(), RigConfig(seeds={}))


def load_rig_section(tmp_path, rig_lines: str) -> RigConfig:
    """The RigConfig read from the [rig] section of a minimal pipeline config."""
    path = tmp_path / "config.cfg"
    path.write_text(
        "[paths]\nema = a.pos\nlayout = layout.cfg\nrig_graph = tongue.dot\n"
        "[roles]\nreference = R1, R2, R3\ntongue = TTipC\n"
        "[rig]\n" + rig_lines
    )
    return load_config(path).rig


class TestRigConfigText:
    """The [rig] section of the pipeline config, the one rig-config format."""

    def test_parse(self, tmp_path):
        cfg = load_rig_section(
            tmp_path,
            "seed.TTipC = 2.2, 0.0, 1.2\n"
            "root_offset = -1, 0, -1\n"
            "group.Lingua = tongue\n",
        )
        assert np.allclose(cfg.seeds["TTipC"], [2.2, 0.0, 1.2])
        assert np.array_equal(cfg.root_offset, [-1.0, 0.0, -1.0])
        assert cfg.group_map == {"Lingua": "tongue"}

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError):
            load_rig_section(tmp_path, "bogus = 1\n")

    def test_seed_needs_three_numbers(self, tmp_path):
        with pytest.raises(ConfigError):
            load_rig_section(tmp_path, "seed.TTipC = 2.2, 0.0\n")

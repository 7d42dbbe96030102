import json
import math
import re
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial import cKDTree

import spinefe.metrics as metrics
import spinefe.pipeline as pipeline
from spinefe.errors import ConfigError, MeshError, SolverError
from fixture_writers import write_markers
from spinefe.io import ReportGeometry, write_cloud
from spinefe.materials import (CalibrationLaw, DensityElasticityLaw, Provenance,
                               assign_uniform)
from spinefe.mesh import PartRole, PhantomSpec
from spinefe.pipeline import (ComparisonSettings, LoadCase, PipelineConfig,
                              SolverSettings, SyntheticSpec, build_flexion_motion,
                              build_materials, build_model, emit_reports,
                              fit_disc_to_force, load_config,
                              mesh_from_config, reemit_tables, run_sweep,
                              solve_entry, synth_measurement, write_entry,
                              write_tables)
from spinefe.registration import RigidMotion, rotation_angle
from spinefe.solver import apply_bcs, assemble, reaction_force, solve_pcg
from spinefe.strain import surface_strain_field
from test_solver import clamp_and_drive


def tiny_config(**over):
    cfg = {
        "phantom": {"width_mm": 6.0, "depth_mm": 6.0,
                    "vertebra_height_mm": 4.0, "disc_height_mm": 2.0,
                    "pot_height_mm": 2.0, "n_vertebrae": 2,
                    "nx": 3, "ny": 3, "nz_vertebra": 2, "nz_disc": 1,
                    "nz_pot": 1},
        "constant_hu": 800.0,
        "sweep_e_disc_mpa": [10.0, 25.0],
        "synthetic": {"spacing_mm": 1.0, "systematic_um": 0.0,
                      "random_um": 0.0},
        "loading": {"flexion_angle_deg": 1.0, "compression_mm": 0.2},
        "seed": 3,
    }
    cfg.update(over)
    return cfg


class TestLoadConfig:
    def test_dict_and_file_sources_agree(self, tmp_path):
        data = tiny_config()
        from_dict = load_config(data)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(data))
        from_file = load_config(p)
        assert from_file == from_dict

    def test_defaults_applied(self):
        cfg = load_config(tiny_config())
        assert cfg.nu_disc == 0.45
        assert cfg.e_pot_mpa == 2500.0
        assert cfg.comparison.idw_radius_mm == 1.0

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match=re.escape("unknown keys in config: ['basis']")):
            load_config(tiny_config(basis="tet4"))

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError, match=re.escape(
                "unknown keys in config section 'loading': ['angle']")):
            load_config(tiny_config(loading={"angle": 3.0}))

    def test_removed_keys_are_unknown(self):
        with pytest.raises(ConfigError, match=re.escape(
                "unknown keys in config: ['integration_order']")):
            load_config(tiny_config(integration_order=2))
        phantom = dict(tiny_config()["phantom"], flexion_offset_fraction=0.1)
        with pytest.raises(ConfigError, match=re.escape(
                "unknown keys in config section 'phantom': ['flexion_offset_fraction']")):
            load_config(tiny_config(phantom=phantom))

    @pytest.mark.parametrize("over, name", [pytest.param(*case, id=case[1]) for case in [
        ({"roi_axis": 5}, "roi_axis"),
        ({"roi_fractions": 7}, "roi_fractions"),
        ({"roi_axis": [1.0, "a", 0.0]}, "roi_axis[1]"),
        ({"seed": "x"}, "seed"),
        ({"threads": 2.5}, "threads"),
        ({"threads": True}, "threads"),
        ({"constant_hu": float("nan")}, "constant_hu"),
        ({"sweep_e_disc_mpa": 10.0}, "sweep_e_disc_mpa"),
        ({"loading": {"axis": 5}}, "loading.axis"),
        ({"loading": None}, "section 'loading'"),
        ({"comparison": {"min_points": "a"}}, "comparison.min_points"),
        ({"comparison": {"area_weighted": 1}}, "comparison.area_weighted"),
        ({"solver": {"tol": "x"}}, "solver.tol"),
        ({"phantom": {"nx": 2.5}}, "phantom.nx"),
    ]])
    def test_mistyped_values_rejected(self, over, name):
        with pytest.raises(ConfigError, match=re.escape(name)):
            load_config(tiny_config(**over))

    @pytest.mark.parametrize("over, name", [pytest.param(*case, id=case[1]) for case in [
        ({"roi_fractions": [0.9, 0.1]}, "roi_fractions"),
        ({"roi_fractions": [0.0, 0.5]}, "roi_fractions"),
        ({"roi_axis": [0.0, 0.0, 0.0]}, "roi_axis"),
        ({"seed": -1}, "seed"),
        ({"comparison": {"idw_radius_mm": -1.0}}, "comparison.idw_radius_mm"),
        ({"comparison": {"idw_power": -2.0}}, "comparison.idw_power"),
        ({"comparison": {"pct_diff_floor_ue": 0.0}}, "comparison.pct_diff_floor_ue"),
        ({"comparison": {"min_points": 0}}, "comparison.min_points"),
        ({"solver": {"tol": -1.0}}, "solver.tol"),
        ({"solver": {"tol": 0.0}}, "solver.tol"),
        ({"solver": {"tol": 1.0}}, "solver.tol"),
        ({"solver": {"max_iter": 0}}, "solver.max_iter"),
        ({"synthetic": {"reference_e_disc_mpa": 0.0}}, "synthetic.reference_e_disc_mpa"),
        ({"synthetic": {"reference_e_disc_mpa": -5.0}}, "synthetic.reference_e_disc_mpa"),
        ({"threads": 2}, "threads"),
        ({"sweep_e_disc_mpa": [10.0, 10.0000001]}, "report directory e_disc_10"),
        ({"sweep_e_disc_mpa": [25.0, 25.0]}, "report directory e_disc_25"),
    ]])
    def test_out_of_range_values_rejected(self, over, name):
        with pytest.raises(ConfigError, match=re.escape(name)):
            load_config(tiny_config(**over))

    def test_numbers_take_declared_types(self):
        cfg = load_config(tiny_config(constant_hu=800, loading={"axis": [1, 0, 0]},
                                      solver={"tol": 1e-8, "max_iter": None}))
        assert type(cfg.constant_hu) is float
        assert cfg.loading.axis == (1.0, 0.0, 0.0)
        assert all(type(a) is float for a in cfg.loading.axis)
        assert cfg.solver.max_iter is None

    def test_mesh_and_phantom_mutually_exclusive(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            load_config(tiny_config(mesh_path="mesh.txt"))
        cfg = tiny_config()
        del cfg["phantom"]
        with pytest.raises(ConfigError, match="mesh_path or a phantom"):
            load_config(cfg)

    def test_bad_json_file_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{broken")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_roi_fields_coerced_to_tuples(self):
        cfg = load_config(tiny_config(roi_axis=[0.0, 1.0, 0.0],
                                      roi_fractions=[0.25, 0.75]))
        assert cfg.roi_axis == (0.0, 1.0, 0.0)
        assert cfg.roi_fractions == (0.25, 0.75)
        # a config built in Python skips load_config's typing: the range
        # check itself must refuse a non-finite axis
        for axis in ((math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0)):
            with pytest.raises(ConfigError, match="roi_axis"):
                PipelineConfig(phantom=PhantomSpec(), roi_axis=axis)

    def test_sweep_validation(self):
        with pytest.raises(ConfigError, match="must not be empty"):
            load_config(tiny_config(sweep_e_disc_mpa=[]))
        with pytest.raises(ConfigError, match="positive"):
            load_config(tiny_config(sweep_e_disc_mpa=[10.0, -1.0]))
        for e in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="positive and finite"):
                PipelineConfig(phantom=PhantomSpec(), sweep_e_disc_mpa=[10.0, e])

    def test_threads_validated(self):
        # the key stays for configs that set it, but the sweep runs in order
        assert load_config(tiny_config(threads=1)).threads == 1
        for threads in (0, 2, 8):
            with pytest.raises(ConfigError, match="threads must be 1"):
                load_config(tiny_config(threads=threads))

    @pytest.mark.parametrize("kwargs", [
        {"axis": (math.inf, 0.0, 0.0)}, {"axis": (math.nan, 1.0, 0.0)},
        {"flexion_angle_deg": math.nan},
        {"flexion_angle_deg": -math.inf}, {"compression_mm": math.inf},
        {"offset_fraction": math.nan}])
    def test_load_case_validated(self, kwargs):
        # a LoadCase built in Python skips load_config's finite-number checks
        with pytest.raises(ConfigError, match="loading"):
            LoadCase(**kwargs)

    def test_synthetic_spec_validated(self):
        with pytest.raises(ConfigError, match="spacing_mm"):
            load_config(tiny_config(synthetic={"spacing_mm": 0.0}))


SECTIONS = {"phantom": PhantomSpec, "calibration": CalibrationLaw,
            "elasticity": DensityElasticityLaw, "loading": LoadCase,
            "comparison": ComparisonSettings, "solver": SolverSettings,
            "synthetic": SyntheticSpec}
CONFIG_KEYS = ([(None, f.name) for f in fields(PipelineConfig)]
               + [(name, f.name) for name, cls in SECTIONS.items()
                  for f in fields(cls)])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def assert_numeric_fields_typed(obj):
    """Each int/float field (or float tuple/list) holds its declared type."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            assert_numeric_fields_typed(value)
            continue
        declared = f.type.removesuffix(" | None")
        if value is None and declared != f.type:
            continue
        if declared in ("int", "float"):
            items, kind = [value], int if declared == "int" else float
        elif declared.startswith(("tuple[float", "list[float")):
            container = tuple if declared.startswith("tuple") else list
            assert type(value) is container, (f.name, value)
            if container is tuple:
                assert len(value) == declared.count("float"), (f.name, value)
            items, kind = value, float
        else:
            continue
        for item in items:
            assert type(item) is kind, (f.name, value)
            assert kind is int or math.isfinite(item), (f.name, value)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), JSON_VALUES),
                min_size=1, max_size=4))
def test_fuzzed_config_is_typed_or_config_error(overrides):
    data = tiny_config()
    for (section, key), value in overrides:
        if section is None:
            data[key] = value
        elif isinstance(data.get(section), dict):
            data[section] = {**data[section], key: value}
        else:
            data[section] = {key: value}
    try:
        cfg = load_config(data)
    except ConfigError:
        return
    assert_numeric_fields_typed(cfg)


class TestFlexionMotion:
    def test_pivot_oracle(self):
        cfg = load_config(tiny_config())
        mesh = mesh_from_config(cfg)
        load = LoadCase(flexion_angle_deg=2.0, compression_mm=0.3,
                        offset_fraction=0.10)
        motion = build_flexion_motion(mesh, load)
        # single disc band: x, y in [0, 6], z in [6, 8]; box center
        # (3, 3, 7) shifted +0.6 in y by the 10% offset
        pivot = np.array([3.0, 3.6, 7.0])
        assert np.allclose(motion.apply(pivot), pivot + [0.0, 0.0, -0.3],
                           atol=1e-12)
        assert rotation_angle(motion) == pytest.approx(2.0, abs=1e-10)

    def test_axis_respected(self):
        cfg = load_config(tiny_config())
        mesh = mesh_from_config(cfg)
        motion = build_flexion_motion(mesh, LoadCase(axis=(0.0, 1.0, 0.0),
                                                     compression_mm=0.0))
        # rotation about y leaves the y axis invariant
        assert np.allclose(motion.rotation @ [0.0, 1.0, 0.0], [0.0, 1.0, 0.0],
                           atol=1e-12)


class TestMeshFromConfig:
    def test_edge_audit_rejects_coarse_mesh(self):
        cfg = load_config(tiny_config(max_edge_mm=1.0))
        with pytest.raises(MeshError, match="exceed max edge"):
            mesh_from_config(cfg)

    def test_edge_audit_passes_within_limit(self):
        cfg = load_config(tiny_config(max_edge_mm=4.0))
        mesh = mesh_from_config(cfg)
        assert mesh.n_elements > 0

    def test_mesh_file_source(self, tmp_path):
        from spinefe.io import write_mesh
        mesh = mesh_from_config(load_config(tiny_config()))
        p = tmp_path / "mesh.txt"
        write_mesh(mesh, p)
        cfg = tiny_config(mesh_path=str(p))
        del cfg["phantom"]
        back = mesh_from_config(load_config(cfg))
        assert back.nodes.tobytes() == mesh.nodes.tobytes()


class TestBuildMaterials:
    def test_provenance_and_uniform_hu_modulus(self):
        cfg = load_config(tiny_config())
        mesh = mesh_from_config(cfg)
        mats = build_materials(cfg, mesh)
        roles = np.array([mesh.part_table[int(p)].role
                          for p in mesh.parts])
        assert (mats.provenance[roles == PartRole.VERTEBRA]
                == Provenance.MAPPED).all()
        assert (mats.provenance[roles == PartRole.POT]
                == Provenance.UNIFORM).all()
        assert (mats.provenance[roles == PartRole.DISC]
                == Provenance.UNSET).all()
        rho = 1e-3 * 800.0
        e_want = 4730.0 * rho ** 1.56
        vert = roles == PartRole.VERTEBRA
        assert np.allclose(mats.e_mpa[vert], e_want, rtol=1e-5)
        assert np.allclose(mats.nu[vert], cfg.nu_bone)
        pot = roles == PartRole.POT
        assert np.allclose(mats.e_mpa[pot], 2500.0)


class TestBuildModel:
    def setup_method(self):
        self.cfg = load_config(tiny_config())
        self.model = build_model(self.cfg)

    def test_constraint_sets_disjoint_and_placed(self):
        m = self.model
        z = m.mesh.nodes[:, 2]
        assert np.intersect1d(m.fixed_nodes, m.driven_nodes).size == 0
        # every node on the extreme faces is constrained
        assert np.isin(np.flatnonzero(np.isclose(z, z.min())),
                       m.fixed_nodes).all()
        assert np.isin(np.flatnonzero(np.isclose(z, z.max())),
                       m.driven_nodes).all()
        # driven nodes live on the superior pot band (z in [12, 14])
        assert (z[m.driven_nodes] >= 12.0 - 1e-12).all()
        assert (z[m.fixed_nodes] <= 2.0 + 1e-12).all()

    def test_observed_surface_is_vertebra_only(self):
        m = self.model
        roles = {m.mesh.part_table[int(p)].role for p in m.observed.tri_parts}
        assert roles == {PartRole.VERTEBRA}
        assert m.rois.shape == (m.observed.n_triangles,)

    def test_disc_parts_recorded_at_unit_modulus(self):
        # the model keeps the one material field it assembles from: no
        # element is unset, and the discs hold the unit modulus E scales
        m = self.model
        assert len(m.disc_part_ids) == 1
        assert m.materials.coverage_gaps().size == 0
        disc = np.isin(m.mesh.parts, m.disc_part_ids)
        assert (m.materials.e_mpa[disc] == 1.0).all()
        assert (m.materials.nu[disc] == self.cfg.nu_disc).all()
        mapped = build_materials(self.cfg, m.mesh)
        assert m.materials.e_mpa[~disc].tobytes() == mapped.e_mpa[~disc].tobytes()

    def test_splice_matches_direct_reduction(self):
        m, e = self.model, 25.0
        materials = m.materials.copy()
        for pid in m.disc_part_ids:
            materials = assign_uniform(m.mesh, materials, pid, e, self.cfg.nu_disc)
        bcs = clamp_and_drive(m.mesh, m.fixed_nodes, m.driven_nodes, m.motion)
        direct = apply_bcs(assemble(m.mesh, materials), bcs, m.mesh)
        spliced = m.system.at(e)
        assert np.array_equal(spliced.free, direct.free)
        assert np.array_equal(spliced.prescribed, direct.prescribed)
        assert abs(spliced.k_ff - direct.k_ff).max() <= 1e-12 * abs(direct.k_ff).max()
        assert np.abs(spliced.rhs - direct.rhs).max() <= 1e-12 * np.abs(direct.rhs).max()
        assert abs(spliced.k_coarse - direct.k_coarse).max() <= \
            1e-12 * abs(direct.k_coarse).max()

    def test_blocks_share_one_constraint_split(self):
        m = self.model
        first = m.system.at(10.0)
        before = [first.k_ff.data.copy(), first.rhs.copy(), first.k_coarse.copy()]
        again = m.system.at(25.0)
        # every modulus is formed on one split and one pattern ...
        for name in ("free", "prescribed", "prescribed_u", "restriction"):
            assert getattr(again, name) is getattr(first, name)
        assert np.shares_memory(again.k_ff.indices, first.k_ff.indices)
        assert np.shares_memory(again.k_ff.indptr, first.k_ff.indptr)
        # ... in values of its own: a later modulus leaves an earlier one as it was
        for old, new in zip(before, (first.k_ff.data, first.rhs, first.k_coarse)):
            assert new.tobytes() == old.tobytes()
        assert not np.shares_memory(again.k_ff.data, first.k_ff.data)
        assert not np.shares_memory(again.rhs, first.rhs)
        assert not np.shares_memory(again.k_coarse, first.k_coarse)
        assert m.solved == {}

    def test_markers_set_the_motion(self, tmp_path):
        # markers replace the loading block: their rigid fit drives the
        # superior pot, and the entry reports that fit's rotation
        truth = RigidMotion.about_axis((0.2, 1.0, -0.3), 1.7, pivot=(3.0, 3.0, 7.0),
                                       extra_translation=(0.05, -0.02, -0.15))
        reference = np.array([[0.0, 0.0, 0.0], [6.0, 0.0, 1.0],
                              [0.0, 6.0, 2.0], [3.0, 3.0, 14.0]])
        path = tmp_path / "markers.csv"
        write_markers(list("abcd"), reference, truth.apply(reference), path)
        model = build_model(load_config(tiny_config(markers_path=str(path))))
        assert np.abs(model.motion.rotation - truth.rotation).max() <= 1e-12
        assert np.abs(model.motion.translation - truth.translation).max() <= 1e-12
        entry = solve_entry(model, 25.0)
        assert entry.ok
        assert entry.angle_deg == pytest.approx(rotation_angle(truth), abs=1e-12)

    def test_disc_required(self):
        cfg = tiny_config()
        cfg["phantom"]["n_vertebrae"] = 1  # single vertebra: no disc band
        with pytest.raises(MeshError, match="no disc part"):
            build_model(load_config(cfg))


class TestParametricSystem:
    """The spliced blocks against the sums of independently reduced static
    and unit-disc systems, bit for bit."""

    def setup_method(self):
        # the model's materials hold the discs at unit modulus
        m = self.model = build_model(load_config(tiny_config()))
        static_parts = [p for p in m.mesh.part_table if p not in m.disc_part_ids]
        self.full_s = assemble(m.mesh, m.materials, part_ids=static_parts)
        self.full_d = assemble(m.mesh, m.materials, part_ids=m.disc_part_ids)
        bcs = clamp_and_drive(m.mesh, m.fixed_nodes, m.driven_nodes, m.motion)
        self.s = apply_bcs(self.full_s, bcs, m.mesh)
        self.d = apply_bcs(self.full_d, bcs, m.mesh)

    def test_spliced_blocks_are_the_sparse_sums(self):
        s, d = self.s, self.d
        x = np.random.default_rng(0).normal(size=s.free.size)
        for e in (4.15, 25.0, 50.0, 25.0):
            got = self.model.system.at(e)
            k_ff = s.k_ff + e * d.k_ff
            assert (got.k_ff @ x).tobytes() == (k_ff @ x).tobytes()
            assert got.k_ff.diagonal().tobytes() == k_ff.diagonal().tobytes()
            assert got.diagonal.tobytes() == k_ff.diagonal().tobytes()
            assert got.rhs.tobytes() == (s.rhs + e * d.rhs).tobytes()
            assert got.k_coarse.tobytes() == (s.k_coarse + e * d.k_coarse).tobytes()

    def test_static_and_unit_are_the_reduced_blocks(self):
        system = self.model.system
        for part, want in ((system.static, self.s), (system.unit, self.d)):
            assert part.free.tobytes() == want.free.tobytes()
            assert part.prescribed.tobytes() == want.prescribed.tobytes()
            assert part.prescribed_u.tobytes() == want.prescribed_u.tobytes()
            # on the merged pattern, k_ff holds explicit zeros where only
            # the other part is nonzero
            assert abs(part.k_ff - want.k_ff).max() == 0.0
            assert part.rhs.tobytes() == want.rhs.tobytes()
            assert part.k_coarse.tobytes() == want.k_coarse.tobytes()
            assert abs(part.restriction - want.restriction).max() == 0.0
        assert system.unit.restriction is system.static.restriction
        assert np.shares_memory(system.unit.k_ff.indices, system.static.k_ff.indices)
        rows = (3 * self.model.driven_nodes[:, None] + np.arange(3)).ravel()
        assert abs(system.reaction_static - self.full_s[rows]).max() == 0.0
        assert abs(system.reaction_unit - self.full_d[rows]).max() == 0.0
        assert np.shares_memory(system.reaction_unit.indices, system.reaction_static.indices)

    def test_reaction_is_reaction_force_on_the_full_matrix(self):
        m = self.model
        for e in (10.0, 35.0, 10.0):
            entry = solve_entry(m, e)
            full = self.full_s + e * self.full_d
            want = reaction_force(full, entry.disp, m.driven_nodes)
            assert m.system.reaction(e, entry.disp).tobytes() == want.tobytes()
            assert entry.reaction_n == want.tolist()

    def test_non_positive_spliced_diagonal_rejected(self):
        # a disc modulus this negative makes the disc DOFs' diagonal negative
        with pytest.raises(SolverError, match="non-positive diagonal"):
            solve_pcg(self.model.system.at(-1e9))

    def test_spliced_solve_is_the_summed_solve(self):
        s, d, e = self.s, self.d, 25.0
        k_ff = s.k_ff + e * d.k_ff
        summed = replace(s, k_ff=k_ff, diagonal=k_ff.diagonal(), rhs=s.rhs + e * d.rhs,
                         k_coarse=s.k_coarse + e * d.k_coarse)
        want, want_stats = solve_pcg(summed)
        got, got_stats = solve_pcg(self.model.system.at(e))
        assert got.tobytes() == want.tobytes()
        assert (got_stats.iterations, got_stats.residual) == \
            (want_stats.iterations, want_stats.residual)


class TestSynthMeasurement:
    def setup_method(self):
        self.model = build_model(load_config(tiny_config()))
        self.entry = solve_entry(self.model, 25.0)
        assert self.entry.ok, self.entry.error

    def test_corner_nodes_lead_with_exact_values(self):
        spec = SyntheticSpec(spacing_mm=1.0, systematic_um=0.0, random_um=0.0)
        rng = np.random.default_rng(0)
        cloud = synth_measurement(self.model.observed, self.entry.disp, spec, rng)
        ids = self.model.observed.corner_node_ids()
        assert cloud.points[:ids.size].tobytes() == \
            self.model.mesh.nodes[ids].tobytes()
        assert cloud.values[:ids.size].tobytes() == \
            self.entry.disp[ids].tobytes()

    def test_affine_field_sampled_exactly(self):
        # a field affine at every node is affine over every triangle, so
        # each sampled row must carry A·point + b
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=(3, 3)), rng.normal(size=3)
        disp = self.model.mesh.nodes @ a.T + b
        spec = SyntheticSpec(spacing_mm=1.0, systematic_um=0.0, random_um=0.0)
        cloud = synth_measurement(self.model.observed, disp, spec, np.random.default_rng(2))
        assert len(cloud.points) > self.model.observed.corner_node_ids().size
        want = cloud.points @ a.T + b
        assert np.abs(cloud.values - want).max() <= 1e-12 * np.abs(want).max()

    def test_matches_per_triangle_loop(self):
        # the per-triangle loop the batched sampler replaced, kept as the
        # reference for its draw order and rounding
        surface, disp = self.model.observed, self.entry.disp
        spec = SyntheticSpec(spacing_mm=1.0, systematic_um=10.0, random_um=25.0)
        rng = np.random.default_rng(4)
        ids = surface.corner_node_ids()
        pts, vals = [surface.mesh.nodes[ids]], [disp[ids]]
        counts = np.ceil(2.0 * surface.areas / spec.spacing_mm ** 2).astype(int)
        for tri, tri_disp, c in zip(surface.vertex_coords(), disp[surface.triangles], counts):
            r1 = np.sqrt(rng.random(c))
            r2 = rng.random(c)
            bary = np.stack([1.0 - r1, r1 * (1.0 - r2), r1 * r2], axis=1)
            pts.append(bary @ tri)
            vals.append(bary @ tri_disp)
        points, values = np.vstack(pts), np.vstack(vals)
        keep = pipeline._thin_by_spacing(points, spec.spacing_mm)
        bias = rng.standard_normal(3)
        values = values[keep] + (spec.systematic_um * 1e-3) * (bias / np.linalg.norm(bias))
        values = values + rng.normal(0.0, spec.random_um * 1e-3, values.shape)
        cloud = synth_measurement(surface, disp, spec, np.random.default_rng(4))
        assert cloud.points.tobytes() == points[keep].tobytes()
        assert cloud.values.tobytes() == values.tobytes()

    def test_spacing_respected(self):
        spec = SyntheticSpec(spacing_mm=1.5, systematic_um=0.0, random_um=0.0)
        rng = np.random.default_rng(1)
        cloud = synth_measurement(self.model.observed, self.entry.disp, spec, rng)
        d, _ = cKDTree(cloud.points).query(cloud.points, k=2)
        assert d[:, 1].min() >= 1.5 - 1e-12

    @pytest.mark.parametrize("spacing", [1e-300, 1e-5])
    def test_spacing_too_fine_to_sample_is_a_config_error(self, spacing):
        # 1e-300 squares to zero and overflows the counts, 1e-5 asks for
        # about 1e12 candidates: both are refused before any is drawn
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError, match="synthetic.spacing_mm"):
            synth_measurement(self.model.observed, self.entry.disp,
                              SyntheticSpec(spacing_mm=spacing), rng)
        assert rng.random() == np.random.default_rng(0).random()

    def test_candidate_cap_bounds_the_count(self, monkeypatch):
        surface, spec = self.model.observed, SyntheticSpec(spacing_mm=1.0)
        count = int(np.ceil(2.0 * surface.areas / spec.spacing_mm ** 2).sum())
        monkeypatch.setattr(pipeline, "SYNTH_MAX_CANDIDATES", count)
        synth_measurement(surface, self.entry.disp, spec, np.random.default_rng(0))
        monkeypatch.setattr(pipeline, "SYNTH_MAX_CANDIDATES", count - 1)
        with pytest.raises(ConfigError, match="candidates"):
            synth_measurement(surface, self.entry.disp, spec, np.random.default_rng(0))

    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(spacing_mm=1.0, systematic_um=10.0, random_um=25.0)
        c1 = synth_measurement(self.model.observed, self.entry.disp, spec,
                               np.random.default_rng(5))
        c2 = synth_measurement(self.model.observed, self.entry.disp, spec,
                               np.random.default_rng(5))
        c3 = synth_measurement(self.model.observed, self.entry.disp, spec,
                               np.random.default_rng(6))
        assert c1.values.tobytes() == c2.values.tobytes()
        assert c1.values.tobytes() != c3.values.tobytes()

    def test_noise_magnitudes_plausible(self):
        spec = SyntheticSpec(spacing_mm=1.0, systematic_um=0.0, random_um=25.0)
        clean = SyntheticSpec(spacing_mm=1.0, systematic_um=0.0, random_um=0.0)
        noisy = synth_measurement(self.model.observed, self.entry.disp, spec,
                                  np.random.default_rng(7))
        base = synth_measurement(self.model.observed, self.entry.disp, clean,
                                 np.random.default_rng(7))
        delta = noisy.values - base.values
        assert 0.015 < delta.std() < 0.035  # 25 um = 0.025 mm


@st.composite
def thinning_cases(draw):
    """Candidates mixing lattice points (some exactly one spacing apart),
    free points and repeats of earlier ones, in any order."""
    spacing = draw(st.sampled_from([0.5, 1.0, 1.5]))
    lattice = st.tuples(*[st.integers(0, 3)] * 3).map(lambda k: [spacing * v for v in k])
    free = st.tuples(*[st.floats(0.0, 3.0 * spacing)] * 3).map(list)
    points = draw(st.lists(lattice | free, min_size=1, max_size=40))
    repeats = draw(st.lists(st.sampled_from(points), max_size=5))
    return np.array(draw(st.permutations(points + repeats))), spacing


@settings(max_examples=200, deadline=None)
@given(thinning_cases())
@example((np.array([[0.0, 0, 0], [1.0, 0, 0], [0.5, 0, 0], [0.0, 0, 0]]), 1.0))
def test_thinning_matches_brute_force_greedy(case):
    points, spacing = case
    assert pipeline._thin_by_spacing(points, spacing).tolist() == \
        _greedy_thinning(points, spacing)


def _greedy_thinning(points, spacing) -> list[bool]:
    """Each point in turn, kept unless a kept earlier one is too close."""
    want: list[bool] = []
    for p in points:
        want.append(all((q - p) @ (q - p) >= spacing * spacing
                        for q, kept in zip(points, want) if kept))
    return want


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0.5, 1.0, 2.0]), st.integers(0, 2),
       st.permutations(range(24)))
def test_thinning_chains_match_brute_force_greedy(spacing, axis, order):
    # half a spacing apart along one axis: each point clashes with its
    # neighbours and sits exactly one spacing from the next but one, so a
    # point's fate hangs on a chain of earlier decisions
    points = np.zeros((24, 3))
    points[:, axis] = 0.5 * spacing * np.array(order, dtype=float)
    assert pipeline._thin_by_spacing(points, spacing).tolist() == \
        _greedy_thinning(points, spacing)


class TestSolveEntry:
    def setup_method(self):
        self.model = build_model(load_config(tiny_config()))

    def test_successful_entry(self):
        entry = solve_entry(self.model, 25.0)
        assert entry.ok and entry.error is None
        assert entry.reaction_mag_n > 0.0
        assert entry.angle_deg == pytest.approx(1.0, abs=1e-9)
        assert np.isfinite(entry.disp).all()
        n_tri = self.model.observed.n_triangles
        assert n_tri > 0
        assert entry.strains.eps_max_ue.shape == entry.strains.eps_min_ue.shape == (n_tri,)
        assert np.isfinite(entry.strains.tensors).all()
        assert entry.strain_summary["total"]["n"] > 0
        assert entry.stats.iterations > 0
        assert entry.report is None

    def test_prescribed_motion_exact_on_driven_nodes(self):
        entry = solve_entry(self.model, 25.0)
        want = self.model.motion.small_displacement(
            self.model.mesh.nodes[self.model.driven_nodes])
        assert np.allclose(entry.disp[self.model.driven_nodes], want, atol=0.0)
        assert (entry.disp[self.model.fixed_nodes] == 0.0).all()

    def test_stiffer_disc_raises_reaction(self):
        soft = solve_entry(self.model, 5.0)
        stiff = solve_entry(self.model, 50.0)
        assert soft.ok and stiff.ok
        assert stiff.reaction_mag_n > soft.reaction_mag_n

    def test_failure_is_contained(self):
        cfg = load_config(tiny_config(solver={"max_iter": 1}))
        model = build_model(cfg)
        entry = solve_entry(model, 25.0)
        assert not entry.ok
        assert entry.error.startswith("convergence:")
        assert entry.disp is None

    @pytest.mark.parametrize("e_disc", [0.0, -5.0, math.nan, math.inf])
    def test_modulus_not_positive_and_finite_rejected(self, e_disc):
        with pytest.raises(ConfigError, match="disc modulus must be positive and finite"):
            solve_entry(self.model, e_disc)

    def test_repeated_modulus_reuses_the_field(self):
        first = solve_entry(self.model, 25.0)
        again = solve_entry(self.model, 25.0)
        assert again.disp.tobytes() == first.disp.tobytes()
        assert again.stats == first.stats
        assert list(self.model.solved) == [25.0]

    def test_repeated_modulus_splices_no_reduced_blocks(self):
        first = solve_entry(self.model, 25.0)
        # shares self.model.solved; a splice, or a reaction, would raise
        model = replace(self.model, system=None)
        again = solve_entry(model, 25.0)
        assert again.ok and again.reaction_n == first.reaction_n

    def test_seeded_solve_matches_cold_solve(self):
        solve_entry(self.model, 10.0)
        solve_entry(self.model, 40.0)
        seeded = solve_entry(self.model, 25.0)
        cold = solve_entry(replace(self.model, solved={}), 25.0)
        assert seeded.stats.iterations < cold.stats.iterations
        tol = self.model.config.solver.tol
        assert seeded.stats.true_residual <= 2.0 * tol
        scale = np.abs(cold.disp).max()
        assert np.abs(seeded.disp - cold.disp).max() <= 1e-6 * scale

    def test_failed_solve_is_not_stored(self):
        cfg = load_config(tiny_config(solver={"max_iter": 1}))
        model = build_model(cfg)
        assert not solve_entry(model, 25.0).ok
        assert model.solved == {}

    def test_comparison_attached(self):
        entry0 = solve_entry(self.model, 25.0)
        spec = SyntheticSpec(spacing_mm=1.0, systematic_um=0.0, random_um=0.0)
        cloud = synth_measurement(self.model.observed, entry0.disp, spec,
                                  np.random.default_rng(8))
        entry = solve_entry(self.model, 25.0, compare_cloud=cloud)
        assert entry.ok
        assert entry.report.displacement["pooled"]["rmse"] == 0.0
        blk = entry.report.strain_block("all", "eps_max")
        assert blk["ks_d"] == 0.0

    def test_compared_entry_builds_the_model_strain_field_once(self, monkeypatch):
        spec = SyntheticSpec(spacing_mm=1.0, systematic_um=0.0, random_um=0.0)
        cloud, _ = pipeline.synthetic_cloud(self.model, spec)
        calls = []

        def counting(surface, disp):
            calls.append(surface is self.model.observed)
            return surface_strain_field(surface, disp)
        monkeypatch.setattr(metrics, "surface_strain_field", counting)
        entry = solve_entry(self.model, 30.0, compare_cloud=cloud)
        assert entry.ok and entry.report is not None
        # the measured field; the model's is the entry's own
        assert calls == [True]

    def test_report_settings_are_the_config_comparison(self):
        comparison = {"idw_power": 3.0, "idw_radius_mm": 1.5, "pct_diff_floor_ue": 20.0,
                      "area_weighted": True, "min_points": 4}
        model = build_model(load_config(tiny_config(comparison=comparison)))
        cloud, _ = pipeline.synthetic_cloud(model, SyntheticSpec(spacing_mm=1.0))
        entry = solve_entry(model, 25.0, compare_cloud=cloud)
        assert entry.report.settings == {"power": 3.0, "radius_mm": 1.5,
                                         "pct_diff_floor_ue": 20.0, "area_weighted": 1.0}


class TestObtainCloud:
    def test_file_source(self, tmp_path):
        model = build_model(load_config(tiny_config()))
        entry = solve_entry(model, 10.0)
        spec = SyntheticSpec(spacing_mm=1.0, systematic_um=0.0, random_um=0.0)
        cloud = synth_measurement(model.observed, entry.disp, spec,
                                  np.random.default_rng(9))
        p = tmp_path / "cloud.csv"
        write_cloud(cloud, p)
        cfg = load_config(tiny_config(measurement_path=str(p), synthetic=None))
        model2 = build_model(cfg)
        got, source = pipeline._obtain_cloud(model2)
        assert source == f"file:{p}"
        assert got.points.tobytes() == cloud.points.tobytes()

    def test_synthetic_defaults_to_first_sweep_value(self):
        model = build_model(load_config(tiny_config()))
        _, source = pipeline._obtain_cloud(model)
        assert source == "synthetic:e_disc=10"

    def test_synthetic_reference_override(self):
        cfg = tiny_config()
        cfg["synthetic"]["reference_e_disc_mpa"] = 25.0
        model = build_model(load_config(cfg))
        _, source = pipeline._obtain_cloud(model)
        assert source == "synthetic:e_disc=25"

    def test_neither_source_rejected(self):
        model = build_model(load_config(tiny_config(synthetic=None)))
        with pytest.raises(ConfigError, match="measurement_path or a synthetic"):
            pipeline._obtain_cloud(model)

    def test_reference_field_is_the_one_stored(self, monkeypatch):
        # the reference field is solved and stored as an entry's is, but
        # builds no entry (strains, ROI means)
        model = build_model(load_config(tiny_config()))
        monkeypatch.setattr(pipeline, "solve_entry", None)
        pipeline.synthetic_cloud(model, SyntheticSpec(reference_e_disc_mpa=25.0))
        assert list(model.solved) == [25.0]
        fresh = build_model(load_config(tiny_config()))
        assert model.solved[25.0][0].tobytes() == solve_entry(fresh, 25.0).disp.tobytes()


class TestRunSweep:
    def test_smoke(self):
        result = run_sweep(load_config(tiny_config()))
        assert [e.e_disc_mpa for e in result.entries] == [10.0, 25.0]
        assert all(e.ok for e in result.entries)
        assert all(e.report is not None for e in result.entries)
        assert result.measurement_source == "synthetic:e_disc=10"
        # the 10 MPa entry reproduces the zero-noise reference cloud
        assert result.entries[0].report.displacement["pooled"]["rmse"] == 0.0

    def test_reaction_monotone_in_disc_modulus(self):
        cfg = load_config(tiny_config(sweep_e_disc_mpa=[4.0, 12.0, 36.0]))
        result = run_sweep(cfg)
        mags = [e.reaction_mag_n for e in result.entries]
        assert mags[0] < mags[1] < mags[2]

    def test_one_failing_entry_does_not_stop_others(self, monkeypatch):
        cfg = load_config(tiny_config(sweep_e_disc_mpa=[10.0, 20.0, 30.0]))
        original = pipeline.solve_pcg
        calls = []

        def flaky(system, tol=1e-9, max_iter=None, x0=None):
            calls.append(1)
            if len(calls) == 2:  # call 1 is the reference solve, reused at 10 MPa
                raise SolverError("injected failure")
            return original(system, tol=tol, max_iter=max_iter, x0=x0)

        monkeypatch.setattr(pipeline, "solve_pcg", flaky)
        result = run_sweep(cfg)
        oks = [e.ok for e in result.entries]
        assert oks == [True, False, True]
        failed = result.entries[1]
        assert failed.error == "solver: injected failure"
        assert all(getattr(failed, f.name) is None for f in fields(failed)
                   if f.name not in ("e_disc_mpa", "error"))
        assert list(result.model.solved) == [10.0, 30.0]
        with pytest.raises(FrozenInstanceError):
            failed.error = None
        with pytest.raises(FrozenInstanceError):
            result.entries[0].reaction_mag_n = 0.0

    def test_seeded_trend_sweep_matches_cold_solves(self):
        trend = tiny_config(phantom={"nx": 5, "ny": 4, "nz_vertebra": 4,
                                     "nz_disc": 2, "nz_pot": 2},
                            sweep_e_disc_mpa=[4.15, 10.0, 25.0, 30.0, 35.0, 50.0],
                            loading={"flexion_angle_deg": 2.0, "compression_mm": 0.5},
                            synthetic={"spacing_mm": 2.0, "systematic_um": 0.0,
                                       "random_um": 0.0})
        result = run_sweep(load_config(trend))
        tol = result.model.config.solver.tol
        seeded_its = cold_its = 0
        for entry in result.entries[1:]:
            cold = solve_entry(replace(result.model, solved={}), entry.e_disc_mpa)
            gap = np.linalg.norm(np.subtract(entry.reaction_n, cold.reaction_n))
            assert gap <= 1e-7 * np.linalg.norm(cold.reaction_n)
            assert entry.stats.true_residual <= 2.0 * tol
            seeded_its += entry.stats.iterations
            cold_its += cold.stats.iterations
        assert 2 * seeded_its <= cold_its


class TestReports:
    def setup_method(self):
        self.result = run_sweep(load_config(tiny_config()))

    def test_emit_reports_writes_expected_tree(self, tmp_path):
        emit_reports(self.result, tmp_path)
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "curves.csv").exists()
        assert (tmp_path / "sweep_result.json").exists()
        for e in (10, 25):
            edir = tmp_path / f"e_disc_{e}"
            for name in ("displacements.csv", "strains.csv", "report.json",
                         "solution.vtk", "surface_strains.vtk"):
                assert (edir / name).exists(), f"{edir / name}"

    def test_summary_table_contents(self, tmp_path):
        import csv
        emit_reports(self.result, tmp_path)
        with (tmp_path / "summary.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["statistic", "e_disc_mpa", "part", "quantity",
                           "left", "central", "right", "total"]
        stats = {r[0] for r in rows[1:]}
        assert {"reaction_mag_n", "flexion_angle_deg", "rmse_mm",
                "rmse_ue", "ks_d", "mean_meas_ue"} <= stats
        reaction_rows = [r for r in rows if r[0] == "reaction_mag_n"]
        assert [r[1] for r in reaction_rows] == ["10", "25"]

    def test_curves_table_contents(self, tmp_path):
        emit_reports(self.result, tmp_path)
        lines = (tmp_path / "curves.csv").read_text().splitlines()
        assert lines[0].startswith("e_disc_mpa,eps_max_rmse_pct_left")
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "10"
        # reference entry matches the cloud exactly: all rmse_pct are 0
        assert all(v == "0" for v in first[1:])

    def test_sweep_json_round_trips(self, tmp_path):
        emit_reports(self.result, tmp_path)
        data = json.loads((tmp_path / "sweep_result.json").read_text())
        assert data["sweep_e_disc_mpa"] == [10.0, 25.0]
        assert data["seed"] == 3
        assert len(data["entries"]) == 2
        assert data["entries"][0]["ok"] is True

    def test_reemit_tables_is_lossless(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        emit_reports(self.result, d1)
        reemit_tables(d1 / "sweep_result.json", d2)
        assert (d1 / "summary.csv").read_bytes() == \
            (d2 / "summary.csv").read_bytes()
        assert (d1 / "curves.csv").read_bytes() == \
            (d2 / "curves.csv").read_bytes()

    def test_reemit_rejects_bad_input(self, tmp_path):
        bad = tmp_path / "sweep.json"
        bad.write_text("{}")
        with pytest.raises(ConfigError, match="entries"):
            reemit_tables(bad, tmp_path)
        with pytest.raises(ConfigError, match="cannot read"):
            reemit_tables(tmp_path / "missing.json", tmp_path)

    def test_error_entries_recorded_in_summary(self, tmp_path):
        dicts = [e.summary_dict() for e in self.result.entries]
        dicts.append({"e_disc_mpa": 99.0, "ok": False,
                      "error": "solver: boom"})
        write_tables(dicts, tmp_path)
        text = (tmp_path / "summary.csv").read_text()
        assert "error,99" in text
        assert "solver: boom" in text
        # failing entries contribute no curve rows
        lines = (tmp_path / "curves.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_entry_files_match_write_entry_alone(self, tmp_path):
        # emit_reports formats the geometry once for all entries; each
        # entry's files must equal those written with a geometry of its own
        emit_reports(self.result, tmp_path / "sweep")
        model = self.result.model
        for entry in self.result.entries:
            name = f"e_disc_{entry.e_disc_mpa:g}"
            alone = tmp_path / "alone" / name
            write_entry(model, entry, alone,
                        ReportGeometry.of(model.mesh, model.observed, model.rois))
            swept = tmp_path / "sweep" / name
            assert sorted(f.name for f in swept.iterdir()) == sorted(
                f.name for f in alone.iterdir())
            for f in alone.iterdir():
                assert (swept / f.name).read_bytes() == f.read_bytes(), f

    def test_solution_moduli_are_the_entry_disc_and_the_mapped_rest(self, tmp_path):
        emit_reports(self.result, tmp_path)
        model = self.result.model
        disc = np.isin(model.mesh.parts, model.disc_part_ids)
        mapped = build_materials(model.config, model.mesh).e_mpa[~disc]
        assert disc.any() and np.isfinite(mapped).all()
        for entry in self.result.entries:
            vtk = (tmp_path / f"e_disc_{entry.e_disc_mpa:g}" / "solution.vtk").read_text()
            block = vtk.split("SCALARS e_mpa double 1\nLOOKUP_TABLE default\n")[1]
            e_mpa = np.array(block.split()[:model.mesh.n_elements], dtype=np.float64)
            assert (e_mpa[disc] == entry.e_disc_mpa).all()
            assert e_mpa[~disc].tolist() == [float(f"{v:.10g}") for v in mapped]

    def test_repeated_sweeps_identical(self, tmp_path):
        other = run_sweep(load_config(tiny_config()))
        d1, d2 = tmp_path / "x", tmp_path / "y"
        emit_reports(self.result, d1)
        emit_reports(other, d2)
        assert (d1 / "sweep_result.json").read_bytes() == \
            (d2 / "sweep_result.json").read_bytes()


class TestFitDiscToForce:
    def test_recovers_target_modulus(self):
        cfg = load_config(tiny_config())
        model = build_model(cfg)
        target = solve_entry(model, 25.0).reaction_mag_n
        e_star, solves = fit_disc_to_force(cfg, target, (5.0, 60.0),
                                           tol_rel=1e-6)
        assert e_star == pytest.approx(25.0, rel=5e-3)
        assert solves <= 30

    @pytest.mark.parametrize("kwargs", [{"tol_rel": -1.0}, {"tol_rel": 0.0},
                                          {"tol_rel": 1.0}, {"tol_rel": math.nan},
                                          {"max_solves": 0}, {"max_solves": 1},
                                          {"target_force_n": math.inf},
                                          {"target_force_n": math.nan}],
                             ids=["tol_rel-1", "tol_rel0", "tol_rel1", "tol_rel_nan",
                                  "max_solves0", "max_solves1", "target_inf",
                                  "target_nan"])
    def test_out_of_range_settings_rejected_before_building(self, monkeypatch, kwargs):
        def no_build(config):
            raise AssertionError("build_model ran")
        monkeypatch.setattr(pipeline, "build_model", no_build)
        kwargs = {"target_force_n": 100.0, **kwargs}
        with pytest.raises(ConfigError, match="tol_rel|max_solves|target force"):
            fit_disc_to_force(load_config(tiny_config()), bracket=(5.0, 60.0), **kwargs)

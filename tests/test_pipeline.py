import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial import cKDTree

import spinefe.metrics as metrics
import spinefe.pipeline as pipeline
import spinefe.solver as solver
from spinefe import materials as materials_module
from spinefe.errors import (BracketError, ConfigError, ConvergenceError, FormatError, MeshError,
                            SolverError)
from fixture_writers import write_markers
from spinefe.io import ReportGeometry, write_cloud, write_mesh
from spinefe.materials import (CalibrationLaw, DensityElasticityLaw, Provenance, VoxelGrid,
                               assign_uniform)
from spinefe.mesh import PartRole, PhantomSpec
from spinefe.pipeline import (LoadCase, PipelineConfig, SweepEntry, SyntheticSpec,
                              build_flexion_motion, build_materials, build_model, emit_reports,
                              fit_disc_to_force, load_config,
                              mesh_from_config, run_sweep, solve_entry,
                              synth_measurement, write_entry, write_tables)
from spinefe.registration import RigidMotion, rotation_angle
from spinefe.solver import (PCG_TOL, ParametricSystem, ReducedBasis, apply_bcs, assemble,
                            reaction_force, reaction_rows, solve_pcg)
from spinefe.strain import surface_strain_field
from test_io import read_vtk
from test_solver import (assemble_all, assert_owns_its_entries, band_of, clamp_and_drive,
                         formed_factor, held_bytes, superdiagonals)


def removed_section(section, key, value):
    """A config-table row for a key of a method section that is gone: whatever
    value it holds, the whole section is one unknown key."""
    return pytest.param({section: {key: value}}, f"unknown keys in config: ['{section}']",
                        id=f"{section}.{key}")


def removed_key(key, value):
    """A config-table row for a top-level key that is gone: whatever value
    it holds, it is an unknown key."""
    return pytest.param({key: value}, f"unknown keys in config: ['{key}']", id=key)


def observed(model, cloud):
    """``cloud`` observed on the model's surface."""
    return metrics.observe(cloud, model.observed, model.rois)


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


def cold_model(model):
    """``model`` as built: no stored field, and an empty basis of its own."""
    return replace(model, solved={}, basis=ReducedBasis(model.system))


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
        assert cfg.calibration == CalibrationLaw()

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match=re.escape("unknown keys in config: ['basis']")):
            load_config(tiny_config(basis="tet4"))

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError, match=re.escape(
                "unknown keys in config section 'loading': ['angle']")):
            load_config(tiny_config(loading={"angle": 3.0}))

    def test_removed_keys_are_unknown(self):
        # even at its old default: the RoIs are thirds along roi_axis, and
        # the mesh has no edge audit
        for key, old in (("integration_order", 2), ("roi_fractions", [1 / 3, 2 / 3]),
                         ("max_edge_mm", None)):
            with pytest.raises(ConfigError, match=re.escape(
                    f"unknown keys in config: ['{key}']")):
                load_config(tiny_config(**{key: old}))
        phantom = dict(tiny_config()["phantom"], flexion_offset_fraction=0.1)
        with pytest.raises(ConfigError, match=re.escape(
                "unknown keys in config section 'phantom': ['flexion_offset_fraction']")):
            load_config(tiny_config(phantom=phantom))

    @pytest.mark.parametrize("key", ["idw_power", "idw_radius_mm"])
    def test_idw_keys_are_unknown(self, key):
        # the comparison observes the cloud at its own sites: nothing is
        # interpolated onto the nodes any more
        with pytest.raises(ConfigError, match=re.escape(
                "unknown keys in config: ['comparison']")):
            load_config(tiny_config(comparison={key: 1.0}))

    @pytest.mark.parametrize("section, key, value", [
        pytest.param(*case, id=f"{case[0]}.{case[1]}") for case in [
            ("comparison", "pct_diff_floor_ue", 10.0), ("comparison", "min_points", 10),
            ("solver", "tol", 1e-9), ("solver", "max_iter", None)]])
    def test_method_keys_are_unknown(self, section, key, value):
        # the method is the metrics and solver module constants; even a
        # section that sets a key to its old default is refused
        with pytest.raises(ConfigError, match=re.escape(
                f"unknown keys in config: ['{section}']")):
            load_config(tiny_config(**{section: {key: value}}))

    @pytest.mark.parametrize("over, name", [pytest.param(*case, id=case[1]) for case in [
        ({"roi_axis": 5}, "roi_axis"),
        ({"roi_axis": [1.0, "a", 0.0]}, "roi_axis[1]"),
        ({"seed": "x"}, "seed"),
        ({"threads": 2.5}, "threads"),
        ({"threads": True}, "threads"),
        ({"constant_hu": float("nan")}, "constant_hu"),
        ({"sweep_e_disc_mpa": 10.0}, "sweep_e_disc_mpa"),
        ({"loading": {"axis": 5}}, "loading.axis"),
        ({"loading": None}, "section 'loading'"),
        ({"phantom": {"nx": 2.5}}, "phantom.nx"),
    ]] + [removed_key("roi_fractions", 7),
          removed_section("comparison", "min_points", "a"),
          removed_section("comparison", "area_weighted", 1),
          removed_section("solver", "tol", "x")])
    def test_mistyped_values_rejected(self, over, name):
        with pytest.raises(ConfigError, match=re.escape(name)):
            load_config(tiny_config(**over))

    @pytest.mark.parametrize("over, name", [pytest.param(*case, id=case[1]) for case in [
        ({"roi_axis": [0.0, 0.0, 0.0]}, "roi_axis"),
        ({"seed": -1}, "seed"),
        ({"synthetic": {"reference_e_disc_mpa": 0.0}}, "synthetic.reference_e_disc_mpa"),
        ({"synthetic": {"reference_e_disc_mpa": -5.0}}, "synthetic.reference_e_disc_mpa"),
        ({"threads": 2}, "threads"),
        ({"sweep_e_disc_mpa": [10.0, 10.0000001]}, "report directory e_disc_10"),
        ({"sweep_e_disc_mpa": [25.0, 25.0]}, "report directory e_disc_25"),
        ({"elasticity": {"coefficient": -5.0}}, "'elasticity': coefficient"),
        ({"elasticity": {"exponent": 0.0}}, "'elasticity': coefficient and exponent"),
        ({"calibration": {"correction": -1.0}}, "'calibration': slope and correction"),
        ({"calibration": {"slope": -1.0}, "elasticity": {"exponent": -1.0}},
         "'calibration': slope"),
        ({"voxel_grid_path": "grid.json"}, "voxel_grid_path and constant_hu are mutually"),
    ]] + [removed_key("roi_fractions", [0.9, 0.1]),
          removed_key("roi_fractions", [0.0, 0.5]),
          removed_section("comparison", "pct_diff_floor_ue", 0.0),
          removed_section("comparison", "min_points", 0),
          removed_section("solver", "tol", -1.0),
          removed_section("solver", "tol", 0.0),
          removed_section("solver", "tol", 1.0),
          removed_section("solver", "max_iter", 0)])
    def test_out_of_range_values_rejected(self, over, name):
        with pytest.raises(ConfigError, match=re.escape(name)):
            load_config(tiny_config(**over))

    def test_numbers_take_declared_types(self):
        cfg = load_config(tiny_config(constant_hu=800, loading={"axis": [1, 0, 0]},
                                      synthetic={"reference_e_disc_mpa": None}))
        assert type(cfg.constant_hu) is float
        assert cfg.loading.axis == (1.0, 0.0, 0.0)
        assert all(type(a) is float for a in cfg.loading.axis)
        assert cfg.synthetic.reference_e_disc_mpa is None

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

    @pytest.mark.parametrize("text", [b'\xff\xfe{"seed": 1}', b"[" * 200_000 + b"]" * 200_000],
                             ids=["not_utf8", "nested_past_the_parser"])
    def test_unparsable_file_rejected(self, tmp_path, text):
        p = tmp_path / "cfg.json"
        p.write_bytes(text)
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(p)

    @pytest.mark.parametrize("key", ["output_dir", "mesh_path", "voxel_grid_path",
                                     "markers_path", "measurement_path"])
    def test_nul_in_a_path_rejected(self, key):
        # every str field is a path, which no file system can open with a NUL
        with pytest.raises(ConfigError, match=f"{key} must not contain a NUL character"):
            load_config(tiny_config(**{key: "a\u0000b"}))

    def test_roi_fields_coerced_to_tuples(self):
        cfg = load_config(tiny_config(roi_axis=[0.0, 1.0, 0.0]))
        assert cfg.roi_axis == (0.0, 1.0, 0.0)
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

    def test_disc_less_mesh_rejected(self):
        cfg = tiny_config()
        cfg["phantom"]["n_vertebrae"] = 1  # single vertebra: no disc band
        with pytest.raises(MeshError, match="no disc part"):
            build_flexion_motion(mesh_from_config(load_config(cfg)), LoadCase())


class TestMeshFromConfig:
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

    def test_constant_hu_builds_and_samples_no_grid(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a constant HU built or sampled a voxel grid")
        monkeypatch.setattr(VoxelGrid, "__post_init__", refuse)
        monkeypatch.setattr(materials_module, "trilinear_sample", refuse)
        model = build_model(load_config(tiny_config()))
        assert model.materials.coverage_gaps().size == 0

    def test_micrometre_mesh_maps_with_constant_hu(self, tmp_path):
        # the box of the trend phantom in um spans 40,000 x 30,000 x 78,000
        # units: a 2-unit grid over it would be 42.6 TiB of float32
        trend = load_config(dict(tiny_config(), phantom={
            "nx": 5, "ny": 4, "nz_vertebra": 4, "nz_disc": 2, "nz_pot": 2}))
        mesh = mesh_from_config(trend)
        path = tmp_path / "mesh_um.txt"
        write_mesh(replace(mesh, nodes=mesh.nodes * 1000.0), path)
        cfg = tiny_config(mesh_path=str(path))
        del cfg["phantom"]
        cfg = load_config(cfg)
        mats = build_materials(cfg, mesh_from_config(cfg))
        # a constant HU maps independently of the coordinates' unit
        assert mats.e_mpa.tobytes() == build_materials(trend, mesh).e_mpa.tobytes()
        assert build_model(cfg).materials.coverage_gaps().size == 0


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
        direct = apply_bcs(assemble_all(m.mesh, materials), bcs, m.mesh)
        formed = m.system.at(e)
        assert np.array_equal(formed.free, direct.free)
        assert np.array_equal(formed.prescribed, direct.prescribed)
        # the free-free block is a product: its columns are its products with the identity
        dense, want = formed.k_ff @ np.eye(formed.free.size), direct.k_ff.toarray()
        assert np.abs(dense - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(formed.rhs - direct.rhs).max() <= 1e-12 * np.abs(direct.rhs).max()
        assert abs(formed.k_coarse - direct.k_coarse).max() <= \
            1e-12 * abs(direct.k_coarse).max()

    def test_blocks_share_one_constraint_split(self):
        m = self.model
        held = held_bytes(m.system)
        first = m.system.at(10.0)
        before = held_bytes(first)
        again = m.system.at(25.0)
        # every modulus is formed on one split, and multiplies by the model's blocks ...
        for name in ("free", "prescribed", "prescribed_u", "restriction"):
            assert getattr(again, name) is getattr(first, name)
        for formed in (first, again):
            assert formed.k_ff.static is m.system.static.k_ff
            assert formed.k_ff.unit is m.system.unit.k_ff
        # ... with the rest in values of its own: a later modulus leaves an
        # earlier one as it was, and neither forming nor solving writes the blocks
        assert not np.shares_memory(again.k_coarse.data, first.k_coarse.data)
        assert not np.shares_memory(again.rhs, first.rhs)
        for formed in (first, again):
            assert solve_pcg(formed, tol=PCG_TOL)[1].iterations > 0
        assert held_bytes(first) == before
        assert held_bytes(m.system) == held
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

    def test_three_vertebrae_solve(self):
        # the middle vertebra touches only discs, so the static coarse block
        # alone is singular; the one at a modulus, discs included, is not.
        # The static block's diagonal is zero at nodes only discs hold, so
        # the system at a modulus lends it the Jacobi diagonal
        cfg = tiny_config()
        cfg["phantom"]["n_vertebrae"] = 3
        model = build_model(load_config(cfg))
        assert len(model.disc_part_ids) == 2
        singular = replace(model.system.at(25.0), k_coarse=model.system.static.k_coarse)
        with pytest.raises(SolverError, match="coarse corner-node operator is singular"):
            solve_pcg(singular, tol=PCG_TOL)
        entry = solve_entry(model, 25.0)
        assert entry.ok
        assert 0 < entry.stats.iterations and entry.stats.residual <= PCG_TOL

    def test_disc_required(self):
        cfg = tiny_config()
        cfg["phantom"]["n_vertebrae"] = 1  # single vertebra: no disc band
        with pytest.raises(MeshError, match="no disc part"):
            build_model(load_config(cfg))


class TestParametricSystem:
    """The system at a modulus against the sums of independently reduced
    static and unit-disc systems, bit for bit."""

    def setup_method(self):
        # the model's materials hold the discs at unit modulus
        m = self.model = build_model(load_config(tiny_config()))
        static_parts = [p for p in m.mesh.part_table if p not in m.disc_part_ids]
        self.full_s = assemble(m.mesh, m.materials, part_ids=static_parts)
        self.full_d = assemble(m.mesh, m.materials, part_ids=m.disc_part_ids)
        bcs = clamp_and_drive(m.mesh, m.fixed_nodes, m.driven_nodes, m.motion)
        self.s = apply_bcs(self.full_s, bcs, m.mesh)
        self.d = apply_bcs(self.full_d, bcs, m.mesh)

    def test_spliced_blocks_are_the_sparse_sums(self, monkeypatch):
        s, d = self.s, self.d
        x = np.random.default_rng(0).normal(size=s.free.size)
        for e in (4.15, 25.0, 50.0, 25.0):
            got = self.model.system.at(e)
            k_ff = s.k_ff + e * d.k_ff
            product = got.k_ff @ x
            assert product.tobytes() == (e * (d.k_ff @ x) + s.k_ff @ x).tobytes()
            assert np.linalg.norm(product - k_ff @ x) <= 1e-15 * np.linalg.norm(k_ff @ x)
            assert got.diagonal.tobytes() == k_ff.diagonal().tobytes()
            assert got.rhs.tobytes() == (s.rhs + e * d.rhs).tobytes()
            k_coarse = s.k_coarse + e * d.k_coarse
            assert got.k_coarse.toarray().tobytes() == k_coarse.toarray().tobytes()
            band = superdiagonals(got.k_coarse)
            coarse = band_of(s.k_coarse, band) + e * band_of(d.k_coarse, band)
            assert formed_factor(got, monkeypatch).tobytes() == solver.dpbtrf(coarse)[0].tobytes()

    def test_static_and_unit_are_the_reduced_blocks(self):
        # the model holds the blocks as the reduction forms them: the disc
        # block reduced under the static one's constraints is the one reduced
        # on its own, bit for bit, and every sparse piece is on its own
        # nonzero entries, in arrays of its own
        system = self.model.system
        for part, want in ((system.static, self.s), (system.unit, self.d)):
            assert part.free.tobytes() == want.free.tobytes()
            assert part.prescribed.tobytes() == want.prescribed.tobytes()
            assert part.prescribed_u.tobytes() == want.prescribed_u.tobytes()
            assert part.diagonal.tobytes() == want.diagonal.tobytes()
            assert part.rhs.tobytes() == want.rhs.tobytes()
            assert abs(part.restriction - want.restriction).max() == 0.0
            for name in ("k_ff", "k_coarse"):
                assert_owns_its_entries(getattr(part, name), getattr(want, name))
        assert system.unit.restriction is system.static.restriction
        assert 0 < system.unit.k_ff.nnz < system.static.k_ff.nnz
        # the reaction rows: each block's own rows, on their nonzero entries
        rows = (3 * self.model.driven_nodes[:, None] + np.arange(3)).ravel()
        for got, full in zip(system.reaction_rows, (self.full_s, self.full_d)):
            assert_owns_its_entries(got, full.tocsr()[rows])

    def test_reaction_is_reaction_force_on_the_full_matrix(self):
        m = self.model
        for e in (10.0, 35.0, 10.0):
            entry = solve_entry(m, e)
            full = self.full_s + e * self.full_d
            want = reaction_force(full, entry.disp, m.driven_nodes)
            assert m.system.reaction(e, entry.disp).tobytes() == want.tobytes()
            assert entry.reaction_n == want.tolist()

    def test_reaction_through_disc_nodes_is_reaction_force(self):
        # the driven nodes touch no disc element, so their K_d rows are
        # empty: sum over the disc's own nodes, whose rows both blocks fill.
        # The two blocks' forces are summed after their products, not entry
        # by entry, so this holds to round-off (measured <= 4.6e-14), not bitwise
        m = self.model
        nodes = np.unique(m.mesh.elements[m.mesh.elements_in(m.disc_part_ids)])
        system = ParametricSystem(static=self.s, unit=self.s.reduce(self.full_d),
                                  reaction_rows=(reaction_rows(self.full_s, nodes),
                                                 reaction_rows(self.full_d, nodes)))
        assert system.reaction_rows[1].nnz > 0
        u = np.random.default_rng(1).normal(size=(m.mesh.n_nodes, 3))
        for e in (4.15, 25.0, 1e5):
            want = reaction_force(self.full_s + e * self.full_d, u, nodes)
            np.testing.assert_allclose(system.reaction(e, u), want, rtol=0.0,
                                       atol=1e-12 * np.abs(want).max())

    # node ids a reaction refuses, as BoundaryConditionSet refuses them (None
    # stands for n_nodes); cast to int64, a float would truncate to another
    # node, a bool would read as node 1 or 0, and a repeated node would count twice
    BAD_REACTION_NODES = pytest.mark.parametrize("nodes, match", [
        ([None], "reaction node id out of range"),
        ([-1], "reaction node id out of range"),
        ([0.9, 2.2], "reaction node ids must be integers, not float64"),
        ([True, False], "reaction node ids must be integers, not bool"),
        ([0, 0], "a reaction node is given twice"),
    ], ids=["n_nodes", "minus_one", "float", "bool", "repeated"])

    def bad_nodes(self, nodes):
        return [self.model.mesh.n_nodes if n is None else n for n in nodes]

    @BAD_REACTION_NODES
    def test_out_of_range_reaction_node_rejected(self, nodes, match):
        with pytest.raises(SolverError, match=match):
            reaction_rows(self.full_d, self.bad_nodes(nodes))

    @BAD_REACTION_NODES
    def test_reaction_force_rejects_an_out_of_range_node(self, nodes, match):
        u = np.zeros((self.model.mesh.n_nodes, 3))
        with pytest.raises(SolverError, match=match):
            reaction_force(self.full_s, u, self.bad_nodes(nodes))

    def test_basis_is_the_projected_system(self):
        m = self.model
        s = m.system.static
        assert m.basis.q.shape == (s.free.size, 0)
        entries = [solve_entry(m, e) for e in (10.0, 35.0)]
        fields = np.column_stack([entry.disp.reshape(-1)[s.free] for entry in entries])
        q = m.basis.q
        assert q.shape == fields.shape
        assert np.abs(q.T @ q - np.eye(2)).max() <= 1e-12
        basis = np.linalg.qr(fields)[0]
        for e in (10.0, 25.0, 35.0):
            # the projection of the system formed at e, and its field's reaction
            system = m.system.at(e)
            want = basis @ np.linalg.solve(basis.T @ (system.k_ff @ basis), basis.T @ system.rhs)
            field = m.basis.field(e)
            np.testing.assert_allclose(field, want, rtol=0.0, atol=1e-10 * np.abs(want).max())
            # the basis's reaction is the system's, on its Galerkin field
            u = np.zeros(s.free.size + s.prescribed.size)
            u[s.free], u[s.prescribed] = field, s.prescribed_u
            assert m.basis.reaction(e).tobytes() == m.system.reaction(e, u).tobytes()
        # a solved field lies in the span, so its reaction is the solved one
        for entry in entries:
            np.testing.assert_allclose(m.basis.reaction(entry.e_disc_mpa), entry.reaction_n,
                                       rtol=0.0, atol=1e-8 * entry.reaction_mag_n)

    def test_solve_its_seed_meets_adds_no_column(self, monkeypatch):
        # the basis spans the 25 MPa field, so its field there meets the
        # tolerance: PCG takes no step, forms no coarse factor and returns
        # the seed, already in the span
        m = self.model
        solve_entry(m, 25.0)
        seed = m.basis.field(25.0)

        def no_factor(*args, **kwargs):
            raise AssertionError("coarse factor formed")
        monkeypatch.setattr(solver, "dpbtrf", no_factor)
        u, stats, _ = pipeline._solved(m, 25.0, tol=PCG_TOL)
        assert stats.iterations == 0
        assert u.reshape(-1)[m.system.static.free].tobytes() == seed.tobytes()
        assert m.basis.q.shape[1] == 1
        assert all(np.isfinite(piece).all() for piece in (m.basis.q, *m.basis.k_ff,
                                                          *m.basis.rhs))

    def test_empty_basis_has_no_reaction(self):
        basis = self.model.basis
        assert basis.field(25.0) is None
        with pytest.raises(SolverError, match="reduced basis is empty"):
            basis.reaction(25.0)

    def test_non_positive_spliced_diagonal_rejected(self):
        # a disc modulus this negative makes the disc DOFs' diagonal negative
        with pytest.raises(SolverError, match="non-positive diagonal"):
            solve_pcg(self.model.system.at(-1e9), tol=PCG_TOL)

    def test_spliced_solve_is_the_summed_solve(self):
        # the system at e solves as the independently reduced blocks do when
        # multiplied one by one, bit for bit, and as their sum does to
        # round-off in as many iterations
        s, d, e, system = self.s, self.d, 25.0, self.model.system
        k_ff = s.k_ff + e * d.k_ff
        summed = replace(s, k_ff=k_ff, diagonal=k_ff.diagonal(), rhs=s.rhs + e * d.rhs,
                         k_coarse=s.k_coarse + e * d.k_coarse)
        got, got_stats = solve_pcg(system.at(e), tol=PCG_TOL)
        blockwise = solve_pcg(replace(summed, k_ff=solver.AffineOperator(s.k_ff, d.k_ff, e)),
                              tol=PCG_TOL)
        assert got.tobytes() == blockwise[0].tobytes()
        assert got_stats == blockwise[1]
        want, want_stats = solve_pcg(summed, tol=PCG_TOL)
        assert got_stats.iterations == want_stats.iterations
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# Python heap (tracemalloc) at trend, in bytes: one build_model's peak, what the
# finished model holds, and what one seeded _solved call adds at its peak.
# Measured at 11.59, 6.99 and 1.68 MiB (numpy 2.4, scipy 1.17); the bounds sit
# within a tenth above them.  The reduction expands a step of node blocks at a
# time straight onto their nonzero entries: expanding a whole block, zeros and
# all, and copying it without them peaks at 14.4 MiB.  The system at a modulus
# multiplies by both free-free blocks and copies neither, so a solve adds only
# its coarse operator, its factor and PCG's vectors; a per-modulus copy of the
# static block's values (over 3 MB) does not fit.
MIB = 2 ** 20
TREND_BUILD_PEAK_BYTES = 12.5 * MIB
TREND_MODEL_HELD_BYTES = 7.75 * MIB
TREND_SEEDED_SOLVE_BYTES = 1.85 * MIB


def _traced_trend_build() -> tuple[int, int]:
    """(held, peak) bytes of the Python heap over one trend build_model."""
    from test_acceptance import trend_config
    cfg = load_config(trend_config())
    build_model(cfg)                  # imports and lazy caches stay outside the budget
    gc.collect()
    tracemalloc.start()
    try:
        model = build_model(cfg)      # held while measured
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held, peak


def test_trend_build_peak_memory_within_budget():
    peak = _traced_trend_build()[1]
    assert peak <= TREND_BUILD_PEAK_BYTES, f"peak {peak / MIB:.2f} MiB"


def test_trend_model_held_memory_within_budget():
    held = _traced_trend_build()[0]
    assert held <= TREND_MODEL_HELD_BYTES, f"held {held / MIB:.2f} MiB"


def test_trend_seeded_solve_working_set_within_budget():
    # the system at the modulus, its coarse factor and PCG's vectors: the
    # factor is formed in an array of its own and factored there, not copied
    from test_acceptance import trend_config
    model = build_model(load_config(trend_config()))
    pipeline._solved(model, 25.0)                # seeds the basis
    gc.collect()
    tracemalloc.start()
    try:
        stats = pipeline._solved(model, 30.0)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.iterations > 0
    assert peak <= TREND_SEEDED_SOLVE_BYTES, f"peak {peak / MIB:.2f} MiB"


class TestSynthMeasurement:
    def setup_method(self):
        self.model = build_model(load_config(tiny_config()))
        self.entry = solve_entry(self.model, 25.0)
        assert self.entry.ok, self.entry.error

    def test_cloud_has_no_node_rows(self):
        # a camera's points do not sit on the model's nodes, and neither do these
        spec = SyntheticSpec(spacing_mm=1.0, systematic_um=0.0, random_um=0.0)
        rng = np.random.default_rng(0)
        cloud = synth_measurement(self.model.observed, self.entry.disp, spec, rng)
        d, _ = cKDTree(self.model.mesh.nodes).query(cloud.points)
        assert d.min() > 1e-6

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
        pts, vals = [], []
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

    @pytest.mark.parametrize("spacing", [1e100, 1e200, 1.7e308, sys.float_info.max])
    def test_huge_spacing_draws_one_candidate_per_triangle(self, monkeypatch, spacing):
        # a spacing past the input domain is refused; at its edge, 1e6 mm,
        # ceil(2A / spacing²) is 1 for every triangle
        with pytest.raises(ConfigError, match=re.escape(
                f"synthetic.spacing_mm is {spacing:.10g}, not a finite number in [1e-06, 1e+06]")):
            SyntheticSpec(spacing_mm=spacing)
        thin, drawn = pipeline._thin_by_spacing, []
        monkeypatch.setattr(pipeline, "_thin_by_spacing",
                            lambda points, s: drawn.append(len(points)) or thin(points, s))
        cloud = synth_measurement(self.model.observed, self.entry.disp,
                                  SyntheticSpec(spacing_mm=1e6), np.random.default_rng(0))
        assert drawn == [self.model.observed.n_triangles]
        assert cloud.n_points == 1

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


@pytest.mark.parametrize("spacing", [0.02, 0.1, 0.3, 2.0])
def test_thinning_in_windows_matches_brute_force_greedy(monkeypatch, spacing):
    # 600 random points in a unit box, from nearly all kept to one: the
    # windows, of any size, keep the points the naive greedy keeps
    points = np.random.default_rng(12).random((600, 3))
    want = _greedy_thinning(points, spacing)
    for window in (1, 7, 64, pipeline.THIN_WINDOW):
        monkeypatch.setattr(pipeline, "THIN_WINDOW", window)
        assert pipeline._thin_by_spacing(points, spacing).tolist() == want, window


def test_crowded_points_thin_in_bounded_memory():
    # 3,000 points inside a 1 mm box at a 10 mm spacing all clash, so only
    # the first stays; their 4.5e6 pairs, held at once, take about 800 MB
    points = np.random.default_rng(3).random((3000, 3))
    tracemalloc.start()
    try:
        keep = pipeline._thin_by_spacing(points, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keep.tolist() == [True] + [False] * 2999
    assert peak < 16 * 2**20


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

    def test_failure_is_contained(self, monkeypatch):
        monkeypatch.setattr(solver, "pcg_max_iter", lambda n: 1)
        entry = solve_entry(self.model, 25.0)
        assert not entry.ok
        assert entry.error.startswith("convergence:")
        assert entry.disp is None

    @pytest.mark.parametrize("e_disc", [0.0, -5.0, math.nan, math.inf])
    def test_modulus_not_positive_and_finite_rejected(self, e_disc):
        with pytest.raises(ConfigError, match="disc modulus must be positive and finite"):
            solve_entry(self.model, e_disc)

    # moduli the spliced system cannot hold: one SolverError that names the
    # cause, and no numpy warning, which this suite turns into an error
    @pytest.mark.parametrize("e_disc, cause", [
        (1e-312, "subnormal diagonal entry"), (1e16, "stiffness contrast of 1.6e+13"),
        (1e300, "stiffness contrast of 1.6e+297"), (1e308, "modulus 1e+308 overflows")])
    @pytest.mark.parametrize("seeded", [False, True], ids=["cold", "seeded"])
    def test_modulus_out_of_reach_names_the_cause(self, e_disc, cause, seeded):
        if seeded:
            solve_entry(self.model, 25.0)
        entry = solve_entry(self.model, e_disc)
        assert entry.error.startswith("solver: ") and cause in entry.error

    @pytest.mark.parametrize("e_disc", [1e-300])
    def test_extreme_modulus_within_reach_solves(self, e_disc):
        entry = solve_entry(self.model, e_disc)
        assert entry.ok and np.isfinite(entry.disp).all()

    # at 1e14 MPa PCG's recursive residual meets the tolerance while the
    # true one stays about 7e4 times above it: a failed entry, not a result
    @pytest.mark.parametrize("seeded", [False, True], ids=["cold", "seeded"])
    def test_true_residual_far_above_tolerance_is_refused(self, seeded):
        if seeded:
            solve_entry(self.model, 25.0)
        entry = solve_entry(self.model, 1e14)
        assert entry.error.startswith("convergence: ") and "true residual" in entry.error
        assert entry.disp is None and 1e14 not in self.model.solved

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
        cold = solve_entry(cold_model(self.model), 25.0)
        assert seeded.stats.iterations < cold.stats.iterations
        tol = PCG_TOL
        assert seeded.stats.true_residual <= 2.0 * tol
        scale = np.abs(cold.disp).max()
        assert np.abs(seeded.disp - cold.disp).max() <= 1e-6 * scale

    def test_failed_solve_is_not_stored(self, monkeypatch):
        monkeypatch.setattr(solver, "pcg_max_iter", lambda n: 1)
        assert not solve_entry(self.model, 25.0).ok
        assert self.model.solved == {}

    def test_comparison_attached(self):
        entry0 = solve_entry(self.model, 25.0)
        spec = SyntheticSpec(spacing_mm=1.0, systematic_um=0.0, random_um=0.0)
        cloud = synth_measurement(self.model.observed, entry0.disp, spec,
                                  np.random.default_rng(8))
        entry = solve_entry(self.model, 25.0, compare_cloud=observed(self.model, cloud))
        assert entry.ok
        # the cloud's values and O u sum the same corners with barycentric
        # weights that differ in the last bits
        scale = np.abs(cloud.values).max()
        assert entry.report.displacement["pooled"]["rmse"] <= 1e-14 * scale
        assert entry.report.misfit["displacement_mm"] <= 1e-14 * scale
        assert entry.report.misfit["tensor_ue"] <= 1e-9
        blk = entry.report.strain_block("all", "eps_max")
        assert blk["per_roi"]["total"]["rmse"] <= 1e-9
        assert blk["ks_d"] <= 0.05

    def test_compared_entry_builds_the_model_strain_field_once(self, monkeypatch):
        spec = SyntheticSpec(spacing_mm=1.0, systematic_um=0.0, random_um=0.0)
        cloud, _ = pipeline.synthetic_cloud(self.model, spec)
        calls = []

        def counting(surface, disp):
            calls.append(surface is self.model.observed)
            return surface_strain_field(surface, disp)
        monkeypatch.setattr(pipeline, "surface_strain_field", counting)
        entry = solve_entry(self.model, 30.0, compare_cloud=observed(self.model, cloud))
        assert entry.ok and entry.report is not None
        # the entry's own field; the comparison forms its tensors at the sites
        assert calls == [True]
        assert not hasattr(metrics, "surface_strain_field")

    def test_report_settings_are_the_metrics_constants(self):
        cloud, _ = pipeline.synthetic_cloud(self.model, SyntheticSpec(spacing_mm=1.0))
        entry = solve_entry(self.model, 25.0, compare_cloud=observed(self.model, cloud))
        # the window and the floor are fixed, not configured
        assert entry.report.settings == {"window_radius_mm": metrics.WINDOW_RADIUS_MM,
                                         "window_min_sites": metrics.WINDOW_MIN_SITES,
                                         "window_max_sites": metrics.WINDOW_MAX_SITES,
                                         "pct_diff_floor_ue": metrics.PCT_DIFF_FLOOR_UE}


def refuse_build(monkeypatch):
    """Make ``pipeline.build_model`` fail a test that reaches it."""
    def no_build(config):
        raise AssertionError("build_model ran")
    monkeypatch.setattr(pipeline, "build_model", no_build)


class TestObtainCloud:
    # the sweep's cloud and measurement_source, from one sweep modulus
    def test_file_source(self, tmp_path):
        model = build_model(load_config(tiny_config()))
        entry = solve_entry(model, 10.0)
        spec = SyntheticSpec(spacing_mm=1.0, systematic_um=0.0, random_um=0.0)
        cloud = synth_measurement(model.observed, entry.disp, spec,
                                  np.random.default_rng(9))
        p = tmp_path / "cloud.csv"
        write_cloud(cloud, p)
        cfg = load_config(tiny_config(measurement_path=str(p), synthetic=None,
                                      sweep_e_disc_mpa=[10.0]))
        result = run_sweep(cfg)
        assert result.measurement_source == f"file:{p}"
        assert result.cloud.points.tobytes() == cloud.points.tobytes()

    def test_synthetic_defaults_to_first_sweep_value(self):
        result = run_sweep(load_config(tiny_config(sweep_e_disc_mpa=[10.0])))
        assert result.measurement_source == "synthetic:e_disc=10"

    def test_synthetic_reference_override(self):
        cfg = tiny_config(sweep_e_disc_mpa=[10.0])
        cfg["synthetic"]["reference_e_disc_mpa"] = 25.0
        result = run_sweep(load_config(cfg))
        assert result.measurement_source == "synthetic:e_disc=25"

    def test_neither_source_rejected(self, monkeypatch):
        cfg = load_config(tiny_config(synthetic=None))
        refuse_build(monkeypatch)
        with pytest.raises(ConfigError, match="measurement_path or a synthetic"):
            run_sweep(cfg)

    def test_malformed_file_rejected_before_building(self, tmp_path, monkeypatch):
        p = tmp_path / "cloud.csv"
        p.write_text("x,y,z,ux,uy,uz\n0,0,0,0,0,0\n1,1,1,0\n")
        cfg = load_config(tiny_config(measurement_path=str(p), synthetic=None))
        refuse_build(monkeypatch)
        with pytest.raises(FormatError, match=re.escape(f"{p}:3: expected 6 columns, got 4")):
            run_sweep(cfg)

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
        scale = np.abs(result.cloud.values).max()
        assert result.entries[0].report.displacement["pooled"]["rmse"] <= 1e-14 * scale

    def test_trend_sweep_keeps_its_iterations(self, monkeypatch):
        # the trend sweep of 4.15-50 MPa against a default-noise 2 mm cloud:
        # the reference solve at 4.15 MPa serves its entry, and each later
        # solve is seeded from those before it
        from test_acceptance import trend_config
        cfg = trend_config()
        cfg.update(synthetic={"spacing_mm": 2.0}, seed=1)
        iterations = count_pcg_iterations(monkeypatch)
        result = run_sweep(load_config(cfg))
        assert all(e.ok for e in result.entries)
        assert len(iterations) == 6
        assert sum(iterations) <= 149

    def test_reaction_monotone_in_disc_modulus(self):
        cfg = load_config(tiny_config(sweep_e_disc_mpa=[4.0, 12.0, 36.0]))
        result = run_sweep(cfg)
        mags = [e.reaction_mag_n for e in result.entries]
        assert mags[0] < mags[1] < mags[2]

    def test_one_failing_entry_does_not_stop_others(self, monkeypatch):
        cfg = load_config(tiny_config(sweep_e_disc_mpa=[10.0, 20.0, 30.0]))
        original = pipeline.solve_pcg
        calls = []

        def flaky(system, **kwargs):
            calls.append(1)
            if len(calls) == 2:  # call 1 is the reference solve, reused at 10 MPa
                raise SolverError("injected failure")
            return original(system, **kwargs)

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
        tol = PCG_TOL
        seeded_its = cold_its = 0
        for entry in result.entries[1:]:
            cold = solve_entry(cold_model(result.model), entry.e_disc_mpa)
            gap = np.linalg.norm(np.subtract(entry.reaction_n, cold.reaction_n))
            assert gap <= 1e-7 * np.linalg.norm(cold.reaction_n)
            assert entry.stats.true_residual <= 2.0 * tol
            seeded_its += entry.stats.iterations
            cold_its += cold.stats.iterations
        assert 2 * seeded_its <= cold_its
        assert seeded_its <= 98
        # every entry's field, the 4.15 MPa reference's included, is one column
        q = result.model.basis.q
        assert q.shape[1] == len(result.entries)
        assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-12


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
        # reference entry matches the cloud to rounding: every rmse_pct
        # and misfit is 0 to within 1e-9
        assert lines[0].endswith(",displacement_rmse_pct,misfit_displacement_mm,"
                                 "misfit_tensor_ue")
        assert all(abs(float(v)) <= 1e-9 for v in first[1:])

    def test_sweep_json_round_trips(self, tmp_path):
        emit_reports(self.result, tmp_path)
        data = json.loads((tmp_path / "sweep_result.json").read_text())
        assert data["sweep_e_disc_mpa"] == [10.0, 25.0]
        assert data["seed"] == 3
        assert len(data["entries"]) == 2
        assert data["entries"][0]["ok"] is True

    def test_error_entries_recorded_in_summary(self, tmp_path):
        uncompared = solve_entry(self.result.model, 30.0)
        assert uncompared.ok and uncompared.report is None
        write_tables([*self.result.entries, SweepEntry(99.0, error="solver: boom"), uncompared],
                     tmp_path)
        text = (tmp_path / "summary.csv").read_text()
        assert "error,99,,,,,,solver: boom\n" in text
        assert "reaction_mag_n,30,all,force" in text
        assert "flexion_angle_deg,30,all,motion" in text
        assert not any(line.startswith(("rmse_mm,30,", "misfit_displacement_mm,30,"))
                       for line in text.splitlines())
        # neither the failed nor the uncompared entry gives a curve
        lines = (tmp_path / "curves.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["10", "25"]

    def test_entry_files_match_an_entry_written_alone(self, tmp_path):
        # emit_reports formats the geometry once for all entries; each
        # entry's files must equal those written with a geometry of its own
        emit_reports(self.result, tmp_path / "sweep")
        model = self.result.model
        for entry in self.result.entries:
            name = f"e_disc_{entry.e_disc_mpa:g}"
            alone = tmp_path / "alone" / name
            write_entry(model, entry, alone, ReportGeometry.of(model.observed, model.rois))
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
            blocks = dict(read_vtk(tmp_path / f"e_disc_{entry.e_disc_mpa:g}" / "solution.vtk")[1])
            e_mpa = blocks["SCALARS e_mpa double 1"]
            assert (e_mpa[disc] == entry.e_disc_mpa).all()
            assert e_mpa[~disc].tobytes() == mapped.astype(">f8").tobytes()

    def test_sweep_json_encodes_each_report_once(self, tmp_path):
        # sweep_result.json is byte for byte the whole tree encoded at once,
        # each report in it once, and each report.json is its report alone
        emit_reports(self.result, tmp_path)
        entries = [e.summary_dict() for e in self.result.entries]
        whole = {"sweep_e_disc_mpa": [d["e_disc_mpa"] for d in entries],
                 "seed": self.result.model.config.seed,
                 "measurement_source": self.result.measurement_source, "entries": entries}
        assert (tmp_path / "sweep_result.json").read_text() == \
            json.dumps(whole, indent=2, sort_keys=True) + "\n"
        reports = [e for e in self.result.entries if e.report is not None]
        assert len(reports) == 2
        for entry in reports:
            report = tmp_path / f"e_disc_{entry.e_disc_mpa:g}" / "report.json"
            assert report.read_text() == \
                json.dumps(entry.report.to_dict(), indent=2, sort_keys=True) + "\n"

    def test_repeated_sweeps_identical(self, tmp_path):
        other = run_sweep(load_config(tiny_config()))
        d1, d2 = tmp_path / "x", tmp_path / "y"
        emit_reports(self.result, d1)
        emit_reports(other, d2)
        assert (d1 / "sweep_result.json").read_bytes() == \
            (d2 / "sweep_result.json").read_bytes()


class TestFitDiscModulus:
    """The fit's secant root-finder on closed-form forces."""

    def test_linear_force_root(self, monkeypatch):
        monkeypatch.setattr(pipeline, "FIT_TOL_REL", 1e-10)
        calls = []

        def force(e):
            calls.append(e)
            return 3.0 * e + 1.0

        e_star = pipeline.fit_disc_modulus(force, 10.0, (0.5, 8.0))
        assert e_star == pytest.approx(3.0, rel=1e-8)
        assert len(calls) <= 6

    def test_nonlinear_monotone_root(self, monkeypatch):
        monkeypatch.setattr(pipeline, "FIT_TOL_REL", 1e-12)

        def force(e):
            return 100.0 * np.sqrt(e) + 5.0

        e_star = pipeline.fit_disc_modulus(force, 505.0, (1.0, 100.0))
        assert e_star == pytest.approx(25.0, rel=1e-9)

    def test_endpoint_hit_returns_endpoint(self, monkeypatch):
        monkeypatch.setattr(pipeline, "FIT_TOL_REL", 1e-9)
        assert pipeline.fit_disc_modulus(lambda e: 2.0 * e, 4.0, (2.0, 10.0)) == 2.0

    @pytest.mark.parametrize("target, root, endpoint_solves", [
        (1.0, 1.0, 1), (16.0, 4.0, 2), (4.0, 2.0, None), (10.0, np.sqrt(10.0), None)])
    def test_solve_count_is_the_force_calls(self, monkeypatch, target, root, endpoint_solves):
        # an endpoint hit takes 1 (lower) or 2 (upper) calls, an interior
        # root more
        monkeypatch.setattr(pipeline, "FIT_TOL_REL", 1e-9)
        calls = []

        def force(e):
            calls.append(e)
            return e * e

        e_star = pipeline.fit_disc_modulus(force, target, (1.0, 4.0))
        assert e_star == pytest.approx(root, rel=1e-8)
        assert len(calls) == endpoint_solves if endpoint_solves else len(calls) > 2

    def test_unbracketed_target_reports_both_forces(self):
        with pytest.raises(BracketError) as err:
            pipeline.fit_disc_modulus(lambda e: 2.0 * e, 100.0, (1.0, 5.0))
        msg = str(err.value)
        assert "2" in msg and "10" in msg

    def test_unbracketed_target_far_above_names_the_raw_forces(self):
        # (force - 1e20) + 1e20 keeps no digit of a force near 1e3 N
        with pytest.raises(BracketError) as err:
            pipeline.fit_disc_modulus(lambda e: 100.0 * e + 0.123456789, 1e20, (5.0, 60.0))
        assert str(err.value) == ("target 1e+20 N not bracketed: force(5 MPa) = 500.1234568 N, "
                                  "force(60 MPa) = 6000.123457 N")

    def test_budget_exhaustion(self, monkeypatch):
        # a cliff the secant cannot resolve in a few tries
        monkeypatch.setattr(pipeline, "FIT_TOL_REL", 1e-15)
        monkeypatch.setattr(pipeline, "FIT_MAX_SOLVES", 6)

        def force(e):
            return 0.0 if e < 5.0 else 1e6

        with pytest.raises((ConvergenceError, BracketError)):
            pipeline.fit_disc_modulus(force, 1e5, (1.0, 10.0))


def cold_force(cfg, e):
    """The reaction magnitude of a cold solve to full tolerance at ``e``."""
    return solve_entry(build_model(cfg), e).reaction_mag_n


def count_pcg_iterations(monkeypatch) -> list[int]:
    """The PCG iterations of each solve the pipeline runs from now on."""
    original, iterations = pipeline.solve_pcg, []

    def counting(system, **kwargs):
        u, stats = original(system, **kwargs)
        iterations.append(stats.iterations)
        return u, stats

    monkeypatch.setattr(pipeline, "solve_pcg", counting)
    return iterations


class TestFitDiscToForce:
    @pytest.mark.parametrize("end, side", [(60.0, 1.0), (5.0, -1.0)],
                             ids=["above_upper", "below_lower"])
    def test_unbracketed_target_names_full_tolerance_forces(self, monkeypatch, end, side):
        # the ends are first solved to 1e-4, which moves the force at 5 MPa
        # by ~2e-3, so the loose basis brackets the target below it; the
        # error must name both solved to the full tolerance, here 1e-11,
        # so that a seeded and a cold solve agree to 1e-7
        monkeypatch.setattr(pipeline, "PCG_TOL", 1e-11)
        cfg = load_config(tiny_config())
        target = cold_force(cfg, end) * (1.0 + side * 10.0 * pipeline.FIT_TOL_REL)
        with pytest.raises(BracketError) as err:
            fit_disc_to_force(cfg, target, (5.0, 60.0))
        named = dict(re.findall(r"force\(([^ ]+) MPa\) = ([^ ]+) N", str(err.value)))
        assert sorted(named) == ["5", "60"]
        for e, force in named.items():
            assert float(force) == pytest.approx(cold_force(cfg, float(e)), rel=1e-7)

    @pytest.mark.parametrize("offset", [-0.5, 0.5])
    def test_target_within_tol_of_the_upper_force(self, offset):
        cfg = load_config(tiny_config())
        tol_rel = pipeline.FIT_TOL_REL
        target = cold_force(cfg, 60.0) * (1.0 + offset * tol_rel)
        e_star, _ = fit_disc_to_force(cfg, target, (5.0, 60.0))
        assert 5.0 <= e_star <= 60.0
        assert abs(cold_force(cfg, e_star) - target) <= tol_rel * target

    @pytest.mark.parametrize("tol_rel", [1e-6, 1e-2])
    def test_cold_solve_at_the_fitted_modulus_meets_tol(self, monkeypatch, tol_rel):
        monkeypatch.setattr(pipeline, "FIT_TOL_REL", tol_rel)
        cfg = load_config(tiny_config())
        target = cold_force(cfg, 25.0)
        e_star, _ = fit_disc_to_force(cfg, target, (5.0, 60.0))
        assert abs(cold_force(cfg, e_star) - target) <= tol_rel * target

    def test_two_solves_do_not_reach_an_interior_target(self, monkeypatch):
        monkeypatch.setattr(pipeline, "FIT_MAX_SOLVES", 2)
        cfg = load_config(tiny_config())
        with pytest.raises(ConvergenceError, match="within 2 solves"):
            fit_disc_to_force(cfg, cold_force(cfg, 25.0), (5.0, 60.0))

    def test_model_keeps_only_full_tolerance_fields(self, monkeypatch):
        monkeypatch.setattr(pipeline, "FIT_TOL_REL", 1e-6)
        cfg = load_config(tiny_config())
        target = cold_force(cfg, 25.0)
        built = []
        monkeypatch.setattr(pipeline, "build_model",
                            lambda config: built.append(build_model(config)) or built[-1])
        iterations = count_pcg_iterations(monkeypatch)
        e_star, solves = fit_disc_to_force(cfg, target, (5.0, 60.0))
        solved = built[0].solved
        # the loose bracket ends and the loose first step only joined the basis
        assert list(solved) == [e_star] and 5.0 not in solved and 60.0 not in solved
        assert len(solved) == solves - 3
        for _, stats, _ in solved.values():
            assert stats.residual <= PCG_TOL
        # a column per solve that PCG moved off its seed, loose ones included
        assert all(iterations)
        assert built[0].basis.q.shape[1] == len(iterations) == solves

    def test_trend_fit_keeps_its_solves_and_iterations(self, monkeypatch):
        from test_acceptance import trend_config
        cfg = load_config(trend_config())
        target = cold_force(cfg, 25.0)
        iterations = count_pcg_iterations(monkeypatch)
        e_star, solves = fit_disc_to_force(cfg, target, (5.0, 60.0))
        assert e_star == pytest.approx(25.0, rel=5e-3)
        assert solves == len(iterations) == 4
        assert sum(iterations) <= 67

    @pytest.mark.parametrize("e_true", [6.0, 10.0, 17.0, 40.0, 55.0])
    def test_trend_fit_across_the_bracket(self, monkeypatch, e_true):
        # the loose bracket ends and first step serve every target alike, and
        # the returned modulus rests on a stored full-tolerance force that a
        # cold solve repeats
        from test_acceptance import trend_config
        cfg = load_config(trend_config())
        target = cold_force(cfg, e_true)
        built = []
        monkeypatch.setattr(pipeline, "build_model",
                            lambda config: built.append(build_model(config)) or built[-1])
        iterations = count_pcg_iterations(monkeypatch)
        e_star, solves = fit_disc_to_force(cfg, target, (5.0, 60.0))
        assert solves == len(iterations) == 4
        assert sum(iterations) <= 67
        assert list(built[0].solved) == [e_star]
        assert abs(cold_force(cfg, e_star) - target) <= pipeline.FIT_TOL_REL * target

    def test_fit_does_not_load_the_kd_tree(self):
        # the KD-tree serves only the cloud's synthesis and comparison
        code = ("import sys\n"
                "from spinefe import pipeline\n"
                f"cfg = pipeline.load_config({tiny_config()!r})\n"
                "pipeline.FIT_TOL_REL = 1e-2\n"
                "pipeline.fit_disc_to_force(cfg, 181.6, (5.0, 60.0))\n"
                "print('scipy.spatial' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "False\n"

    def test_a_run_loads_only_the_scipy_it_uses(self):
        # the corner ordering is the package's own, so no run loads csgraph,
        # or the sparse.linalg that it imports; the KD-tree waits for a cloud
        code = ("import sys\n"
                "import spinefe.cli\n"
                "from spinefe import pipeline\n"
                f"model = pipeline.build_model(pipeline.load_config({tiny_config()!r}))\n"
                "assert pipeline.solve_entry(model, 25.0).ok\n"
                "names = ('scipy.sparse.csgraph', 'scipy.sparse.linalg', 'scipy.spatial')\n"
                "print([n for n in names if n in sys.modules])\n"
                "pipeline.synthetic_cloud(model, model.config.synthetic)\n"
                "print([n for n in names if n in sys.modules])\n")
        env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "[]\n['scipy.spatial']\n"

    def test_recovers_target_modulus(self, monkeypatch):
        monkeypatch.setattr(pipeline, "FIT_TOL_REL", 1e-6)
        cfg = load_config(tiny_config())
        model = build_model(cfg)
        target = solve_entry(model, 25.0).reaction_mag_n
        e_star, solves = fit_disc_to_force(cfg, target, (5.0, 60.0))
        assert e_star == pytest.approx(25.0, rel=5e-3)
        assert solves <= 30

    @pytest.mark.parametrize("bracket", [(60.0, 5.0), (math.nan, 60.0), (5.0, math.inf)],
                             ids=["inverted", "nan_end", "inf_end"])
    def test_invalid_bracket_rejected_before_building(self, monkeypatch, bracket):
        refuse_build(monkeypatch)
        with pytest.raises(BracketError, match=re.escape(f"invalid bracket {bracket}")):
            fit_disc_to_force(load_config(tiny_config()), 100.0, bracket)

    def test_failed_bracket_solve_is_one_config_error(self):
        # the upper end is finite, but the spliced system cannot hold it
        cfg = load_config(tiny_config())
        with pytest.raises(ConfigError) as err:
            fit_disc_to_force(cfg, cold_force(cfg, 25.0), (5.0, 1e308))
        assert str(err.value) == ("solve at 1e+308 MPa failed: solver: modulus 1e+308 "
                                  "overflows the reduced system")

    def test_root_already_solved_is_a_stall(self, monkeypatch):
        # no input found makes the basis's root a modulus whose full-tolerance
        # force has already missed, so a root-finder that always returns
        # 25 MPa stands in for one: the second time is a stall, not a loop
        monkeypatch.setattr(pipeline, "fit_disc_modulus", lambda force, target, bracket: 25.0)
        cfg = load_config(tiny_config())
        with pytest.raises(ConvergenceError, match=r"^modulus fit stalled at 25 MPa$"):
            fit_disc_to_force(cfg, 1.5 * cold_force(cfg, 25.0), (5.0, 60.0))

    @pytest.mark.parametrize("target", [math.inf, math.nan], ids=["target_inf", "target_nan"])
    def test_out_of_range_settings_rejected_before_building(self, monkeypatch, target):
        refuse_build(monkeypatch)
        with pytest.raises(ConfigError, match="target force"):
            fit_disc_to_force(load_config(tiny_config()), target, (5.0, 60.0))

import re

import numpy as np
import pytest

from spinefe.errors import MaterialError, MeshError
from spinefe.materials import (CalibrationLaw, DensityElasticityLaw,
                               MaterialField, Provenance, VoxelGrid,
                               assign_uniform, calibrate_density,
                               density_to_modulus, map_materials,
                               trilinear_sample)
from spinefe.mesh import (EDGE_PAIRS, TET_RULE, Mesh, Part, PartRole, PhantomSpec,
                         build_phantom)


def make_grid(fn, dims=(8, 8, 12), spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)):
    nx, ny, nz = dims
    i, j, k = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    x = origin[0] + i * spacing[0]
    y = origin[1] + j * spacing[1]
    z = origin[2] + k * spacing[2]
    vals = fn(x, y, z).astype(np.float32)
    flat = np.transpose(vals, (2, 1, 0)).reshape(-1)  # x-fastest
    return VoxelGrid(dims=dims, spacing_mm=spacing, origin_mm=origin, values=flat)


class TestDensityChain:
    def test_linear_calibration(self):
        law = CalibrationLaw(slope=1e-3, intercept=0.05, correction=1.1)
        rho = calibrate_density(np.array([0.0, 1000.0]), law)
        assert rho[0] == pytest.approx(1.1 * 0.05)
        assert rho[1] == pytest.approx(1.1 * 1.05)

    def test_negative_density_clamps_to_zero(self):
        law = CalibrationLaw(slope=1e-3, intercept=0.0)
        assert calibrate_density(np.array([-500.0]), law)[0] == 0.0

    def test_power_law_and_clamps(self):
        law = DensityElasticityLaw(coefficient=4730.0, exponent=1.56,
                                   e_min_mpa=1.0, e_max_mpa=20000.0)
        rho = np.array([0.0, 0.8, 100.0])
        e = density_to_modulus(rho, law)
        assert e[0] == 1.0                       # clamp floor
        assert e[1] == pytest.approx(4730.0 * 0.8 ** 1.56)
        assert e[2] == 20000.0                   # clamp ceiling

    def test_invalid_clamp_rejected(self):
        with pytest.raises(ValueError):
            DensityElasticityLaw(e_min_mpa=0.0)
        with pytest.raises(ValueError):
            DensityElasticityLaw(e_min_mpa=10.0, e_max_mpa=1.0)

    @pytest.mark.parametrize("law, over", [
        (CalibrationLaw, {"slope": -1.0}), (CalibrationLaw, {"slope": 0.0}),
        (CalibrationLaw, {"correction": -1.0}), (CalibrationLaw, {"correction": 0.0}),
        (DensityElasticityLaw, {"coefficient": -5.0}),
        (DensityElasticityLaw, {"coefficient": 0.0}),
        (DensityElasticityLaw, {"exponent": -1.0}), (DensityElasticityLaw, {"exponent": 0.0})])
    def test_non_physical_law_rejected(self, law, over):
        # density must rise with HU and modulus with density
        with pytest.raises(ValueError, match=f"{next(iter(over))}.* must be > 0"):
            law(**over)

    def test_overflow_clamps_to_ceiling_without_warning(self):
        # warnings are errors under pytest: the law at the edge of the input
        # domain maps the largest HU to about 1e129 MPa, with no overflow,
        # and clamps it to e_max; a slope past the domain is refused
        cal = CalibrationLaw(slope=1e3, intercept=1e3, correction=1e3)
        ela = DensityElasticityLaw(coefficient=1e9, exponent=10.0)
        rho = calibrate_density(np.array([800.0, 1e6]), cal)
        assert rho[1] == pytest.approx(1e12, rel=1e-5)
        assert ela.coefficient * rho[1] ** ela.exponent == pytest.approx(1e129, rel=1e-4)
        assert (density_to_modulus(rho, ela) == ela.e_max_mpa).all()
        with pytest.raises(ValueError, match=re.escape(
                "at most 1000, and |intercept| at most 1000: CalibrationLaw(slope=1e+300,")):
            CalibrationLaw(slope=1e300)


class TestVoxelGrid:
    def test_flat_layout_is_x_fastest(self):
        grid = VoxelGrid(dims=(2, 2, 2), spacing_mm=(1, 1, 1), origin_mm=(0, 0, 0),
                         values=np.arange(8, dtype=np.float32))
        v3 = grid.as_3d()
        # value(i,j,k) = values[i + nx*(j + ny*k)]
        assert v3[0, 0, 1] == 1  # i=1
        assert v3[0, 1, 0] == 2  # j=1
        assert v3[1, 0, 0] == 4  # k=1

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            VoxelGrid(dims=(2, 2, 2), spacing_mm=(1, 1, 1), origin_mm=(0, 0, 0),
                      values=np.zeros(7, dtype=np.float32))
        with pytest.raises(ValueError):
            VoxelGrid(dims=(0, 2, 2), spacing_mm=(1, 1, 1), origin_mm=(0, 0, 0),
                      values=np.zeros(0, dtype=np.float32))


class TestTrilinear:
    def test_reproduces_affine_fields(self):
        grid = make_grid(lambda x, y, z: 2.0 + 3.0 * x - 1.0 * y + 0.5 * z)
        rng = np.random.default_rng(3)
        pts = rng.uniform([0, 0, 0], [7, 7, 11], size=(200, 3))
        got = trilinear_sample(grid, pts)
        want = 2.0 + 3.0 * pts[:, 0] - pts[:, 1] + 0.5 * pts[:, 2]
        assert np.allclose(got, want, atol=1e-4)  # float32 storage

    def test_exact_at_voxel_centers(self):
        grid = make_grid(lambda x, y, z: x * y + z * z, dims=(4, 4, 4))
        pts = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [3.0, 3.0, 3.0]])
        got = trilinear_sample(grid, pts)
        want = pts[:, 0] * pts[:, 1] + pts[:, 2] ** 2
        assert np.allclose(got, want, atol=1e-5)

    def test_clamps_at_grid_edge(self):
        grid = make_grid(lambda x, y, z: x, dims=(4, 4, 4))
        inside = trilinear_sample(grid, [[3.0, 1.5, 1.5]])[0]
        beyond = trilinear_sample(grid, [[25.0, 1.5, 1.5]])[0]
        assert beyond == pytest.approx(inside)

    def test_origin_offset_respected(self):
        grid = make_grid(lambda x, y, z: x, dims=(4, 4, 4), origin=(-10.0, 0.0, 0.0))
        got = trilinear_sample(grid, [[-8.5, 1.0, 1.0]])[0]
        assert got == pytest.approx(-8.5, abs=1e-5)


def vertebra_phantom():
    return build_phantom(PhantomSpec(width_mm=4, depth_mm=4, vertebra_height_mm=4,
                                     disc_height_mm=2, pot_height_mm=2,
                                     n_vertebrae=1, nx=2, ny=2, nz_vertebra=2,
                                     nz_pot=1))


def mapped(mesh, hu, cal, ela, nu=0.3):
    """``map_materials`` at a Poisson ratio of 0.3 unless given."""
    return map_materials(mesh, hu, cal, ela, nu)


class TestMapMaterials:
    def test_uniform_hu_maps_exactly(self):
        mesh = vertebra_phantom()
        grid = make_grid(lambda x, y, z: np.full_like(x, 800.0),
                         dims=(10, 10, 12), origin=(-1, -1, -1))
        cal, ela = CalibrationLaw(), DensityElasticityLaw()
        field = mapped(mesh, grid, cal, ela)
        sel = mesh.parts == 1
        want = density_to_modulus(calibrate_density(np.array([800.0]), cal), ela)[0]
        assert np.allclose(field.e_mpa[sel], want, rtol=1e-5)
        assert (field.provenance[sel] == Provenance.MAPPED).all()
        assert (field.provenance[~sel] == Provenance.UNSET).all()
        assert np.isnan(field.e_mpa[~sel]).all()

    def test_affine_modulus_field_averages_to_centroid_value(self):
        # independent oracle: with exponent 1 and no clamps the modulus is
        # affine in position, so the weighted quadrature mean must equal the
        # value at the element centroid for any symmetric rule
        mesh = vertebra_phantom()
        grid = make_grid(lambda x, y, z: 100.0 + 50.0 * x + 20.0 * z,
                         dims=(12, 12, 14), origin=(-2, -2, -2))
        cal = CalibrationLaw(slope=1e-3, intercept=0.0)
        ela = DensityElasticityLaw(coefficient=1000.0, exponent=1.0,
                                   e_min_mpa=1e-9, e_max_mpa=1e9)
        field = mapped(mesh, grid, cal, ela)
        sel = np.flatnonzero(mesh.parts == 1)
        cent = mesh.nodes[mesh.elements[sel][:, :4]].mean(axis=1)
        hu_c = 100.0 + 50.0 * cent[:, 0] + 20.0 * cent[:, 2]
        want = 1000.0 * 1e-3 * hu_c
        assert np.allclose(field.e_mpa[sel], want, rtol=1e-5)

    def test_dense_voxel_near_centroid_stays_inside_pointwise_range(self):
        # one 3000 HU voxel in 0 HU bone, centred half a voxel from the
        # element centroid (1.5, 1.5, 1.5) on each axis: a rule with a
        # negative weight there averages to a modulus below the law's floor
        corners = np.array([[0.0, 0, 0], [6, 0, 0], [0, 6, 0], [0, 0, 6]])
        nodes = np.vstack([corners, corners[EDGE_PAIRS].mean(axis=1)])
        mesh = Mesh(nodes=nodes, elements=np.arange(10)[None, :],
                    parts=np.zeros(1, dtype=int),
                    part_table={0: Part("v", PartRole.VERTEBRA)})
        grid = make_grid(lambda x, y, z: np.where((x == 1) & (y == 1) & (z == 1),
                                                  3000.0, 0.0),
                         dims=(8, 8, 8))
        cal, ela = CalibrationLaw(), DensityElasticityLaw()
        e = mapped(mesh, grid, cal, ela).e_mpa[0]
        bary = TET_RULE[0]
        e_pts = density_to_modulus(
            calibrate_density(trilinear_sample(grid, bary @ corners), cal), ela)
        assert e >= ela.e_min_mpa
        assert e_pts.min() <= e <= e_pts.max()

    def test_mesh_without_vertebrae_rejected(self):
        # build_materials maps only a mesh with vertebrae; another caller
        # gets a MeshError, not an unchanged field
        corners = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        mesh = Mesh(nodes=np.vstack([corners, corners[EDGE_PAIRS].mean(axis=1)]),
                    elements=np.arange(10)[None, :], parts=np.zeros(1, dtype=int),
                    part_table={0: Part("d", PartRole.DISC)})
        with pytest.raises(MeshError, match=re.escape("no elements in parts []")):
            mapped(mesh, 800.0, CalibrationLaw(), DensityElasticityLaw())

    def test_element_outside_grid_rejected(self):
        mesh = vertebra_phantom()
        grid = make_grid(lambda x, y, z: np.full_like(x, 500.0),
                         dims=(4, 4, 4), origin=(100.0, 100.0, 100.0))
        with pytest.raises(MaterialError, match="element"):
            mapped(mesh, grid, CalibrationLaw(), DensityElasticityLaw())

    def test_invalid_poisson_rejected(self):
        mesh = vertebra_phantom()
        grid = make_grid(lambda x, y, z: np.full_like(x, 500.0),
                         dims=(10, 10, 12), origin=(-1, -1, -1))
        with pytest.raises(MaterialError, match="Poisson"):
            mapped(mesh, grid, CalibrationLaw(), DensityElasticityLaw(), nu=0.6)

    @pytest.mark.parametrize("source", ["constant", "grid"])
    def test_overflowing_calibration_maps_every_vertebra_to_ceiling(self, source):
        # a law inside the input domain that maps every vertebra past e_max
        mesh = vertebra_phantom()
        hu = 800.0 if source == "constant" else make_grid(
            lambda x, y, z: np.full_like(x, 800.0), dims=(10, 10, 12), origin=(-1, -1, -1))
        ela = DensityElasticityLaw()
        field = mapped(mesh, hu, CalibrationLaw(slope=1e3), ela)
        assert (field.e_mpa[mesh.parts == 1] == ela.e_max_mpa).all()

    # each lies outside the input domain's HU, as past float32 or not finite
    @pytest.mark.parametrize("hu", [1e300, -3.5e38, np.inf, np.nan])
    def test_constant_no_float32_holds_rejected(self, hu):
        with pytest.raises(MaterialError, match=re.escape(
                f"HU is {hu:.10g}, not a finite number in [-1e+06, 1e+06]")):
            mapped(vertebra_phantom(), hu, CalibrationLaw(), DensityElasticityLaw())

    @pytest.mark.parametrize("spec", [
        PhantomSpec(nx=5, ny=4, nz_vertebra=4, nz_disc=2, nz_pot=2),
        PhantomSpec(width_mm=37.3, depth_mm=28.9, vertebra_height_mm=23.7,
                    disc_height_mm=7.1, pot_height_mm=9.3)], ids=["trend", "non_round"])
    @pytest.mark.parametrize("hu", [800.0, 1234.567, -50.0])
    def test_constant_maps_as_a_grid_holding_it(self, spec, hu):
        # the reference: a float32 grid holding ``hu`` at 2 mm over the mesh's
        # box grown by 1 mm, sampled trilinearly at every rule point
        mesh = build_phantom(spec)
        lo = mesh.nodes.min(axis=0) - 1.0
        dims = tuple(int(d) for d in np.ceil((mesh.nodes.max(axis=0) + 1.0 - lo) / 2.0) + 2)
        grid = VoxelGrid(dims=dims, spacing_mm=(2.0, 2.0, 2.0), origin_mm=tuple(lo),
                         values=np.full(np.prod(dims), hu, dtype=np.float32))
        cal, ela = CalibrationLaw(), DensityElasticityLaw()
        want = mapped(mesh, grid, cal, ela, nu=0.25)
        got = mapped(mesh, hu, cal, ela, nu=0.25)
        for name in ("e_mpa", "nu", "provenance"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestAssignUniform:
    def test_assignment_and_provenance(self):
        mesh = vertebra_phantom()
        field = MaterialField.unset_for(mesh)
        field = assign_uniform(mesh, field, 0, 2500.0, 0.3)
        sel = mesh.parts == 0
        assert (field.e_mpa[sel] == 2500.0).all()
        assert (field.provenance[sel] == Provenance.UNIFORM).all()
        assert (field.provenance[~sel] == Provenance.UNSET).all()

    def test_does_not_mutate_input(self):
        mesh = vertebra_phantom()
        field = MaterialField.unset_for(mesh)
        assign_uniform(mesh, field, 0, 2500.0, 0.3)
        assert (field.provenance == Provenance.UNSET).all()

    def test_unknown_part_rejected(self):
        mesh = vertebra_phantom()
        field = MaterialField.unset_for(mesh)
        with pytest.raises(MeshError, match=r"unknown part ids \[42\]"):
            assign_uniform(mesh, field, 42, 10.0, 0.3)

    def test_invalid_properties_rejected(self):
        mesh = vertebra_phantom()
        field = MaterialField.unset_for(mesh)
        with pytest.raises(MaterialError):
            assign_uniform(mesh, field, 0, -5.0, 0.3)
        with pytest.raises(MaterialError):
            assign_uniform(mesh, field, 0, 10.0, 0.5)

    def test_part_list_assigned_in_one_call(self):
        mesh = vertebra_phantom()
        field = MaterialField.unset_for(mesh)
        one_by_one = assign_uniform(mesh, assign_uniform(mesh, field, 0, 2500.0, 0.3),
                                    2, 2500.0, 0.3)
        together = assign_uniform(mesh, field, [0, 2], 2500.0, 0.3)
        for name in ("e_mpa", "nu", "provenance"):
            assert getattr(together, name).tobytes() == getattr(one_by_one, name).tobytes()

    def test_coverage_gaps_reporting(self):
        mesh = vertebra_phantom()
        field = MaterialField.unset_for(mesh)
        assert len(field.coverage_gaps()) == mesh.n_elements
        field = assign_uniform(mesh, field, 0, 1.0, 0.3)
        field = assign_uniform(mesh, field, 1, 1.0, 0.3)
        field = assign_uniform(mesh, field, 2, 1.0, 0.3)
        assert len(field.coverage_gaps()) == 0

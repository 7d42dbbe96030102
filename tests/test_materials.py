import numpy as np
import pytest

from spinefe.errors import MaterialError
from spinefe.materials import (CalibrationLaw, DensityElasticityLaw,
                               MaterialField, Provenance, VoxelGrid,
                               assign_uniform, calibrate_density,
                               density_to_modulus, map_materials,
                               trilinear_sample)
from spinefe.mesh import (EDGE_PAIRS, Mesh, Part, PartRole, PhantomSpec,
                         build_phantom)
from spinefe.quadrature import tet_rule


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


class TestMapMaterials:
    def test_uniform_hu_maps_exactly(self):
        mesh = vertebra_phantom()
        grid = make_grid(lambda x, y, z: np.full_like(x, 800.0),
                         dims=(10, 10, 12), origin=(-1, -1, -1))
        cal, ela = CalibrationLaw(), DensityElasticityLaw()
        field = map_materials(mesh, grid, cal, ela)
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
        field = map_materials(mesh, grid, cal, ela)
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
        e = map_materials(mesh, grid, cal, ela).e_mpa[0]
        bary, _ = tet_rule(4)
        e_pts = density_to_modulus(
            calibrate_density(trilinear_sample(grid, bary @ corners), cal), ela)
        assert e >= ela.e_min_mpa
        assert e_pts.min() <= e <= e_pts.max()

    def test_element_outside_grid_rejected(self):
        mesh = vertebra_phantom()
        grid = make_grid(lambda x, y, z: np.full_like(x, 500.0),
                         dims=(4, 4, 4), origin=(100.0, 100.0, 100.0))
        with pytest.raises(MaterialError, match="element"):
            map_materials(mesh, grid, CalibrationLaw(), DensityElasticityLaw())

    def test_invalid_poisson_rejected(self):
        mesh = vertebra_phantom()
        grid = make_grid(lambda x, y, z: np.full_like(x, 500.0),
                         dims=(10, 10, 12), origin=(-1, -1, -1))
        with pytest.raises(MaterialError, match="Poisson"):
            map_materials(mesh, grid, CalibrationLaw(), DensityElasticityLaw(), nu=0.6)


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
        with pytest.raises(MaterialError, match="no elements"):
            assign_uniform(mesh, field, 42, 10.0, 0.3)

    def test_invalid_properties_rejected(self):
        mesh = vertebra_phantom()
        field = MaterialField.unset_for(mesh)
        with pytest.raises(MaterialError):
            assign_uniform(mesh, field, 0, -5.0, 0.3)
        with pytest.raises(MaterialError):
            assign_uniform(mesh, field, 0, 10.0, 0.5)

    def test_coverage_gaps_reporting(self):
        mesh = vertebra_phantom()
        field = MaterialField.unset_for(mesh)
        assert len(field.coverage_gaps()) == mesh.n_elements
        field = assign_uniform(mesh, field, 0, 1.0, 0.3)
        field = assign_uniform(mesh, field, 1, 1.0, 0.3)
        field = assign_uniform(mesh, field, 2, 1.0, 0.3)
        assert len(field.coverage_gaps()) == 0

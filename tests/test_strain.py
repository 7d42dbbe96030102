from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from spinefe.mesh import PhantomSpec, build_phantom, extract_surface
from spinefe.strain import (_plane_strains, plane_axes, principal_strains,
                            surface_strain_field)


def unit_normal(p):
    n = np.cross(p[1] - p[0], p[2] - p[0])
    return n / np.linalg.norm(n)


def plane_basis(p):
    """Documented triangle basis: e1 along edge 0->1, e2 = n x e1."""
    e1 = (p[1] - p[0]) / np.linalg.norm(p[1] - p[0])
    return np.column_stack([e1, np.cross(unit_normal(p), e1)])


def triangle_strain(coords, disp):
    """In-plane strain tensor (2, 2) of one triangle, from the surface
    strain kernel given the triangle's unit normal."""
    coords = np.asarray(coords, dtype=np.float64)
    return _plane_strains(coords[None], np.asarray(disp, dtype=np.float64)[None],
                          unit_normal(coords)[None])[0]


def surface_fixture():
    mesh = build_phantom(PhantomSpec(nx=2, ny=2, nz_vertebra=1))
    return mesh, extract_surface(mesh, sorted(mesh.part_table))


class TestTriangleStrain:
    TRI = np.array([[0.2, -0.1, 0.4], [1.3, 0.5, 0.1], [0.6, 1.4, 0.9]])

    def test_affine_field_projects_exactly(self):
        rng = np.random.default_rng(21)
        a = 1e-4 * rng.standard_normal((3, 3))
        disp = self.TRI @ a.T
        got = triangle_strain(self.TRI, disp)
        t = plane_basis(self.TRI)
        want = t.T @ (0.5 * (a + a.T)) @ t
        assert np.allclose(got, want, atol=1e-18)

    def test_symmetric_output(self):
        rng = np.random.default_rng(22)
        disp = 1e-3 * rng.standard_normal((3, 3))
        eps = triangle_strain(self.TRI, disp)
        assert eps[0, 1] == eps[1, 0]

    def test_linearized_rigid_motion_gives_zero_strain(self):
        w = np.array([[0.0, -2e-4, 1e-4],
                      [2e-4, 0.0, -3e-4],
                      [-1e-4, 3e-4, 0.0]])  # antisymmetric: pure rotation rate
        disp = self.TRI @ w.T + np.array([5e-4, -2e-4, 1e-4])
        eps = triangle_strain(self.TRI, disp)
        assert np.abs(eps).max() < 1e-19

    def test_uniform_in_plane_stretch_oracle(self):
        # triangle in the xy plane, u = (d x, 0, 0): eps_xx = d and e1 = +x
        tri = np.array([[0.0, 0, 0], [2, 0, 0], [0, 1, 0]])
        d = 3e-4
        disp = np.column_stack([d * tri[:, 0], np.zeros(3), np.zeros(3)])
        eps = triangle_strain(tri, disp)
        assert np.allclose(eps, [[d, 0.0], [0.0, 0.0]], atol=1e-19)

    def test_pure_shear_oracle(self):
        # u = (g y, 0, 0) in the xy plane: eps_xy = g / 2
        tri = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        g = 4e-4
        disp = np.column_stack([g * tri[:, 1], np.zeros(3), np.zeros(3)])
        eps = triangle_strain(tri, disp)
        assert np.allclose(eps, [[0.0, g / 2], [g / 2, 0.0]], atol=1e-19)

    def test_out_of_plane_displacement_ignored(self):
        tri = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        disp = np.column_stack([np.zeros(3), np.zeros(3),
                                np.full(3, 0.7)])  # uniform lift
        eps = triangle_strain(tri, disp)
        assert np.abs(eps).max() == 0.0


class TestPrincipalStrains:
    def test_hand_oracle(self):
        t = 1e-4 * np.array([[3.0, 1.0], [1.0, 3.0]])
        emax, emin = principal_strains(t)
        assert emax == pytest.approx(4e-4, rel=1e-15)
        assert emin == pytest.approx(2e-4, rel=1e-15)

    def test_diagonal_tensor(self):
        emax, emin = principal_strains(np.diag([-5e-4, 2e-4]))
        assert emax == pytest.approx(2e-4)
        assert emin == pytest.approx(-5e-4)

    def test_batched(self):
        rng = np.random.default_rng(23)
        batch = rng.standard_normal((10, 2, 2))
        batch = 0.5 * (batch + batch.transpose(0, 2, 1))
        emax, emin = principal_strains(batch)
        for i in range(10):
            ev = np.linalg.eigvalsh(batch[i])
            assert emax[i] == pytest.approx(ev[1], rel=1e-12)
            assert emin[i] == pytest.approx(ev[0], rel=1e-12)
        assert (emax >= emin).all()


class TestSurfaceStrainField:
    def test_affine_field_on_all_triangles(self):
        mesh, surf = surface_fixture()
        rng = np.random.default_rng(24)
        a = 1e-4 * rng.standard_normal((3, 3))
        disp = mesh.nodes @ a.T
        field = surface_strain_field(surf, disp)
        assert field.tensors.shape == (len(surf.triangles), 2, 2)
        assert np.isfinite(field.tensors).all()
        sym = 0.5 * (a + a.T)
        tri = surf.vertex_coords()
        for j in range(0, len(surf.triangles), 7):
            t = plane_basis(tri[j])
            want = t.T @ sym @ t
            assert np.allclose(field.tensors[j], want, atol=1e-16)
        # microstrain scaling against the tensors themselves
        emax, emin = principal_strains(field.tensors)
        assert np.allclose(field.eps_max_ue, emax * 1e6, rtol=1e-15)
        assert np.allclose(field.eps_min_ue, emin * 1e6, rtol=1e-15)

    def test_uniform_stretch_microstrain_values(self):
        mesh, surf = surface_fixture()
        d = 1e-4  # 100 microstrain of uniaxial stretch along z
        disp = np.zeros((mesh.n_nodes, 3))
        disp[:, 2] = d * mesh.nodes[:, 2]
        field = surface_strain_field(surf, disp)
        # triangles on vertical faces see the full stretch; horizontal
        # faces see none; nothing exceeds the imposed strain
        assert field.eps_max_ue.max() == pytest.approx(100.0, rel=1e-9)
        assert field.eps_max_ue.min() == pytest.approx(0.0, abs=1e-9)
        assert np.abs(field.eps_min_ue).max() < 1e-9

    def test_plane_axes_are_the_fields_frame(self):
        mesh, surf = surface_fixture()
        axes = plane_axes(surf.vertex_coords(), surf.normals)
        gram = np.einsum("tad,tbd->tab", axes, axes)
        assert np.abs(gram - np.eye(2)).max() < 1e-14
        assert np.abs(np.einsum("tad,td->ta", axes, surf.normals)).max() < 1e-14
        # a uniform stretch along x reads as eps11 = e1x^2 d in the field's tensors
        disp = np.zeros((mesh.n_nodes, 3))
        disp[:, 0] = 1e-4 * mesh.nodes[:, 0]
        tensors = surface_strain_field(surf, disp).tensors
        assert np.allclose(tensors[:, 0, 0], 1e-4 * axes[:, 0, 0] ** 2, rtol=0, atol=1e-15)

    def test_field_is_immutable(self):
        mesh, surf = surface_fixture()
        field = surface_strain_field(surf, np.zeros((mesh.n_nodes, 3)))
        with pytest.raises(FrozenInstanceError):
            field.eps_max_ue = field.eps_min_ue

    def test_shape_mismatch_rejected(self):
        mesh, surf = surface_fixture()
        with pytest.raises(ValueError, match="n_nodes"):
            surface_strain_field(surf, np.zeros((5, 3)))

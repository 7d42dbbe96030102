import math

import numpy as np
import pytest

from fixture_writers import write_markers
from spinefe.errors import FormatError, RegistrationError
from spinefe.io import read_markers
from spinefe.registration import RigidMotion, fit_rigid_motion, rotation_angle


class TestRigidMotion:
    def test_quarter_turn_oracle(self):
        m = RigidMotion.about_axis((0, 0, 1), 90.0)
        assert np.allclose(m.apply(np.array([1.0, 0.0, 0.0])), [0.0, 1.0, 0.0],
                           atol=1e-15)

    def test_pivot_is_fixed_point(self):
        pivot = np.array([3.0, -2.0, 7.0])
        m = RigidMotion.about_axis((1, 1, 0), 33.0, pivot=pivot)
        assert np.allclose(m.apply(pivot), pivot, atol=1e-12)

    def test_extra_translation_applied_after_rotation(self):
        pivot = (1.0, 2.0, 3.0)
        extra = np.array([0.0, 0.0, -0.5])
        m = RigidMotion.about_axis((1, 0, 0), 10.0, pivot=pivot,
                                   extra_translation=extra)
        assert np.allclose(m.apply(np.array(pivot)), np.array(pivot) + extra,
                           atol=1e-12)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(RegistrationError, match="orthonormal"):
            RigidMotion(np.eye(3) * 1.01, np.zeros(3))

    def test_reflection_rejected(self):
        with pytest.raises(RegistrationError, match="determinant"):
            RigidMotion(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_zero_axis_rejected(self):
        with pytest.raises(RegistrationError, match="nonzero"):
            RigidMotion.about_axis((0, 0, 0), 10.0)

    @pytest.mark.parametrize("axis, angle", [
        ((math.inf, 0.0, 0.0), 2.0), ((math.nan, 0.0, 1.0), 2.0),
        ((1.0, 0.0, 0.0), math.nan), ((1.0, 0.0, 0.0), math.inf)])
    def test_non_finite_axis_or_angle_rejected(self, axis, angle):
        with pytest.raises(RegistrationError, match="finite"):
            RigidMotion.about_axis(axis, angle)

    @pytest.mark.parametrize("where", ["pivot", "extra_translation"])
    def test_non_finite_pivot_or_translation_rejected(self, where):
        with pytest.raises(RegistrationError, match="finite"):
            RigidMotion.about_axis((0, 0, 1), 5.0, **{where: (0.0, math.nan, 0.0)})

    @pytest.mark.parametrize("bad", ["rotation", "translation"])
    def test_non_finite_motion_rejected(self, bad):
        parts = {"rotation": np.eye(3), "translation": np.zeros(3)}
        parts[bad] = np.full_like(parts[bad], math.nan)
        with pytest.raises(RegistrationError, match="finite"):
            RigidMotion(**parts)

    def test_rotation_angle_oracle(self):
        assert rotation_angle(RigidMotion(np.eye(3), np.zeros(3))) == 0.0
        m = RigidMotion.about_axis((1, 2, 3), 37.0)
        assert rotation_angle(m) == pytest.approx(37.0, abs=1e-10)
        half = RigidMotion.about_axis((0, 1, 0), 180.0)
        assert rotation_angle(half) == pytest.approx(180.0, abs=1e-6)

    @pytest.mark.parametrize("angle", [0.5, 1.7, 2.0, 2.8])
    def test_rotation_angle_accurate_at_small_angles(self, angle):
        # the flexion angles of a spine test; arccos of the trace is off
        # by about 1e-12 degrees here
        m = RigidMotion.about_axis((0.2, 1.0, -0.3), angle)
        assert rotation_angle(m) == pytest.approx(angle, abs=1e-14)

    def test_small_displacement_of_translation_is_exact(self):
        m = RigidMotion(np.eye(3), [0.5, -0.25, 0.125])
        pts = np.random.default_rng(4).uniform(-3, 3, (9, 3))
        assert (m.small_displacement(pts) == m.apply(pts) - pts).all()

    def test_small_displacement_gradient_is_skew(self):
        # the displacement gradient must carry no symmetric part, i.e.
        # the linearized drive is strain free by construction
        m = RigidMotion.about_axis((1, -1, 2), 11.0, pivot=(0.2, 0.5, -1.0))
        pts = np.random.default_rng(5).uniform(-2, 2, (6, 3))
        u = m.small_displacement(pts)
        grad, *_ = np.linalg.lstsq(
            np.hstack([pts, np.ones((6, 1))]), u, rcond=None)
        a = grad[:3].T
        assert np.abs(a + a.T).max() < 1e-12

    def test_small_displacement_preserves_mean_drive(self):
        m = RigidMotion.about_axis((0, 1, 0), 8.0, pivot=(4.0, 1.0, -2.0),
                                   extra_translation=(0.1, 0.0, -0.3))
        pts = np.random.default_rng(6).uniform(-5, 5, (25, 3))
        lin = m.small_displacement(pts).mean(axis=0)
        fin = (m.apply(pts) - pts).mean(axis=0)
        assert np.allclose(lin, fin, atol=1e-12)

    def test_small_displacement_matches_finite_to_second_order(self):
        pts = np.random.default_rng(7).uniform(-1, 1, (12, 3))
        for deg in (0.5, 1.0, 2.0):
            m = RigidMotion.about_axis((1, 0.5, -0.2), deg, pivot=(0.1, 0, 0))
            gap = np.abs(m.small_displacement(pts) - (m.apply(pts) - pts)).max()
            assert gap < 3.0 * np.radians(deg) ** 2


class TestFitRigidMotion:
    def test_exact_recovery(self):
        rng = np.random.default_rng(7)
        src = rng.uniform(-10, 10, (40, 3))
        truth = RigidMotion.about_axis((1, -2, 0.5), 12.0, pivot=(1, 1, 1),
                                       extra_translation=(0.3, -0.1, 0.7))
        motion, rms = fit_rigid_motion(src, truth.apply(src))
        assert rms < 1e-12
        assert np.allclose(motion.rotation, truth.rotation, atol=1e-12)
        assert np.allclose(motion.translation, truth.translation, atol=1e-11)

    def test_square_quarter_turn_oracle(self):
        src = np.array([[1.0, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]])
        dst = np.array([[0.0, 1, 0], [-1, 0, 0], [0, -1, 0], [1, 0, 0]])
        motion, rms = fit_rigid_motion(src, dst)
        want = RigidMotion.about_axis((0, 0, 1), 90.0).rotation
        assert np.allclose(motion.rotation, want, atol=1e-12)
        assert np.allclose(motion.translation, 0.0, atol=1e-12)
        assert rms < 1e-15

    def test_rms_is_per_dof(self):
        rng = np.random.default_rng(8)
        src = rng.uniform(0, 5, (30, 3))
        dst = src + rng.normal(0, 0.1, src.shape)
        motion, rms = fit_rigid_motion(src, dst)
        res = motion.apply(src) - dst
        assert rms == pytest.approx(np.sqrt((res ** 2).sum() / (3 * len(src))),
                                    rel=1e-12)

    def test_noise_rms_matches_sigma(self):
        rng = np.random.default_rng(9)
        src = rng.uniform(-20, 20, (500, 3))
        sigma = 0.025
        dst = src + rng.normal(0, sigma, src.shape)
        _, rms = fit_rigid_motion(src, dst)
        assert abs(rms - sigma) < 0.1 * sigma

    def test_reflection_guard_returns_proper_rotation(self):
        rng = np.random.default_rng(10)
        src = rng.uniform(-1, 1, (25, 3))
        dst = src.copy()
        dst[:, 0] *= -1.0  # mirrored cloud
        motion, _ = fit_rigid_motion(src, dst)
        assert np.linalg.det(motion.rotation) == pytest.approx(1.0, abs=1e-12)

    def test_collinear_cloud_rejected(self):
        src = np.outer(np.arange(5.0), [1.0, 2.0, 3.0])
        with pytest.raises(RegistrationError, match="degenerate"):
            fit_rigid_motion(src, src)

    def test_too_few_points_rejected(self):
        with pytest.raises(RegistrationError, match="at least 3"):
            fit_rigid_motion(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(RegistrationError, match="shape"):
            fit_rigid_motion(np.zeros((4, 3)), np.zeros((5, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["source", "target"])
    def test_non_finite_coordinate_rejected(self, bad, side):
        src = np.random.default_rng(12).uniform(0, 1, (4, 3))
        dst = src + 0.5
        (src if side == "source" else dst)[0, 0] = bad
        with pytest.raises(RegistrationError, match="finite"):
            fit_rigid_motion(src, dst)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        src = rng.uniform(0, 1, (20, 3))
        dst = src + rng.normal(0, 0.01, src.shape)
        m1, r1 = fit_rigid_motion(src, dst)
        m2, r2 = fit_rigid_motion(src, dst)
        assert m1.rotation.tobytes() == m2.rotation.tobytes()
        assert m1.translation.tobytes() == m2.translation.tobytes()
        assert r1 == r2


class TestMarkerSet:
    """A marker file's two frames, as ``read_markers`` pairs them by label,
    fitted by ``fit_rigid_motion``."""

    REF = np.array([[0.0, 0, 0], [10, 0, 0], [0, 10, 0], [0, 0, 10]])

    def test_fit_recovers_motion(self, tmp_path):
        truth = RigidMotion.about_axis((0, 1, 0), 5.0, pivot=(5, 5, 5))
        path = tmp_path / "markers.csv"
        write_markers(["a", "b", "c", "d"], self.REF, truth.apply(self.REF), path)
        motion, rms = fit_rigid_motion(*read_markers(path))
        assert rms < 1e-12
        assert np.allclose(motion.rotation, truth.rotation, atol=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("frame", ["reference", "deformed"])
    def test_fit_rejects_non_finite_markers(self, bad, frame):
        frames = {"reference": self.REF.copy(), "deformed": self.REF + 1.0}
        frames[frame][2, 1] = bad
        with pytest.raises(RegistrationError, match="finite"):
            fit_rigid_motion(frames["reference"], frames["deformed"])

    def test_duplicate_labels_rejected(self, tmp_path):
        path = tmp_path / "markers.csv"
        write_markers(["a", "a", "b"], np.zeros((3, 3)), np.zeros((3, 3)), path)
        with pytest.raises(FormatError, match="duplicate marker 'a' in step 0"):
            read_markers(path)

    def test_length_mismatch_rejected(self, tmp_path):
        # three reference positions against two deformed ones
        path = tmp_path / "markers.csv"
        path.write_text("label,step,x,y,z\na,0,0,0,0\nb,0,1,0,0\nc,0,0,1,0\n"
                        "a,1,0,0,0\nb,1,1,0,0\n")
        with pytest.raises(FormatError, match="markers must appear in both steps"):
            read_markers(path)

import math

import numpy as np
import pytest

from spinefe.errors import CompareError
from spinefe.mesh import (PhantomSpec, build_phantom, extract_surface,
                          partition_rois)
from spinefe.metrics import (MeasurementCloud, compare_fields, field_stats,
                             idw_interpolate, ks_two_sample,
                             linear_regression, percent_difference, rmse,
                             roi_average)
from spinefe.pipeline import ComparisonSettings
from spinefe.strain import SurfaceStrainField, surface_strain_field


def cloud_of(points, values):
    return MeasurementCloud(np.asarray(points, dtype=float),
                            np.asarray(values, dtype=float))


class TestMeasurementCloud:
    def test_values_must_be_displacement_rows(self):
        for values in ([1.0, 2.0], [[1.0], [2.0]], [[1.0, 2.0], [3.0, 4.0]]):
            with pytest.raises(ValueError, match=r"\(p, 3\) displacement rows"):
                cloud_of([[0, 0, 0], [1, 0, 0]], values)

    def test_points_must_be_position_rows(self):
        # twelve coordinates in pairs are not regrouped into four points
        for points in (np.arange(12.0).reshape(6, 2), np.arange(12.0), np.zeros((4, 3, 1))):
            with pytest.raises(ValueError, match=r"\(p, 3\) position rows"):
                cloud_of(points, np.zeros((4, 3)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            cloud_of([[0, 0, 0]], [[1, 0, 0], [2, 0, 0]])


class TestIdwInterpolate:
    def test_exact_hit_returns_sample_bitwise(self):
        pts = [[0.0, 0, 0], [0.3, 0, 0]]
        vals = [[1.234567890123456, 0, 0], [9.0, 0, 0]]
        c = cloud_of(pts, vals)
        out, missing = idw_interpolate(c, [[0.0, 0.0, 0.0]])
        assert out[0, 0] == 1.234567890123456
        assert not missing[0]

    def test_near_hit_within_tolerance_snaps(self):
        c = cloud_of([[0.0, 0, 0], [0.5, 0, 0]], [[2.0, -1.0, 0.5], [100.0, 3.0, 7.0]])
        out, _ = idw_interpolate(c, [[1e-10, 0.0, 0.0]])
        assert out[0].tolist() == [2.0, -1.0, 0.5]

    def test_power_two_weighting_oracle(self):
        # samples at d=0.5 (value 1) and d=1.0 (value 4):
        # weights 4 and 1 -> (4*1 + 1*4) / 5 = 1.6
        c = cloud_of([[0.5, 0, 0], [-1.0, 0, 0]], [[1.0, 0.0, -1.0], [4.0, 1.0, 4.0]])
        out, _ = idw_interpolate(c, [[0.0, 0.0, 0.0]], power=2.0, radius_mm=1.0)
        assert out[0] == pytest.approx([1.6, 0.2, 0.0], rel=1e-14, abs=1e-15)

    def test_radius_is_inclusive(self):
        c = cloud_of([[1.0, 0, 0]], [[7.0, 8.0, 9.0]])
        out, missing = idw_interpolate(c, [[0.0, 0.0, 0.0]], radius_mm=1.0)
        assert not missing[0]
        assert out[0] == pytest.approx([7.0, 8.0, 9.0])

    def test_beyond_radius_is_missing(self):
        c = cloud_of([[1.0001, 0, 0]], [[7.0, 8.0, 9.0]])
        out, missing = idw_interpolate(c, [[0.0, 0.0, 0.0]], radius_mm=1.0)
        assert missing[0]
        assert np.isnan(out[0]).all()

    def test_higher_power_favors_nearest(self):
        c = cloud_of([[0.2, 0, 0], [0.9, 0, 0]], [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        lo, _ = idw_interpolate(c, [[0.0, 0.0, 0.0]], power=1.0)
        hi, _ = idw_interpolate(c, [[0.0, 0.0, 0.0]], power=8.0)
        assert abs(hi[0, 0] - 1.0) < abs(lo[0, 0] - 1.0)

    def test_parameter_validation(self):
        c = cloud_of([[0, 0, 0]], [[1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="power"):
            idw_interpolate(c, [[0.0, 0.0, 0.0]], power=0.0)
        with pytest.raises(ValueError, match="radius"):
            idw_interpolate(c, [[0.0, 0.0, 0.0]], radius_mm=-1.0)

    def test_vector_values_shape(self):
        c = cloud_of([[0, 0, 0.2]], [[1.0, 2.0, 3.0]])
        out, missing = idw_interpolate(c, [[0, 0, 0], [5, 5, 5]])
        assert out.shape == (2, 3)
        assert not missing[0] and missing[1]


class TestLinearRegression:
    def test_hand_oracle(self):
        stats = linear_regression([1.0, 2.0, 3.0], [1.0, 3.0, 4.0])
        assert abs(stats["slope"] - 1.5) < 1e-12
        assert abs(stats["intercept"] - (-1.0 / 3.0)) < 1e-12
        assert abs(stats["r2"] - 27.0 / 28.0) < 1e-12
        assert not stats["degenerate"]

    def test_perfect_line(self):
        x = np.arange(5.0)
        stats = linear_regression(x, 2.0 * x - 1.0)
        assert stats["slope"] == pytest.approx(2.0, rel=1e-14)
        assert stats["r2"] == pytest.approx(1.0, abs=1e-15)

    def test_constant_y_degenerate(self):
        stats = linear_regression([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        assert stats["r2"] == 0.0
        assert stats["degenerate"]

    def test_constant_x_degenerate(self):
        stats = linear_regression([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        assert stats["slope"] == 0.0
        assert stats["intercept"] == pytest.approx(2.0)
        assert stats["degenerate"]

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            linear_regression([1.0], [1.0])


class TestErrorMetrics:
    def test_rmse_oracle(self):
        assert rmse([4.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(8.5),
                                                             rel=1e-15)

    def test_rmse_pct_oracle(self):
        got = field_stats([4.0, 0.0], [3.0, 4.0])["rmse_pct"]
        assert got == pytest.approx(100.0 * math.sqrt(8.5) / 4.0, rel=1e-15)

    def test_rmse_pct_zero_peak_is_none(self):
        stats = field_stats([1.0, 2.0], [0.0, 0.0])
        assert stats["rmse_pct"] is None
        assert stats["rmse"] == pytest.approx(math.sqrt(2.5), rel=1e-15)

    def test_rmse_validation(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            rmse([], [])

    def test_percent_difference_floor(self):
        # |measured| below the 10 ue floor divides by the floor instead
        got = percent_difference([7.0, 15.0], [5.0, 20.0], floor=10.0)
        assert got[0] == pytest.approx(20.0)
        assert got[1] == pytest.approx(-25.0)

    def test_percent_difference_signed(self):
        got = percent_difference([30.0], [20.0])
        assert got[0] == pytest.approx(50.0)

    def test_percent_difference_validation(self):
        with pytest.raises(ValueError, match="floor"):
            percent_difference([1.0], [1.0], floor=0.0)
        with pytest.raises(ValueError, match="same-length"):
            percent_difference([1.0], [1.0, 2.0])


class TestKsTwoSample:
    def test_hand_oracle(self):
        d, p = ks_two_sample([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 5.0])
        assert d == 0.25
        lam = math.sqrt(2.0) * 0.25
        want_p = 2.0 * sum((-1.0) ** (k - 1) * math.exp(-2.0 * (k * lam) ** 2)
                           for k in range(1, 101))
        assert p == pytest.approx(min(want_p, 1.0), rel=1e-12)

    def test_identical_samples(self):
        d, p = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert d == 0.0
        assert p == 1.0

    def test_disjoint_samples(self):
        d, p = ks_two_sample([0.0, 1.0], [10.0, 11.0])
        assert d == 1.0
        assert p < 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            ks_two_sample([], [1.0])

    def test_symmetry(self):
        rng = np.random.default_rng(30)
        a, b = rng.normal(size=40), rng.normal(0.5, 1.0, size=25)
        d1, p1 = ks_two_sample(a, b)
        d2, p2 = ks_two_sample(b, a)
        assert d1 == d2 and p1 == p2


def fake_strain_field(eps_max, eps_min):
    return SurfaceStrainField(tensors=np.zeros((len(eps_max), 2, 2)),
                              eps_max_ue=np.asarray(eps_max, dtype=float),
                              eps_min_ue=np.asarray(eps_min, dtype=float))


class TestRoiAverage:
    FIELD = fake_strain_field(eps_max=[10.0, 30.0, 50.0, 70.0],
                              eps_min=[-5.0, -15.0, -25.0, -35.0])
    ROIS = np.array([0, 0, 1, 2], dtype=np.int8)
    AREAS = np.array([1.0, 3.0, 2.0, 4.0])

    def test_unweighted_means(self):
        out = roi_average(self.FIELD, self.ROIS)
        assert out["left"]["eps_max_ue"] == pytest.approx(20.0)
        assert out["left"]["eps_min_ue"] == pytest.approx(-10.0)
        assert out["central"]["eps_max_ue"] == pytest.approx(50.0)
        assert out["right"]["eps_max_ue"] == pytest.approx(70.0)
        assert out["total"]["eps_max_ue"] == pytest.approx(40.0)
        assert [out[k]["n"] for k in ("left", "central", "right", "total")] \
            == [2, 1, 1, 4]

    def test_area_weighted_means(self):
        out = roi_average(self.FIELD, self.ROIS, self.AREAS)
        assert out["left"]["eps_max_ue"] == pytest.approx((10 + 90) / 4.0)
        assert out["total"]["eps_max_ue"] == pytest.approx(
            (10 * 1 + 30 * 3 + 50 * 2 + 70 * 4) / 10.0)

    def test_empty_region_is_none(self):
        field = fake_strain_field(eps_max=[1.0, 2.0], eps_min=[0.0, 0.0])
        out = roi_average(field, np.array([0, 0], dtype=np.int8))
        assert out["central"]["eps_max_ue"] is None
        assert out["central"]["n"] == 0


class TestFieldStatistics:
    def test_from_arrays(self):
        fs = field_stats(np.array([4.0, 0.0]), np.array([3.0, 4.0]))
        assert fs["n"] == 2
        assert fs["rmse"] == pytest.approx(math.sqrt(8.5))
        assert "r2" in fs

    def test_empty(self):
        fs = field_stats(np.array([]), np.array([]))
        assert fs == {"n": 0, "rmse": None, "rmse_pct": None}

    def test_single_point_has_no_regression(self):
        fs = field_stats(np.array([1.0]), np.array([2.0]))
        assert fs["n"] == 1 and "r2" not in fs
        assert fs["rmse"] == pytest.approx(1.0)

    def test_to_dict_flattens_regression(self):
        fs = field_stats(np.arange(3.0), np.arange(3.0) * 2)
        assert list(fs) == ["n", "rmse", "rmse_pct", "slope", "intercept",
                            "r2", "degenerate"]


class TestCompareFields:
    def setup_method(self):
        self.mesh = build_phantom(PhantomSpec(nx=2, ny=2, nz_vertebra=1))
        self.surf = extract_surface(self.mesh, sorted(self.mesh.part_table))
        self.rois = partition_rois(self.surf, axis=(1, 0, 0),
                                   fractions=(1 / 3, 2 / 3))
        rng = np.random.default_rng(31)
        a = 1e-4 * rng.standard_normal((3, 3))
        self.disp = self.mesh.nodes @ a.T + np.array([0.01, -0.02, 0.03])

    def perfect_cloud(self):
        ids = self.surf.corner_node_ids()
        return cloud_of(self.mesh.nodes[ids], self.disp[ids])

    def compare(self, cloud, disp=None, **settings):
        """``compare_fields`` of ``disp`` (default the affine field) and its
        own strain field, under the given comparison settings."""
        disp = self.disp if disp is None else disp
        return compare_fields(cloud, self.surf, disp, surface_strain_field(self.surf, disp),
                              self.rois, ComparisonSettings(**settings))

    def test_perfect_agreement(self):
        report = self.compare(self.perfect_cloud())
        for comp in ("ux", "uy", "uz", "pooled"):
            fs = report.displacement[comp]
            assert fs["rmse"] == 0.0
            assert fs["r2"] == pytest.approx(1.0, abs=1e-12)
        blk = report.strain_block("all", "eps_max")
        assert blk["ks_d"] == 0.0
        assert blk["pct_diff_max_abs"] == 0.0
        assert blk["per_roi"]["total"]["rmse"] == 0.0
        assert report.counts["covered_nodes"] == report.counts["surface_nodes"]
        assert report.counts["triangles_compared"] == \
            report.counts["triangles_total"]
        assert report.counts["triangles_missing"] == 0

    def test_per_part_blocks_present(self):
        report = self.compare(self.perfect_cloud())
        parts = {blk["part"] for blk in report.strain}
        names = {p.name for p in self.mesh.part_table.values()}
        assert "all" in parts
        assert names <= parts
        quantities = {blk["quantity"] for blk in report.strain}
        assert quantities == {"eps_max", "eps_min"}

    def test_partial_coverage_reports_missing(self):
        ids = self.surf.corner_node_ids()
        keep = self.mesh.nodes[ids][:, 2] > self.mesh.nodes[:, 2].mean()
        cloud = cloud_of(self.mesh.nodes[ids][keep], self.disp[ids][keep])
        report = self.compare(cloud)
        assert report.counts["missing_nodes"] > 0
        assert report.counts["triangles_missing"] > 0
        assert report.counts["triangles_compared"] + \
            report.counts["triangles_missing"] == report.counts["triangles_total"]
        # exact nodal samples of the model field: every compared triangle
        # meets its own model strain, so any misalignment would show here
        for q in ("eps_max", "eps_min"):
            total = report.strain_block("all", q)["per_roi"]["total"]
            assert total["n"] == report.counts["triangles_compared"]
            assert total["rmse"] == 0.0

    @pytest.mark.parametrize("where", ["points", "values"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cloud_rejected(self, where, bad):
        ids = self.surf.corner_node_ids()
        arrays = {"points": self.mesh.nodes[ids], "values": self.disp[ids]}
        arrays[where][4, 1] = bad
        with pytest.raises(CompareError, match="non-finite"):
            cloud_of(arrays["points"], arrays["values"])

    def test_model_field_with_nan_at_a_covered_node_rejected(self):
        disp = self.disp.copy()
        disp[self.surf.triangles[0, 0]] = np.nan
        with pytest.raises(CompareError, match="does not cover the measured triangles"):
            self.compare(self.perfect_cloud(), disp)

    def test_too_few_complete_triangles_rejected(self):
        # cover nodes one at a time, skipping any that would complete a triangle
        covered: set[int] = set()
        for node in self.surf.corner_node_ids().tolist():
            if not any(set(t) <= covered | {node} for t in self.surf.triangles.tolist()):
                covered.add(node)
        ids = np.array(sorted(covered))
        assert ids.size >= 10
        cloud = cloud_of(self.mesh.nodes[ids], self.disp[ids])
        with pytest.raises(CompareError,
                           match=r"only 0 triangles have full measured coverage \(need 10\)"):
            self.compare(cloud)

    def test_scalar_cloud_rejected(self):
        ids = self.surf.corner_node_ids()
        with pytest.raises(ValueError, match=r"\(p, 3\) displacement rows"):
            cloud_of(self.mesh.nodes[ids], self.disp[ids][:, 0])

    def test_sparse_cloud_rejected(self):
        cloud = cloud_of([[1000.0, 0, 0]] * 3, [[0.0, 0, 0]] * 3)
        with pytest.raises(CompareError, match="covered"):
            self.compare(cloud)

    def test_min_points_respected(self):
        ids = self.surf.corner_node_ids()[:12]
        cloud = cloud_of(self.mesh.nodes[ids], self.disp[ids])
        with pytest.raises(CompareError):
            self.compare(cloud, min_points=1000)

    def test_report_round_trips_to_dict(self):
        report = self.compare(self.perfect_cloud())
        d = report.to_dict()
        assert set(d) == {"displacement", "strain", "counts", "settings"}
        assert d["displacement"]["pooled"]["rmse"] == 0.0
        assert isinstance(d["strain"], list) and d["strain"]

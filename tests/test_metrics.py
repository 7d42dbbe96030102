import math
import re
import tracemalloc

import numpy as np
import pytest

from spinefe import metrics
from spinefe.errors import CompareError
from spinefe.mesh import (PhantomSpec, build_phantom, extract_surface,
                          partition_rois)
from spinefe.metrics import (MeasurementCloud, compare_fields, field_stats,
                             ks_two_sample, linear_regression, observe,
                             percent_difference, rmse, roi_average)
from spinefe.pipeline import SyntheticSpec, synth_measurement
from spinefe.strain import SurfaceStrainField


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
        # |measured| below the 10 ue floor (PCT_DIFF_FLOOR_UE) divides by the floor instead
        got = percent_difference([7.0, 15.0], [5.0, 20.0])
        assert got[0] == pytest.approx(20.0)
        assert got[1] == pytest.approx(-25.0)

    def test_percent_difference_signed(self):
        got = percent_difference([30.0], [20.0])
        assert got[0] == pytest.approx(50.0)

    def test_percent_difference_validation(self):
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

    def test_unweighted_means(self):
        out = roi_average(self.FIELD, self.ROIS)
        assert out["left"]["eps_max_ue"] == pytest.approx(20.0)
        assert out["left"]["eps_min_ue"] == pytest.approx(-10.0)
        assert out["central"]["eps_max_ue"] == pytest.approx(50.0)
        assert out["right"]["eps_max_ue"] == pytest.approx(70.0)
        assert out["total"]["eps_max_ue"] == pytest.approx(40.0)
        assert [out[k]["n"] for k in ("left", "central", "right", "total")] \
            == [2, 1, 1, 4]

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
        self.rois = partition_rois(self.surf, axis=(1, 0, 0))
        rng = np.random.default_rng(31)
        a = 1e-4 * rng.standard_normal((3, 3))
        self.disp = self.mesh.nodes @ a.T + np.array([0.01, -0.02, 0.03])
        # random points on the triangles, none on a node: about 0.2 per mm²
        tri = rng.choice(self.surf.n_triangles, 3000, p=self.surf.areas / self.surf.areas.sum())
        r1, r2 = np.sqrt(rng.random(tri.size)), rng.random(tri.size)
        bary = np.stack([1.0 - r1, r1 * (1.0 - r2), r1 * r2], axis=1)
        self.points = np.einsum("pc,pcd->pd", bary, self.surf.vertex_coords()[tri])
        self.values = np.einsum("pc,pcd->pd", bary, self.disp[self.surf.triangles[tri]])

    def observe(self, cloud):
        return observe(cloud, self.surf, self.rois)

    def perfect_cloud(self, keep=slice(None)):
        """Off-node points whose values are the affine field seen through
        their own observation, so both sides agree to the last bit."""
        points = self.points[keep]
        seen = self.observe(cloud_of(points, self.values[keep])).sample @ self.disp
        return cloud_of(points, seen)

    def compare(self, cloud, disp=None):
        """``compare_fields`` of ``disp`` (default the affine field) against
        ``cloud``."""
        return compare_fields(self.observe(cloud), self.disp if disp is None else disp)

    def test_perfect_agreement(self):
        report = self.compare(self.perfect_cloud())
        for comp in ("ux", "uy", "uz", "pooled"):
            fs = report.displacement[comp]
            assert fs["rmse"] == 0.0
            assert fs["r2"] == pytest.approx(1.0, abs=1e-12)
        assert report.misfit == {"displacement_mm": 0.0, "tensor_ue": 0.0}
        blk = report.strain_block("all", "eps_max")
        assert blk["ks_d"] == 0.0
        assert blk["pct_diff_max_abs"] == 0.0
        assert blk["per_roi"]["total"]["rmse"] == 0.0
        counts = report.counts
        assert counts["covered_nodes"] == counts["surface_nodes"]
        assert counts["sites_located"] == counts["cloud_points"] == 3000
        assert blk["per_roi"]["total"]["n"] == counts["sites_windowed"] <= 3000

    def test_interpolated_cloud_agrees_to_rounding(self):
        # the same points valued by their own barycentric sums, not by O
        report = self.compare(cloud_of(self.points, self.values))
        scale = np.abs(self.values).max()
        assert report.displacement["pooled"]["rmse"] <= 1e-14 * scale
        assert report.misfit["displacement_mm"] <= 1e-14 * scale
        assert report.misfit["tensor_ue"] <= 1e-6

    def test_per_part_blocks_present(self):
        report = self.compare(self.perfect_cloud())
        parts = {blk["part"] for blk in report.strain}
        names = {p.name for p in self.mesh.part_table.values()}
        assert "all" in parts
        assert names <= parts
        quantities = {blk["quantity"] for blk in report.strain}
        assert quantities == {"eps_max", "eps_min"}

    def test_partial_coverage_reports_missing(self):
        keep = self.points[:, 2] > self.mesh.nodes[:, 2].mean()
        report = self.compare(self.perfect_cloud(keep))
        counts = report.counts
        assert counts["covered_nodes"] < counts["surface_nodes"]
        assert counts["sites_located"] == int(keep.sum())
        # the model field seen through the cloud's own operators: every
        # windowed site meets its model strain, so a misalignment would show
        for q in ("eps_max", "eps_min"):
            total = report.strain_block("all", q)["per_roi"]["total"]
            assert total["n"] == counts["sites_windowed"]
            assert total["rmse"] == 0.0

    @pytest.mark.parametrize("where", ["points", "values"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cloud_rejected(self, where, bad):
        arrays = {"points": self.points.copy(), "values": self.values.copy()}
        arrays[where][4, 1] = bad
        kind = "coordinate" if where == "points" else "displacement"
        with pytest.raises(CompareError, match=f"cloud point 4 {kind} is {bad}, not a finite"):
            cloud_of(arrays["points"], arrays["values"])

    @pytest.mark.parametrize("ux", [1e160, 1e300])
    def test_statistics_past_float64_rejected(self, ux):
        # finite values whose squared differences overflow: a cloud built in
        # Python holds them, as a synthetic one holds a solved field.  Each is
        # one CompareError, and no numpy warning, which pytest turns into an
        # error.  Crowded sites no longer reach the statistics (next test)
        values = self.values.copy()
        values[:, 0] = ux
        with pytest.raises(CompareError, match="statistics overflow float64: the cloud's "
                                               "values are too large$"):
            self.compare(cloud_of(self.points, values))

    # twelve sites on the x = 0 face by a corner, spread over [0.1, 1) x scale
    # in y and z: a window spread less than LENGTH_MIN_MM (1e-6 mm) across has
    # no strain, and no numpy warning is printed (inv(scatter) overflowed from
    # about 1e-155 mm down); at 1e-4 mm each site windows all twelve
    @pytest.mark.parametrize("scale", [1e-4, 1e-7, 1e-150, 1e-155, 1e-200])
    def test_crowded_window_has_no_strain(self, scale):
        rng = np.random.default_rng(5)
        crowd = np.column_stack([np.zeros(12), scale * rng.uniform(0.1, 1.0, (12, 2))])
        cloud = cloud_of(crowd, rng.uniform(-1e3, 1e3, (12, 3)))
        if scale > 1e-6:
            report = self.compare(cloud)
            assert report.counts["sites_windowed"] == 12
        else:
            with pytest.raises(CompareError, match="^only 0 of 12 located sites have a "
                                                   "strain window"):
                self.observe(cloud)

    def test_collinear_window_has_no_strain(self):
        # twelve sites along one line of the x = 0 face: no window
        rng = np.random.default_rng(5)
        line = np.column_stack([np.zeros(12), np.full(12, 1.0), rng.uniform(0.5, 3.0, 12)])
        with pytest.raises(CompareError, match="^only 0 of 12 located sites have a "
                                               "strain window"):
            self.observe(cloud_of(line, rng.uniform(-1.0, 1.0, (12, 3))))

    def test_point_off_the_surface_left_out_and_counted(self):
        cloud = self.perfect_cloud()
        cloud.points[7, 2] = self.mesh.nodes[:, 2].max() + 1.0   # 1 mm above the top face
        cloud.values[7] = 1.0                                    # and far from the field
        obs = self.observe(cloud)
        assert obs.located.tolist() == [k for k in range(3000) if k != 7]
        report = compare_fields(obs, self.disp)
        assert report.displacement["pooled"]["rmse"] == 0.0
        assert report.misfit == {"displacement_mm": 0.0, "tensor_ue": 0.0}
        assert (report.counts["cloud_points"], report.counts["sites_located"]) == (3000, 2999)

    def test_point_just_past_an_edge_is_located_on_it(self):
        # 5 um out from a box edge along the bisector of its two faces: no
        # face's plane projection holds it, the edge does
        top, x_max = self.mesh.nodes[:, 2].max(), self.mesh.nodes[:, 0].max()
        points = self.points.copy()
        for row, step in ((0, 0.005), (1, 0.02)):
            points[row] = [x_max + step / math.sqrt(2), 5.0, top + step / math.sqrt(2)]
        obs = self.observe(cloud_of(points, self.values))
        assert obs.located[:2].tolist() == [0, 2]               # 20 um out is left out
        corners = self.mesh.nodes[self.surf.triangles[obs.sites[0]]]
        assert np.isclose(corners[:, 0].max(), x_max) and np.isclose(corners[:, 2].max(), top)

    def test_too_few_windowed_sites_rejected(self):
        # triangle centroids lie over 4 mm apart, so no site has a window
        cloud = cloud_of(self.surf.centroids, self.disp[self.surf.triangles].mean(axis=1))
        with pytest.raises(CompareError, match=rf"^only 0 of {self.surf.n_triangles} located "
                                               r"sites have a strain window of 6 sites within "
                                               r"4 mm \(need 10\)$"):
            self.compare(cloud)

    def test_scalar_cloud_rejected(self):
        with pytest.raises(ValueError, match=r"\(p, 3\) displacement rows"):
            cloud_of(self.points, self.values[:, 0])

    def test_sparse_cloud_rejected(self):
        cloud = cloud_of([[1000.0, 0, 0]] * 3, [[0.0, 0, 0]] * 3)
        with pytest.raises(CompareError, match=r"^only 0 of 3 cloud points lie within "
                                               r"0\.01 mm of the observed surface \(need 10\)$"):
            self.compare(cloud)

    def test_dense_cloud_memory_is_linear_in_its_points(self):
        # a window holds at most WINDOW_MAX_SITES sites, so a 0.5 mm cloud
        # (every window full) costs what a 2 mm one does per point
        cloud = synth_measurement(self.surf, self.disp, SyntheticSpec(spacing_mm=0.5),
                                  np.random.default_rng(5))
        tracemalloc.start()
        try:
            obs = self.observe(cloud)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert obs.windowed.size == cloud.n_points > 2000
        assert peak <= 8 * 1024 * cloud.n_points

    def test_min_points_respected(self, monkeypatch):
        monkeypatch.setattr(metrics, "MIN_SITES", 1000)
        cloud = cloud_of(self.points[:12], self.values[:12])
        with pytest.raises(CompareError, match=r"^only 12 of 12 cloud points lie within .*\(need 1000\)$"):
            self.compare(cloud)

    def test_report_round_trips_to_dict(self):
        report = self.compare(self.perfect_cloud())
        d = report.to_dict()
        assert set(d) == {"displacement", "misfit", "strain", "counts", "settings"}
        assert d["displacement"]["pooled"]["rmse"] == 0.0
        assert isinstance(d["strain"], list) and d["strain"]

"""Agreement statistics between measured point clouds and model fields.

``observe`` locates each cloud point on the observed surface (a site: a
triangle and barycentric coordinates; a point off it is left out) and
builds two sparse operators
once per cloud: O maps nodal displacements to the sites, and W maps site
displacements to each windowed site's in-plane tensor (eps11, eps22,
eps12 in its triangle's ``strain.plane_axes``), the least-squares affine
fit over the sites of a window.  That is DIC's strain estimator (Pan,
Asundi, Xie & Gao, Opt. Lasers Eng. 47, 2009),
and both sides go through it (Lava et al., Strain 56, 2020): measured d
as d and W d, a model field u as O u and W O u.  Every setting is a
module constant below, not a config key.  ``report.json`` holds:

- field stats (``field_stats``): ``{"n", "rmse", "rmse_pct"}``, plus
  ``"slope", "intercept", "r2", "degenerate"`` from two points on; rmse
  and rmse_pct are None when n is 0.
- a strain block: ``{"part", "quantity", "per_roi", "ks_d", "ks_p",
  "pct_diff_mean_abs", "pct_diff_max_abs", "roi_mean_measured",
  "roi_mean_predicted"}`` over the windowed sites, by their triangles'
  part and RoI; ``per_roi`` maps left/central/right/total to field stats,
  and the two means map them to a value or None.
- a report (``ComparisonReport.to_dict``): ``{"displacement", "misfit",
  "strain", "counts", "settings"}``: field stats of ux/uy/uz/pooled at
  the sites; ``displacement_mm``, the RMS site residual less its mean
  (the DIC offset), and ``tensor_ue``, the RMS tensor residual; and one
  strain block per part ("all" first) and principal quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .domain import COORD_MM, LENGTH_MIN_MM, within
from .errors import CompareError
from .mesh import ROI_NAMES, Region, SurfaceMesh
from .strain import SurfaceStrainField, plane_axes, principal_strains

__all__ = [
    "MeasurementCloud",
    "Observation",
    "ComparisonReport",
    "observe",
    "linear_regression",
    "field_stats",
    "rmse",
    "percent_difference",
    "ks_two_sample",
    "roi_average",
    "compare_fields",
]

LOCATE_TOL_MM = 0.01                  # a point farther from the surface is left out
# a site's window: of its WINDOW_MAX_SITES nearest sites within the radius,
# those on its part whose normals lie within the angle of its own,
# WINDOW_MIN_SITES at least with the site itself.  The 2 mm clouds tried
# hold at most 11 sites within 4 mm, so the cap binds only on a denser
# cloud, whose W (and its build's memory) it keeps linear in the sites.
WINDOW_RADIUS_MM = 4.0
WINDOW_MIN_SITES = 6
WINDOW_MAX_SITES = 24
WINDOW_NORMAL_DEG = 30.0
MIN_SITES = 10                        # fewer located or windowed sites is a CompareError
PCT_DIFF_FLOOR_UE = 10.0              # percent differences divide by at least this strain


@dataclass
class MeasurementCloud:
    """Scattered measurement points with their displacements.

    points: (p, 3) positions in mm.
    values: (p, 3) displacements in mm, any finite: a synthetic cloud's are a solved field.
    """

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("points must be (p, 3) position rows")
        if self.values.ndim != 2 or self.values.shape[1] != 3:
            raise ValueError("values must be (p, 3) displacement rows")
        if len(self.points) != len(self.values):
            raise ValueError("points and values must have equal length")
        within(self.points, "cloud point {i} coordinate", -COORD_MM, COORD_MM, CompareError)
        within(self.values, "cloud point {i} displacement", -np.finfo(np.float64).max,
               np.finfo(np.float64).max, CompareError)

    @property
    def n_points(self) -> int:
        return len(self.points)


def linear_regression(x: np.ndarray, y: np.ndarray) -> dict:
    """Ordinary least squares y = slope * x + intercept, with R^2, as
    ``{"slope", "intercept", "r2", "degenerate"}``.

    Zero variance in y (SStot = 0) yields r2 = 0 and the degenerate flag;
    zero variance in x degenerates to slope 0, intercept mean(y).
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("regression needs two same-length arrays of >= 2 points")
    xm, ym = x.mean(), y.mean()
    sxx = ((x - xm) ** 2).sum()
    if sxx == 0.0:
        return {"slope": 0.0, "intercept": float(ym), "r2": 0.0, "degenerate": True}
    slope = float(((x - xm) * (y - ym)).sum() / sxx)
    intercept = float(ym - slope * xm)
    ss_tot = float(((y - ym) ** 2).sum())
    ss_res = float(((y - (slope * x + intercept)) ** 2).sum())
    degenerate = ss_tot == 0.0
    return {"slope": slope, "intercept": intercept,
            "r2": 0.0 if degenerate else 1.0 - ss_res / ss_tot, "degenerate": degenerate}


def rmse(predicted: np.ndarray, measured: np.ndarray) -> float:
    predicted = np.asarray(predicted, dtype=np.float64).reshape(-1)
    measured = np.asarray(measured, dtype=np.float64).reshape(-1)
    if predicted.shape != measured.shape or predicted.size == 0:
        raise ValueError("rmse needs two same-length nonempty arrays")
    return float(np.sqrt(((predicted - measured) ** 2).mean()))


def percent_difference(predicted: np.ndarray, measured: np.ndarray) -> np.ndarray:
    """Signed per-point percent difference with a floored denominator.

    The denominator is max(|measured_i|, PCT_DIFF_FLOOR_UE), which keeps
    near-zero strains from exploding the statistic.
    """
    predicted = np.asarray(predicted, dtype=np.float64).reshape(-1)
    measured = np.asarray(measured, dtype=np.float64).reshape(-1)
    if predicted.shape != measured.shape:
        raise ValueError("percent_difference needs same-length arrays")
    denom = np.maximum(np.abs(measured), PCT_DIFF_FLOOR_UE)
    return 100.0 * (predicted - measured) / denom


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    D is the exact sup-distance between the two empirical CDFs; p comes
    from the asymptotic Kolmogorov series with the effective sample size
    n_a n_b / (n_a + n_b).
    """
    a = np.sort(np.asarray(a, dtype=np.float64).reshape(-1))
    b = np.sort(np.asarray(b, dtype=np.float64).reshape(-1))
    if a.size == 0 or b.size == 0:
        raise ValueError("ks_two_sample needs two nonempty samples")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    d = float(np.abs(cdf_a - cdf_b).max())

    n_eff = a.size * b.size / (a.size + b.size)
    lam = math.sqrt(n_eff) * d
    if lam == 0.0:
        return d, 1.0
    terms = np.arange(1, 101)
    p = 2.0 * np.sum((-1.0) ** (terms - 1) * np.exp(-2.0 * (terms * lam) ** 2))
    return d, float(min(max(p, 0.0), 1.0))


def _mean(values: np.ndarray) -> float | None:
    return float(values.mean()) if values.size else None


def roi_average(strains: SurfaceStrainField, rois: np.ndarray
                ) -> dict[str, dict[str, float | int | None]]:
    """Mean principal strains per region of interest (and in total).

    ``rois`` is the Region label of each triangle of the field's surface;
    each triangle counts once, whatever its area.
    """
    return {name: {"eps_max_ue": _mean(strains.eps_max_ue[mask]),
                   "eps_min_ue": _mean(strains.eps_min_ue[mask]), "n": int(mask.sum())}
            for name, mask in _roi_masks(rois)}


def _roi_masks(labels: np.ndarray):
    masks = [labels == region for region in Region] + [np.ones(labels.shape, dtype=bool)]
    return zip(ROI_NAMES, masks)


def field_stats(predicted: np.ndarray, measured: np.ndarray) -> dict:
    """Pointwise agreement between one predicted and one measured array:
    n, rmse and rmse_pct (rmse as a percentage of the peak measured
    magnitude, None if that is zero), plus the regression of predicted on
    measured from two points on."""
    n = int(np.asarray(measured).size)
    if n == 0:
        return {"n": 0, "rmse": None, "rmse_pct": None}
    err = rmse(predicted, measured)
    peak = float(np.abs(np.asarray(measured, dtype=np.float64)).max())
    d = {"n": n, "rmse": err, "rmse_pct": 100.0 * err / peak if peak != 0.0 else None}
    if n >= 2:
        d.update(linear_regression(measured, predicted))
    return d


@dataclass
class ComparisonReport:
    """Full model-vs-measurement agreement report, in the dict layout of
    the module docstring."""

    displacement: dict[str, dict]
    misfit: dict[str, float]
    strain: list[dict]
    counts: dict[str, int]
    settings: dict[str, float]

    def strain_block(self, part: str, quantity: str) -> dict:
        for blk in self.strain:
            if blk["part"] == part and blk["quantity"] == quantity:
                return blk
        raise KeyError(f"no strain block for part={part!r} quantity={quantity!r}")

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class Observation:
    """A cloud observed on a surface (``observe``): the ``located`` points,
    their triangle ``sites``, O, the ``windowed`` sites and their ``rois``,
    W (on (p, 3) site displacements flattened by rows) and W d."""

    cloud: MeasurementCloud
    surface: SurfaceMesh
    located: np.ndarray
    sites: np.ndarray
    sample: sparse.csr_matrix
    windowed: np.ndarray
    rois: np.ndarray
    window: sparse.csr_matrix
    measured_tensors: np.ndarray


def _locate(centroid_tree, tree, surface: SurfaceMesh
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points within LOCATE_TOL_MM of the surface, with each one's
    triangle and barycentric coordinates: its projection onto each plane in
    reach, clamped to the triangle (exact inside it, conservative beyond)."""
    corners, points = surface.vertex_coords(), tree.data
    reach = np.linalg.norm(corners - surface.centroids[:, None], axis=2).max()
    near = centroid_tree.sparse_distance_matrix(tree, reach + LOCATE_TOL_MM, output_type="ndarray")
    tri, pt = near["i"].astype(np.intp), near["j"].astype(np.intp)
    edges = corners[tri, 1:] - corners[tri, :1]                         # (k, 2, 3)
    l12 = np.linalg.solve(edges @ edges.transpose(0, 2, 1),
                          edges @ (points[pt] - corners[tri, 0])[:, :, None])[:, :, 0]
    bary = np.clip(np.column_stack([1.0 - l12.sum(axis=1), l12]), 0.0, None)
    bary /= bary.sum(axis=1, keepdims=True)
    dist = np.linalg.norm((bary[:, None] @ corners[tri])[:, 0] - points[pt], axis=1)
    order = np.lexsort((tri, dist, pt))           # nearest first, then the lower triangle
    best = order[np.unique(pt[order], return_index=True)[1]]
    best = best[dist[best] <= LOCATE_TOL_MM]
    return pt[best], tri[best], bary[best]


def _window(tree, sites: np.ndarray, surface: SurfaceMesh
            ) -> tuple[np.ndarray, sparse.csr_matrix]:
    """The windowed sites and W.  A site has none whose window spreads less
    than LENGTH_MIN_MM across (the root sum of squares of its sites' offsets
    from their centroid, in its narrowest in-plane direction): a collinear
    window spreads 0."""
    points, p = tree.data, tree.n
    # each site's WINDOW_MAX_SITES nearest sites within the radius, itself
    # first and p for each missing one; its window keeps those on its face
    j = tree.query(points, WINDOW_MAX_SITES,
                   distance_upper_bound=np.nextafter(WINDOW_RADIUS_MM, np.inf))[1]
    j, found = np.minimum(j, p - 1), j < p
    normals, parts = surface.normals[sites], surface.tri_parts[sites]
    member = found & (parts[j] == parts[:, None]) & (
        (normals[j] @ normals[:, :, None])[:, :, 0] >= math.cos(math.radians(WINDOW_NORMAL_DEG)))
    count = member.sum(axis=1)
    axes = plane_axes(surface.vertex_coords(), surface.normals)[sites]
    # the members' in-plane coordinates about their centroid, and their scatter
    q = (points[j] - points[:, None]) @ axes.transpose(0, 2, 1) * member[:, :, None]
    q = (q - q.sum(axis=1, keepdims=True) / count[:, None, None]) * member[:, :, None]
    scatter = q.transpose(0, 2, 1) @ q
    # det / trace of the 2x2 scatter lies between half its smaller eigenvalue and all of it
    det = scatter[:, 0, 0] * scatter[:, 1, 1] - scatter[:, 0, 1] ** 2
    ok = (count >= WINDOW_MIN_SITES) & (
        det > LENGTH_MIN_MM * LENGTH_MIN_MM * (scatter[:, 0, 0] + scatter[:, 1, 1]))
    # the fitted in-plane gradient of a scalar is sum_w g_w value_w
    g = (q[ok] @ np.linalg.inv(scatter[ok]).transpose(0, 2, 1))[member[ok]]
    e1, e2 = (np.repeat(axes[ok, a], count[ok], axis=0) for a in (0, 1))
    blocks = np.stack([g[:, :1] * e1, g[:, 1:] * e2, 0.5 * (g[:, 1:] * e1 + g[:, :1] * e2)], 1)
    indptr = np.concatenate([[0], np.cumsum(count[ok])])      # one 3x3 block per member
    return np.flatnonzero(ok), sparse.bsr_matrix(
        (blocks, j[ok][member[ok]], indptr), shape=(3 * int(ok.sum()), 3 * p)).tocsr()


def observe(cloud: MeasurementCloud, surface: SurfaceMesh, rois: np.ndarray) -> Observation:
    """``cloud`` observed on ``surface`` (RoI labels ``rois``).  A point
    farther than LOCATE_TOL_MM from it is left out; fewer located or
    windowed sites than MIN_SITES is a CompareError."""
    from scipy.spatial import cKDTree   # loaded only where a cloud is compared

    located, sites, bary = _locate(cKDTree(surface.centroids), cKDTree(cloud.points), surface)
    if located.size < MIN_SITES:
        raise CompareError(f"only {located.size} of {cloud.n_points} cloud points lie within "
                           f"{LOCATE_TOL_MM:g} mm of the observed surface (need {MIN_SITES})")
    sample = sparse.csr_matrix((bary.ravel(), (np.repeat(np.arange(located.size), 3),
                                               surface.triangles[sites].ravel())),
                               shape=(located.size, surface.mesh.n_nodes))
    windowed, window = _window(cKDTree(cloud.points[located]), sites, surface)
    if windowed.size < MIN_SITES:     # never more than the located sites
        raise CompareError(f"only {windowed.size} of {located.size} located sites have a "
                           f"strain window of {WINDOW_MIN_SITES} sites within "
                           f"{WINDOW_RADIUS_MM:g} mm (need {MIN_SITES})")
    return Observation(cloud, surface, located, sites, sample, windowed,
                       rois[sites[windowed]], window,
                       (window @ cloud.values[located].reshape(-1)).reshape(-1, 3))


def compare_fields(obs: Observation, fe_disp: np.ndarray) -> ComparisonReport:
    """Compare a model's (n_nodes, 3) displacement field ``fe_disp`` with
    the observed cloud through the observation's operators: displacements
    at the sites, the two misfits, and principal strains at the windowed
    sites per part, per RoI and pooled.  A statistic that overflows float64
    (a Python-built cloud's values near 1e154 mm or beyond) is a CompareError."""
    with np.errstate(over="ignore", invalid="ignore"):
        report = _report(obs, fe_disp)
    if not all(map(math.isfinite, _numbers(report.to_dict()))):
        raise CompareError("the comparison's statistics overflow float64: "
                           "the cloud's values are too large")
    return report


def _numbers(obj):
    """Every float in a report dict, its lists and its nested dicts."""
    if isinstance(obj, (dict, list)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            yield from _numbers(item)
    elif isinstance(obj, float):
        yield obj


def _report(obs: Observation, fe_disp: np.ndarray) -> ComparisonReport:
    pred = obs.sample @ np.asarray(fe_disp, dtype=np.float64)
    meas = obs.cloud.values[obs.located]
    displacement = {comp: field_stats(pred[:, ci], meas[:, ci])
                    for ci, comp in enumerate(("ux", "uy", "uz"))}
    displacement["pooled"] = field_stats(pred.ravel(), meas.ravel())
    resid = pred - meas
    pred_tensors = (obs.window @ pred.reshape(-1)).reshape(-1, 3)
    misfit = {"displacement_mm": float(np.sqrt(((resid - resid.mean(axis=0)) ** 2).mean())),
              "tensor_ue": 1e6 * rmse(pred_tensors, obs.measured_tensors)}
    # eps_max then eps_min, in microstrain, of each side's tensors
    principal = [1e6 * np.array(principal_strains(t[:, [[0, 2], [2, 1]]]))
                 for t in (obs.measured_tensors, pred_tensors)]
    parts = obs.surface.tri_parts[obs.sites[obs.windowed]]
    part_sites = [("all", np.ones(parts.size, dtype=bool))] + [
        (obs.surface.mesh.part_table[int(pid)].name, parts == pid) for pid in np.unique(parts)]
    blocks: list[dict] = []
    for part_name, sel in part_sites:
        masks = list(_roi_masks(obs.rois[sel]))
        for qi, qname in enumerate(("eps_max", "eps_min")):
            meas_q, pred_q = principal[0][qi, sel], principal[1][qi, sel]
            # every part listed holds a windowed site, so no sample is empty
            ks_d, ks_p = ks_two_sample(pred_q, meas_q)
            pd = np.abs(percent_difference(pred_q, meas_q))
            blocks.append({"part": part_name, "quantity": qname,
                           "per_roi": {r: field_stats(pred_q[m], meas_q[m]) for r, m in masks},
                           "ks_d": ks_d, "ks_p": ks_p, "pct_diff_mean_abs": float(pd.mean()),
                           "pct_diff_max_abs": float(pd.max()),
                           **{f"roi_mean_{side}": {r: _mean(v[m]) for r, m in masks}
                              for side, v in (("measured", meas_q), ("predicted", pred_q))}})
    counts = {"surface_nodes": int(obs.surface.corner_node_ids().size),
              "covered_nodes": int(np.unique(obs.sample.indices).size),
              "triangles_total": obs.surface.n_triangles, "cloud_points": obs.cloud.n_points,
              "sites_located": int(obs.located.size), "sites_windowed": int(obs.windowed.size)}
    settings = {"window_radius_mm": WINDOW_RADIUS_MM, "window_min_sites": WINDOW_MIN_SITES,
                "window_max_sites": WINDOW_MAX_SITES,
                "pct_diff_floor_ue": PCT_DIFF_FLOOR_UE}
    return ComparisonReport(displacement, misfit, blocks, counts, settings)

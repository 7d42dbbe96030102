"""Agreement statistics between measured point clouds and model fields.

Measured displacements, one (3,) row per point of an unstructured cloud, are
moved onto the mesh's surface nodes by inverse-distance weighting, turned into
a surface strain field, and compared against the model's displacement and
strain fields with regression, rmse, percent-difference, and two-sample KS
statistics, per part, per region of interest, and pooled.

The statistics are the plain dicts that ``report.json`` stores:

- field stats (``field_stats``): ``{"n", "rmse", "rmse_pct"}``, plus
  ``"slope", "intercept", "r2", "degenerate"`` from two points on; rmse
  and rmse_pct are None when n is 0.
- a strain block: ``{"part", "quantity", "per_roi", "ks_d", "ks_p",
  "pct_diff_mean_abs", "pct_diff_max_abs", "roi_mean_measured",
  "roi_mean_predicted"}``; ``per_roi`` maps left/central/right/total to
  field stats, the two means map them to a value or None, and the KS and
  percent-difference values are None for a part with no triangles.
- a report (``ComparisonReport.to_dict``): ``{"displacement", "strain",
  "counts", "settings"}``; ``displacement`` maps ux/uy/uz/pooled to field
  stats, and ``strain`` lists one block per part ("all" first) and
  principal quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CompareError
from .mesh import ROI_NAMES, Region, SurfaceMesh
from .strain import SurfaceStrainField, surface_strain_field

__all__ = [
    "MeasurementCloud",
    "ComparisonReport",
    "idw_interpolate",
    "linear_regression",
    "field_stats",
    "rmse",
    "percent_difference",
    "ks_two_sample",
    "roi_average",
    "compare_fields",
]

EXACT_HIT_MM = 1e-9


@dataclass
class MeasurementCloud:
    """Scattered measurement points with their displacements.

    points: (p, 3) positions in mm.
    values: (p, 3) measured displacements in mm.
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
        if not (np.isfinite(self.points).all() and np.isfinite(self.values).all()):
            raise CompareError("measurement cloud has non-finite points or values")

    @property
    def n_points(self) -> int:
        return len(self.points)


def idw_interpolate(cloud: MeasurementCloud, queries: np.ndarray,
                    power: float = 2.0, radius_mm: float = 1.0
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-distance interpolation of cloud values at query points.

    A query with a sample closer than 1e-9 mm returns that sample's value
    exactly (nearest such sample wins).  Otherwise all samples within
    ``radius_mm`` (inclusive) contribute with weight d**-power.  Queries
    with no sample in range are flagged missing and filled with NaN.

    Returns ``(values (q, 3), missing (q,))``.
    """
    if power <= 0.0:
        raise ValueError("power must be positive")
    if radius_mm <= 0.0:
        raise ValueError("radius_mm must be positive")
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    out = np.full((len(queries), 3), np.nan)
    missing = np.ones(len(queries), dtype=bool)
    pts, vals = cloud.points, cloud.values
    if len(pts) == 0 or len(queries) == 0:
        return out, missing

    from scipy.spatial import cKDTree   # loaded only where a cloud is compared

    tree = cKDTree(pts)
    d_near, i_near = tree.query(queries, k=1)
    exact = d_near <= EXACT_HIT_MM
    out[exact] = vals[i_near[exact]]
    missing[exact] = False

    todo = np.flatnonzero(~exact)
    if todo.size:
        balls = tree.query_ball_point(queries[todo], radius_mm, return_sorted=True)
        for qi, neighbors in zip(todo, balls):
            if not neighbors:
                continue
            d = np.linalg.norm(pts[neighbors] - queries[qi], axis=1)
            w = d ** -power
            out[qi] = (w[:, None] * vals[neighbors]).sum(axis=0) / w.sum()
            missing[qi] = False
    return out, missing


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


def percent_difference(predicted: np.ndarray, measured: np.ndarray,
                       floor: float = 10.0) -> np.ndarray:
    """Signed per-point percent difference with a floored denominator.

    The denominator is max(|measured_i|, floor); the default floor of
    10 microstrain keeps near-zero strains from exploding the statistic.
    """
    predicted = np.asarray(predicted, dtype=np.float64).reshape(-1)
    measured = np.asarray(measured, dtype=np.float64).reshape(-1)
    if predicted.shape != measured.shape:
        raise ValueError("percent_difference needs same-length arrays")
    if floor <= 0.0:
        raise ValueError("floor must be positive")
    denom = np.maximum(np.abs(measured), floor)
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


def _weighted_mean(values: np.ndarray, weights: np.ndarray | None) -> float | None:
    if values.size == 0:
        return None
    if weights is None:
        return float(values.mean())
    return float((values * weights).sum() / weights.sum())


def roi_average(strains: SurfaceStrainField, rois: np.ndarray,
                areas: np.ndarray | None = None) -> dict[str, dict[str, float | int | None]]:
    """Mean principal strains per region of interest (and in total).

    ``rois`` is the Region label of each triangle of the field's surface;
    the means are weighted by the triangles' ``areas`` when they are given.
    """
    out: dict[str, dict[str, float | int | None]] = {}
    for name, mask in _roi_masks(rois):
        w = None if areas is None else areas[mask]
        out[name] = {
            "eps_max_ue": _weighted_mean(strains.eps_max_ue[mask], w),
            "eps_min_ue": _weighted_mean(strains.eps_min_ue[mask], w),
            "n": int(mask.sum()),
        }
    return out


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
    strain: list[dict]
    counts: dict[str, int]
    settings: dict[str, float] = field(default_factory=dict)

    def strain_block(self, part: str, quantity: str) -> dict:
        for blk in self.strain:
            if blk["part"] == part and blk["quantity"] == quantity:
                return blk
        raise KeyError(f"no strain block for part={part!r} quantity={quantity!r}")

    def to_dict(self) -> dict:
        return {"displacement": self.displacement, "strain": self.strain,
                "counts": self.counts, "settings": self.settings}


def compare_fields(cloud: MeasurementCloud, surface: SurfaceMesh, fe_disp: np.ndarray,
                   fe_strains: SurfaceStrainField, rois: np.ndarray, settings) -> ComparisonReport:
    """Compare a model's displacement field ``fe_disp`` and its strain field
    over ``surface`` (``surface_strain_field(surface, fe_disp)``) against a
    measured cloud, under the config's ``settings`` (``pipeline.ComparisonSettings``).

    The cloud is interpolated to the surface corner nodes (IDW) and
    differentiated into a surface strain field; displacement and strain
    statistics are gathered per part, per RoI, and pooled.  Fewer than
    ``settings.min_points`` covered nodes or fully covered triangles is an error.
    """
    min_points = settings.min_points
    node_ids = surface.corner_node_ids()
    queries = surface.mesh.nodes[node_ids]
    meas_at_nodes, node_missing = idw_interpolate(
        cloud, queries, power=settings.idw_power, radius_mm=settings.idw_radius_mm)
    covered = ~node_missing
    if int(covered.sum()) < min_points:
        raise CompareError(
            f"only {int(covered.sum())} surface nodes covered by the cloud "
            f"(need {min_points})")

    pred_at_nodes = np.asarray(fe_disp, dtype=np.float64)[node_ids]
    displacement = {comp: field_stats(pred_at_nodes[covered, ci], meas_at_nodes[covered, ci])
                    for ci, comp in enumerate(("ux", "uy", "uz"))}
    displacement["pooled"] = field_stats(pred_at_nodes[covered].ravel(),
                                         meas_at_nodes[covered].ravel())

    meas_disp_full = np.full((surface.mesh.n_nodes, 3), np.nan)
    meas_disp_full[node_ids[covered]] = meas_at_nodes[covered]
    tri = np.flatnonzero(np.isfinite(meas_disp_full[surface.triangles]).all(axis=(1, 2)))
    if tri.size < min_points:
        raise CompareError(
            f"only {tri.size} triangles have full measured "
            f"coverage (need {min_points})")
    meas_field = surface_strain_field(surface, meas_disp_full)
    if not np.isfinite(fe_strains.tensors[tri]).all():
        raise CompareError("model strain field does not cover the measured triangles")

    quantities = {"eps_max": (meas_field.eps_max_ue, fe_strains.eps_max_ue),
                  "eps_min": (meas_field.eps_min_ue, fe_strains.eps_min_ue)}
    # each part's compared triangles, as indices into the surface
    parts = surface.tri_parts[tri]
    part_tris = [("all", tri)] + [(surface.mesh.part_table[int(pid)].name, tri[parts == pid])
                                  for pid in np.unique(parts)]

    blocks: list[dict] = []
    for part_name, sel in part_tris:
        for qname, (meas_all, pred_all) in quantities.items():
            meas_q, pred_q = meas_all[sel], pred_all[sel]
            per_roi: dict[str, dict] = {}
            mean_meas: dict[str, float | None] = {}
            mean_pred: dict[str, float | None] = {}
            for rname, rmask in _roi_masks(rois[sel]):
                per_roi[rname] = field_stats(pred_q[rmask], meas_q[rmask])
                w = surface.areas[sel][rmask] if settings.area_weighted else None
                mean_meas[rname] = _weighted_mean(meas_q[rmask], w)
                mean_pred[rname] = _weighted_mean(pred_q[rmask], w)
            ks_d = ks_p = pd_mean = pd_max = None
            if meas_q.size:
                ks_d, ks_p = ks_two_sample(pred_q, meas_q)
                pd = np.abs(percent_difference(pred_q, meas_q, settings.pct_diff_floor_ue))
                pd_mean, pd_max = float(pd.mean()), float(pd.max())
            blocks.append({"part": part_name, "quantity": qname, "per_roi": per_roi,
                           "ks_d": ks_d, "ks_p": ks_p,
                           "pct_diff_mean_abs": pd_mean, "pct_diff_max_abs": pd_max,
                           "roi_mean_measured": mean_meas,
                           "roi_mean_predicted": mean_pred})

    counts = {
        "surface_nodes": int(node_ids.size),
        "covered_nodes": int(covered.sum()),
        "missing_nodes": int(node_missing.sum()),
        "triangles_total": int(surface.n_triangles),
        "triangles_compared": int(tri.size),
        "triangles_missing": int(surface.n_triangles - tri.size),
        "cloud_points": int(cloud.n_points),
    }
    return ComparisonReport(displacement=displacement, strain=blocks, counts=counts,
                            settings={"power": settings.idw_power,
                                      "radius_mm": settings.idw_radius_mm,
                                      "pct_diff_floor_ue": settings.pct_diff_floor_ue,
                                      "area_weighted": float(settings.area_weighted)})

"""Agreement statistics between measured point clouds and model fields.

Measured displacements live on an unstructured cloud; they are moved onto
the mesh's surface nodes by inverse-distance weighting, turned into a
surface strain field, and compared against the model prediction with
regression, rmse, percent-difference, and two-sample KS statistics, per
part, per region of interest, and pooled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import CompareError
from .mesh import REGION_NAMES, Region, RoIPartition, SurfaceMesh
from .strain import SurfaceStrainField, surface_strain_field

__all__ = [
    "MeasurementCloud",
    "RegressionStats",
    "FieldStats",
    "StrainComparison",
    "ComparisonReport",
    "idw_interpolate",
    "linear_regression",
    "rmse",
    "rmse_pct",
    "percent_difference",
    "ks_two_sample",
    "roi_average",
    "compare_fields",
]

EXACT_HIT_MM = 1e-9


@dataclass
class MeasurementCloud:
    """Scattered measurement points with vector (or scalar) values.

    points: (p, 3) positions in mm.
    values: (p, k) measured values (k = 3 for displacement clouds).
    """

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim == 1:
            vals = vals[:, None]
        self.values = vals
        if len(self.points) != len(self.values):
            raise ValueError("points and values must have equal length")

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

    Returns ``(values (q, k), missing (q,))``.
    """
    if power <= 0.0:
        raise ValueError("power must be positive")
    if radius_mm <= 0.0:
        raise ValueError("radius_mm must be positive")
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    k = cloud.values.shape[1]
    out = np.full((len(queries), k), np.nan)
    missing = np.ones(len(queries), dtype=bool)
    pts, vals = cloud.points, cloud.values
    if len(pts) == 0 or len(queries) == 0:
        return out, missing

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


@dataclass
class RegressionStats:
    slope: float
    intercept: float
    r2: float
    degenerate: bool = False


def linear_regression(x: np.ndarray, y: np.ndarray) -> RegressionStats:
    """Ordinary least squares y = slope * x + intercept, with R^2.

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
        return RegressionStats(0.0, float(ym), 0.0, degenerate=True)
    slope = float(((x - xm) * (y - ym)).sum() / sxx)
    intercept = float(ym - slope * xm)
    ss_tot = float(((y - ym) ** 2).sum())
    ss_res = float(((y - (slope * x + intercept)) ** 2).sum())
    if ss_tot == 0.0:
        return RegressionStats(slope, intercept, 0.0, degenerate=True)
    return RegressionStats(slope, intercept, 1.0 - ss_res / ss_tot, False)


def rmse(predicted: np.ndarray, measured: np.ndarray) -> float:
    predicted = np.asarray(predicted, dtype=np.float64).reshape(-1)
    measured = np.asarray(measured, dtype=np.float64).reshape(-1)
    if predicted.shape != measured.shape or predicted.size == 0:
        raise ValueError("rmse needs two same-length nonempty arrays")
    return float(np.sqrt(((predicted - measured) ** 2).mean()))


def rmse_pct(predicted: np.ndarray, measured: np.ndarray) -> float | None:
    """rmse as a percentage of the peak measured magnitude (None if zero)."""
    peak = float(np.abs(np.asarray(measured, dtype=np.float64)).max())
    if peak == 0.0:
        return None
    return 100.0 * rmse(predicted, measured) / peak


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


def roi_average(strains: SurfaceStrainField, area_weighted: bool = False
                ) -> dict[str, dict[str, float | int | None]]:
    """Mean principal strains per region of interest (and in total).

    Unweighted by default; ``area_weighted=True`` weights triangles by
    their area instead.
    """
    out: dict[str, dict[str, float | int | None]] = {}
    for name, mask in _roi_masks(strains.roi):
        w = strains.areas[mask] if area_weighted else None
        out[name] = {
            "eps_max_ue": _weighted_mean(strains.eps_max_ue[mask], w),
            "eps_min_ue": _weighted_mean(strains.eps_min_ue[mask], w),
            "n": int(mask.sum()),
        }
    return out


def _roi_masks(labels: np.ndarray):
    for region in Region:
        yield REGION_NAMES[region], labels == region
    yield "total", np.ones(labels.shape, dtype=bool)


@dataclass
class FieldStats:
    """Pointwise agreement between one predicted and one measured array."""

    n: int
    rmse: float | None = None
    rmse_pct: float | None = None
    regression: RegressionStats | None = None

    @classmethod
    def from_arrays(cls, predicted: np.ndarray, measured: np.ndarray) -> "FieldStats":
        n = int(np.asarray(measured).size)
        if n == 0:
            return cls(n=0)
        reg = linear_regression(measured, predicted) if n >= 2 else None
        return cls(n=n, rmse=rmse(predicted, measured),
                   rmse_pct=rmse_pct(predicted, measured), regression=reg)

    def to_dict(self) -> dict:
        d = {"n": self.n, "rmse": self.rmse, "rmse_pct": self.rmse_pct}
        if self.regression is not None:
            d["slope"] = self.regression.slope
            d["intercept"] = self.regression.intercept
            d["r2"] = self.regression.r2
            d["degenerate"] = self.regression.degenerate
        return d


@dataclass
class StrainComparison:
    """Strain agreement for one part (or 'all') and one principal quantity."""

    part: str
    quantity: str
    per_roi: dict[str, FieldStats]
    ks_d: float | None
    ks_p: float | None
    pct_diff_mean_abs: float | None
    pct_diff_max_abs: float | None
    roi_mean_measured: dict[str, float | None]
    roi_mean_predicted: dict[str, float | None]

    def to_dict(self) -> dict:
        return {
            "part": self.part,
            "quantity": self.quantity,
            "per_roi": {k: v.to_dict() for k, v in self.per_roi.items()},
            "ks_d": self.ks_d,
            "ks_p": self.ks_p,
            "pct_diff_mean_abs": self.pct_diff_mean_abs,
            "pct_diff_max_abs": self.pct_diff_max_abs,
            "roi_mean_measured": self.roi_mean_measured,
            "roi_mean_predicted": self.roi_mean_predicted,
        }


@dataclass
class ComparisonReport:
    """Full model-vs-measurement agreement report."""

    displacement: dict[str, FieldStats]
    strain: list[StrainComparison]
    counts: dict[str, int]
    settings: dict[str, float] = field(default_factory=dict)

    def strain_block(self, part: str, quantity: str) -> StrainComparison:
        for blk in self.strain:
            if blk.part == part and blk.quantity == quantity:
                return blk
        raise KeyError(f"no strain block for part={part!r} quantity={quantity!r}")

    def to_dict(self) -> dict:
        return {
            "displacement": {k: v.to_dict() for k, v in self.displacement.items()},
            "strain": [blk.to_dict() for blk in self.strain],
            "counts": dict(self.counts),
            "settings": dict(self.settings),
        }


def compare_fields(cloud: MeasurementCloud, surface: SurfaceMesh,
                   fe_disp: np.ndarray, rois: RoIPartition,
                   power: float = 2.0, radius_mm: float = 1.0,
                   pct_diff_floor_ue: float = 10.0,
                   area_weighted: bool = False,
                   min_points: int = 10) -> ComparisonReport:
    """Compare a model displacement field against a measured cloud.

    The cloud is interpolated to the surface corner nodes (IDW); both the
    interpolated measurement and the model prediction are differentiated
    into surface strain fields; displacement and strain statistics are
    gathered per part, per RoI, and pooled.  Fewer than ``min_points``
    covered nodes or common triangles is an error.
    """
    if cloud.values.shape[1] != 3:
        raise CompareError("measurement cloud must carry 3 displacement components")
    node_ids = surface.corner_node_ids()
    queries = surface.mesh.nodes[node_ids]
    meas_at_nodes, node_missing = idw_interpolate(cloud, queries,
                                                  power=power, radius_mm=radius_mm)
    covered = ~node_missing
    if int(covered.sum()) < min_points:
        raise CompareError(
            f"only {int(covered.sum())} surface nodes covered by the cloud "
            f"(need {min_points})")

    pred_at_nodes = np.asarray(fe_disp, dtype=np.float64)[node_ids]
    displacement: dict[str, FieldStats] = {}
    for ci, comp in enumerate(("ux", "uy", "uz")):
        displacement[comp] = FieldStats.from_arrays(pred_at_nodes[covered, ci],
                                                    meas_at_nodes[covered, ci])
    displacement["pooled"] = FieldStats.from_arrays(pred_at_nodes[covered].ravel(),
                                                    meas_at_nodes[covered].ravel())

    meas_disp_full = np.full((surface.mesh.n_nodes, 3), np.nan)
    meas_disp_full[node_ids[covered]] = meas_at_nodes[covered]
    meas_field = surface_strain_field(surface, meas_disp_full, rois)
    fe_field = surface_strain_field(surface, fe_disp, rois)
    if int(meas_field.n_triangles) < min_points:
        raise CompareError(
            f"only {meas_field.n_triangles} triangles have full measured "
            f"coverage (need {min_points})")

    fe_lookup = np.full(surface.n_triangles, -1, dtype=np.int64)
    fe_lookup[fe_field.tri_ids] = np.arange(fe_field.n_triangles)
    fe_idx = fe_lookup[meas_field.tri_ids]
    if (fe_idx < 0).any():
        raise CompareError("model strain field does not cover the measured triangles")

    quantities = {"eps_max": (meas_field.eps_max_ue, fe_field.eps_max_ue[fe_idx]),
                  "eps_min": (meas_field.eps_min_ue, fe_field.eps_min_ue[fe_idx])}
    areas = meas_field.areas
    roi_labels = meas_field.roi

    part_masks: list[tuple[str, np.ndarray]] = [
        ("all", np.ones(meas_field.n_triangles, dtype=bool))]
    for pid in np.unique(meas_field.parts):
        name = surface.mesh.part_table[int(pid)].name
        part_masks.append((name, meas_field.parts == pid))

    blocks: list[StrainComparison] = []
    for part_name, pmask in part_masks:
        for qname, (meas_all, pred_all) in quantities.items():
            meas_q, pred_q = meas_all[pmask], pred_all[pmask]
            per_roi: dict[str, FieldStats] = {}
            mean_meas: dict[str, float | None] = {}
            mean_pred: dict[str, float | None] = {}
            for rname, rmask in _roi_masks(roi_labels[pmask]):
                per_roi[rname] = FieldStats.from_arrays(pred_q[rmask], meas_q[rmask])
                w = areas[pmask][rmask] if area_weighted else None
                mean_meas[rname] = _weighted_mean(meas_q[rmask], w)
                mean_pred[rname] = _weighted_mean(pred_q[rmask], w)
            if meas_q.size:
                ks_d, ks_p = ks_two_sample(pred_q, meas_q)
                pd = np.abs(percent_difference(pred_q, meas_q, floor=pct_diff_floor_ue))
                blocks.append(StrainComparison(part_name, qname, per_roi,
                                               ks_d, ks_p,
                                               float(pd.mean()), float(pd.max()),
                                               mean_meas, mean_pred))
            else:
                blocks.append(StrainComparison(part_name, qname, per_roi,
                                               None, None, None, None,
                                               mean_meas, mean_pred))

    counts = {
        "surface_nodes": int(node_ids.size),
        "covered_nodes": int(covered.sum()),
        "missing_nodes": int(node_missing.sum()),
        "triangles_total": int(surface.n_triangles),
        "triangles_compared": int(meas_field.n_triangles),
        "triangles_missing": int(meas_field.n_missing),
        "cloud_points": int(cloud.n_points),
    }
    settings = {"power": power, "radius_mm": radius_mm,
                "pct_diff_floor_ue": pct_diff_floor_ue,
                "area_weighted": float(area_weighted)}
    return ComparisonReport(displacement=displacement, strain=blocks,
                            counts=counts, settings=settings)

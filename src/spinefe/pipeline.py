"""End-to-end pipeline: config -> mesh -> materials -> solves -> reports.

A single JSON config describes the specimen (phantom spec or mesh file),
the CT grid, the loading, the disc-modulus sweep, and the comparison
settings.  ``run_sweep`` solves every disc modulus against one measured
(or synthetic) displacement cloud; ``emit_reports`` writes the artifacts.
``solve_entry`` builds each ``SweepEntry`` whole, and it stays as built.
Its saved form (``summary_dict``, the entries of ``sweep_result.json``)
has one reader, ``_rows_from_entry``, which checks it as it reads it for
both tables, whether they are written after a sweep or rebuilt by
``reemit_tables``.
``build_model`` clamps the inferior pot and drives the superior pot by
the loading's rigid motion; the solver gets both as one set of nodes
with their displacements.  A model reduces K(E) = K_s + E K_d once into
one modulus-parametric system (``solver.ParametricSystem``), so a
modulus costs one axpy per block plus its PCG iterations.  It keeps
every field it has solved, with its reaction, and each new modulus
starts PCG from the Galerkin projection onto them.
Sweep entries, the synthetic cloud's reference and the fit's forces
all solve through ``_solved``; ``write_entry`` writes an entry with the
model's report geometry, formatted once (``io.ReportGeometry``).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field as dc_field, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
from scipy.spatial import cKDTree

from . import io as sfio
from .errors import ConfigError, MeshError, SpineFEError
from .materials import (CalibrationLaw, DensityElasticityLaw, MaterialField,
                        VoxelGrid, assign_uniform, map_materials)
from .mesh import (ROI_NAMES, Mesh, PartRole, PhantomSpec, SurfaceMesh, build_phantom,
                   check_edge_lengths, extract_surface, face_node_ids, partition_rois)
from .metrics import ComparisonReport, MeasurementCloud, compare_fields, roi_average
from .registration import RigidMotion, fit_rigid_motion, rotation_angle
# the pipeline reads reactions from ParametricSystem.reaction; reaction_force
# stays importable here because perfbench/tracing.py wraps it by this name
from .solver import (BoundaryConditionSet, ParametricSystem, ReducedSystem, SolveStats,
                     apply_bcs, assemble, fit_disc_modulus, reaction_force, solve_pcg)
from .strain import SurfaceStrainField, surface_strain_field

__all__ = [
    "PipelineConfig",
    "SyntheticSpec",
    "LoadCase",
    "load_config",
    "build_flexion_motion",
    "synth_measurement",
    "synthetic_cloud",
    "PipelineModel",
    "mesh_from_config",
    "build_materials",
    "build_model",
    "solve_entry",
    "SweepEntry",
    "SweepResult",
    "run_sweep",
    "write_entry",
    "emit_reports",
    "write_tables",
    "reemit_tables",
    "fit_disc_to_force",
]

DEFAULT_SWEEP_MPA = [4.15, 10.0, 25.0, 30.0, 35.0, 50.0]

# Most candidates ``synth_measurement`` may draw: sampling and thinning hold
# ~0.75 kB each (264 MB for trend's 350,196 at 0.2 mm), so 2e6 stay near 1.5 GB.
SYNTH_MAX_CANDIDATES = 2 * 10 ** 6


def _require(ok: bool, message: str) -> None:
    """Range check of a config value; written so that NaN fails it too."""
    if not ok:
        raise ConfigError(message)


@dataclass
class LoadCase:
    """Rigid driving of the superior pot: flexion plus axial compression."""

    flexion_angle_deg: float = 2.8
    axis: tuple[float, float, float] = (1.0, 0.0, 0.0)
    compression_mm: float = 0.5
    offset_fraction: float = 0.10

    def __post_init__(self) -> None:
        # finite too: a LoadCase built in Python skips load_config's type
        # checks; RigidMotion.about_axis refuses the same values, as a
        # registration error
        _require(0.0 < np.linalg.norm(self.axis) < math.inf,
                 "loading.axis must be nonzero and finite")
        _require(all(math.isfinite(v) for v in (self.flexion_angle_deg, self.compression_mm,
                                                 self.offset_fraction)),
                 "loading.flexion_angle_deg, compression_mm and offset_fraction "
                 "must be finite")


@dataclass
class SyntheticSpec:
    """Synthetic displacement cloud: sampling density and error model."""

    spacing_mm: float = 2.0
    systematic_um: float = 10.0
    random_um: float = 25.0
    reference_e_disc_mpa: float | None = None

    def __post_init__(self) -> None:
        # finite too: the CLI's flags reach these fields without load_config
        _require(0.0 < self.spacing_mm < math.inf,
                 "synthetic.spacing_mm must be positive and finite")
        _require(0.0 <= self.systematic_um < math.inf and 0.0 <= self.random_um < math.inf,
                 "synthetic error magnitudes must be finite and >= 0")
        _require(self.reference_e_disc_mpa is None
                 or 0.0 < self.reference_e_disc_mpa < math.inf,
                 "synthetic.reference_e_disc_mpa must be positive and finite")


@dataclass
class ComparisonSettings:
    idw_power: float = 2.0
    idw_radius_mm: float = 1.0
    pct_diff_floor_ue: float = 10.0
    area_weighted: bool = False
    min_points: int = 10

    def __post_init__(self) -> None:
        _require(self.idw_power > 0.0, "comparison.idw_power must be positive")
        _require(self.idw_radius_mm > 0.0, "comparison.idw_radius_mm must be positive")
        _require(self.pct_diff_floor_ue > 0.0,
                 "comparison.pct_diff_floor_ue must be positive")
        _require(self.min_points >= 1, "comparison.min_points must be >= 1")


@dataclass
class SolverSettings:
    tol: float = 1e-9
    max_iter: int | None = None

    def __post_init__(self) -> None:
        _require(0.0 < self.tol < 1.0, "solver.tol must lie in (0, 1)")
        _require(self.max_iter is None or self.max_iter >= 1,
                 "solver.max_iter must be >= 1")


@dataclass
class PipelineConfig:
    output_dir: str = "out"
    mesh_path: str | None = None
    phantom: PhantomSpec | None = None
    voxel_grid_path: str | None = None
    constant_hu: float | None = None
    markers_path: str | None = None
    measurement_path: str | None = None
    calibration: CalibrationLaw = dc_field(default_factory=CalibrationLaw)
    elasticity: DensityElasticityLaw = dc_field(default_factory=DensityElasticityLaw)
    nu_bone: float = 0.3
    nu_disc: float = 0.45
    e_pot_mpa: float = 2500.0
    nu_pot: float = 0.3
    sweep_e_disc_mpa: list[float] = dc_field(default_factory=lambda: list(DEFAULT_SWEEP_MPA))
    loading: LoadCase = dc_field(default_factory=LoadCase)
    comparison: ComparisonSettings = dc_field(default_factory=ComparisonSettings)
    solver: SolverSettings = dc_field(default_factory=SolverSettings)
    synthetic: SyntheticSpec | None = None
    roi_axis: tuple[float, float, float] = (1.0, 0.0, 0.0)
    roi_fractions: tuple[float, float] = (1.0 / 3.0, 2.0 / 3.0)
    max_edge_mm: float | None = None
    seed: int = 0
    threads: int = 1

    def __post_init__(self) -> None:
        if self.mesh_path is None and self.phantom is None:
            raise ConfigError("config needs either mesh_path or a phantom block")
        if self.mesh_path is not None and self.phantom is not None:
            raise ConfigError("mesh_path and phantom are mutually exclusive")
        if not self.sweep_e_disc_mpa:
            raise ConfigError("sweep_e_disc_mpa must not be empty")
        _require(all(0.0 < e < math.inf for e in self.sweep_e_disc_mpa),
                 "sweep moduli must be positive and finite")
        first: dict[str, int] = {}
        for i, e in enumerate(self.sweep_e_disc_mpa):
            j = first.setdefault(_entry_dir(e), i)
            _require(j == i, f"sweep moduli {self.sweep_e_disc_mpa[j]!r} and {e!r} "
                             f"share the report directory {_entry_dir(e)}")
        _require(self.threads == 1,
                 "threads must be 1: the sweep seeds each solve from those before it")
        _require(self.seed >= 0, "seed must be >= 0")
        _require(0.0 < np.linalg.norm(self.roi_axis) < math.inf,
                 "roi_axis must be nonzero and finite")
        _require(0.0 < self.roi_fractions[0] < self.roi_fractions[1] < 1.0,
                 "roi_fractions must satisfy 0 < f1 < f2 < 1")
        _require(self.max_edge_mm is None or self.max_edge_mm > 0.0,
                 "max_edge_mm must be positive")


_KINDS = {float: "a finite number", int: "an integer", bool: "true or false",
          str: "a string"}


def _typed(value, hint, name: str):
    """``value`` as the declared field type ``hint``, else a ConfigError.

    A float field takes any finite JSON number and stores it as a float;
    an int field takes only integers (booleans count as neither); tuple
    and list fields take JSON arrays and check each item; a dataclass
    field is a config section.
    """
    args = get_args(hint)
    if type(None) in args:                                  # "X | None"
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        args = get_args(hint)
    if is_dataclass(hint):
        return _build_section(value, hint, name)
    origin = get_origin(hint)
    if origin in (tuple, list):
        if not isinstance(value, (list, tuple)) or (
                origin is tuple and len(value) != len(args)):
            size = f" of {len(args)} numbers" if origin is tuple else ""
            raise ConfigError(f"{name} must be an array{size}, got {value!r:.40}")
        item_hints = args if origin is tuple else args * len(value)
        return origin(_typed(v, h, f"{name}[{i}]")
                      for i, (v, h) in enumerate(zip(value, item_hints)))
    if hint is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    elif hint is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    elif hint in (bool, str) and isinstance(value, hint):
        return value
    raise ConfigError(f"{name} must be {_KINDS[hint]}, got {value!r:.40}")


def _build_section(data, cls, name: str | None = None):
    """``cls`` from the JSON object ``data``: the whole config when ``name``
    is None, else its section ``name``."""
    where = "config" if name is None else f"config section {name!r}"
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object")
    hints = get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    fields = {key: _typed(value, hints[key], key if name is None else f"{name}.{key}")
              for key, value in data.items()}
    try:
        return cls(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from None


def load_config(source) -> PipelineConfig:
    """Build a validated PipelineConfig from a JSON file path or a dict.

    Every value is checked against its field's declared type, so a
    mistyped value is a ConfigError here rather than a failure mid-run.
    """
    if isinstance(source, (str, Path)):
        try:
            data = json.loads(Path(source).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    else:
        data = dict(source)
    return _build_section(data, PipelineConfig)


def build_flexion_motion(mesh: Mesh, load: LoadCase) -> RigidMotion:
    """Driving motion: rotation about a mediolateral axis through a pivot
    anterior to the central disc's center, plus axial compression.

    The pivot sits at the central disc's bounding-box center, shifted
    along +y by ``offset_fraction`` of that part's anteroposterior depth
    (whole-mesh box when there is no disc).
    """
    disc_ids = mesh.part_ids_with_role(PartRole.DISC)
    if disc_ids:
        pid = disc_ids[len(disc_ids) // 2]
        pts = mesh.nodes[np.unique(mesh.elements[mesh.parts == pid])]
    else:
        pts = mesh.nodes
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pivot = 0.5 * (lo + hi)
    pivot[1] += load.offset_fraction * (hi[1] - lo[1])
    return RigidMotion.about_axis(load.axis, load.flexion_angle_deg, pivot=pivot,
                                  extra_translation=(0.0, 0.0, -load.compression_mm))


def synth_measurement(surface: SurfaceMesh, disp: np.ndarray, spec: SyntheticSpec,
                      rng: np.random.Generator) -> MeasurementCloud:
    """Synthesize a measured displacement cloud from a solved field.

    Candidate points are the surface corner nodes (exact nodal values)
    followed by area-stratified random points on the triangles, ceil(2 A /
    spacing²) per triangle of area A; the list is thinned to the target
    spacing keeping earlier candidates, then corrupted with one systematic
    offset (a random direction drawn once) and independent isotropic
    Gaussian noise.

    ``rng`` is drawn from in this order, which fixes the cloud for a seed:
    one block of 2·Σc uniforms holding, triangle by triangle, that
    triangle's c radial draws r1 and then its c angular draws r2; the
    three standard normals of the bias direction; the noise, row by row.
    Corner node rows, which lead the cloud, take no draws.
    """
    disp = np.asarray(disp, dtype=np.float64)
    node_ids = surface.corner_node_ids()
    with np.errstate(all="ignore"):                    # a spacing may overflow them
        counts = np.ceil(2.0 * surface.areas / spec.spacing_mm ** 2)
    _require(counts.sum() <= SYNTH_MAX_CANDIDATES, f"synthetic.spacing_mm "
             f"{spec.spacing_mm!r} asks for over {SYNTH_MAX_CANDIDATES:.0e} candidates")
    counts = counts.astype(int)
    owner = np.repeat(np.arange(surface.n_triangles), counts)
    # sample k of triangle t is row first[t] + k; its r1 sits at
    # 2 first[t] + k of the stream and its r2 counts[t] further on
    r1_at = np.arange(owner.size) + (np.cumsum(counts) - counts)[owner]
    draws = rng.random(2 * owner.size)
    r1, r2 = np.sqrt(draws[r1_at]), draws[r1_at + counts[owner]]
    # a stacked (1, 3) @ (3, 3) per sample rounds as BLAS does; einsum would not
    bary = np.stack([1.0 - r1, r1 * (1.0 - r2), r1 * r2], axis=1)[:, None, :]
    points = np.vstack([surface.mesh.nodes[node_ids],
                        (bary @ surface.vertex_coords()[owner])[:, 0]])
    values = np.vstack([disp[node_ids], (bary @ disp[surface.triangles[owner]])[:, 0]])

    keep = _thin_by_spacing(points, spec.spacing_mm)
    points, values = points[keep], values[keep]

    bias_dir = rng.standard_normal(3)
    bias_dir /= np.linalg.norm(bias_dir)
    values = values + (spec.systematic_um * 1e-3) * bias_dir
    values = values + rng.normal(0.0, spec.random_um * 1e-3, values.shape)
    return MeasurementCloud(points=points, values=values)


def _thin_by_spacing(points: np.ndarray, spacing: float) -> np.ndarray:
    """Greedy minimum-distance thinning; earlier points win.

    A point is kept unless an earlier kept point lies at d with
    d·d < spacing², so points exactly one spacing apart both stay.
    """
    # the radius only gathers candidates; d·d decides, formed by the same
    # BLAS dot per pair as a single ``d @ d``, so near ties fall one way
    pairs = cKDTree(points).query_pairs(spacing * (1.0 + 1e-9), output_type="ndarray")
    d = points[pairs[:, 0]] - points[pairs[:, 1]]
    clashes = pairs[(d[:, None, :] @ d[:, :, None]).reshape(-1) < spacing * spacing]
    # in order of the later point j, every clash that decides i (i < j)
    # has been seen when (i, j) is
    clashes = clashes[np.argsort(clashes[:, 1], kind="stable")]
    keep = [True] * len(points)
    for i, j in clashes.tolist():
        if keep[i]:
            keep[j] = False
    return np.array(keep, dtype=bool)


def _subset_surface(surface: SurfaceMesh, mask: np.ndarray) -> SurfaceMesh:
    return SurfaceMesh(mesh=surface.mesh,
                       triangles=surface.triangles[mask],
                       owners=surface.owners[mask],
                       tri_parts=surface.tri_parts[mask],
                       normals=surface.normals[mask],
                       areas=surface.areas[mask],
                       centroids=surface.centroids[mask])


@dataclass
class PipelineModel:
    """Everything that does not depend on the disc modulus, plus the
    fields solved so far on it, keyed by disc modulus."""

    config: PipelineConfig
    mesh: Mesh
    materials: MaterialField          # what the system is assembled from: discs at 1 MPa
    system: ParametricSystem          # bone + pot, plus E x the disc at 1 MPa; constraints applied
    observed: SurfaceMesh             # exterior restricted to vertebra faces
    rois: np.ndarray                  # Region label of each observed triangle
    driven_nodes: np.ndarray
    fixed_nodes: np.ndarray
    motion: RigidMotion
    disc_part_ids: list[int]
    # disc modulus -> (field, its solve stats, its driven-set reaction)
    solved: dict[float, tuple[np.ndarray, SolveStats, np.ndarray]] = dc_field(
        default_factory=dict)


def mesh_from_config(config: PipelineConfig) -> Mesh:
    """Phantom-spec or mesh-file geometry, with the optional edge audit."""
    if config.phantom is not None:
        mesh = build_phantom(config.phantom)
    else:
        mesh = sfio.read_mesh(config.mesh_path)
    if config.max_edge_mm is not None:
        bad = check_edge_lengths(mesh, config.max_edge_mm)
        if bad:
            eid, ln = bad[0]
            raise MeshError(f"{len(bad)} elements exceed max edge "
                            f"{config.max_edge_mm} mm (first: element {eid} "
                            f"at {ln:.3f} mm)")
    return mesh


def build_materials(config: PipelineConfig, mesh: Mesh) -> MaterialField:
    """CT-mapped vertebrae plus uniform pots; discs stay unset here."""
    vert_ids = mesh.part_ids_with_role(PartRole.VERTEBRA)
    pot_ids = mesh.part_ids_with_role(PartRole.POT)
    materials = MaterialField.unset_for(mesh)
    if vert_ids:
        grid = _load_grid(config, mesh)
        materials = map_materials(mesh, grid, config.calibration, config.elasticity,
                                  nu=config.nu_bone, field=materials)
    for pid in pot_ids:
        materials = assign_uniform(mesh, materials, pid, config.e_pot_mpa, config.nu_pot)
    return materials


def build_model(config: PipelineConfig) -> PipelineModel:
    """Mesh, materials, constraints and the modulus-parametric system."""
    mesh = mesh_from_config(config)

    vert_ids = mesh.part_ids_with_role(PartRole.VERTEBRA)
    disc_ids = mesh.part_ids_with_role(PartRole.DISC)
    pot_ids = mesh.part_ids_with_role(PartRole.POT)
    if len(pot_ids) != 2:
        raise MeshError(f"expected exactly 2 pot parts, found {len(pot_ids)}")
    if not disc_ids:
        raise MeshError("mesh has no disc part to sweep")

    # the disc block scales linearly with its modulus: assemble it at 1 MPa
    materials = build_materials(config, mesh)
    for pid in disc_ids:
        materials = assign_uniform(mesh, materials, pid, 1.0, config.nu_disc)

    exterior = extract_surface(mesh, sorted(mesh.part_table))
    pot_mean_z = {pid: mesh.nodes[np.unique(
        mesh.elements[mesh.parts == pid])][:, 2].mean() for pid in pot_ids}
    bottom_pot = min(pot_ids, key=lambda p: pot_mean_z[p])
    top_pot = max(pot_ids, key=lambda p: pot_mean_z[p])
    # complete tet10 faces (corners plus edge midsides): the pot surface
    # must move rigidly, not just its corner lattice
    driven_nodes = face_node_ids(exterior, exterior.tri_parts == top_pot)
    fixed_nodes = face_node_ids(exterior, exterior.tri_parts == bottom_pot)
    if not vert_ids:
        raise MeshError("mesh has no vertebra part")
    observed = _subset_surface(exterior, np.isin(exterior.tri_parts, vert_ids))
    rois = partition_rois(observed, axis=config.roi_axis,
                          fractions=config.roi_fractions)

    if config.markers_path is not None:
        motion, _ = fit_rigid_motion(*sfio.read_markers(config.markers_path))
    else:
        motion = build_flexion_motion(mesh, config.loading)
    # the inferior pot is clamped; the superior one follows the strain-free
    # linearisation of the motion, as the small-strain solver requires
    bcs = BoundaryConditionSet(
        np.concatenate([fixed_nodes, driven_nodes]),
        np.concatenate([np.zeros((fixed_nodes.size, 3)),
                        motion.small_displacement(mesh.nodes[driven_nodes])]))

    # reduce the disc block once, under the static block's constraints, to form K(E) per modulus
    static_parts = [p for p in mesh.part_table if p not in disc_ids]
    static = assemble(mesh, materials, part_ids=static_parts)
    disc = assemble(mesh, materials, part_ids=disc_ids)
    system = ParametricSystem.of(static, disc, apply_bcs(static, bcs, mesh), driven_nodes)
    return PipelineModel(config=config, mesh=mesh, materials=materials, system=system,
                         observed=observed, rois=rois, driven_nodes=driven_nodes,
                         fixed_nodes=fixed_nodes, motion=motion, disc_part_ids=disc_ids)


def _load_grid(config: PipelineConfig, mesh: Mesh) -> VoxelGrid:
    if config.voxel_grid_path is not None:
        return sfio.read_voxel_grid(config.voxel_grid_path)
    if config.constant_hu is not None:
        lo = mesh.nodes.min(axis=0) - 1.0
        hi = mesh.nodes.max(axis=0) + 1.0
        dims = tuple(int(np.ceil((hi[i] - lo[i]) / 2.0)) + 2 for i in range(3))
        values = np.full(dims[0] * dims[1] * dims[2], config.constant_hu,
                         dtype=np.float32)
        return VoxelGrid(dims=dims, spacing_mm=(2.0, 2.0, 2.0),
                         origin_mm=tuple(lo), values=values)
    raise ConfigError("vertebra mapping needs voxel_grid_path or constant_hu")


@dataclass(frozen=True)
class SweepEntry:
    """One disc modulus of a sweep, built whole by ``solve_entry``.

    A failed entry holds only ``e_disc_mpa`` and ``error``
    (``"<category>: message"``); every other field is None.
    """

    e_disc_mpa: float
    error: str | None = None
    reaction_n: list[float] | None = None
    reaction_mag_n: float | None = None
    angle_deg: float | None = None
    stats: SolveStats | None = None
    disp: np.ndarray | None = None
    strains: SurfaceStrainField | None = None
    strain_summary: dict | None = None
    report: ComparisonReport | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def summary_dict(self) -> dict:
        """The entry as ``sweep_result.json`` saves it and ``write_tables``
        reads it."""
        d = {"e_disc_mpa": self.e_disc_mpa, "ok": self.ok, "error": self.error,
             "reaction_n": self.reaction_n, "reaction_mag_n": self.reaction_mag_n,
             "angle_deg": self.angle_deg,
             "strain_summary": self.strain_summary,
             "report": self.report.to_dict() if self.report else None}
        if self.stats is not None:
            d["solver"] = {"iterations": self.stats.iterations,
                           "residual": self.stats.residual}
        return d


@dataclass
class SweepResult:
    model: PipelineModel
    entries: list[SweepEntry]
    measurement_source: str
    cloud: MeasurementCloud


def _solved(model: PipelineModel, e: float) -> tuple[np.ndarray, SolveStats, np.ndarray]:
    """Field, solve stats and driven-set reaction at disc modulus ``e``.

    A modulus the model has solved before returns what it stored and
    forms no system; for any other the system is formed, solved from the
    Galerkin projection onto the stored fields, and the result stored.
    """
    if e not in model.solved:
        cfg = model.config
        system = model.system.at(e)
        u, stats = solve_pcg(system, tol=cfg.solver.tol, max_iter=cfg.solver.max_iter,
                             x0=_projected_guess(model, system))
        # every entry at this modulus, and every later seed, reads this field
        u.setflags(write=False)
        model.solved[e] = (u, stats, model.system.reaction(e, u))
    return model.solved[e]


def _check_modulus(e_disc_mpa: float) -> float:
    _require(0.0 < e_disc_mpa < math.inf,
             f"disc modulus must be positive and finite, got {e_disc_mpa!r}")
    return float(e_disc_mpa)


def solve_entry(model: PipelineModel, e_disc_mpa: float,
                compare_cloud: MeasurementCloud | None = None
                ) -> SweepEntry:
    """One full solve at a given disc modulus (plus optional comparison).

    A modulus the model has solved before reuses its stored field, stats
    and reaction; any other starts PCG from the Galerkin projection onto
    the stored fields, and its field is stored.  A modulus that is not
    positive and finite is a ConfigError; a failed solve or comparison is
    recorded in the returned entry.
    """
    e = _check_modulus(e_disc_mpa)
    settings = model.config.comparison
    try:
        u, stats, reaction = _solved(model, e)
        strains = surface_strain_field(model.observed, u)
        areas = model.observed.areas if settings.area_weighted else None
        strain_summary = roi_average(strains, model.rois, areas)
        report = None if compare_cloud is None else compare_fields(
            compare_cloud, model.observed, u, strains, model.rois, settings)
    except SpineFEError as exc:
        return SweepEntry(e_disc_mpa=e, error=f"{exc.category}: {exc}")
    return SweepEntry(e_disc_mpa=e, reaction_n=[float(r) for r in reaction],
                      reaction_mag_n=float(np.linalg.norm(reaction)),
                      angle_deg=rotation_angle(model.motion), stats=stats, disp=u,
                      strains=strains, strain_summary=strain_summary, report=report)


def _projected_guess(model: PipelineModel, system: ReducedSystem) -> np.ndarray | None:
    """Galerkin projection of the reduced solve onto the fields solved so far.

    K(E) and b(E) are affine in E, so the span of earlier solutions holds a
    close approximation of the next one (Fischer, CMAME 163, 1998).
    """
    if not model.solved:
        return None
    snapshots = np.column_stack([u.reshape(-1)[system.free]
                                 for u, _, _ in model.solved.values()])
    basis, _ = np.linalg.qr(snapshots)
    reduced = basis.T @ (system.k_ff @ basis)
    return basis @ np.linalg.solve(reduced, basis.T @ system.rhs)


def synthetic_cloud(model: PipelineModel, spec: SyntheticSpec
                    ) -> tuple[MeasurementCloud, float]:
    """The synthetic measured cloud and the disc modulus it was solved at.

    The reference field is solved, not as an entry, at
    ``spec.reference_e_disc_mpa`` (default: the first sweep modulus); the
    noise is seeded from the config seed alone.
    """
    e_ref = spec.reference_e_disc_mpa
    e_ref = _check_modulus(model.config.sweep_e_disc_mpa[0] if e_ref is None else e_ref)
    try:
        u = _solved(model, e_ref)[0]
    except SpineFEError as exc:
        raise ConfigError("reference solve for synthetic cloud failed: "
                          f"{exc.category}: {exc}") from None
    rng = np.random.default_rng(np.random.SeedSequence([model.config.seed, 0]))
    return synth_measurement(model.observed, u, spec, rng), e_ref


def _obtain_cloud(model: PipelineModel) -> tuple[MeasurementCloud, str]:
    cfg = model.config
    if cfg.measurement_path is not None:
        return sfio.read_cloud(cfg.measurement_path), f"file:{cfg.measurement_path}"
    if cfg.synthetic is None:
        raise ConfigError("config needs measurement_path or a synthetic block")
    cloud, e_ref = synthetic_cloud(model, cfg.synthetic)
    return cloud, f"synthetic:e_disc={e_ref:g}"


def run_sweep(config: PipelineConfig) -> SweepResult:
    """Solve the disc-modulus sweep against one measurement cloud.

    Entries are solved in sweep order on one model, each seeded from the
    fields solved before it (the reference solve of a synthetic cloud
    included); a failing entry is recorded and does not stop the others.
    """
    model = build_model(config)
    cloud, source = _obtain_cloud(model)
    entries = [solve_entry(model, e, compare_cloud=cloud)
               for e in config.sweep_e_disc_mpa]
    return SweepResult(model=model, entries=entries, measurement_source=source,
                       cloud=cloud)


def fit_disc_to_force(config: PipelineConfig, target_force_n: float,
                      bracket: tuple[float, float],
                      tol_rel: float = 1e-4, max_solves: int = 30
                      ) -> tuple[float, int]:
    """Disc modulus whose driven-set reaction magnitude hits the target.

    Returns the modulus and the fit's solve count
    (``solver.fit_disc_modulus``).  The fit's solves share one model, so
    each starts from the ones before; they compute only the reaction, no
    strains.
    """
    _require(0.0 < target_force_n < math.inf,
             f"target force must be positive and finite, got {target_force_n!r}")
    _require(0.0 < tol_rel < 1.0, f"tol_rel must be in (0, 1), got {tol_rel!r}")
    _require(max_solves >= 2, f"max_solves must be at least 2, got {max_solves!r}")
    model = build_model(config)

    def force(e: float) -> float:
        e = _check_modulus(e)
        try:
            reaction = _solved(model, e)[2]
        except SpineFEError as exc:
            raise ConfigError(f"solve at {e:g} MPa failed: {exc.category}: {exc}") from None
        return float(np.linalg.norm(reaction))

    return fit_disc_modulus(force, target_force_n, bracket,
                            tol_rel=tol_rel, max_solves=max_solves)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _is_number(value, nullable: bool = False) -> bool:
    if value is None:
        return nullable
    return (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and math.isfinite(value))


def _rows_from_entry(d, where: str) -> tuple[list[list], list | None]:
    """The summary.csv rows and the curves.csv row (None without a
    report) of one saved entry, a ``SweepEntry.summary_dict``.

    This is the one reader of that saved form: each value the tables use
    is checked as it is read, and one that is missing or of the wrong
    kind is a ConfigError naming ``where``.
    """
    def need(ok: bool, what: str) -> None:
        if not ok:
            raise ConfigError(f"sweep result {where}: {what}")

    def stats(obj, keys, what: str, optional: bool = False) -> list:
        need(isinstance(obj, dict) and all(
            (optional or k in obj) and _is_number(obj.get(k), nullable=True) for k in keys),
            f"{what} needs {', '.join(keys)} as numbers or null")
        return [obj.get(k) for k in keys]

    need(isinstance(d, dict), "must be an object")
    e = d.get("e_disc_mpa")
    need(_is_number(e), "e_disc_mpa must be a finite number")
    need(isinstance(d.get("ok"), bool), "ok must be true or false")
    if not d["ok"]:
        need(isinstance(d.get("error"), str), "a failed entry needs an error message")
        return [["error", e, "", "", "", "", "", d["error"]]], None
    need(_is_number(d.get("reaction_mag_n")) and _is_number(d.get("angle_deg")),
         "reaction_mag_n and angle_deg must be finite numbers")
    reaction = d.get("reaction_n")
    need(isinstance(reaction, list) and len(reaction) == 3
         and all(_is_number(v) for v in reaction), "reaction_n must be 3 finite numbers")
    rows = [["reaction_mag_n", e, "all", "force", "", "", "", d["reaction_mag_n"]]]
    rows += [[f"reaction_{comp}_n", e, "all", "force", "", "", "", val]
             for comp, val in zip(("fx", "fy", "fz"), reaction)]
    rows.append(["flexion_angle_deg", e, "all", "motion", "", "", "", d["angle_deg"]])
    rep = d.get("report")
    if rep is None:
        return rows, None
    need(isinstance(rep, dict) and isinstance(rep.get("displacement"), dict)
         and isinstance(rep.get("strain"), list),
         "report needs displacement and strain statistics")
    for comp in ("ux", "uy", "uz", "pooled"):
        st = rep["displacement"].get(comp)
        for stat, val in zip(("rmse_mm", "rmse_pct"),
                             stats(st, ("rmse", "rmse_pct"), f"displacement {comp}")):
            rows.append([stat, e, "all", comp, "", "", "", val])
        fit = ("r2", "slope", "intercept")
        rows += [[key, e, "all", comp, "", "", "", val] for key, val in zip(
            fit, stats(st, fit, f"displacement {comp}", optional=True)) if key in st]
    for blk in rep["strain"]:
        need(isinstance(blk, dict) and isinstance(blk.get("part"), str)
             and isinstance(blk.get("quantity"), str),
             "every strain block needs part and quantity names")
        name = [blk["part"], blk["quantity"]]
        what = f"strain block {'/'.join(name)}"
        need(isinstance(blk.get("per_roi"), dict), f"{what} needs per_roi statistics")
        per_roi = [stats(blk["per_roi"].get(roi), ("rmse", "rmse_pct", "r2"),
                         f"{what} per_roi {roi}", optional=True) for roi in ROI_NAMES]
        rows += [[stat, e, *name, *col]
                 for stat, col in zip(("rmse_ue", "rmse_pct", "r2"), zip(*per_roi))]
        for stat, key in (("mean_meas_ue", "roi_mean_measured"),
                          ("mean_pred_ue", "roi_mean_predicted")):
            rows.append([stat, e, *name, *stats(blk.get(key), ROI_NAMES, f"{what} {key}")])
        tests = ("ks_d", "ks_p", "pct_diff_mean_abs", "pct_diff_max_abs")
        rows += [[stat, e, *name, "", "", "", val]
                 for stat, val in zip(tests, stats(blk, tests, what))]
    # the first rmse_pct row of each part/quantity; a displacement row
    # carries its value in the total column
    rmse_pct = {(r[2], r[3]): r[4:] for r in reversed(rows) if r[0] == "rmse_pct"}
    for q in ("eps_max", "eps_min"):
        need(("all", q) in rmse_pct, f"report lacks the all/{q} strain block")
    return rows, [e, *rmse_pct["all", "eps_max"], *rmse_pct["all", "eps_min"],
                  rmse_pct["all", "pooled"][3]]


def write_tables(entry_dicts: list[dict], outdir) -> list[Path]:
    """summary.csv and curves.csv from saved entries (``summary_dict``).

    Every entry is read into rows before either file is opened, so an
    entry the tables cannot read is a ConfigError and writes no table.
    A failed entry gives one ``error`` row and no curve; an entry
    without a report gives no curve.
    """
    read = [_rows_from_entry(d, f"entry {i}") for i, d in enumerate(entry_dicts)]
    curves_header = ["e_disc_mpa"]
    for q in ("eps_max", "eps_min"):
        curves_header += [f"{q}_rmse_pct_{r}" for r in ROI_NAMES]
    curves_header.append("displacement_rmse_pct")
    tables = {"summary.csv": (["statistic", "e_disc_mpa", "part", "quantity", *ROI_NAMES],
                              [row for rows, _ in read for row in rows]),
              "curves.csv": (curves_header, [curve for _, curve in read if curve is not None])}
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        with (outdir / name).open("w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows([_fmt(v) for v in row] for row in rows)
    return [outdir / name for name in tables]


def reemit_tables(sweep_json_path, outdir) -> list[Path]:
    """Rebuild summary.csv/curves.csv from a saved sweep_result.json; a
    file the tables cannot read is a ConfigError and writes no table."""
    try:
        data = json.loads(Path(sweep_json_path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read sweep result: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"sweep result is not valid JSON: {exc}") from None
    if not (isinstance(data, dict) and isinstance(data.get("entries"), list)):
        raise ConfigError("sweep result lacks an 'entries' list")
    return write_tables(data["entries"], outdir)


def emit_reports(result: SweepResult, outdir) -> list[Path]:
    """Write summary.csv, curves.csv, sweep_result.json, and each solved
    entry's artifacts (``write_entry``) under ``e_disc_<modulus>/``, the
    modulus in ``:g`` form (``PipelineConfig`` keeps those names distinct)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    entry_dicts = [e.summary_dict() for e in result.entries]
    written = write_tables(entry_dicts, outdir)
    sfio.write_json({"sweep_e_disc_mpa": [d["e_disc_mpa"] for d in entry_dicts],
                     "seed": result.model.config.seed,
                     "measurement_source": result.measurement_source,
                     "entries": entry_dicts}, outdir / "sweep_result.json")
    written.append(outdir / "sweep_result.json")
    model = result.model
    geometry = sfio.ReportGeometry.of(model.mesh, model.observed, model.rois)
    for entry in result.entries:
        if entry.ok:
            written += write_entry(model, entry, outdir / _entry_dir(entry.e_disc_mpa),
                                   geometry)
    return written


def _entry_dir(e_disc_mpa: float) -> str:
    return f"e_disc_{e_disc_mpa:g}"


def write_entry(model: PipelineModel, entry: SweepEntry, outdir,
                geometry: sfio.ReportGeometry) -> list[Path]:
    """One solved entry's artifacts: displacement and strain CSVs, VTK mesh
    and surface fields, and the comparison report when there is one.

    ``geometry`` is the model's formatted report geometry
    (``sfio.ReportGeometry.of``), built once for every entry written.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    sfio.write_displacements(geometry, entry.disp, outdir / "displacements.csv")
    sfio.write_strains(geometry, entry.strains, outdir / "strains.csv")
    sfio.write_vtk_mesh(geometry, outdir / "solution.vtk",
                        point_vectors={"displacement_mm": entry.disp},
                        cell_scalars={"e_mpa": _entry_moduli(model, entry)},
                        title=f"solution at disc modulus {entry.e_disc_mpa:g} MPa")
    sfio.write_vtk_surface(geometry, outdir / "surface_strains.vtk",
                           cell_scalars={"eps_max_ue": entry.strains.eps_max_ue,
                                         "eps_min_ue": entry.strains.eps_min_ue},
                           title="observed surface principal strains")
    names = ["displacements.csv", "strains.csv", "solution.vtk", "surface_strains.vtk"]
    if entry.report is not None:
        sfio.write_json(entry.report.to_dict(), outdir / "report.json")
        names.append("report.json")
    return [outdir / name for name in names]


def _entry_moduli(model: PipelineModel, entry: SweepEntry) -> np.ndarray:
    e = model.materials.e_mpa.copy()
    disc_sel = np.isin(model.mesh.parts, model.disc_part_ids)
    e[disc_sel] = entry.e_disc_mpa
    return e

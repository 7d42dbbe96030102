"""End-to-end pipeline: config -> mesh -> materials -> solves -> reports.

A single JSON config describes the specimen (phantom spec or mesh file),
the CT grid, the loading, the disc-modulus sweep, the cloud and the seed;
the method is module constants.  ``run_sweep`` solves every disc modulus
against one measured (or synthetic) displacement cloud; ``emit_reports``
writes the artifacts.
``solve_entry`` builds each ``SweepEntry`` whole, and it stays as built;
``write_tables`` builds both tables from the sweep's entries, and
``summary_dict`` is the form ``sweep_result.json`` saves, which the
package never reads back.
``build_model`` clamps the inferior pot and drives the superior pot by
the loading's rigid motion; the solver gets both as one set of nodes
with their displacements.  A model reduces K(E) = K_s + E K_d once into
one modulus-parametric system (``solver.ParametricSystem``), so a
modulus costs one axpy per block plus its PCG iterations; each block is
assembled, reduced and dropped before the next is assembled.  Every
solve goes through ``_solved``: sweep entries, the synthetic cloud's
reference and the fit's forces.  Each starts PCG from the Galerkin field
of the model's one basis of solved fields (``solver.ReducedBasis``), and
its field joins that basis; the fit's root-finder runs on the same basis.
The model keeps each full-tolerance field with its reaction; the fit's
loose solves, its bracket ends and first step, join the basis only.
``write_entry`` writes an entry with the model's report geometry,
formatted once (``io.ReportGeometry``).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field as dc_field, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import io as sfio
from .domain import COORD_MM, DISP_MM, HU_MAX, LENGTH_MIN_MM, OFFSET_MAX, direction, within
from .errors import (BracketError, ConfigError, ConvergenceError, FormatError, MeshError,
                     SpineFEError)
from .materials import (CalibrationLaw, DensityElasticityLaw, MaterialField,
                        assign_uniform, map_materials)
from .mesh import (ROI_NAMES, Mesh, PartRole, PhantomSpec, SurfaceMesh, build_phantom,
                   extract_surface, face_node_ids, partition_rois)
from .metrics import (ComparisonReport, MeasurementCloud, Observation, compare_fields, observe,
                      roi_average)
from .registration import RigidMotion, fit_rigid_motion, rotation_angle
# the pipeline reads reactions from ParametricSystem.reaction; reaction_force
# stays importable here because perfbench/tracing.py wraps it by this name
from .solver import (PCG_TOL, BoundaryConditionSet, ParametricSystem, ReducedBasis,
                     SolveStats, apply_bcs, assemble, reaction_force, reaction_rows,
                     solve_pcg)
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
    "check_modulus",
    "solve_entry",
    "SweepEntry",
    "SweepResult",
    "run_sweep",
    "write_entry",
    "emit_reports",
    "write_tables",
    "fit_disc_to_force",
]

DEFAULT_SWEEP_MPA = [4.15, 10.0, 25.0, 30.0, 35.0, 50.0]

FIT_TOL_REL = 1e-4
FIT_MAX_SOLVES = 30

MISFITS = ("displacement_mm", "tensor_ue")       # a report's, in the tables' order

# Most candidates ``synth_measurement`` may draw: sampling and thinning hold
# ~0.2 kB each (a 67 MB heap peak for trend's 350,196 at 0.2 mm), so 2e6 ~0.4 GB.
SYNTH_MAX_CANDIDATES = 2 * 10 ** 6

# Candidates ``_thin_by_spacing`` decides at a time: it bounds a window's
# pairs (32,640), not which points are kept, so thinning is linear in them.
THIN_WINDOW = 256


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
        direction(self.axis, "loading.axis", ConfigError)
        _require(math.isfinite(self.flexion_angle_deg), "loading.flexion_angle_deg must be finite")
        for name, bound in (("compression_mm", DISP_MM), ("offset_fraction", OFFSET_MAX)):
            within(getattr(self, name), f"loading.{name}", -bound, bound, ConfigError)


@dataclass
class SyntheticSpec:
    """Synthetic displacement cloud: sampling density and error model."""

    spacing_mm: float = 2.0
    systematic_um: float = 10.0
    random_um: float = 25.0
    reference_e_disc_mpa: float | None = None

    def __post_init__(self) -> None:
        within(self.spacing_mm, "synthetic.spacing_mm", LENGTH_MIN_MM, COORD_MM, ConfigError)
        for name in ("systematic_um", "random_um"):
            within(getattr(self, name), f"synthetic.{name}", 0.0, 1e3 * DISP_MM, ConfigError)
        _require(self.reference_e_disc_mpa is None
                 or 0.0 < self.reference_e_disc_mpa < math.inf,
                 "synthetic.reference_e_disc_mpa must be positive and finite")


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
    synthetic: SyntheticSpec | None = None
    roi_axis: tuple[float, float, float] = (1.0, 0.0, 0.0)
    seed: int = 0
    threads: int = 1

    def __post_init__(self) -> None:
        if self.mesh_path is None and self.phantom is None:
            raise ConfigError("config needs either mesh_path or a phantom block")
        if self.mesh_path is not None and self.phantom is not None:
            raise ConfigError("mesh_path and phantom are mutually exclusive")
        if self.voxel_grid_path is not None and self.constant_hu is not None:
            raise ConfigError("voxel_grid_path and constant_hu are mutually exclusive")
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
        direction(self.roi_axis, "roi_axis", ConfigError)
        if self.constant_hu is not None:
            within(self.constant_hu, "constant_hu", -HU_MAX, HU_MAX, ConfigError)


_KINDS = {float: "a finite number", int: "an integer", str: "a string"}


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
    elif hint is str and isinstance(value, str):
        _require("\0" not in value, f"{name} must not contain a NUL character")
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
            data = sfio.read_json(source)
        except FormatError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
    else:
        data = dict(source)
    return _build_section(data, PipelineConfig)


def build_flexion_motion(mesh: Mesh, load: LoadCase) -> RigidMotion:
    """Driving motion: rotation about a mediolateral axis through a pivot
    anterior to the central disc's center, plus axial compression.

    The pivot sits at the central disc's bounding-box center, shifted
    along +y by ``offset_fraction`` of that part's anteroposterior depth.
    A mesh without a disc is a MeshError, as ``build_model`` finds it.
    """
    disc_ids = mesh.part_ids_with_role(PartRole.DISC)
    if not disc_ids:
        raise MeshError("mesh has no disc part to sweep")
    pid = disc_ids[len(disc_ids) // 2]
    pts = mesh.nodes[np.unique(mesh.elements[mesh.elements_in(pid)])]
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pivot = 0.5 * (lo + hi)
    pivot[1] += load.offset_fraction * (hi[1] - lo[1])
    return RigidMotion.about_axis(load.axis, load.flexion_angle_deg, pivot=pivot,
                                  extra_translation=(0.0, 0.0, -load.compression_mm))


def synth_measurement(surface: SurfaceMesh, disp: np.ndarray, spec: SyntheticSpec,
                      rng: np.random.Generator) -> MeasurementCloud:
    """Synthesize a measured displacement cloud from a solved field.

    Candidates are area-stratified random points on the triangles, ceil(2 A
    / spacing²) per triangle of area A, valued from its corners (none is a
    node, as none of a camera's is); they are thinned to the target spacing
    keeping earlier candidates, then corrupted with one systematic offset
    (a random direction drawn once) and independent isotropic Gaussian noise.

    ``rng`` is drawn from in this order, which fixes the cloud for a seed:
    one block of 2·Σc uniforms holding, triangle by triangle, that
    triangle's c radial draws r1 and then its c angular draws r2; the
    three standard normals of the bias direction; the noise, row by row.
    """
    disp = np.asarray(disp, dtype=np.float64)
    counts = np.ceil(2.0 * surface.areas / (spec.spacing_mm * spec.spacing_mm))
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
    points = (bary @ surface.vertex_coords()[owner])[:, 0]
    values = (bary @ disp[surface.triangles[owner]])[:, 0]

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
    d·d < spacing², so points exactly one spacing apart both stay.  A
    window's points that nothing struck are decided pair by pair; then each
    one kept strikes the later points it clashes with.
    """
    from scipy.spatial import cKDTree   # loaded only where a cloud is synthesised

    def clashing(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        # the radius only gathers candidates; d·d decides, formed by the same
        # BLAS dot per pair as a single ``d @ d``, so near ties fall one way
        d = points[i] - points[j]
        return (d[:, None, :] @ d[:, :, None]).reshape(-1) < spacing * spacing

    radius = spacing * (1.0 + 1e-9)
    tree = cKDTree(points, balanced_tree=False)     # an unbalanced tree builds faster, same pairs
    keep = np.ones(len(points), dtype=bool)
    for start in range(0, len(points), THIN_WINDOW):
        window = start + np.flatnonzero(keep[start:start + THIN_WINDOW])
        i, j = cKDTree(points[window], balanced_tree=False).query_pairs(
            radius, output_type="ndarray").T
        clash = clashing(window[i], window[j])
        # in order of the later point j, every clash that decides i (i < j) is seen first
        order = np.argsort(j[clash], kind="stable")
        stays = [True] * window.size
        for i_, j_ in zip(i[clash][order].tolist(), j[clash][order].tolist()):
            if stays[i_]:
                stays[j_] = False
        keep[window] = stays
        kept = window[stays]
        near = cKDTree(points[kept]).sparse_distance_matrix(tree, radius, output_type="ndarray")
        i, j = kept[near["i"]], near["j"]
        later = j >= start + THIN_WINDOW                 # in the windows still to come
        keep[j[later][clashing(i[later], j[later])]] = False
    return keep


def _subset_surface(surface: SurfaceMesh, mask: np.ndarray) -> SurfaceMesh:
    """The triangles of ``surface`` where ``mask`` holds: each field but its mesh."""
    return replace(surface, **{k: v[mask] for k, v in vars(surface).items() if k != "mesh"})


@dataclass
class PipelineModel:
    """Everything that does not depend on the disc modulus, plus the
    fields solved so far on it: the basis that seeds each solve, and the
    full-tolerance fields keyed by disc modulus."""

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
    basis: ReducedBasis               # spans every solved field, loose ones too; empty when built
    # disc modulus -> (field, its solve stats, its driven-set reaction)
    solved: dict[float, tuple[np.ndarray, SolveStats, np.ndarray]] = dc_field(
        default_factory=dict)


def mesh_from_config(config: PipelineConfig) -> Mesh:
    """Phantom-spec or mesh-file geometry."""
    if config.phantom is not None:
        return build_phantom(config.phantom)
    return sfio.read_mesh(config.mesh_path)


def build_materials(config: PipelineConfig, mesh: Mesh) -> MaterialField:
    """Vertebrae mapped from ``voxel_grid_path``'s grid or from
    ``constant_hu`` with no grid built, plus uniform pots; discs stay unset."""
    if not mesh.part_ids_with_role(PartRole.VERTEBRA):
        materials = MaterialField.unset_for(mesh)
    else:
        hu = (config.constant_hu if config.voxel_grid_path is None
              else sfio.read_voxel_grid(config.voxel_grid_path))
        if hu is None:
            raise ConfigError("vertebra mapping needs voxel_grid_path or constant_hu")
        materials = map_materials(mesh, hu, config.calibration, config.elasticity,
                                  nu=config.nu_bone)
    if pot_ids := mesh.part_ids_with_role(PartRole.POT):
        materials = assign_uniform(mesh, materials, pot_ids, config.e_pot_mpa, config.nu_pot)
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
    if not vert_ids:
        raise MeshError("mesh has no vertebra part")

    # the disc block scales linearly with its modulus: assemble it at 1 MPa
    materials = assign_uniform(mesh, build_materials(config, mesh), disc_ids,
                               1.0, config.nu_disc)

    exterior = extract_surface(mesh, sorted(mesh.part_table))
    pot_mean_z = {pid: mesh.nodes[np.unique(
        mesh.elements[mesh.elements_in(pid)])][:, 2].mean() for pid in pot_ids}
    bottom_pot = min(pot_ids, key=lambda p: pot_mean_z[p])
    top_pot = max(pot_ids, key=lambda p: pot_mean_z[p])
    # complete tet10 faces (corners plus edge midsides): the pot surface
    # must move rigidly, not just its corner lattice
    driven_nodes = face_node_ids(exterior, exterior.tri_parts == top_pot)
    fixed_nodes = face_node_ids(exterior, exterior.tri_parts == bottom_pot)
    observed = _subset_surface(exterior, np.isin(exterior.tri_parts, vert_ids))
    rois = partition_rois(observed, axis=config.roi_axis)

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

    # reduce each block once, under the static block's constraints, to form
    # K(E) per modulus; an assembled block is dropped once its reduced
    # pieces are taken, so only one is held at a time
    static_parts = [p for p in mesh.part_table if p not in disc_ids]
    k_full = assemble(mesh, materials, part_ids=static_parts)
    static = apply_bcs(k_full, bcs, mesh)
    static_rows = reaction_rows(k_full, driven_nodes)
    del k_full
    k_full = assemble(mesh, materials, part_ids=disc_ids)
    unit = static.reduce(k_full)
    unit_rows = reaction_rows(k_full, driven_nodes)
    del k_full
    system = ParametricSystem(static=static, unit=unit, reaction_rows=(static_rows, unit_rows))
    return PipelineModel(config=config, mesh=mesh, materials=materials, system=system,
                         observed=observed, rois=rois, driven_nodes=driven_nodes,
                         fixed_nodes=fixed_nodes, motion=motion, disc_part_ids=disc_ids,
                         basis=ReducedBasis(system))


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
        """The entry as ``sweep_result.json`` and ``entry.json`` save it."""
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


def _solved(model: PipelineModel, e: float, tol: float | None = None
            ) -> tuple[np.ndarray, SolveStats, np.ndarray]:
    """Field, solve stats and driven-set reaction at disc modulus ``e``.

    At full tolerance (``tol`` None: PCG_TOL), a modulus the model has
    solved before returns what it stored and forms no system; any other
    is solved and stored.  A solve to a looser ``tol`` (the fit's bracket
    ends and its first step) is never stored.  Each solve starts PCG from
    the basis's field at ``e`` (Fischer, CMAME 163, 1998; cold while the
    basis is empty), and a field that PCG moved off that seed joins the
    basis, loose or not; one it left there already lies in it.
    """
    if tol is None and e in model.solved:
        return model.solved[e]
    system = model.system
    u, stats = solve_pcg(system.at(e), tol=PCG_TOL if tol is None else tol,
                         x0=model.basis.field(e))
    if stats.iterations:
        model.basis.add(u.reshape(-1)[system.static.free])
    # every entry at this modulus reads this field
    u.setflags(write=False)
    result = (u, stats, system.reaction(e, u))
    if tol is None:
        model.solved[e] = result
    return result


def check_modulus(e_disc_mpa: float) -> float:
    """``e_disc_mpa`` as a float; one that is not positive and finite is a ConfigError."""
    _require(0.0 < e_disc_mpa < math.inf,
             f"disc modulus must be positive and finite, got {e_disc_mpa!r}")
    return float(e_disc_mpa)


def solve_entry(model: PipelineModel, e_disc_mpa: float,
                compare_cloud: Observation | None = None
                ) -> SweepEntry:
    """One full solve at a given disc modulus (plus optional comparison
    with an observed cloud, ``metrics.observe``).

    A modulus the model has solved before reuses its stored field, stats
    and reaction; any other starts PCG from the Galerkin field of the
    model's basis, and its field is stored.  A modulus that is not
    positive and finite is a ConfigError; a failed solve or comparison is
    recorded in the returned entry.
    """
    e = check_modulus(e_disc_mpa)
    try:
        u, stats, reaction = _solved(model, e)
        strains = surface_strain_field(model.observed, u)
        strain_summary = roi_average(strains, model.rois)
        report = None if compare_cloud is None else compare_fields(compare_cloud, u)
    except SpineFEError as exc:
        return SweepEntry(e_disc_mpa=e, error=f"{exc.category}: {exc}")
    return SweepEntry(e_disc_mpa=e, reaction_n=[float(r) for r in reaction],
                      reaction_mag_n=float(np.linalg.norm(reaction)),
                      angle_deg=rotation_angle(model.motion), stats=stats, disp=u,
                      strains=strains, strain_summary=strain_summary, report=report)


def synthetic_cloud(model: PipelineModel, spec: SyntheticSpec
                    ) -> tuple[MeasurementCloud, float]:
    """The synthetic measured cloud and the disc modulus it was solved at.

    The reference field is solved, not as an entry, at
    ``spec.reference_e_disc_mpa`` (default: the first sweep modulus); the
    noise is seeded from the config seed alone.
    """
    e_ref = spec.reference_e_disc_mpa
    e_ref = model.config.sweep_e_disc_mpa[0] if e_ref is None else e_ref
    try:
        u = _solved(model, e_ref)[0]
    except SpineFEError as exc:
        raise ConfigError("reference solve for synthetic cloud failed: "
                          f"{exc.category}: {exc}") from None
    rng = np.random.default_rng(np.random.SeedSequence([model.config.seed, 0]))
    return synth_measurement(model.observed, u, spec, rng), e_ref


def run_sweep(config: PipelineConfig) -> SweepResult:
    """Solve the disc-modulus sweep against one measurement cloud, read from
    its file before the model is built, or solved on the model.

    Entries are solved in sweep order on one model, each seeded from the
    fields solved before it (the reference solve of a synthetic cloud
    included); a failing entry is recorded and does not stop the others.
    The cloud is observed once, and one it cannot observe is a CompareError.
    """
    path = config.measurement_path
    if path is None and config.synthetic is None:
        raise ConfigError("config needs measurement_path or a synthetic block")
    cloud = None if path is None else sfio.read_cloud(path)
    model = build_model(config)
    source = f"file:{path}"
    if cloud is None:
        cloud, e_ref = synthetic_cloud(model, config.synthetic)
        source = f"synthetic:e_disc={e_ref:g}"
    observation = observe(cloud, model.observed, model.rois)
    entries = [solve_entry(model, e, compare_cloud=observation)
               for e in config.sweep_e_disc_mpa]
    return SweepResult(model=model, entries=entries, measurement_source=source,
                       cloud=cloud)


# called by its module-level name, which perfbench/tracing.py wraps
def fit_disc_modulus(force_fn, target: float, bracket: tuple[float, float]) -> float:
    """The modulus in the ordered ``bracket`` whose monotone ``force_fn``
    meets the positive ``target`` within ``FIT_TOL_REL * target``: secant steps
    with bisection fallback, after the ends (1 call at a lower hit, 2 at an
    upper).  A target outside the bracket is a BracketError naming both end
    forces; more than ``FIT_MAX_SOLVES`` calls are a ConvergenceError."""
    lo, hi = bracket
    tol_abs = FIT_TOL_REL * target
    force_lo = float(force_fn(lo))
    if abs(force_lo - target) <= tol_abs:
        return lo
    force_hi = float(force_fn(hi))
    if abs(force_hi - target) <= tol_abs:
        return hi
    a, fa, b, fb = lo, force_lo - target, hi, force_hi - target
    if fa * fb > 0.0:
        raise BracketError(
            f"target {target:.10g} N not bracketed: force({lo:.6g} MPa) = "
            f"{force_lo:.10g} N, force({hi:.6g} MPa) = {force_hi:.10g} N")

    x_prev, f_prev = a, fa
    x_cur, f_cur = b, fb
    for _ in range(2, FIT_MAX_SOLVES):
        denom = f_cur - f_prev
        if denom != 0.0:
            x_next = x_cur - f_cur * (x_cur - x_prev) / denom
        else:
            x_next = 0.5 * (a + b)
        if not a < x_next < b:
            x_next = 0.5 * (a + b)
        f_next = float(force_fn(x_next)) - target
        if abs(f_next) <= tol_abs:
            return x_next
        if fa * f_next < 0.0:
            b, fb = x_next, f_next
        else:
            a, fa = x_next, f_next
        x_prev, f_prev = x_cur, f_cur
        x_cur, f_cur = x_next, f_next
    raise ConvergenceError(
        f"modulus fit did not reach tolerance within {FIT_MAX_SOLVES} solves")


def fit_disc_to_force(config: PipelineConfig, target_force_n: float,
                      bracket: tuple[float, float]) -> tuple[float, int]:
    """Disc modulus whose driven-set reaction magnitude hits the target.

    Each step is solved only as well as the next step needs (inexact
    Newton: Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982;
    reduced basis: Rozza, Huynh & Patera, Arch. Comput. Methods Eng. 15,
    2008).  Both bracket ends are solved to relative residual
    ``max(FIT_TOL_REL, PCG_TOL)``: their forces only decide the bracket.
    ``fit_disc_modulus`` then finds the root of the force of the model's
    basis of the fields solved so far (``ReducedBasis.reaction``); the
    first root is solved once to ``max(FIT_TOL_REL / 100, PCG_TOL)``, and
    every later one at full tolerance (``PCG_TOL``), each from the basis's
    field there, until a full-tolerance force meets ``FIT_TOL_REL``.
    Loose fields join the basis only; only full-tolerance ones enter
    ``model.solved``.  When the basis does not bracket the target, the
    fit goes on at full tolerance, so ``fit_disc_modulus``'s endpoint and
    bracket rules decide on full-tolerance forces.  Returns the modulus
    and the count of PCG solves, loose ones included; needing more than
    ``FIT_MAX_SOLVES`` is a ConvergenceError.
    """
    _require(0.0 < target_force_n < math.inf,
             f"target force must be positive and finite, got {target_force_n!r}")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0.0 < lo < hi < math.inf:
        raise BracketError(f"invalid bracket ({lo}, {hi})")
    model = build_model(config)
    solves = 0

    def force(e: float, tol: float | None = None) -> float:
        """The reaction magnitude of a solve at ``e`` to ``tol`` (None: the
        stored full-tolerance one)."""
        nonlocal solves
        if tol is not None or e not in model.solved:
            if solves == FIT_MAX_SOLVES:
                raise ConvergenceError(
                    f"modulus fit did not reach tolerance within {FIT_MAX_SOLVES} solves")
            solves += 1
        try:
            reaction = _solved(model, e, tol)[2]
        except SpineFEError as exc:
            raise ConfigError(f"solve at {e:g} MPa failed: {exc.category}: {exc}") from None
        return float(np.linalg.norm(reaction))

    force(lo, max(FIT_TOL_REL, PCG_TOL))
    force(hi, max(FIT_TOL_REL, PCG_TOL))
    step_tol = max(FIT_TOL_REL / 100.0, PCG_TOL)    # the first root's; later ones: full
    while True:
        try:
            e = fit_disc_modulus(lambda e: float(np.linalg.norm(model.basis.reaction(e))),
                                 target_force_n, (lo, hi))
        except BracketError:
            # decide on full-tolerance forces, and go on solving at full tolerance
            return fit_disc_modulus(force, target_force_n, (lo, hi)), solves
        if step_tol is not None:    # one inexact step, into the basis only
            force(e, step_tol)
            step_tol = None
        elif e in model.solved:     # its full force already missed: no progress left
            raise ConvergenceError(f"modulus fit stalled at {e:g} MPa")
        elif abs(force(e) - target_force_n) <= FIT_TOL_REL * target_force_n:
            return e, solves


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _table_rows(entry: SweepEntry) -> tuple[list[list], list | None]:
    """The summary.csv rows and the curves.csv row (None without a
    report) of one sweep entry."""
    e = entry.e_disc_mpa
    if not entry.ok:
        return [["error", e, "", "", "", "", "", entry.error]], None
    rows = [["reaction_mag_n", e, "all", "force", "", "", "", entry.reaction_mag_n]]
    rows += [[f"reaction_{comp}_n", e, "all", "force", "", "", "", val]
             for comp, val in zip(("fx", "fy", "fz"), entry.reaction_n)]
    rows.append(["flexion_angle_deg", e, "all", "motion", "", "", "", entry.angle_deg])
    rep = entry.report
    if rep is None:
        return rows, None
    misfit = [rep.misfit[key] for key in MISFITS]
    rows += [[f"misfit_{key}", e, "all", "misfit", "", "", "", val]
             for key, val in zip(MISFITS, misfit)]
    for comp in ("ux", "uy", "uz", "pooled"):
        st = rep.displacement[comp]
        rows += [[stat, e, "all", comp, "", "", "", st[key]]
                 for stat, key in (("rmse_mm", "rmse"), ("rmse_pct", "rmse_pct"))]
        # the regression needs two sites
        rows += [[key, e, "all", comp, "", "", "", st[key]]
                 for key in ("r2", "slope", "intercept") if key in st]
    for blk in rep.strain:
        name = [blk["part"], blk["quantity"]]
        per_roi = [blk["per_roi"][roi] for roi in ROI_NAMES]
        rows += [[stat, e, *name, *(st.get(key) for st in per_roi)]
                 for stat, key in (("rmse_ue", "rmse"), ("rmse_pct", "rmse_pct"), ("r2", "r2"))]
        rows += [[stat, e, *name, *(blk[key][roi] for roi in ROI_NAMES)]
                 for stat, key in (("mean_meas_ue", "roi_mean_measured"),
                                   ("mean_pred_ue", "roi_mean_predicted"))]
        rows += [[stat, e, *name, "", "", "", blk[stat]]
                 for stat in ("ks_d", "ks_p", "pct_diff_mean_abs", "pct_diff_max_abs")]
    curve = [e]
    for q in ("eps_max", "eps_min"):
        per_roi = rep.strain_block("all", q)["per_roi"]
        curve += [per_roi[roi]["rmse_pct"] for roi in ROI_NAMES]
    return rows, [*curve, rep.displacement["pooled"]["rmse_pct"], *misfit]


# write_tables stays a module-level name: perfbench/tracing.py wraps it by this
# name for io.write_csv_s
def write_tables(entries: list[SweepEntry], outdir) -> list[Path]:
    """summary.csv and curves.csv from the sweep's entries.

    A failed entry gives one ``error`` row and no curve; an entry
    without a report gives no curve.
    """
    read = [_table_rows(entry) for entry in entries]
    curves_header = ["e_disc_mpa"]
    for q in ("eps_max", "eps_min"):
        curves_header += [f"{q}_rmse_pct_{r}" for r in ROI_NAMES]
    curves_header += ["displacement_rmse_pct", *(f"misfit_{key}" for key in MISFITS)]
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


def emit_reports(result: SweepResult, outdir) -> list[Path]:
    """Write summary.csv, curves.csv, sweep_result.json, and each solved
    entry's artifacts (``write_entry``) under ``e_disc_<modulus>/``, the
    modulus in ``:g`` form (``PipelineConfig`` keeps those names distinct)."""
    outdir = Path(outdir)
    written = write_tables(result.entries, outdir)
    entry_dicts = [e.summary_dict() for e in result.entries]
    sfio.write_json({"sweep_e_disc_mpa": [d["e_disc_mpa"] for d in entry_dicts],
                     "seed": result.model.config.seed,
                     "measurement_source": result.measurement_source,
                     "entries": entry_dicts}, outdir / "sweep_result.json")
    written.append(outdir / "sweep_result.json")
    model = result.model
    geometry = sfio.ReportGeometry.of(model.observed, model.rois)
    for entry in result.entries:
        if entry.ok:
            written += write_entry(model, entry, outdir / _entry_dir(entry.e_disc_mpa), geometry)
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
    sfio.write_vtk_mesh(geometry, outdir / "solution.vtk", entry.disp,
                        _entry_moduli(model, entry),
                        f"solution at disc modulus {entry.e_disc_mpa:g} MPa")
    sfio.write_vtk_surface(geometry, outdir / "surface_strains.vtk", entry.strains)
    names = ["displacements.csv", "strains.csv", "solution.vtk", "surface_strains.vtk"]
    if entry.report is not None:
        sfio.write_json(entry.report.to_dict(), outdir / "report.json")
        names.append("report.json")
    return [outdir / name for name in names]


def _entry_moduli(model: PipelineModel, entry: SweepEntry) -> np.ndarray:
    e = model.materials.e_mpa.copy()
    e[model.mesh.elements_in(model.disc_part_ids)] = entry.e_disc_mpa
    return e

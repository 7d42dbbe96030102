"""File formats.

- Mesh text: sections ``NODES`` (``id x y z``), ``ELEMENTS``
  (``id part n0 .. n9``), ``PARTS`` (``id name role``); ``#`` starts a
  comment; ids are consecutive from 0.
- Voxel grid: a JSON header (dims, spacing_mm, origin_mm, dtype "f32",
  order "x-fastest", data_file) plus a raw little-endian float32 file.
- Markers CSV: ``label,step,x,y,z`` with step 0 = reference, 1 = deformed;
  each label once per step and in both steps.
- Cloud CSV: ``x,y,z,ux,uy,uz``.
- Displacement CSV: ``node_id,x,y,z,ux,uy,uz``.
- Strain CSV: ``tri_id,cx,cy,cz,roi,eps_max_ue,eps_min_ue``, one row per
  surface triangle; ``roi`` is left, central or right.
- Materials CSV: ``element_id,part,role,e_mpa,nu,provenance``, with an
  empty cell where a modulus or Poisson ratio is unset.
- VTK legacy ASCII unstructured grids for meshes (quadratic tets) and
  surfaces (triangles), with point vectors and cell scalars.

The pipeline only reads voxel grids and markers; their writers are test
fixtures (``tests/fixture_writers.py``).  All writers format numbers
deterministically (``%.17g`` where a reader must recover the double,
``%.10g`` for reports), so identical inputs give byte-identical files.  Each block of rows is formatted by one ``%``
template repeated once per row and applied to all its values at once.
Geometry that every report of a sweep repeats (node and strain row
starts, VTK points and cells, RoI labels) is formatted once per report
write into a ``ReportGeometry`` of a surface and its mesh, from which the
report writers take it.  ``json_text`` splices JSON texts it encoded
before into a larger one, so a report nested in the sweep's JSON is
encoded once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError
from .materials import MaterialField, Provenance, VoxelGrid
from .mesh import REGION_NAMES, Mesh, Part, PartRole, Region, SurfaceMesh
from .metrics import MeasurementCloud

__all__ = [
    "SPLICED",
    "json_text",
    "write_json",
    "write_mesh",
    "read_json",
    "read_mesh",
    "read_voxel_grid",
    "read_markers",
    "write_cloud",
    "read_cloud",
    "write_displacements",
    "write_strains",
    "write_materials",
    "write_vtk_mesh",
    "write_vtk_surface",
    "ReportGeometry",
]

VTK_QUADRATIC_TETRA = 24
VTK_TRIANGLE = 5


# stands in for a value whose JSON text is already encoded (``json_text``)
SPLICED = "\0spliced"


def json_text(obj, spliced=()) -> str:
    """Indented JSON with sorted keys; NaN and inf are refused.

    Each value ``SPLICED`` in ``obj`` takes, in order, the next text of
    ``spliced``, one that this function encoded, indented to its depth: the
    result is the text of ``obj`` holding those values, and it encodes each
    of them only once.
    """
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    pieces = text.split(json.dumps(SPLICED))
    if len(pieces) != len(spliced) + 1:
        raise ValueError(f"{len(pieces) - 1} values to splice, {len(spliced)} texts")
    out = pieces[:1]
    for value, piece in zip(spliced, pieces[1:]):
        line = out[-1].rsplit("\n", 1)[-1]
        out += [value.replace("\n", "\n" + " " * (len(line) - len(line.lstrip(" ")))), piece]
    return "".join(out)


def write_json(obj, path, spliced=()) -> None:
    """``json_text`` of ``obj`` and ``spliced`` with a final newline."""
    Path(path).write_text(json_text(obj, spliced) + "\n")


def _table(fmt: str, *columns) -> str:
    """``fmt`` once per row of the columns laid side by side; a 2-D column
    gives one field per column of it.

    The template is repeated once per row and applied to all values in one
    ``%`` operation.  Arrays give their values as Python ints, floats or
    strs (``tolist``), other sequences their items as they are, so every
    value meets the same conversion as in a per-row ``fmt % row``.
    """
    fields = []
    for c in columns:
        a = c if isinstance(c, np.ndarray) else np.asarray(c, dtype=object)
        fields += [a.tolist()] if a.ndim == 1 else a.T.tolist()
    n, k = len(fields[0]), len(fields)
    flat = [None] * (n * k)
    for i, f in enumerate(fields):
        flat[i::k] = f
    return ((fmt + "\n") * n) % tuple(flat)


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from None


def read_json(path):
    """The JSON value of a UTF-8 file; a file that cannot be read, decoded or
    parsed, or is nested past the parser's depth, is a FormatError."""
    path = Path(path)
    try:
        return json.loads(_read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from None


def _floats(tok: list[str], path: Path, lineno: int, what: str) -> list[float]:
    """The tokens as finite floats, else a FormatError naming the row."""
    try:
        nums = [float(t) for t in tok]
    except ValueError:
        nums = None
    if nums is None or not all(math.isfinite(v) for v in nums):
        raise FormatError(f"{path}:{lineno}: malformed {what} row")
    return nums


def _triple(header: dict, key: str, kind: type | tuple[type, ...], path: Path) -> tuple:
    """Header value ``key`` as three finite numbers of type ``kind``."""
    value = header[key]
    if not (isinstance(value, list) and len(value) == 3
            and all(isinstance(v, kind) and not isinstance(v, bool)
                    and math.isfinite(v) for v in value)):
        noun = "integers" if kind is int else "finite numbers"
        raise FormatError(f"{path}: {key} must be an array of 3 {noun}, got {value!r:.40}")
    return tuple(value)


def write_mesh(mesh: Mesh, path) -> None:
    parts = [(pid, p.name, p.role.value) for pid, p in sorted(mesh.part_table.items())]
    Path(path).write_text(
        "# tet10 mesh: corners 0-3, midsides on edges 01 12 20 03 13 23\nNODES\n"
        + _table("%d %.17g %.17g %.17g", np.arange(mesh.n_nodes), mesh.nodes)
        + "ELEMENTS\n"
        + _table("%d %d" + " %d" * 10, np.arange(mesh.n_elements), mesh.parts, mesh.elements)
        + "PARTS\n"
        + _table("%d %s %s", parts))


def read_mesh(path) -> Mesh:
    path = Path(path)
    nodes: list[tuple[float, float, float]] = []
    elements: list[list[int]] = []
    parts: list[int] = []
    table: dict[int, Part] = {}
    section = None
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in ("NODES", "ELEMENTS", "PARTS"):
            section = line
            continue
        tok = line.split()
        try:
            if section == "NODES":
                if len(tok) != 4:
                    raise ValueError("expected 'id x y z'")
                if int(tok[0]) != len(nodes):
                    raise ValueError(f"node ids must be consecutive, got {tok[0]}")
                nodes.append((float(tok[1]), float(tok[2]), float(tok[3])))
            elif section == "ELEMENTS":
                if len(tok) != 12:
                    raise ValueError("expected 'id part n0 .. n9'")
                if int(tok[0]) != len(elements):
                    raise ValueError(f"element ids must be consecutive, got {tok[0]}")
                parts.append(int(tok[1]))
                elements.append([int(t) for t in tok[2:]])
            elif section == "PARTS":
                if len(tok) != 3:
                    raise ValueError("expected 'id name role'")
                pid = int(tok[0])
                if not tok[1].isprintable():
                    raise ValueError(f"part name {tok[1]!r} is not printable")
                if pid in table:
                    raise ValueError(f"duplicate part id {pid}")
                try:
                    role = PartRole(tok[2])
                except ValueError:
                    raise ValueError(f"unknown part role {tok[2]!r}") from None
                table[pid] = Part(tok[1], role)
            else:
                raise ValueError("data before any section header")
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    if not nodes or not elements:
        raise FormatError(f"{path}: mesh file lacks NODES or ELEMENTS")
    try:
        elements_arr = np.array(elements, dtype=np.int64)
        parts_arr = np.array(parts, dtype=np.int64)
    except OverflowError:
        raise FormatError(f"{path}: element or part id out of range") from None
    return Mesh(nodes=np.array(nodes), elements=elements_arr, parts=parts_arr,
                part_table=table)


def read_voxel_grid(header_path) -> VoxelGrid:
    header_path = Path(header_path)
    header = read_json(header_path)
    if not isinstance(header, dict):
        raise FormatError(f"{header_path}: header must be a JSON object")
    for key in ("dims", "spacing_mm", "origin_mm", "dtype", "order", "data_file"):
        if key not in header:
            raise FormatError(f"{header_path}: header lacks {key!r}")
    if header["dtype"] != "f32":
        raise FormatError(f"{header_path}: unsupported dtype {header['dtype']!r}")
    if header["order"] != "x-fastest":
        raise FormatError(f"{header_path}: unsupported order {header['order']!r}")
    dims = _triple(header, "dims", int, header_path)
    spacing = _triple(header, "spacing_mm", (int, float), header_path)
    origin = _triple(header, "origin_mm", (int, float), header_path)
    name = header["data_file"]
    try:
        data_path = header_path.with_name(name)
        values = np.fromfile(data_path, dtype="<f4")
    except (TypeError, ValueError, OSError):
        raise FormatError(f"{header_path}: data file {name!r:.40} not found "
                          f"or unreadable") from None
    expected = dims[0] * dims[1] * dims[2]
    if values.size != expected:
        raise FormatError(f"{data_path}: expected {expected} voxels, found {values.size}")
    try:
        return VoxelGrid(dims=dims, spacing_mm=spacing, origin_mm=origin, values=values)
    except ValueError as exc:
        raise FormatError(f"{header_path}: {exc}") from None


def read_markers(path) -> tuple[np.ndarray, np.ndarray]:
    """Reference and deformed marker positions, (n, 3) each, in step-0 label order."""
    path = Path(path)
    rows: dict[int, dict[str, tuple[float, float, float]]] = {0: {}, 1: {}}
    order: list[str] = []
    for lineno, tok in _csv_rows(path, "label,step,x,y,z", 5):
        label = tok[0]
        if tok[1] not in ("0", "1"):
            raise FormatError(f"{path}:{lineno}: step must be 0 or 1, got {tok[1]!r:.20}")
        step = int(tok[1])
        xyz = tuple(_floats(tok[2:], path, lineno, "marker"))
        if label in rows[step]:
            raise FormatError(f"{path}:{lineno}: duplicate marker {label!r} in step {step}")
        if step == 0:
            order.append(label)
        rows[step][label] = xyz
    if set(rows[0]) != set(rows[1]):
        raise FormatError(f"{path}: markers must appear in both steps")
    if not order:
        raise FormatError(f"{path}: no marker rows")
    return (np.array([rows[0][l] for l in order]),
            np.array([rows[1][l] for l in order]))


def write_cloud(cloud: MeasurementCloud, path) -> None:
    Path(path).write_text("x,y,z,ux,uy,uz\n" + _table(
        ",".join(["%.17g"] * 6), cloud.points, cloud.values))


def read_cloud(path) -> MeasurementCloud:
    path = Path(path)
    pts, vals = [], []
    for lineno, tok in _csv_rows(path, "x,y,z,ux,uy,uz", 6):
        nums = _floats(tok, path, lineno, "cloud")
        pts.append(nums[:3])
        vals.append(nums[3:])
    if not pts:
        raise FormatError(f"{path}: no cloud rows")
    return MeasurementCloud(points=np.array(pts), values=np.array(vals))


def write_displacements(geometry: ReportGeometry, disp: np.ndarray, path) -> None:
    disp = np.asarray(disp, dtype=np.float64).reshape(-1, 3)
    if disp.shape[0] != len(geometry.node_rows):
        raise ValueError("displacement row count must match node count")
    Path(path).write_text("node_id,x,y,z,ux,uy,uz\n" + _table(
        "%s" + ",%.17g" * 3, geometry.node_rows, disp))


def write_strains(geometry: ReportGeometry, field, path) -> None:
    """Strain CSV from a SurfaceStrainField over the geometry's surface."""
    Path(path).write_text("tri_id,cx,cy,cz,roi,eps_max_ue,eps_min_ue\n" + _table(
        "%s,%.10g,%.10g", geometry.strain_rows, field.eps_max_ue, field.eps_min_ue))


def write_materials(mesh: Mesh, materials: MaterialField, path) -> None:
    """Materials CSV: one row per element of ``mesh``; an unset value is an empty cell."""
    parts = [mesh.part_table[p] for p in mesh.parts.tolist()]
    e, nu = (np.where(np.isnan(v), "", _table("%.10g", v).split("\n")[:-1])
             for v in (materials.e_mpa, materials.nu))
    Path(path).write_text("element_id,part,role,e_mpa,nu,provenance\n" + _table(
        "%d,%s,%s,%s,%s,%s", np.arange(mesh.n_elements), [(p.name, p.role.value) for p in parts],
        e, nu, [Provenance(v).name for v in materials.provenance.tolist()]))


def _csv_rows(path: Path, header: str, n_cols: int):
    lines = _read_text(path).splitlines()
    if not lines or lines[0].strip() != header:
        raise FormatError(f"{path}:1: expected header {header!r}")
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        tok = [t.strip() for t in line.split(",")]
        if len(tok) != n_cols:
            raise FormatError(f"{path}:{lineno}: expected {n_cols} columns, got {len(tok)}")
        yield lineno, tok


_XYZ = "%.10g %.10g %.10g"


def _vtk_points(nodes: np.ndarray) -> str:
    return f"POINTS {len(nodes)} double\n" + _table(_XYZ, nodes)


def _vtk_cells(cells: np.ndarray, cell_type: int) -> str:
    m, k = cells.shape
    return (f"CELLS {m} {m * (k + 1)}\n" + _table(f"{k}" + " %d" * k, cells)
            + f"CELL_TYPES {m}\n" + f"{cell_type}\n" * m)


def _vtk_scalars(cell_scalars: dict[str, np.ndarray] | None, m: int) -> dict[str, str]:
    return {name: _table("%.10g", np.asarray(v, dtype=np.float64).reshape(m))
            for name, v in (cell_scalars or {}).items()}


@dataclass(frozen=True)
class ReportGeometry:
    """Report text that does not change between the solves on one mesh.

    Built once per report write by ``of`` and passed to the report writers
    (both CSVs of an entry and both VTK grids), so that a sweep formats its
    geometry once rather than once per modulus.
    """

    surface: SurfaceMesh                # its triangles, over the nodes of ``surface.mesh``
    node_rows: list[str]                # ``id,x,y,z`` of each displacement row
    strain_rows: list[str]              # ``tri_id,cx,cy,cz,roi`` of each strain row
    points: str                         # VTK POINTS block; both grids list every node
    mesh_cells: str                     # tet10 CELLS and CELL_TYPES blocks
    surface_cells: str                  # triangle CELLS and CELL_TYPES blocks
    surface_roi: str                    # the surface grid's ``roi`` cell-scalar values

    @classmethod
    def of(cls, surface: SurfaceMesh, roi: np.ndarray) -> ReportGeometry:
        """The geometry of ``surface`` and its mesh; ``roi`` is the Region
        label of each surface triangle."""
        roi = np.asarray(roi).reshape(surface.n_triangles)
        if not np.isin(roi, list(Region)).all():
            raise ValueError("roi labels must be Region values")
        mesh = surface.mesh
        names = [REGION_NAMES[r] for r in roi.tolist()]
        return cls(surface=surface, node_rows=_table(
                       "%d,%.17g,%.17g,%.17g", np.arange(mesh.n_nodes), mesh.nodes).splitlines(),
                   strain_rows=_table("%d,%.10g,%.10g,%.10g,%s", np.arange(surface.n_triangles),
                                      surface.centroids, names).splitlines(),
                   points=_vtk_points(mesh.nodes),
                   mesh_cells=_vtk_cells(mesh.elements, VTK_QUADRATIC_TETRA),
                   surface_cells=_vtk_cells(surface.triangles, VTK_TRIANGLE),
                   surface_roi=_table("%.10g", roi.astype(np.float64)))


def _write_vtk(path, title: str, n: int, m: int, points: str, cells: str,
               point_vectors: dict[str, np.ndarray] | None,
               cell_scalars: dict[str, str]) -> None:
    """Legacy ASCII unstructured grid from its formatted points, cells and
    cell-scalar blocks; attribute blocks in sorted name order."""
    text = [f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n",
            points, cells]
    if point_vectors:
        text.append(f"POINT_DATA {n}\n")
        for name in sorted(point_vectors):
            vectors = np.asarray(point_vectors[name], dtype=np.float64).reshape(n, 3)
            text += [f"VECTORS {name} double\n", _table(_XYZ, vectors)]
    if cell_scalars:
        text.append(f"CELL_DATA {m}\n")
        for name in sorted(cell_scalars):
            text += [f"SCALARS {name} double 1\nLOOKUP_TABLE default\n", cell_scalars[name]]
    Path(path).write_text("".join(text))


def write_vtk_mesh(geometry: ReportGeometry, path,
                   point_vectors: dict[str, np.ndarray] | None = None,
                   cell_scalars: dict[str, np.ndarray] | None = None,
                   title: str = "tet10 mesh") -> None:
    mesh = geometry.surface.mesh
    _write_vtk(path, title, mesh.n_nodes, mesh.n_elements, geometry.points,
               geometry.mesh_cells, point_vectors, _vtk_scalars(cell_scalars, mesh.n_elements))


def write_vtk_surface(geometry: ReportGeometry, path,
                      cell_scalars: dict[str, np.ndarray] | None = None,
                      title: str = "boundary surface") -> None:
    """Surface triangles as a VTK grid over the full node list, with the
    geometry's ``roi`` scalars beside ``cell_scalars``."""
    if cell_scalars and "roi" in cell_scalars:
        raise ValueError("the surface grid's roi scalars come from its ReportGeometry")
    surface = geometry.surface
    m = surface.n_triangles
    _write_vtk(path, title, surface.mesh.n_nodes, m, geometry.points, geometry.surface_cells,
               None, {**_vtk_scalars(cell_scalars, m), "roi": geometry.surface_roi})

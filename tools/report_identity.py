"""Check that this tree writes the same artifacts as a git revision.

    python3 tools/report_identity.py REF

Exports REF with ``git archive`` into a temporary directory.  Then it
runs the same CLI commands from that export and from the working tree
this script sits in, on the trend phantom (8,613 DOFs) and under
``OPENBLAS_NUM_THREADS=1``:

- ``sweep`` at seeds 1 and 7 (six moduli, synthetic cloud, all reports),
- ``synth-dic`` (the cloud CSV),
- ``solve --e-disc 25`` and ``compare --e-disc 25`` against that cloud,
- ``compare --e-disc 25`` against that cloud without its data rows 0, 3,
  6, ..., which leaves 573 of its 860 sites and strain windows at only
  33 of them, so the strain comparison runs over part of the surface,
- ``fit-disc`` aiming at the 25 MPa reaction (``fit_disc.json``),
- ``phantom`` (the mesh text) and ``map`` (the materials CSV),
- ``map`` and ``solve --e-disc 25`` once more with the vertebrae mapped
  from a voxel grid instead of ``constant_hu``: 2 mm voxels from
  (-1, -1, -1) mm over the whole phantom, holding 600 + 4x + 2z HU, so
  that the trilinear weights matter.

Every file either tree writes (91 of them) is compared byte for byte;
the thinned cloud and the grid sit outside the compared directory.
It also prints the non-blank line count of ``src/spinefe`` in both trees,
so that a change's line delta can be read off its log.
The exit status is 0 when all are identical and 1 otherwise; each
differing, missing or extra file is listed.  Under each differing
``.json`` file go the key paths whose values differ, with list indices
collapsed (``entries[].angle_deg``), so a change can name the report
keys it moves.  Under every differing file goes the largest relative
difference between its numbers and the other tree's, token by token,
with the line it sits on, so a change that moves reports within the
solver tolerance shows how far; a file whose text outside its numbers
differs, or that holds another count of numbers, is reported as having
another token layout.  A shallow checkout may lack
an earlier REF, but always has HEAD: against HEAD, a clean tree checks
that two fresh copies of one commit write identical artifacts.  Takes
about 15 s on two cores.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

TREND_CONFIG = {
    "phantom": {"nx": 5, "ny": 4, "nz_vertebra": 4, "nz_disc": 2, "nz_pot": 2},
    "constant_hu": 800.0,
    "sweep_e_disc_mpa": [4.15, 10.0, 25.0, 30.0, 35.0, 50.0],
    "loading": {"flexion_angle_deg": 2.0, "compression_mm": 0.5},
    "synthetic": {"spacing_mm": 2.0, "systematic_um": 10.0, "random_um": 25.0},
    "seed": 1,
}

# (output directory, CLI arguments after --config/--out)
RUNS = (
    ("sweep_seed1", ["--seed", "1", "sweep"]),
    ("sweep_seed7", ["--seed", "7", "sweep"]),
    ("synth_dic", ["synth-dic"]),
    ("solve_25", ["solve", "--e-disc", "25"]),
    ("compare_25", ["compare", "--e-disc", "25", "--cloud", "{synth_dic}/cloud.csv"]),
    ("compare_25_partial", ["compare", "--e-disc", "25", "--cloud", "{partial_cloud}"]),
    ("fit_disc", ["fit-disc", "--target-force", "4535.701067776638", "--bracket", "5", "60"]),
    ("phantom", ["phantom"]),
    ("map", ["map"]),
)

# run on the config that write_grid writes
GRID_RUNS = (
    ("grid_map", ["map"]),
    ("grid_solve_25", ["solve", "--e-disc", "25"]),
)

# voxel centres at -1, 1, ..., 41 x 29 x 79 mm: the trend phantom's
# 40 x 30 x 78 mm box and 1 mm past it
GRID_DIMS = (22, 17, 41)


def export(ref: str, dest: Path) -> None:
    """``git archive REF`` unpacked into ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def write_grid(work: Path) -> Path:
    """The voxel grid of GRID_RUNS in ``work`` and the config mapping from
    it; returns the config's path."""
    x, _, z = np.meshgrid(*(2.0 * np.arange(n) - 1.0 for n in GRID_DIMS), indexing="ij")
    hu = (600.0 + 4.0 * x + 2.0 * z).astype("<f4")
    hu.transpose(2, 1, 0).tofile(work / "grid.raw")                     # x-fastest
    (work / "grid.json").write_text(json.dumps({
        "dims": GRID_DIMS, "spacing_mm": [2.0] * 3, "origin_mm": [-1.0] * 3,
        "dtype": "f32", "order": "x-fastest", "data_file": "grid.raw"}))
    config = {k: v for k, v in TREND_CONFIG.items() if k != "constant_hu"}
    path = work / "trend_grid.json"
    path.write_text(json.dumps(dict(config, voxel_grid_path=str(work / "grid.json"))))
    return path


def write_partial_cloud(cloud: Path, dest: Path) -> None:
    """``cloud`` without its data rows 0, 3, 6, ..."""
    header, *rows = cloud.read_text().splitlines(keepends=True)
    dest.write_text(header + "".join(row for i, row in enumerate(rows) if i % 3))


def run_all(tree: Path, out: Path, config: Path, runs=RUNS) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    partial_cloud = out.with_name(out.name + "_partial_cloud.csv")
    for name, args in runs:
        if name == "compare_25_partial":
            write_partial_cloud(out / "synth_dic" / "cloud.csv", partial_cloud)
        args = [a.format(synth_dic=out / "synth_dic", partial_cloud=partial_cloud)
                for a in args]
        proc = subprocess.run(
            [sys.executable, "-m", "spinefe.cli", "--config", str(config),
             "--out", str(out / name), *args],
            cwd=tree, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{tree}: {name} failed ({proc.returncode}):\n{proc.stderr}")


def differing_keys(a, b, path: str = "") -> set[str]:
    """Key paths under which two decoded JSON values differ; every list
    index is written ``[]``, and a missing key or a list of another
    length counts as a difference at its own path."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = set()
        for k in a.keys() | b.keys():
            sub = f"{path}.{k}" if path else k
            keys |= differing_keys(a[k], b[k], sub) if k in a and k in b else {sub}
        return keys
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return set().union(*(differing_keys(x, y, path + "[]") for x, y in zip(a, b)))
    same = a == b or a != a and b != b  # NaN reads back as NaN
    return set() if same else {path or "(root)"}


# a number standing alone: not part of a word such as ``tet10``
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"|nan|NaN|inf|Infinity)(?![\w.])")


def relative_difference(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|): 0 for equal values (two NaNs included),
    inf where only one is finite."""
    if a == b or a != a and b != b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def numeric_difference(ref_text: str, this_text: str) -> str:
    """The largest relative difference between the numbers of two texts
    and where it is, or a note that their token layouts differ."""
    (ref_rest, ref_nums), (this_rest, this_nums) = (
        (NUMBER.split(t), NUMBER.findall(t)) for t in (ref_text, this_text))
    if ref_rest != this_rest:
        return "token layout differs"
    worst, at = 0.0, 0
    for i, (a, b) in enumerate(zip(ref_nums, this_nums)):
        rel = relative_difference(float(a), float(b))
        if rel > worst:
            worst, at = rel, i
    line = 1 + sum(part.count("\n") for part in ref_rest[:at + 1])
    return (f"largest relative difference {worst:.3g} over {len(ref_nums)} numbers "
            f"(line {line}: {ref_nums[at]} vs {this_nums[at]})")


def describe(name: str, ref: Path, this: Path) -> list[str]:
    """The ``differs:`` line of one file, its largest numeric difference,
    and its key paths if it is JSON."""
    ref_text, this_text = ref.read_text(), this.read_text()
    lines = [f"differs: {name}", f"    numbers: {numeric_difference(ref_text, this_text)}"]
    if name.endswith(".json"):
        keys = differing_keys(json.loads(ref_text), json.loads(this_text))
        lines += [f"    {k}" for k in sorted(keys)]
    return lines


def source_lines(tree: Path) -> int:
    """Non-blank lines of the Python files under ``tree/src/spinefe``."""
    return sum(1 for f in (tree / "src" / "spinefe").rglob("*.py")
               for line in f.read_text().splitlines() if line.strip())


def files_under(top: Path) -> dict[str, Path]:
    return {str(p.relative_to(top)): p for p in sorted(top.rglob("*")) if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision to compare against, e.g. HEAD~1")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="report_identity_") as tmp:
        work = Path(tmp)
        ref_tree = work / "ref_tree"
        export(args.ref, ref_tree)
        config = work / "trend.json"
        config.write_text(json.dumps(TREND_CONFIG))
        grid_config = write_grid(work)
        for tree, out in ((ref_tree, work / "out_ref"), (ROOT, work / "out_this")):
            run_all(tree, out, config)
            run_all(tree, out, grid_config, GRID_RUNS)

        ref_files, this_files = files_under(work / "out_ref"), files_under(work / "out_this")
        problems = [f"only in {args.ref}: {n}" for n in sorted(set(ref_files) - set(this_files))]
        problems += [f"only in this tree: {n}" for n in sorted(set(this_files) - set(ref_files))]
        for line in problems:
            print(line)
        common = sorted(set(ref_files) & set(this_files))
        differing = [n for n in common
                     if ref_files[n].read_bytes() != this_files[n].read_bytes()]
        for n in differing:
            print("\n".join(describe(n, ref_files[n], this_files[n])))
        print(f"src/spinefe non-blank lines: {source_lines(ref_tree)} in {args.ref}, "
              f"{source_lines(ROOT)} in this tree")
        n_problems = len(problems) + len(differing)
        print(f"{len(common)} files compared against {args.ref}: "
              + ("identical" if not n_problems else f"{n_problems} problem(s)"))
        return 1 if n_problems else 0


if __name__ == "__main__":
    sys.exit(main())

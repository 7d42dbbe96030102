"""Check that this tree writes the same artifacts as a git revision.

    python3 tools/report_identity.py REF

Exports REF with ``git archive`` into a temporary directory.  Then it
runs the same CLI commands from that export and from the working tree
this script sits in, on the trend phantom (8,613 DOFs) and under
``OPENBLAS_NUM_THREADS=1``:

- ``sweep`` at seeds 1 and 7 (six moduli, synthetic cloud, all reports),
- ``synth-dic`` (the cloud CSV),
- ``solve --e-disc 25`` and ``compare --e-disc 25`` against that cloud,
- ``fit-disc`` aiming at the 25 MPa reaction (``fit_disc.json``),
- ``phantom`` (the mesh text) and ``map`` (the materials CSV).

Every file either tree writes is compared byte for byte.  The exit
status is 0 when all are identical and 1 otherwise; each differing,
missing or extra file is listed.  Run it from a full clone: a shallow
checkout may lack REF.  Takes about 20 s on two cores.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

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
    ("fit_disc", ["fit-disc", "--target-force", "4535.701067776638", "--bracket", "5", "60"]),
    ("phantom", ["phantom"]),
    ("map", ["map"]),
)


def export(ref: str, dest: Path) -> None:
    """``git archive REF`` unpacked into ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_all(tree: Path, out: Path, config: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    for name, args in RUNS:
        args = [a.format(synth_dic=out / "synth_dic") for a in args]
        proc = subprocess.run(
            [sys.executable, "-m", "spinefe.cli", "--config", str(config),
             "--out", str(out / name), *args],
            cwd=tree, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{tree}: {name} failed ({proc.returncode}):\n{proc.stderr}")


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
        run_all(ref_tree, work / "out_ref", config)
        run_all(ROOT, work / "out_this", config)

        ref_files, this_files = files_under(work / "out_ref"), files_under(work / "out_this")
        problems = [f"only in {args.ref}: {n}" for n in sorted(set(ref_files) - set(this_files))]
        problems += [f"only in this tree: {n}" for n in sorted(set(this_files) - set(ref_files))]
        common = sorted(set(ref_files) & set(this_files))
        problems += [f"differs: {n}" for n in common
                     if ref_files[n].read_bytes() != this_files[n].read_bytes()]
        for line in problems:
            print(line)
        print(f"{len(common)} files compared against {args.ref}: "
              + ("identical" if not problems else f"{len(problems)} problem(s)"))
        return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark workloads: configs, units of work and their output checks.

Every workload drives the public API of ``spinefe.pipeline``.  The
phantom is the trend phantom of ``tests/test_acceptance.py`` (8,613
DOFs), with constant HU 800 and 2 deg flexion plus 0.5 mm compression.
The seed only reaches the synthetic measurement cloud, so reaction
forces do not depend on it and are checked against the reference values
below.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from spinefe import pipeline
from spinefe.errors import SpineFEError

SWEEP_E_DISC = (4.15, 10.0, 25.0, 30.0, 35.0, 50.0)

TREND_PHANTOM = {"nx": 5, "ny": 4, "nz_vertebra": 4, "nz_disc": 2, "nz_pot": 2}

# Reaction magnitudes (N) on the driven pot, per sweep modulus, from the
# Jacobi-PCG solves at relative residual 1e-9.  They do not depend on the
# seed or on the sweep's thread count.
REFERENCE_REACTION_N = (837.6444963784967, 1956.582457669708, 4535.701067776638,
                        5314.19617035441, 6056.841282392392, 8093.209459706296)

# The PCG stop (relative residual 1e-9) leaves a relative reaction error of
# at most 1.3e-7 on these entries, measured against solves to 1e-13.  A
# solver that meets the same stop lands well inside 1e-5; a disc modulus
# off by 0.1 % moves the reaction by about 1e-3.
REACTION_RTOL = 1e-5

# fit-trend aims at the reaction at 25 MPa.
FIT_TARGET_N = REFERENCE_REACTION_N[2]
FIT_TRUE_E_MPA = 25.0
FIT_BRACKET_MPA = (5.0, 60.0)
FIT_RTOL = 5e-3                     # the bound of acceptance check 10

SWEEP_FILES = ("summary.csv", "curves.csv", "sweep_result.json")
ENTRY_FILES = ("displacements.csv", "strains.csv", "report.json",
               "solution.vtk", "surface_strains.vtk")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``unit_s`` is the wall time of one unit on the 2-core VM where the
    benchmark was defined, in the host's slower phases.  It fixes how many
    units a run of ``--seconds`` does, so that two commits always do the
    same work per run and a run rarely outlasts ``--seconds``.
    """

    name: str
    kind: str                       # "sweep" or "fit"
    threads: int
    unit_s: float

    def units(self, seconds: float) -> int:
        """The unit count nearest to ``seconds`` at the nominal unit time."""
        return max(1, round(seconds / self.unit_s))

    def config(self, seed: int) -> dict:
        return {
            "phantom": dict(TREND_PHANTOM),
            "constant_hu": 800.0,
            "sweep_e_disc_mpa": list(SWEEP_E_DISC),
            "loading": {"flexion_angle_deg": 2.0, "compression_mm": 0.5},
            "synthetic": {"spacing_mm": 2.0, "systematic_um": 10.0,
                          "random_um": 25.0},
            "seed": seed,
            "threads": self.threads,
        }


WORKLOADS = {w.name: w for w in (
    Workload("sweep-trend", "sweep", threads=1, unit_s=1.6),
    Workload("fit-trend", "fit", threads=1, unit_s=1.1),
)}


@dataclass
class Tally:
    """Attempted and failed operations: sweep entries, fit calls, checks."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def run_unit(workload: Workload, cfg, outdir: Path):
    """The timed unit of work; returns its result or the error it raised.

    A sweep unit is ``run_sweep`` followed by ``emit_reports`` into
    ``outdir`` (what the ``sweep`` command does); a fit unit is one
    ``fit_disc_to_force``.
    """
    try:
        if workload.kind == "fit":
            return pipeline.fit_disc_to_force(cfg, FIT_TARGET_N, FIT_BRACKET_MPA)
        result = pipeline.run_sweep(cfg)
        pipeline.emit_reports(result, outdir)
        return result
    except SpineFEError as exc:
        return exc


def check_unit(workload: Workload, outcome, outdir: Path, tally: Tally) -> dict:
    """Output checks of one unit; returns the counts the unit produced."""
    counts = {"files": 0, "bytes": 0, "fit_solves": 0}
    if isinstance(outcome, SpineFEError):
        tally.record(False, f"{workload.kind} raised {outcome.category}: {outcome}")
        return counts
    if workload.kind == "fit":
        e_star, counts["fit_solves"] = outcome
        tally.record(True, "")
        rel = abs(e_star - FIT_TRUE_E_MPA) / FIT_TRUE_E_MPA
        tally.record(rel < FIT_RTOL, f"fitted {e_star!r} MPa, off by {rel:.2e}")
        return counts
    _check_sweep(outcome, REFERENCE_REACTION_N, outdir, tally)
    files = [p for p in outdir.rglob("*") if p.is_file()]
    counts["files"] = len(files)
    counts["bytes"] = sum(p.stat().st_size for p in files)
    return counts


def _check_sweep(result, reference, outdir: Path, tally: Tally) -> None:
    entries = result.entries
    for entry in entries:
        tally.record(entry.ok, f"entry {entry.e_disc_mpa:g}: {entry.error}")
    moduli = tuple(e.e_disc_mpa for e in entries)
    for entry, want in zip(entries, reference):
        got = entry.reaction_mag_n
        tally.record(got is not None and math.isclose(got, want, rel_tol=REACTION_RTOL),
                     f"entry {entry.e_disc_mpa:g}: reaction {got!r} N, "
                     f"reference {want!r} N")
    mags = [e.reaction_mag_n for e in entries]
    rising = (moduli == SWEEP_E_DISC and None not in mags
              and all(a < b for a, b in zip(mags, mags[1:])))
    tally.record(rising, f"reactions {mags} do not rise strictly with {moduli}")
    tally.record(_reports_complete(result, outdir),
                 f"reports under {outdir} are incomplete or disagree with the sweep")


def _reports_complete(result, outdir: Path) -> bool:
    names = list(SWEEP_FILES) + [f"e_disc_{e.e_disc_mpa:g}/{f}"
                                 for e in result.entries for f in ENTRY_FILES]
    if not all((outdir / n).is_file() and (outdir / n).stat().st_size > 0
               for n in names):
        return False
    try:
        saved = json.loads((outdir / "sweep_result.json").read_text())["entries"]
    except (OSError, ValueError, KeyError):
        return False
    return [d["reaction_mag_n"] for d in saved] == [e.reaction_mag_n
                                                    for e in result.entries]

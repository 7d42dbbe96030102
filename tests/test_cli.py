import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_io import ODD_TOKENS, mutate_one_token

import spinefe
from spinefe.cli import main
from spinefe.errors import SpineFEError
from fixture_writers import write_markers
from spinefe.io import ReportGeometry, read_cloud, read_mesh, write_cloud
from spinefe.pipeline import (build_model, load_config, reemit_tables, run_sweep,
                              solve_entry, write_entry)

ENTRY_FILES = ("displacements.csv", "strains.csv", "solution.vtk",
               "surface_strains.vtk")


def assert_same_files(a, b, names):
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def write_alone(model, entry, outdir):
    """``entry``'s artifacts, with the model's report geometry formatted for it alone."""
    write_entry(model, entry, outdir, ReportGeometry.of(model.mesh, model.observed, model.rois))


def write_config(tmp_path, **over):
    cfg = {
        "phantom": {"width_mm": 6.0, "depth_mm": 6.0,
                    "vertebra_height_mm": 4.0, "disc_height_mm": 2.0,
                    "pot_height_mm": 2.0, "n_vertebrae": 2,
                    "nx": 3, "ny": 3, "nz_vertebra": 2, "nz_disc": 1,
                    "nz_pot": 1},
        "constant_hu": 800.0,
        "sweep_e_disc_mpa": [10.0, 25.0],
        "synthetic": {"spacing_mm": 1.0, "systematic_um": 0.0,
                      "random_um": 0.0},
        "loading": {"flexion_angle_deg": 1.0, "compression_mm": 0.2},
        "output_dir": str(tmp_path / "out"),
        "seed": 3,
    }
    cfg.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestParsing:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["--config", "x.json", "invert"])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["--config", "x.json", "solve", "--order", "3"])
        assert err.value.code == 2

    def test_fit_disc_requires_target_and_bracket(self):
        with pytest.raises(SystemExit) as err:
            main(["--config", "x.json", "fit-disc"])
        assert err.value.code == 2

    def test_missing_config_is_domain_error(self, capsys):
        assert main(["phantom"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:config:")
        assert "--config" in err


class TestPhantomCommand:
    def test_writes_mesh(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "phantom"]) == 0
        out = capsys.readouterr().out
        mesh_path = tmp_path / "out" / "mesh.txt"
        assert mesh_path.exists()
        mesh = read_mesh(mesh_path)
        assert f"{mesh.n_nodes} nodes" in out
        assert len(mesh.part_table) == 5

    def test_requires_phantom_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "phantom"]) == 0
        data = json.loads(cfg.read_text())
        del data["phantom"]
        data["mesh_path"] = str(tmp_path / "out" / "mesh.txt")
        cfg.write_text(json.dumps(data))
        assert main(["--config", str(cfg), "phantom"]) == 1
        assert "error:config:" in capsys.readouterr().err

    def test_out_override(self, tmp_path):
        cfg = write_config(tmp_path)
        other = tmp_path / "elsewhere"
        assert main(["--config", str(cfg), "--out", str(other), "phantom"]) == 0
        assert (other / "mesh.txt").exists()


class TestMapCommand:
    def test_writes_material_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "map"]) == 0
        path = tmp_path / "out" / "materials.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "element_id,part,role,e_mpa,nu,provenance"
        provs = {l.split(",")[-1] for l in lines[1:]}
        assert provs == {"MAPPED", "UNIFORM", "UNSET"}
        disc_rows = [l for l in lines[1:] if ",DISC," in l]
        assert disc_rows and all(r.endswith(",,UNSET") for r in disc_rows)
        assert "mapped elements" in capsys.readouterr().out


class TestSolveCommand:
    def test_artifacts_and_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "solve", "--e-disc", "25"]) == 0
        out_dir = tmp_path / "out"
        for name in ("displacements.csv", "strains.csv", "solution.vtk",
                     "entry.json"):
            assert (out_dir / name).exists()
        entry = json.loads((out_dir / "entry.json").read_text())
        assert entry["e_disc_mpa"] == 25.0
        assert entry["ok"] is True
        assert entry["solver"]["iterations"] > 0
        assert "wall_time_s" not in entry["solver"]
        out = capsys.readouterr().out
        assert "reaction on driven pot" in out

    def test_default_modulus_is_first_sweep_value(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "solve"]) == 0
        entry = json.loads((tmp_path / "out" / "entry.json").read_text())
        assert entry["e_disc_mpa"] == 10.0

    def test_first_sweep_modulus_matches_byte_for_byte(self, tmp_path):
        # the sweep's first solve is cold too, and later entries reuse it
        cfg = write_config(tmp_path)
        sweep, solve = tmp_path / "sweep", tmp_path / "solve"
        assert main(["--config", str(cfg), "--out", str(sweep), "sweep"]) == 0
        assert main(["--config", str(cfg), "--out", str(solve), "solve"]) == 0
        assert_same_files(sweep / "e_disc_10", solve, ENTRY_FILES)

    def test_solver_failure_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solver={"max_iter": 1})
        assert main(["--config", str(cfg), "solve"]) == 1
        assert capsys.readouterr().err.startswith("error:convergence:")

    def test_artifacts_match_sweep_entry(self, tmp_path):
        # a sweep entry is seeded from the fields before it; the command's
        # cold solve on a fresh model is the pipeline's, byte for byte
        cfg = write_config(tmp_path)
        ref, solve = tmp_path / "ref", tmp_path / "solve"
        model = build_model(load_config(cfg))
        write_alone(model, solve_entry(model, 25.0), ref)
        assert main(["--config", str(cfg), "--out", str(solve),
                     "solve", "--e-disc", "25"]) == 0
        assert_same_files(ref, solve, ENTRY_FILES)


class TestSweepCommand:
    def test_full_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "sweep"]) == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "curves.csv").exists()
        assert (out_dir / "sweep_result.json").exists()
        assert (out_dir / "e_disc_10" / "report.json").exists()
        assert (out_dir / "e_disc_25" / "solution.vtk").exists()
        out = capsys.readouterr().out
        assert "e_disc 10 MPa" in out and "e_disc 25 MPa" in out

    def test_failed_reference_solve_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solver={"max_iter": 1})
        assert main(["--config", str(cfg), "sweep"]) == 1
        assert "error:config:" in capsys.readouterr().err


class TestFitDiscCommand:
    def test_fit_and_artifact(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "solve", "--e-disc", "25"]) == 0
        target = json.loads(
            (tmp_path / "out" / "entry.json").read_text())["reaction_mag_n"]
        capsys.readouterr()
        assert main(["--config", str(cfg), "fit-disc",
                     "--target-force", str(target),
                     "--bracket", "5", "60"]) == 0
        payload = json.loads((tmp_path / "out" / "fit_disc.json").read_text())
        assert payload["target_force_n"] == target
        assert payload["e_disc_mpa"] == pytest.approx(25.0, rel=5e-3)
        assert payload["solves"] <= 30
        assert "fitted disc modulus" in capsys.readouterr().out

    def test_unbracketed_target_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "fit-disc",
                     "--target-force", "1e9", "--bracket", "2", "80"]) == 1
        assert capsys.readouterr().err.startswith("error:bracket:")


class TestSynthDicCommand:
    def test_writes_cloud(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "synth-dic", "--e-disc", "25"]) == 0
        cloud = read_cloud(tmp_path / "out" / "cloud.csv")
        assert cloud.n_points > 50
        assert "wrote" in capsys.readouterr().out

    def test_seed_changes_cloud(self, tmp_path):
        cfg = write_config(tmp_path, synthetic={"spacing_mm": 1.0,
                                                "systematic_um": 10.0,
                                                "random_um": 25.0})
        a, b, c = (tmp_path / n for n in ("a", "b", "c"))
        main(["--config", str(cfg), "--out", str(a), "--seed", "1", "synth-dic"])
        main(["--config", str(cfg), "--out", str(b), "--seed", "1", "synth-dic"])
        main(["--config", str(cfg), "--out", str(c), "--seed", "2", "synth-dic"])
        assert (a / "cloud.csv").read_bytes() == (b / "cloud.csv").read_bytes()
        assert (a / "cloud.csv").read_bytes() != (c / "cloud.csv").read_bytes()

    def test_noise_flags_override(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["--config", str(cfg), "--out", str(a), "synth-dic"])
        main(["--config", str(cfg), "--out", str(b), "synth-dic",
              "--rand-um", "100"])
        ca = read_cloud(a / "cloud.csv")
        cb = read_cloud(b / "cloud.csv")
        assert cb.values.std() > ca.values.std()

    def test_cloud_is_the_sweep_cloud(self, tmp_path):
        cfg = write_config(tmp_path, synthetic={"spacing_mm": 1.0,
                                                "systematic_um": 10.0,
                                                "random_um": 25.0})
        assert main(["--config", str(cfg), "synth-dic"]) == 0
        write_cloud(run_sweep(load_config(cfg)).cloud, tmp_path / "sweep_cloud.csv")
        assert ((tmp_path / "out" / "cloud.csv").read_bytes()
                == (tmp_path / "sweep_cloud.csv").read_bytes())

    @pytest.mark.parametrize("spacing", ["1e-300", "1e-5"])
    def test_spacing_too_fine_to_sample_is_one_config_error_line(self, tmp_path, capsys,
                                                                spacing):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "synth-dic", "--spacing", spacing]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:config: synthetic.spacing_mm")
        assert not (tmp_path / "out" / "cloud.csv").exists()

    def test_failed_reference_solve_is_the_sweep_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solver={"max_iter": 1})
        assert main(["--config", str(cfg), "synth-dic"]) == 1
        assert capsys.readouterr().err.startswith(
            "error:config: reference solve for synthetic cloud failed:")


class TestCompareCommand:
    def test_round_trip_against_synthetic_cloud(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "synth-dic", "--e-disc", "25"]) == 0
        capsys.readouterr()
        assert main(["--config", str(cfg), "compare",
                     "--cloud", str(tmp_path / "out" / "cloud.csv"),
                     "--e-disc", "25"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["displacement"]["pooled"]["rmse"] == 0.0
        out = capsys.readouterr().out.splitlines()
        assert any(line.startswith("displacement: rmse") for line in out)
        # each strain line states the report's all/total figures
        for q in ("eps_max", "eps_min"):
            blk = next(b for b in report["strain"]
                       if b["part"] == "all" and b["quantity"] == q)
            tot = blk["per_roi"]["total"]
            assert (f"{q}: rmse {tot['rmse']:.6g} ue, r2 {tot['r2']:.4f}, "
                    f"ks_d {blk['ks_d']:.4f}") in out

    def test_artifacts_match_sweep_entry(self, tmp_path):
        # the sweep's cloud (see TestSynthDicCommand), compared by the
        # command's cold solve on a fresh model: the pipeline's artifacts
        cfg = write_config(tmp_path)
        ref, cmp = tmp_path / "ref", tmp_path / "cmp"
        assert main(["--config", str(cfg), "--out", str(cmp), "synth-dic"]) == 0
        assert main(["--config", str(cfg), "--out", str(cmp), "compare",
                     "--cloud", str(cmp / "cloud.csv"), "--e-disc", "25"]) == 0
        model = build_model(load_config(cfg))
        cloud = read_cloud(cmp / "cloud.csv")
        write_alone(model, solve_entry(model, 25.0, compare_cloud=cloud), ref)
        assert_same_files(ref, cmp, ENTRY_FILES + ("report.json",))

    def test_needs_cloud(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "compare"]) == 1
        assert "error:config:" in capsys.readouterr().err

    def test_bad_cloud_file_is_format_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,cloud\n")
        assert main(["--config", str(cfg), "compare", "--cloud", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error:format:")


class TestMalformedConfig:
    @pytest.mark.parametrize("over", [{"roi_axis": 5}, {"seed": "x"}],
                             ids=["roi_axis", "seed"])
    def test_mistyped_value_is_one_config_error_line(self, tmp_path, capsys, over):
        cfg = write_config(tmp_path, **over)
        assert main(["--config", str(cfg), "sweep"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:config:")

    @pytest.mark.parametrize("argv", [
        ["synth-dic", "--spacing", "0"], ["synth-dic", "--spacing", "-2"],
        ["synth-dic", "--rand-um", "-1"], ["synth-dic", "--sys-um", "-1"],
        ["synth-dic", "--rand-um", "inf"], ["synth-dic", "--e-disc", "0"],
        ["--seed", "-1", "sweep"], ["solve", "--e-disc", "0"], ["solve", "--e-disc", "-5"],
        ["solve", "--e-disc", "nan"],
        ["fit-disc", "--target-force", "100", "--bracket", "5", "60", "--tol-rel", "-1"],
        ["fit-disc", "--target-force", "100", "--bracket", "5", "60", "--max-solves", "0"],
        ["fit-disc", "--target-force", "inf", "--bracket", "5", "60"],
        ["fit-disc", "--target-force", "nan", "--bracket", "5", "60"]],
        ids=["spacing0", "spacing-2", "rand-1", "sys-1", "rand_inf", "e_disc0", "seed-1",
             "solve_e_disc0", "solve_e_disc-5", "solve_e_disc_nan", "tol_rel-1",
             "max_solves0", "target_force_inf", "target_force_nan"])
    def test_out_of_range_flag_is_one_config_error_line(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), *argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:config:")

    @pytest.mark.parametrize("over", [{"roi_fractions": [0.9, 0.1]},
                                      {"comparison": {"idw_power": -2.0}},
                                      {"solver": {"tol": -1.0}},
                                      {"sweep_e_disc_mpa": [10.0, 10.0000001]},
                                      {"sweep_e_disc_mpa": [25.0, 25.0]},
                                      {"max_edge_mm": -1.0}, {"max_edge_mm": 0},
                                      {"loading": {"axis": [0, 0, 0]}}],
                             ids=["roi_fractions", "idw_power", "tol",
                                  "sweep_near_repeat", "sweep_repeat",
                                  "max_edge_negative", "max_edge_zero", "zero_axis"])
    def test_out_of_range_value_is_one_config_error_line(self, tmp_path, capsys, over):
        cfg = write_config(tmp_path, **over)
        assert main(["--config", str(cfg), "sweep"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:config:")
        assert "reference solve" not in err[0]

    def test_collinear_markers_are_one_registration_error_line(self, tmp_path, capsys):
        reference = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0],
                              [3.0, 3.0, 3.0]])
        markers = tmp_path / "markers.csv"
        write_markers(list("abcd"), reference, reference + 0.1, markers)
        cfg = write_config(tmp_path, markers_path=str(markers))
        assert main(["--config", str(cfg), "solve", "--e-disc", "25"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:registration:")

    # the overflow of the spliced K_ff(1e308) warns; the failure is the last line
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("command, want", [
        ("solve", "error:solver: starting residual is nan"),
        ("synth-dic", "error:config: reference solve for synthetic cloud failed: solver: ")])
    def test_overflowing_modulus_is_a_solver_error(self, tmp_path, capsys, command, want):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), command, "--e-disc", "1e308"]) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith(want)
        assert not (tmp_path / "out" / "entry.json").exists()
        assert not (tmp_path / "out" / "cloud.csv").exists()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_voxel_is_one_format_error_line(self, tmp_path, capsys, bad):
        # the grid covers the phantom, so only the bad voxel can fail it
        values = np.full(5 * 5 * 9, 800.0)
        values[12] = bad
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"dims": [5, 5, 9], "spacing_mm": [2.0, 2.0, 2.0],
                                    "origin_mm": [-1.0, -1.0, -1.0], "dtype": "f32",
                                    "order": "x-fastest", "data_file": "grid.raw"}))
        values.astype("<f4").tofile(tmp_path / "grid.raw")
        cfg = write_config(tmp_path, constant_hu=None, voxel_grid_path=str(grid))
        for command in (["map"], ["solve", "--e-disc", "25"]):
            assert main(["--config", str(cfg), *command]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:format:"), err
            assert "voxel value 12" in err[0]

    def test_missing_mesh_file_is_one_format_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, phantom=None, mesh_path=str(tmp_path / "none.txt"))
        assert main(["--config", str(cfg), "sweep"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:format:")


class TestReportCommand:
    def test_rebuilds_tables(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "sweep"]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "out"
        summary = (out_dir / "summary.csv").read_bytes()
        (out_dir / "summary.csv").unlink()
        (out_dir / "curves.csv").unlink()
        assert main(["--config", str(cfg), "report"]) == 0
        assert (out_dir / "summary.csv").read_bytes() == summary
        assert "wrote" in capsys.readouterr().out

    def test_explicit_result_path(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["--config", str(cfg), "sweep"])
        other = tmp_path / "rebuilt"
        assert main(["--config", str(cfg), "--out", str(other), "report",
                     "--result", str(tmp_path / "out" / "sweep_result.json")]) == 0
        assert (other / "summary.csv").exists()

    def test_missing_result_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "report"]) == 1
        assert capsys.readouterr().err.startswith("error:config:")


@pytest.fixture(scope="module")
def sweep_result(tmp_path_factory):
    """The text of a valid sweep_result.json from a tiny CLI sweep."""
    tmp = tmp_path_factory.mktemp("sweep")
    assert main(["--config", str(write_config(tmp)), "sweep"]) == 0
    return (tmp / "out" / "sweep_result.json").read_text()


def _set(path, value):
    def edit(data):
        *keys, last = path
        for key in keys:
            data = data[key]
        data[last] = value
    return edit


def _drop(path):
    def edit(data):
        *keys, last = path
        for key in keys:
            data = data[key]
        del data[last]
    return edit


MALFORMED_RESULTS = {
    "empty entry": _set(["entries"], [{}]),
    "entries not a list": _set(["entries"], 5),
    "top level not an object": lambda data: [data],
    "failed entry without error": _set(["entries", 0], {"e_disc_mpa": 10.0, "ok": False}),
    "report without ux": _drop(["entries", 0, "report", "displacement", "ux"]),
    "two-component reaction": _set(["entries", 0, "reaction_n"], [1.0, 2.0]),
    "string modulus": _set(["entries", 1, "e_disc_mpa"], "25"),
    "no all/eps_min block": lambda data: data["entries"][0]["report"].update(strain=[
        b for b in data["entries"][0]["report"]["strain"] if b["quantity"] != "eps_min"]),
    "text statistic": _set(["entries", 1, "report", "strain", 0, "ks_d"], "0.5"),
    "text ok": _set(["entries", 0, "ok"], "true"),
    "null reaction magnitude": _set(["entries", 0, "reaction_mag_n"], None),
    "per_roi entry a list": _set(["entries", 0, "report", "strain", 0, "per_roi", "left"],
                                 [0.1, 0.2, 0.3]),
    "roi_mean_measured without total": _drop(
        ["entries", 0, "report", "strain", 0, "roi_mean_measured", "total"]),
    "strain block without part": _drop(["entries", 0, "report", "strain", 0, "part"]),
    "report a list": _set(["entries", 0, "report"], ["displacement", "strain"]),
}


class TestMalformedSweepResult:
    @pytest.mark.parametrize("case", sorted(MALFORMED_RESULTS))
    def test_one_config_error_line_and_no_tables(self, tmp_path, capsys, sweep_result, case):
        data = json.loads(sweep_result)
        data = MALFORMED_RESULTS[case](data) or data
        result = tmp_path / "sweep_result.json"
        result.write_text(json.dumps(data))
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "report", "--result", str(result)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:config:"), err
        assert not (tmp_path / "out" / "summary.csv").exists()

    @settings(max_examples=300, deadline=None)
    @given(fuzz=st.tuples(st.integers(0, 100_000),
                          st.sampled_from(ODD_TOKENS) | st.text(max_size=6)))
    def test_one_mutated_token_writes_tables_or_raises(self, tmp_path_factory,
                                                      sweep_result, fuzz):
        """A valid sweep_result.json with one token replaced either rebuilds
        both tables or raises a SpineFEError, never anything else."""
        tmp = tmp_path_factory.mktemp("mutated")
        result = tmp / "sweep_result.json"
        result.write_text(mutate_one_token(sweep_result, *fuzz), encoding="utf-8")
        try:
            written = reemit_tables(result, tmp)
        except SpineFEError:
            assert not (tmp / "summary.csv").exists()
            return
        assert [p.name for p in written] == ["summary.csv", "curves.csv"]
        assert all(p.exists() for p in written)


class TestDeterminismAcrossThreads:
    def test_sweep_outputs_bitwise_equal(self, tmp_path):
        # the sweep runs in order on one thread; the BLAS thread count of
        # the process must not change a byte of its reports
        cfg = write_config(tmp_path)
        env = dict(os.environ, PYTHONPATH=str(Path(spinefe.__file__).resolve().parents[1]))
        outs = []
        for blas_threads in ("1", "2"):
            outs.append(tmp_path / f"blas_{blas_threads}")
            subprocess.run([sys.executable, "-m", "spinefe.cli", "--config", str(cfg),
                            "--out", str(outs[-1]), "sweep"],
                           env=dict(env, OPENBLAS_NUM_THREADS=blas_threads),
                           check=True, capture_output=True)
        names = ["summary.csv", "curves.csv", "sweep_result.json",
                 "e_disc_10/displacements.csv", "e_disc_10/strains.csv",
                 "e_disc_10/report.json", "e_disc_10/solution.vtk",
                 "e_disc_25/displacements.csv", "e_disc_25/surface_strains.vtk"]
        assert_same_files(outs[0], outs[1], names)

    def test_threads_flag_is_gone(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "--threads", "1", "sweep"])
        assert exc.value.code == 2

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinefe
from spinefe.cli import main
from spinefe.io import read_cloud, read_mesh, write_cloud
from spinefe.pipeline import (build_model, load_config, run_sweep, solve_entry,
                              write_entry)

ENTRY_FILES = ("displacements.csv", "strains.csv", "solution.vtk",
               "surface_strains.vtk")


def assert_same_files(a, b, names):
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


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
        write_entry(model, solve_entry(model, 25.0), ref)
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
        out = capsys.readouterr().out
        assert "displacement: rmse" in out
        assert "eps_max" in out and "eps_min" in out

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
        write_entry(model, solve_entry(model, 25.0, compare_cloud=cloud), ref)
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
                                      {"sweep_e_disc_mpa": [25.0, 25.0]}],
                             ids=["roi_fractions", "idw_power", "tol",
                                  "sweep_near_repeat", "sweep_repeat"])
    def test_out_of_range_value_is_one_config_error_line(self, tmp_path, capsys, over):
        cfg = write_config(tmp_path, **over)
        assert main(["--config", str(cfg), "sweep"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:config:")
        assert "reference solve" not in err[0]

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

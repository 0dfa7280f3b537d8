import mmap
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dustlab import cli, formats, geometry
from dustlab.boxdim import (ScaleSchedule, box_counts, counts_csv_lines, estimate_dimension,
                            window_counts)
from dustlab.cantor import generate_cantor
from dustlab.cli import main
from dustlab.errors import (AssemblyError, BudgetError, ConstructionError, DustError, FormatError,
                            ParameterError, PlacementError, RingUndeterminedError)
from dustlab.formats import parse_bgr, read_cad, write_bgr
from dustlab.geometry import BoxGrid, Square, rasterize


def run(*args):
    return main(list(args))


def unreachable(*args):
    pytest.fail("the input grid was read or built before the flags were checked")


@pytest.fixture()
def dust_bgr(tmp_path):
    path = tmp_path / "dust.bgr"
    code = run("gen", "--alpha", "0.25", "--depth", "4",
               "--grid-out", str(path), "--level", "8")
    assert code == 0
    return path


class TestGen:
    def test_writes_expected_address_count(self, tmp_path):
        out = tmp_path / "c.cad"
        assert run("gen", "--alpha", "0.25", "--depth", "3", "--out", str(out)) == 0
        alpha, depth, words = read_cad(out)
        assert float(alpha) == 0.25
        assert depth == 3
        assert len(words) == 64

    def test_dimension_resolves_alpha(self, tmp_path, capsys):
        out = tmp_path / "c.cad"
        assert run("gen", "--dim", "1.5", "--depth", "2", "--out", str(out)) == 0
        echoed = capsys.readouterr().out
        assert "resolved_alpha=0.3968502629920499" in echoed
        alpha, _, words = read_cad(out)
        assert float(alpha) == pytest.approx(0.39685026299204987, rel=1e-15)
        assert len(words) == 16

    def test_missing_alpha_and_dim_is_usage_error(self, tmp_path):
        assert run("gen", "--depth", "2", "--out", str(tmp_path / "x.cad")) == 2

    def test_both_alpha_and_dim_rejected(self, tmp_path):
        assert run("gen", "--alpha", "0.25", "--dim", "1.0", "--depth", "2",
                   "--out", str(tmp_path / "x.cad")) == 2

    def test_invalid_alpha_rejected(self, tmp_path):
        assert run("gen", "--alpha", "0.5", "--depth", "2",
                   "--out", str(tmp_path / "x.cad")) == 2

    @pytest.mark.parametrize("level", ["10000", "1000000000"])
    def test_huge_level_is_usage_error(self, tmp_path, capsys, level):
        # the budget message must not spell out 4**level
        assert run("gen", "--alpha", "0.25", "--depth", "1", "--grid-out", str(tmp_path / "x.bgr"),
                   "--level", level) == 2
        assert "budget" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_level_over_budget_writes_nothing(self, tmp_path, capsys):
        # the grid level is checked before the config line or any file
        assert run("gen", "--alpha", "0.25", "--depth", "1", "--out", str(tmp_path / "x.cad"),
                   "--grid-out", str(tmp_path / "x.bgr"), "--level", "40") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "budget" in err
        assert list(tmp_path.iterdir()) == []


class TestDim:
    def test_full_square_slope_two(self, tmp_path, capsys):
        grid_path = tmp_path / "full.bgr"
        write_bgr(BoxGrid(Square.unit(), 8, np.ones((256, 256), dtype=bool)), grid_path)
        out = tmp_path / "report.csv"
        assert run("dim", "--in", str(grid_path), "--out", str(out)) == 0
        summary = out.read_text().splitlines()[-1]
        assert summary.startswith("2,")

    def test_dust_slope_one(self, dust_bgr, tmp_path):
        out = tmp_path / "report.csv"
        assert run("dim", "--in", str(dust_bgr), "--levels", "2:8:2",
                   "--out", str(out)) == 0
        slope = float(out.read_text().splitlines()[-1].split(",")[0])
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_empty_grid_flagged(self, tmp_path):
        grid_path = tmp_path / "empty.bgr"
        write_bgr(BoxGrid.empty(Square.unit(), 6), grid_path)
        out = tmp_path / "report.csv"
        assert run("dim", "--in", str(grid_path), "--out", str(out)) == 0
        assert out.read_text().splitlines()[-1].endswith(",empty")

    def test_missing_file_is_io_error(self, tmp_path):
        assert run("dim", "--in", str(tmp_path / "absent.bgr")) == 4

    @pytest.mark.parametrize("header", ["bgr 1 -1 0.0 0.0 1.0", "bgr 1 0 0.0 0.0 nan",
                                        "bgr 1 0 0.0 0.0 -1.0"])
    def test_bad_header_values_are_io_errors(self, tmp_path, capsys, header):
        grid_path = tmp_path / "bad.bgr"
        grid_path.write_text(header + "\n0\n")
        assert run("dim", "--in", str(grid_path)) == 4
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("window", ["3", "a:b", "2:3:4"])
    def test_malformed_window_is_usage_error(self, dust_bgr, tmp_path, capsys, window):
        out = tmp_path / "report.csv"
        assert run("dim", "--in", str(dust_bgr), "--window", window, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad fit window") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("levels, message", [
        ("3,2,1", "levels must be strictly increasing and nonnegative, got (3, 2, 1)"),
        ("2:3", "schedule needs at least 3 levels, got (2, 3)"),
        ("6:2", "schedule needs at least 3 levels, got ()"),
        ("2:8:-1", "schedule needs at least 3 levels, got ()"),
        ("2,4,-6", "levels must be strictly increasing and nonnegative, got (2, 4, -6)")])
    def test_invalid_schedule_reports_its_own_reason(self, tmp_path, capsys, monkeypatch, levels,
                                                     message):
        monkeypatch.setattr(formats, "read_bgr_bands", unreachable)
        out = tmp_path / "report.csv"
        assert run("dim", "--in", "unused.bgr", "--levels", levels, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("levels", ["2:8:0", "2:", "a:b", "1,2,x"])
    def test_malformed_schedule_is_usage_error(self, tmp_path, capsys, monkeypatch, levels):
        monkeypatch.setattr(formats, "read_bgr_bands", unreachable)
        assert run("dim", "--in", "unused.bgr", "--levels", levels) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad level schedule {levels!r}") and "Traceback" not in err

    @pytest.mark.parametrize("levels", ["2:8:2:9", "2:8:1:1", "0:9:3:0:0"])
    def test_span_of_more_than_three_fields_is_refused(self, tmp_path, capsys, monkeypatch, levels):
        # no field past the step is dropped: the span is refused before the grid is read
        monkeypatch.setattr(formats, "read_bgr_bands", unreachable)
        out = tmp_path / "report.csv"
        assert run("dim", "--in", "unused.bgr", "--levels", levels, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad level schedule {levels!r}") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, message", [("--levels", "error: bad level schedule ''"),
                                               ("--window", "error: bad fit window ''")])
    def test_empty_schedule_or_window_is_refused(self, tmp_path, capsys, monkeypatch, flag,
                                                 message):
        # an empty value is a malformed one, not a request for the default
        monkeypatch.setattr(formats, "read_bgr_bands", unreachable)
        out = tmp_path / "report.csv"
        assert run("dim", "--in", "unused.bgr", flag, "", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err
        assert not out.exists()

    def test_malformed_window_is_refused_before_the_grid_is_read(self, capsys, monkeypatch):
        monkeypatch.setattr(formats, "read_bgr_bands", unreachable)
        assert run("dim", "--in", "unused.bgr", "--window", "a:b") == 2
        assert capsys.readouterr().err.startswith("error: bad fit window")

    def test_config_echo_is_first_line(self, dust_bgr, tmp_path):
        out = tmp_path / "report.csv"
        run("dim", "--in", str(dust_bgr), "--out", str(out))
        assert out.read_text().startswith("# config: ")


class TestJohn:
    def test_runs_and_reports_positive_epsilon(self, tmp_path):
        out = tmp_path / "john.csv"
        assert run("john", "--alpha", "0.25", "--depth", "2", "--samples", "40",
                   "--seed", "9", "--out", str(out)) == 0
        summary = out.read_text().splitlines()[-1]
        eps = float(summary.split(",")[1])
        assert eps >= 0.05

    def test_alpha_half_is_usage_error(self, tmp_path):
        assert run("john", "--alpha", "0.5", "--depth", "2", "--samples", "10",
                   "--seed", "1") == 2

    def test_seed_required(self):
        assert run("john", "--alpha", "0.25", "--depth", "2") == 2

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "john.csv"
        assert run("john", "--alpha", "0.25", "--depth", "2", "--samples", "10",
                   "--seed", "-1", "--out", str(out)) == 2
        assert "--seed: expected a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "john.csv"
        assert run("john", "--alpha", "0.25", "--depth", "2", "--samples", "10",
                   "--seed", "1", "--jobs", "0", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: jobs must be at least 1")
        assert not out.exists()

    def test_depth_over_budget_is_refused(self, tmp_path, capsys):
        out = tmp_path / "john.csv"
        assert run("john", "--alpha", "0.25", "--depth", "13", "--samples", "5",
                   "--seed", "1", "--out", str(out)) == 2
        assert "over the budget" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("alpha, depth", [("1e-300", "3"), ("1e-200", "1")])
    def test_unindexable_step_is_usage_error(self, tmp_path, capsys, alpha, depth):
        # alpha**depth / 8 underflows to 0, or 2 / step exceeds 2**53
        out = tmp_path / "john.csv"
        assert run("john", "--alpha", alpha, "--depth", depth, "--samples", "5",
                   "--seed", "1", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid step") and "Traceback" not in err
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run("john", "--alpha", "0.3", "--depth", "2", "--samples", "30",
            "--seed", "4", "--out", str(a))
        run("john", "--alpha", "0.3", "--depth", "2", "--samples", "30",
            "--seed", "4", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestMattila:
    def test_hypothesis_violation_is_usage_error(self, tmp_path):
        # b dimension 1.2 fails the t > 3/2 gate
        assert run("mattila", "--a-alpha", "0.315", "--a-depth", "5", "--level", "8",
                   "--b-dim", "1.2", "--b-depth", "4", "--trials", "5",
                   "--seed", "3") == 2

    def test_level_over_budget_is_usage_error(self, tmp_path, capsys):
        assert run("mattila", "--a-alpha", "0.315", "--a-depth", "5", "--level", "40",
                   "--b-dim", "1.7", "--b-depth", "4", "--trials", "5", "--seed", "3",
                   "--out", str(tmp_path / "survey.csv")) == 2
        assert "budget" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_level_over_budget_is_refused_before_the_dust_is_built(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "generate_cantor", lambda *args: pytest.fail("the dust was built"))
        assert run("mattila", "--a-alpha", "0.3", "--a-depth", "9", "--level", "15",
                   "--b-dim", "1.7", "--b-depth", "4", "--trials", "5", "--seed", "3",
                   "--out", str(tmp_path / "survey.csv")) == 2
        assert "over the budget" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tolerance", ["nan", "inf"])
    def test_non_finite_tolerance_is_usage_error(self, tmp_path, capsys, tolerance):
        out = tmp_path / "survey.csv"
        assert run("mattila", "--a-alpha", "0.315", "--a-depth", "5", "--level", "8",
                   "--b-dim", "1.7", "--b-depth", "4", "--trials", "5", "--tolerance", tolerance,
                   "--seed", "11", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: tolerance must be finite")
        assert not out.exists()

    def test_missing_b_ratio_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "survey.csv"
        assert run("mattila", "--a-alpha", "0.315", "--a-depth", "5", "--level", "8",
                   "--b-depth", "4", "--trials", "5", "--seed", "11", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: one of --b-alpha or --b-dim is required")
        assert not out.exists()

    def test_zero_b_alpha_is_usage_error(self, tmp_path, capsys):
        # a ratio of 0 is refused, not taken as absent
        assert run("mattila", "--a-alpha", "0.315", "--a-depth", "5", "--level", "8",
                   "--b-alpha", "0", "--b-depth", "4", "--trials", "5", "--seed", "11") == 2
        assert capsys.readouterr().err.startswith("error: scale ratio must lie strictly")

    def test_both_b_ratio_flags_rejected(self, tmp_path, capsys):
        assert run("mattila", "--a-alpha", "0.315", "--a-depth", "5", "--level", "8",
                   "--b-alpha", "0.45", "--b-dim", "1.7", "--b-depth", "4", "--trials", "5",
                   "--seed", "11") == 2
        assert capsys.readouterr().err.startswith(
            "error: --b-alpha and --b-dim are mutually exclusive")

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "survey.csv"
        assert run("mattila", "--a-alpha", "0.315", "--a-depth", "5", "--level", "8",
                   "--b-dim", "1.7", "--b-depth", "4", "--trials", "5", "--seed", "-5",
                   "--out", str(out)) == 2
        assert "--seed: expected a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", [["--a-in", "unused.bgr"],
                                        ["--a-alpha", "0.315", "--a-depth", "6", "--level", "13"]])
    @pytest.mark.parametrize("flag, value, message", [
        ("--jobs", "0", "jobs must be at least 1, got 0"),
        ("--trials", "0", "need at least one trial, got 0"),
        ("--tolerance", "nan", "tolerance must be finite, got nan")])
    def test_bad_flag_is_refused_before_the_grid(self, tmp_path, capsys, monkeypatch, source, flag,
                                                 value, message):
        monkeypatch.setattr(formats, "read_bgr", unreachable)
        monkeypatch.setattr(cli, "_raster_dust", unreachable)
        out = tmp_path / "survey.csv"
        assert run("mattila", *source, "--b-dim", "1.7", "--b-depth", "5", "--seed", "11",
                   flag, value, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("source, message", [
        (["--a-in", "unused.bgr", "--a-alpha", "0.315"], "--a-in and --a-alpha are mutually exclusive"),
        ([], "give an input grid with --a-in or --a-alpha")])
    def test_grid_source_other_than_one_is_refused_before_the_grid(self, tmp_path, capsys, monkeypatch,
                                                                  source, message):
        # neither source may silently win, nor the configuration line echo a flag that was ignored
        monkeypatch.setattr(formats, "read_bgr", unreachable)
        monkeypatch.setattr(cli, "_raster_dust", unreachable)
        out = tmp_path / "survey.csv"
        assert run("mattila", *source, "--b-dim", "1.7", "--b-depth", "5", "--seed", "11",
                   "--out", str(out)) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_config_line_echoes_the_level_of_a_read_grid_and_no_generator_flag(self, tmp_path):
        survey = ["--b-dim", "1.7", "--b-depth", "4", "--trials", "20", "--seed", "11"]
        generated, read, grid = tmp_path / "generated.csv", tmp_path / "read.csv", tmp_path / "a8.bgr"
        assert run("mattila", "--a-alpha", "0.315", "--a-depth", "6", "--level", "8", *survey,
                   "--out", str(generated)) == 0
        assert run("gen", "--alpha", "0.315", "--depth", "6", "--level", "8", "--grid-out", str(grid)) == 0
        assert run("mattila", "--a-in", str(grid), *survey, "--out", str(read)) == 0
        generated, read = generated.read_text().splitlines(), read.read_text().splitlines()
        assert generated[0] == (
            "# config: a_alpha=0.315 a_depth=6 a_in=None b_alpha=None b_depth=4 b_dim=1.7 command=mattila "
            "jobs=1 level=8 s=1.33561438102 seed=11 t=1.7 tolerance=0.15 trials=20")
        assert read[0] == (
            f"# config: a_in={grid} b_alpha=None b_depth=4 b_dim=1.7 command=mattila "
            "jobs=1 level=8 s=1.33561438102 seed=11 t=1.7 tolerance=0.15 trials=20")
        assert read[1:] == generated[1:]

    def test_survey_runs_and_is_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["mattila", "--a-alpha", "0.315", "--a-depth", "5", "--level", "8",
                "--b-dim", "1.7", "--b-depth", "4", "--trials", "25", "--seed", "11"]
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[-1].startswith("s,")


class TestConstruct:
    def test_missing_input_is_io_error(self, tmp_path):
        assert run("construct", "--in", str(tmp_path / "absent.bgr"),
                   "--seed", "1", "--out-prefix", str(tmp_path / "run")) == 4

    def test_point_raster_short_circuits(self, tmp_path):
        grid_path = tmp_path / "point.bgr"
        bits = np.zeros((64, 64), dtype=bool)
        bits[10, 20] = True
        write_bgr(BoxGrid(Square.unit(), 6, bits), grid_path)
        prefix = tmp_path / "run"
        assert run("construct", "--in", str(grid_path), "--seed", "1",
                   "--out-prefix", str(prefix)) == 0
        eprime = parse_bgr((tmp_path / "run.eprime.bgr").read_bytes())
        assert eprime.occupied_count == 1

    def test_pipeline_writes_all_artifacts(self, tmp_path):
        prefix = tmp_path / "run"
        assert run("construct", "--gen-alpha", "0.4", "--gen-depth", "4",
                   "--level", "9", "--annuli", "4", "--trials", "40",
                   "--seed", "5", "--out-prefix", str(prefix)) == 0
        assert (tmp_path / "run.plan.json").exists()
        assert (tmp_path / "run.g.bgr").exists()
        assert (tmp_path / "run.eprime.bgr").exists()
        report = (tmp_path / "run.report.csv").read_text().splitlines()
        assert report[0].startswith("# config: ")
        assert any(line.startswith("dim_eprime_slope,") for line in report)

    @pytest.mark.parametrize("trials", ["0", "-4"])
    def test_trials_below_one_is_usage_error(self, tmp_path, capsys, trials):
        assert run("construct", "--gen-alpha", "0.4", "--gen-depth", "4", "--level", "9",
                   "--annuli", "4", "--trials", trials, "--seed", "5",
                   "--out-prefix", str(tmp_path / "run")) == 2
        assert capsys.readouterr().err.startswith("error: need at least one trial")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("min_mass", ["0", "-3"])
    def test_min_mass_below_one_is_usage_error(self, tmp_path, capsys, min_mass):
        assert run("construct", "--gen-alpha", "0.4", "--gen-depth", "3", "--level", "7",
                   "--min-mass", min_mass, "--trials", "5", "--seed", "1",
                   "--out-prefix", str(tmp_path / "run")) == 2
        assert capsys.readouterr().err.startswith("error: min mass must be at least 1")
        assert list(tmp_path.iterdir()) == []

    # -3 gives per-annulus seeds seed + 1000 * index that are all positive
    @pytest.mark.parametrize("seed", ["-3", "-5000"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, seed):
        assert run("construct", "--gen-alpha", "0.4", "--gen-depth", "3", "--level", "7",
                   "--trials", "5", "--seed", seed, "--out-prefix", str(tmp_path / "run")) == 2
        assert "--seed: expected a non-negative integer" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_level_over_budget_is_usage_error(self, tmp_path, capsys):
        assert run("construct", "--gen-alpha", "0.4", "--gen-depth", "4", "--level", "40",
                   "--seed", "5", "--out-prefix", str(tmp_path / "run")) == 2
        assert "budget" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_level_over_budget_is_refused_before_the_dust_is_built(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "generate_cantor", lambda *args: pytest.fail("the dust was built"))
        assert run("construct", "--gen-alpha", "0.4", "--gen-depth", "9", "--level", "15",
                   "--seed", "5", "--out-prefix", str(tmp_path / "run")) == 2
        assert "over the budget" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_line_echoes_the_level_of_a_read_grid_and_no_generator_flag(self, tmp_path):
        search = ["--annuli", "4", "--trials", "40", "--seed", "5"]
        grid = tmp_path / "e9.bgr"
        assert run("construct", "--gen-alpha", "0.4", "--gen-depth", "4", "--level", "9", *search,
                   "--out-prefix", str(tmp_path / "generated")) == 0
        assert run("gen", "--alpha", "0.4", "--depth", "4", "--level", "9", "--grid-out", str(grid)) == 0
        assert run("construct", "--in", str(grid), *search, "--out-prefix", str(tmp_path / "read")) == 0
        generated = (tmp_path / "generated.report.csv").read_text().splitlines()
        read = (tmp_path / "read.report.csv").read_text().splitlines()
        assert generated[0] == ("# config: annuli=4 command=construct gen_alpha=0.4 gen_depth=4 infile=None "
                                "jobs=1 level=9 min_mass=24 point=0.3759765625:0.3759765625 seed=5 trials=40")
        assert read[0] == (f"# config: annuli=4 command=construct infile={grid} "
                           "jobs=1 level=9 min_mass=24 point=0.3759765625:0.3759765625 seed=5 trials=40")
        assert read[1:] == generated[1:]
        for suffix in ("plan.json", "g.bgr", "eprime.bgr"):
            assert (tmp_path / f"read.{suffix}").read_bytes() == (tmp_path / f"generated.{suffix}").read_bytes()

    @pytest.mark.parametrize("source", [["--in", "unused.bgr"],
                                        ["--gen-alpha", "0.4", "--gen-depth", "5", "--level", "13"]])
    @pytest.mark.parametrize("flag, value, message", [
        ("--jobs", "0", "jobs must be at least 1, got 0"),
        ("--trials", "0", "need at least one trial, got 0"),
        ("--annuli", "1", "need at least 2 annuli, got 1"),
        ("--min-mass", "0", "min mass must be at least 1 cell, got 0")])
    def test_bad_flag_is_refused_before_the_grid(self, tmp_path, capsys, monkeypatch, source, flag,
                                                 value, message):
        monkeypatch.setattr(formats, "read_bgr", unreachable)
        monkeypatch.setattr(cli, "_raster_dust", unreachable)
        assert run("construct", *source, "--seed", "5", flag, value,
                   "--out-prefix", str(tmp_path / "run")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("source, message", [
        (["--in", "unused.bgr", "--gen-alpha", "0.4"], "--in and --gen-alpha are mutually exclusive"),
        ([], "give an input grid with --in or --gen-alpha")])
    def test_grid_source_other_than_one_is_refused_before_the_grid(self, tmp_path, capsys, monkeypatch,
                                                                  source, message):
        monkeypatch.setattr(formats, "read_bgr", unreachable)
        monkeypatch.setattr(cli, "_raster_dust", unreachable)
        assert run("construct", *source, "--seed", "5", "--out-prefix", str(tmp_path / "run")) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_subcommand_is_usage_error(self):
        assert run("frobnicate") == 2


@pytest.mark.parametrize("argv, reports, others", [
    pytest.param(["john", "--alpha", "0.25", "--depth", "4", "--samples", "60", "--seed", "7",
                  "--out", "{d}/j.csv"], ["j.csv"], [], id="john"),
    pytest.param(["mattila", "--a-alpha", "0.315", "--a-depth", "5", "--level", "8", "--b-dim", "1.7",
                  "--b-depth", "4", "--trials", "23", "--seed", "11", "--out", "{d}/survey.csv"],
                 ["survey.csv"], [], id="mattila"),
    pytest.param(["construct", "--gen-alpha", "0.4", "--gen-depth", "4", "--level", "9", "--annuli", "4",
                  "--trials", "40", "--seed", "5", "--out-prefix", "{d}/run"],
                 ["run.report.csv"], ["run.plan.json", "run.g.bgr", "run.eprime.bgr"], id="construct")])
def test_jobs_changes_only_its_echo(tmp_path, capsys, argv, reports, others):
    for jobs in ("1", "3"):
        (tmp_path / jobs).mkdir()
        assert run(*(a.format(d=tmp_path / jobs) for a in argv), "--jobs", jobs) == 0
    capsys.readouterr()
    for name in reports:
        one, three = ((tmp_path / jobs / name).read_text().splitlines() for jobs in ("1", "3"))
        # line 1 echoes the configuration, jobs included; every row after it must match
        assert " jobs=1 " in one[0] and one[0].replace(" jobs=1 ", " jobs=3 ") == three[0]
        assert one[1:] == three[1:]
    for name in others:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "3" / name).read_bytes()


@pytest.mark.parametrize("data", [b"bgr 1 1 0.0 0.0 1.0\n0\xff\n00\n",
                                  b"bgr 1 1 0.0 0.0 1.0\xff\n00\n00\n"])
@pytest.mark.parametrize("command", [
    ["dim", "--in", "{grid}"],
    ["mattila", "--a-in", "{grid}", "--b-dim", "1.7", "--b-depth", "3", "--trials", "2",
     "--seed", "1"],
    ["construct", "--in", "{grid}", "--seed", "1", "--out-prefix", "{prefix}"]])
def test_non_utf8_grid_is_io_error(tmp_path, capsys, command, data):
    grid_path = tmp_path / "bad.bgr"
    grid_path.write_bytes(data)
    args = [a.format(grid=grid_path, prefix=tmp_path / "run") for a in command]
    assert run(*args) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err and "BufferError" not in err
    assert list(tmp_path.iterdir()) == [grid_path]


def loaded(monkeypatch):
    """List that gets the type of data each grid file read decodes (``formats._bands``) and each
    grid ``read_bgr`` returns."""
    seen = []
    load, bands = formats.read_bgr, formats._bands
    monkeypatch.setattr(formats, "read_bgr", lambda path: seen.append(load(path)) or seen[-1])
    monkeypatch.setattr(formats, "_bands", lambda data, rows=None, release=None:
                        seen.append(type(data)) or bands(data, rows, release))
    return seen


def parsed_table(data: bytes, levels: str | None = None) -> list[str]:
    """The lines after its config echo that ``dim`` prints for the grid ``parse_bgr(data)``."""
    grid = parse_bgr(data)
    schedule = cli._parse_levels(levels) if levels else ScaleSchedule.default_for(grid.level)
    counts = box_counts(grid, schedule)
    est = estimate_dimension(counts, side=grid.bounds.side)
    return counts_csv_lines(counts, grid.bounds.side) + [est.summary_line() + (",empty" if est.empty else "")]


#: A written grid's text -> the same grid with each break rewritten: LF, CR LF, CR, mixed.
BREAKS = {
    "LF": lambda text: text,
    "CR LF": lambda text: text.replace(b"\n", b"\r\n"),
    "CR": lambda text: text.replace(b"\n", b"\r"),
    "mixed": lambda text: b"".join(line + (b"\r\n" if k % 2 else b"\n")
                                   for k, line in enumerate(text.splitlines())),
}

#: Commands that read a whole grid file, ``{grid}`` its path and ``{prefix}`` an output prefix; a
#: random grid may leave ``construct`` an annulus it cannot fill (exit 3), after the read.
WHOLE_GRID_READERS = {
    "mattila": (["mattila", "--a-in", "{grid}", "--b-dim", "1.7", "--b-depth", "3", "--trials", "2",
                 "--seed", "1"], (0,)),
    "construct": (["construct", "--in", "{grid}", "--annuli", "2", "--trials", "8", "--min-mass", "1",
                   "--seed", "1", "--out-prefix", "{prefix}"], (0, 3)),
}


def read_whole(seen: list, path, prefix) -> list:
    """Per ``WHOLE_GRID_READERS`` command run on ``path``, what ``loaded``'s list ``seen`` got."""
    got = []
    for argv, codes in WHOLE_GRID_READERS.values():
        seen.clear()
        assert run(*[a.format(grid=path, prefix=prefix) for a in argv]) in codes
        got.append(list(seen))
    return got


class TestMappedGrid:
    @pytest.mark.parametrize("breaks", BREAKS)
    def test_breaks_load_as_parsed(self, tmp_path, monkeypatch, capsys, breaks):
        path = tmp_path / "g.bgr"
        write_bgr(BoxGrid(Square((0.5, -2.0), 3.0), 6,
                          np.random.default_rng(5).random((64, 64)) < 0.3), path)
        path.write_bytes(BREAKS[breaks](path.read_bytes()))
        expected = parse_bgr(path.read_bytes())
        seen = loaded(monkeypatch)
        for got in read_whole(seen, path, tmp_path / "run"):
            assert got[0] is mmap.mmap
            grid = got[1]
            assert (grid.bounds, grid.level) == (expected.bounds, expected.level)
            assert np.array_equal(grid.bits, expected.bits)
        # dim reads the file in bands, through the same map, and counts the parsed grid's counts
        seen.clear()
        capsys.readouterr()
        assert run("dim", "--in", str(path)) == 0
        assert seen == [mmap.mmap]
        assert capsys.readouterr().out.splitlines()[1:] == parsed_table(path.read_bytes())

    def test_grid_outlives_its_file(self, tmp_path, monkeypatch):
        path = tmp_path / "g.bgr"
        bits = np.random.default_rng(6).random((32, 32)) < 0.5
        write_bgr(BoxGrid(Square.unit(), 5, bits), path)
        seen = loaded(monkeypatch)
        grids = [got[1] for got in read_whole(seen, path, tmp_path / "run")]
        with open(path, "r+b") as fh:  # in place, so a view of the file's map would change
            fh.write(formats.dump_bgr(BoxGrid(Square.unit(), 5, ~bits)).encode())
        assert all(np.array_equal(grid.bits, bits) for grid in grids)

    @pytest.mark.parametrize("data, message", [
        (b"", "error: bad grid header b''\n"),
        (b"cad 1 0.25 1\nA\nB\nC\nD\n",
         "error: expected a bgr grid file; rasterize addresses with gen --grid-out first\n")])
    def test_empty_and_cad_files_are_io_errors(self, tmp_path, capsys, data, message):
        path = tmp_path / "g.bgr"
        path.write_bytes(data)
        assert run("dim", "--in", str(path)) == 4
        assert capsys.readouterr().err == message

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_is_read(self, tmp_path, monkeypatch, capsys, dust_bgr):
        capsys.readouterr()
        assert run("dim", "--in", str(dust_bgr), "--levels", "2:8:2") == 0
        table = capsys.readouterr().out.splitlines()[1:]  # line 1 echoes the input path
        assert table == parsed_table(dust_bgr.read_bytes(), "2:8:2")
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        feeder = threading.Thread(target=fifo.write_bytes, args=(dust_bgr.read_bytes(),),
                                  daemon=True)  # blocks until a reader opens the pipe
        feeder.start()
        seen = loaded(monkeypatch)
        try:
            assert run("dim", "--in", str(fifo), "--levels", "2:8:2") == 0
        finally:
            feeder.join(timeout=10)
        assert not feeder.is_alive()
        assert seen[0] is bytes
        assert capsys.readouterr().out.splitlines()[1:] == table


def same_grid(a: BoxGrid, b: BoxGrid) -> bool:
    return (a.bounds, a.level) == (b.bounds, b.level) and np.array_equal(a.bits, b.bits)


def written_grid(path, level: int, seed: int, breaks: str = "LF") -> BoxGrid:
    """A random grid written to ``path`` as BGR with the ``BREAKS`` entry ``breaks``."""
    n = 1 << level
    grid = BoxGrid(Square((0.5, -2.0), 3.0), level, np.random.default_rng(seed).random((n, n)) < 0.3)
    write_bgr(grid, path)
    path.write_bytes(BREAKS[breaks](path.read_bytes()))
    return grid


class TestReleasedPages:
    """A mapped grid file is released block by block as it is decoded; the read is unchanged."""

    @pytest.mark.parametrize("block", [formats.BGR_BLOCK_ROWS, 7])
    @pytest.mark.parametrize("breaks", BREAKS)
    def test_read_gives_the_grid_of_the_bytes(self, tmp_path, monkeypatch, breaks, block):
        # level 10: four default blocks of rows, a 1 MB file; 7-row blocks end inside pages
        path = tmp_path / "g.bgr"
        grid = written_grid(path, 10, 3, breaks)
        monkeypatch.setattr(formats, "BGR_BLOCK_ROWS", block)
        read = formats.read_bgr(path)
        assert same_grid(read, parse_bgr(path.read_bytes())) and same_grid(read, grid)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_gives_the_grid_of_the_bytes(self, tmp_path):
        path, fifo = tmp_path / "g.bgr", tmp_path / "pipe"
        written_grid(path, 10, 4)
        os.mkfifo(fifo)
        feeder = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),),
                                  daemon=True)  # blocks until a reader opens the pipe
        feeder.start()
        try:
            grid = formats.read_bgr(fifo)
        finally:
            feeder.join(timeout=10)
        assert not feeder.is_alive()
        assert same_grid(grid, parse_bgr(path.read_bytes()))

    @pytest.mark.parametrize("block", [formats.BGR_BLOCK_ROWS, 7])
    @pytest.mark.parametrize("breaks", BREAKS)
    def test_no_page_is_released_before_its_rows_are_decoded(self, tmp_path, monkeypatch, breaks,
                                                             block):
        # a private map of a file holds the inverted grid, or other addresses, in pages of its
        # own; a page released would read the file again, so parsing the map gives the map's
        # bytes and leaves them there only if it releases no page of a map it is given
        path, cad = tmp_path / "g.bgr", tmp_path / "a.cad"
        grid = written_grid(path, 8, 5, breaks)
        inverted = BREAKS[breaks](formats.dump_bgr(BoxGrid(grid.bounds, 8, ~grid.bits)).encode())
        codes = np.random.default_rng(5).integers(0, 4, (600, 9), dtype=np.uint8)
        cad.write_bytes(BREAKS[breaks](formats.dump_cad(0.25, 9, codes).encode()))
        other = BREAKS[breaks](formats.dump_cad(0.25, 9, 3 - codes).encode())
        monkeypatch.setattr(formats, "BGR_BLOCK_ROWS", block)
        for file, mine, parse, check in [
                (path, inverted, parse_bgr,
                 lambda got: same_grid(got, BoxGrid(grid.bounds, 8, ~grid.bits))),
                (cad, other, formats.parse_cad, lambda got: np.array_equal(got[2], 3 - codes))]:
            with open(file, "rb") as fh:
                data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
            try:
                data[:] = mine
                assert check(parse(data))
                assert data[:] == mine
            finally:
                data.close()

    @pytest.mark.parametrize("block", [formats.BGR_BLOCK_ROWS, 7])
    @pytest.mark.parametrize("breaks", BREAKS)
    def test_reader_releases_only_lines_it_is_done_with(self, tmp_path, monkeypatch, breaks, block):
        # the reader's own map is read from a writable copy instead, and each range handed to
        # its release is spoilt in the copy as if it were lost: break bytes while the breaks are
        # checked, every byte once the rows are decoded.  A break compared, or a row decoded,
        # after its bytes were handed to release then fails the read or changes the grid
        path = tmp_path / "g.bgr"
        grid = written_grid(path, 8, 12, breaks)
        monkeypatch.setattr(formats, "BGR_BLOCK_ROWS", block)
        bands, decode, calls = formats._bands, formats._decode, {True: [], False: []}
        copy = bytearray(path.read_bytes())

        def spy(release):
            def spoil(lo, hi):
                calls[checking].append((lo, hi))
                part = np.frombuffer(memoryview(copy)[lo:hi], dtype=np.uint8)
                part[np.isin(part, np.frombuffer(b"\n\r", dtype=np.uint8)) if checking else
                     slice(None)] = ord("x")
                release(lo, hi)
            assert release is not None
            return spoil

        def decode_after_check(*args, **kwargs):
            nonlocal checking
            checking = False
            return decode(*args, **kwargs)

        checking = True
        monkeypatch.setattr(formats, "_bands", lambda data, rows=None, release=None:
                            bands(copy, rows, spy(release)))
        monkeypatch.setattr(formats, "_decode", decode_after_check)
        reader = formats.read_bgr_bands(path, lambda level: 100)  # bands of 100, 100 and 56 rows
        assert next(reader) == (grid.bounds, grid.level)
        assert np.array_equal(np.concatenate([band.copy() for band in reader][::-1]), grid.bits)
        # each pass hands every row of the file to release; a mixed file's rows are decoded
        # from its one-LF copy, and the map is handed over whole once the copy is made
        header = len(path.read_bytes().splitlines(keepends=True)[0])
        for checked, ranges in calls.items():
            covered = np.zeros(len(copy), dtype=bool)
            for lo, hi in ranges:
                covered[lo:hi] = True
            assert covered[header:].all() or (breaks == "mixed" and not checked and not ranges)

    @pytest.mark.parametrize("breaks", ["LF", "CR LF"])
    def test_bad_row_after_a_released_block_is_a_format_error(self, tmp_path, capsys, breaks):
        path = tmp_path / "g.bgr"
        written_grid(path, 10, 6, breaks)
        text = bytearray(path.read_bytes())
        stride = 1024 + len(BREAKS[breaks](b"\n"))
        text[text.index(b"\n") + 1 + 700 * stride + 5] = ord("2")  # row 700, the third block
        path.write_bytes(bytes(text))
        assert run("dim", "--in", str(path)) == 4
        assert capsys.readouterr() == ("", "error: bad grid row on line 702\n")


def test_grid_file_over_the_cell_budget_is_refused_at_its_header(tmp_path, capsys, monkeypatch):
    # a level-7 file under a budget of 4**6 cells: its lines are never sized, nor a band allocated
    path = tmp_path / "g.bgr"
    written_grid(path, 7, 13)
    monkeypatch.setattr(geometry, "CELL_BUDGET", 4 ** 6)
    monkeypatch.setattr(formats, "_lines", lambda *args: pytest.fail("a grid over the budget was sized"))
    message = "bad grid header: a level-7 grid has 4**7 cells, over the budget of 4096"
    for read in (formats.read_bgr, lambda path: parse_bgr(path.read_bytes())):
        with pytest.raises(FormatError) as info:
            read(path)
        assert str(info.value) == message
    assert run("dim", "--in", str(path)) == 4
    assert capsys.readouterr() == ("", f"error: {message}\n")


@st.composite
def banded_grids(draw):
    """(grid, schedule levels or None, rows per band): bands of any power of two rows, whatever
    the schedule."""
    level = draw(st.integers(0, 9))
    n = 1 << level
    density = draw(st.sampled_from([0.0, 0.3, 1.0]))  # empty, random, full
    grid = BoxGrid(Square((0.5, -2.0), 3.0), level,
                   np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).random((n, n)) < density)
    rows = 1 << draw(st.integers(0, level))
    if level < 2:  # no schedule fits
        return grid, None, rows
    levels = tuple(sorted(draw(st.sets(st.integers(0, level), min_size=3))))
    if draw(st.booleans()):  # a regular schedule
        lo = draw(st.integers(0, level - 2))
        levels = tuple(range(lo, level + 1, draw(st.integers(1, (level - lo) // 2))))
    return grid, levels, rows


def irregular_grid(level: int) -> BoxGrid:
    n = 1 << level
    return BoxGrid(Square.unit(), level, np.random.default_rng(level).random((n, n)) < 0.1)


class TestBands:
    """``read_bgr_bands`` splits a grid file into bands that ``window_counts`` counts as the grid."""

    @settings(max_examples=60, deadline=None)
    @given(banded_grids())
    @example((irregular_grid(9), (3, 7, 9), 1 << 6))
    @example((irregular_grid(9), tuple(range(10)), 1 << 9))  # lo = 0: a single band
    @example((irregular_grid(9), tuple(range(10)), 1))  # lo = 0: one-row bands
    @example((BoxGrid.empty(Square.unit(), 5), (1, 3, 5), 1 << 4))
    @example((BoxGrid(Square.unit(), 4, np.ones((16, 16), dtype=bool)), (2, 3, 4), 1 << 2))
    @example((irregular_grid(3), None, 3))  # bands of 3, 3 and 2 rows
    def test_file_order_bands_add_up_to_box_counts(self, tmp_path_factory, case):
        grid, levels, rows = case
        path = tmp_path_factory.mktemp("bands") / "g.bgr"
        write_bgr(grid, path)
        reader = formats.read_bgr_bands(path, lambda level: rows)
        assert next(reader) == (grid.bounds, grid.level)
        bands = [band.copy() for band in reader]  # each band is read into the same array
        assert [len(band) for band in bands] == [min(rows, grid.size - s) for s in range(0, grid.size, rows)]
        assert np.array_equal(np.concatenate(bands[::-1]), grid.bits)  # top band first
        if levels is not None:
            reader = formats.read_bgr_bands(path, lambda level: rows)
            next(reader)
            # the reader's one array, read anew for each band, top band first
            assert (window_counts(reader, grid.level, ScaleSchedule(levels))
                    == {m: grid.downsampled(m).occupied_count for m in levels})

    @pytest.mark.parametrize("breaks", ["LF", "CR"])
    def test_bad_row_in_the_third_band_is_a_format_error(self, tmp_path, capsys, monkeypatch, breaks):
        # bands of 2**18 cells are 256 rows at level 10; row 600 is in the third, after two have
        # been counted
        monkeypatch.setattr(geometry, "_HALVE_BAND", 1 << 18)
        path, out = tmp_path / "g.bgr", tmp_path / "dim.csv"
        written_grid(path, 10, 7, breaks)
        text = bytearray(path.read_bytes())
        text[text.index(BREAKS[breaks](b"\n")) + 1 + 600 * (1024 + 1) + 9] = ord("x")
        path.write_bytes(bytes(text))
        assert run("dim", "--in", str(path), "--levels", "2:10:2", "--out", str(out)) == 4
        out_text, err = capsys.readouterr()
        assert (out_text, err) == ("", "error: bad grid row on line 602\n")
        assert "Traceback" not in err and "BufferError" not in err
        assert not out.exists()

    @pytest.mark.parametrize("levels", ["2:12:2", "11,12,13"])
    @pytest.mark.parametrize("fault, message", [
        ("header", "error: bad grid header b'bgr 1 10 0.5 -2.0 three'\n"),
        ("row", "error: bad grid row on line 702\n")])
    def test_malformed_file_is_reported_before_a_too_fine_schedule(self, tmp_path, capsys, levels,
                                                                   fault, message):
        path, out = tmp_path / "g.bgr", tmp_path / "dim.csv"
        written_grid(path, 10, 8)
        text = bytearray(path.read_bytes())
        if fault == "header":
            text[:text.index(b"\n")] = b"bgr 1 10 0.5 -2.0 three"
        else:
            text[text.index(b"\n") + 1 + 700 * 1025] = ord("2")
        path.write_bytes(bytes(text))
        assert run("dim", "--in", str(path), "--levels", levels, "--out", str(out)) == 4
        assert capsys.readouterr() == ("", message)
        assert not out.exists()

    @pytest.mark.parametrize("levels, top", [("2:12:2", 12), ("11,12,13", 13), ("0:11", 11)])
    def test_too_fine_schedule_of_a_valid_file_is_a_usage_error(self, tmp_path, capsys, levels, top):
        path, out = tmp_path / "g.bgr", tmp_path / "dim.csv"
        written_grid(path, 10, 9)
        assert run("dim", "--in", str(path), "--levels", levels, "--out", str(out)) == 2
        assert capsys.readouterr() == ("", f"error: schedule level {top} exceeds grid resolution 10\n")
        assert not out.exists()

    @pytest.mark.parametrize("block", [formats.BGR_BLOCK_ROWS, 7])
    def test_mixed_break_past_the_first_released_block_reads_the_one_lf_copy(
            self, tmp_path, capsys, monkeypatch, block):
        # every break is LF but row 600's, CR LF: blocks before it are checked and released
        # before the mismatch sends the file to the one-LF copy
        lf, mixed = tmp_path / "lf.bgr", tmp_path / "mixed.bgr"
        written_grid(lf, 10, 10)
        lines = lf.read_bytes().split(b"\n")
        lines[601] += b"\r"
        mixed.write_bytes(b"\n".join(lines))
        monkeypatch.setattr(formats, "BGR_BLOCK_ROWS", block)
        tables = []
        for path in (lf, mixed):
            assert run("dim", "--in", str(path), "--levels", "2:10:2") == 0
            tables.append(capsys.readouterr().out.splitlines()[1:])
        assert tables[0] == tables[1] == parsed_table(lf.read_bytes(), "2:10:2")
        assert same_grid(formats.read_bgr(mixed), formats.read_bgr(lf))


#: Run in a fresh interpreter: VmHWM growth over a level-12 read and count, and the top count.
PEAK_OF_DIM = """
import sys
from dustlab.boxdim import ScaleSchedule, box_counts
from dustlab.formats import read_bgr

def high_water():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) << 10

before = high_water()
counts = box_counts(read_bgr(sys.argv[1]), ScaleSchedule.span(2, 12, 2))
print(high_water() - before, counts[12])
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status") or not hasattr(mmap, "MADV_DONTNEED"),
                    reason="needs /proc/self/status and MADV_DONTNEED")
def test_level_12_dim_holds_one_grid(tmp_path):
    # the file's pages go as the rows are decoded, and the count halves 12 -> 10 in one pass,
    # so the peak grows by the grid and a few MB, not by the file and a level-11 grid as well
    n = 1 << 12
    bits = np.zeros((n, n), dtype=bool)
    bits[::3, ::5] = True
    write_bgr(BoxGrid(Square.unit(), 12, bits), tmp_path / "g.bgr")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", PEAK_OF_DIM, str(tmp_path / "g.bgr")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    grown, top = map(int, proc.stdout.split())
    assert top == np.count_nonzero(bits)
    assert grown < n * n + (6 << 20), grown / 2**20


#: Run in a fresh interpreter: VmHWM growth over a level-12 ``dim --levels`` argv[3] after its imports.
PEAK_OF_BANDED_DIM = """
import sys
from dustlab.cli import main

def high_water():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) << 10

before = high_water()
code = main(["dim", "--in", sys.argv[1], "--levels", sys.argv[3], "--out", sys.argv[2]])
print(high_water() - before, code)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or not os.path.exists("/proc/self/status")
                    or not hasattr(mmap, "MADV_DONTNEED"),
                    reason="needs Linux /proc/self/status and MADV_DONTNEED")
def test_level_12_dim_holds_one_band(tmp_path):
    # dim holds one 256-row band (1 MB) and about a block of the file's pages at a time, from
    # level 0 as well; the whole grid, or the file's pages faulted in by the break check, would
    # be 16 MB more
    n = 1 << 12
    bits = np.zeros((n, n), dtype=bool)
    bits[::3, ::5] = True
    write_bgr(BoxGrid(Square.unit(), 12, bits), tmp_path / "g.bgr")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for levels in ("2:12:2", "0:12"):
        proc = subprocess.run([sys.executable, "-c", PEAK_OF_BANDED_DIM, str(tmp_path / "g.bgr"),
                               str(tmp_path / "dim.csv"), levels], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        grown, code = map(int, proc.stdout.splitlines()[-1].split())
        assert code == 0
        counts = dict(line.split(",")[::2] for line in (tmp_path / "dim.csv").read_text().splitlines()
                      if line[:1].isdigit() and line.count(",") == 2)
        assert int(counts["12"]) == np.count_nonzero(bits)
        assert grown < 8 << 20, (levels, grown / 2**20)


#: Run in a fresh interpreter: VmHWM growth over a level-12 ``gen --grid-out argv[1]`` of the dust
#: of ratio argv[2] and depth argv[3], after its imports.
PEAK_OF_GEN = """
import sys
from dustlab.cli import main

def high_water():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) << 10

before = high_water()
code = main(["gen", "--alpha", sys.argv[2], "--depth", sys.argv[3], "--level", "12",
             "--grid-out", sys.argv[1]])
print(high_water() - before, code)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or not os.path.exists("/proc/self/status"),
                    reason="needs Linux /proc/self/status")
@pytest.mark.parametrize("alpha,depth", [("0.25", "6"), ("0.45", "3")])  # the benchmark's; dense
def test_level_12_gen_holds_one_band(tmp_path, alpha, depth):
    # gen rasterizes and writes one 256-row band (1 MB) at a time; the whole 16 MB grid, of
    # which transparent huge pages fault 8 MB or more, grew it by 11 MB and more
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", PEAK_OF_GEN, str(tmp_path / "c.bgr"), alpha, depth],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    grown, code = map(int, proc.stdout.splitlines()[-1].split())
    assert code == 0
    approx = generate_cantor(float(alpha), int(depth))
    expected = rasterize(approx.leaf_corners(), Square.unit(), 12, side=approx.side)
    assert same_grid(formats.read_bgr(tmp_path / "c.bgr"), expected)
    assert grown < 8 << 20, grown / 2**20


#: One complete argv per subcommand.
ARGVS = {
    "gen": ["gen", "--dim", "1.5", "--depth", "3", "--out", "c.cad", "--grid-out", "c.bgr"],
    "dim": ["dim", "--in", "c.bgr", "--levels", "2:8:2", "--window", "2:6", "--out", "d.csv"],
    "john": ["john", "--alpha", "0.25", "--depth", "4", "--samples", "150", "--seed", "7",
             "--jobs", "1", "--out", "j.csv"],
    "mattila": ["mattila", "--a-alpha", "0.3", "--b-dim", "1.7", "--trials", "20", "--seed", "3"],
    "construct": ["construct", "--gen-alpha", "0.25", "--annuli", "4", "--min-mass", "8",
                  "--seed", "5", "--out-prefix", "run"],
}


@pytest.mark.parametrize("name", ARGVS)
def test_subcommand_parser_alone_parses_as_full_parser(name, capsys):
    assert set(ARGVS) == set(cli._SUBCOMMANDS)
    assert cli.build_parser(name).parse_args(ARGVS[name]) == cli.build_parser().parse_args(ARGVS[name])
    # a missing flag and --help go through the subcommand's parser, an unknown flag
    # through the top-level one
    for argv in ([name], [name, "--help"], [*ARGVS[name], "--bogus"]):
        assert run(*argv) == (0 if "--help" in argv else 2)
        alone = capsys.readouterr()
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)
        assert capsys.readouterr() == alone


@pytest.mark.parametrize("error, code", [
    (ParameterError, 2), (BudgetError, 2), (ConstructionError, 3), (PlacementError, 3),
    (AssemblyError, 3), (RingUndeterminedError, 3), (DustError, 3), (FormatError, 4),
    (OSError, 4)])
def test_exit_code_map(monkeypatch, capsys, error, code):
    # the documented codes: 2 usage or parameter, 3 construction, 4 input/output
    def failing(args):
        raise error("planted")

    monkeypatch.setattr(cli, "cmd_dim", failing)
    assert run("dim", "--in", "unused.bgr") == code
    captured = capsys.readouterr()
    assert captured.err == "error: planted\n"
    assert captured.out == ""

import numpy as np
import pytest

from dustlab import cli
from dustlab.cli import main
from dustlab.errors import (AssemblyError, BudgetError, ConstructionError, DustError, FormatError,
                            ParameterError, PlacementError, RingUndeterminedError)
from dustlab.formats import parse_bgr, read_cad, write_bgr
from dustlab.geometry import BoxGrid, Square


def run(*args):
    return main(list(args))


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

    def test_unknown_subcommand_is_usage_error(self):
        assert run("frobnicate") == 2


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
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [grid_path]


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

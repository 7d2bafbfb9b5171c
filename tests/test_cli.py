"""Config parsing, runners, CSV output and the command-line interface."""

import csv
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from crcontact.assembly import LoadSpec
from crcontact.analysis import ConvergenceRow, inter_mesh_error
from crcontact.cli import (
    ConfigError,
    ProblemConfig,
    build_meshes,
    example_51_config,
    format_table,
    load_config,
    main,
    run_convergence_study,
    run_single,
    solve_level,
    write_csv,
)
from crcontact.material import MaterialModel
from crcontact.mesh import BoundaryLabel, Domain
from crcontact import cli, solver
from crcontact.solver import SolverError, UzawaConfig, UzawaError
from crcontact.space import prolongation_matrix

# the README's INI example, which writes out the example-5.1 preset in full
README = Path(__file__).resolve().parents[1] / "README.md"
PRESET_INI = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
# a load that reverses inside (0, T): its inter-mesh error peaks before T
UNLOADING = Path(__file__).resolve().parent / "data" / "unloading.ini"
SIDE_KEYS = "left = neumann\nright = dirichlet\nbottom = contact\ntop = neumann"


def read_rows(path):
    """Parse a study CSV back into rows; empty cells are None."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        assert next(reader) == ["N", "h", "k", "dof", "error", "order"]
        return [ConvergenceRow(N=int(rec[0]), h=float(rec[1]), k=float(rec[2]), dof=int(rec[3]),
                               error=None if rec[4] == "" else float(rec[4]),
                               order=None if rec[5] == "" else float(rec[5]))
                for rec in reader]


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def zero_load_config(levels=1):
    cfg = example_51_config()
    loads = LoadSpec(g_a=0.0)
    return dataclasses.replace(cfg, loads=loads, levels=levels, N=4)


class TestConfigParsing:
    def test_matches_preset(self, tmp_path):
        assert load_config(write_ini(tmp_path, PRESET_INI)) == example_51_config()

    def test_segments_section(self, tmp_path):
        text = PRESET_INI.replace(
            SIDE_KEYS,
            "segments =\n    left 0 4 neumann\n    right 0 4 dirichlet\n"
            "    bottom 0 4 contact\n    top 0 4 neumann")
        got = load_config(write_ini(tmp_path, text))
        labels = {s.side: s.label for s in got.domain.boundary_spec}
        assert labels["right"] == BoundaryLabel.DIRICHLET
        assert labels["bottom"] == BoundaryLabel.CONTACT

    @pytest.mark.parametrize("line", ["left 0 4", "left 0 4 sticky", "left 0 four neumann",
                                      "left 0 4 interior"],
                             ids=["field-count", "unknown-label", "unparsable-number",
                                  "interior-label"])
    def test_malformed_segment_line_exit_1(self, tmp_path, capsys, line):
        text = PRESET_INI.replace(
            SIDE_KEYS,
            f"segments =\n    {line}\n    right 0 4 dirichlet\n"
            "    bottom 0 4 contact\n    top 0 4 neumann")
        ini = write_ini(tmp_path, text)
        with pytest.raises(ConfigError, match=f"domain.segments: bad line '{line}'"):
            load_config(ini)
        assert main(["solve", "--config", ini]) == 1
        assert "config error: domain.segments" in capsys.readouterr().err

    @pytest.mark.parametrize("text,named", [
        ("E = 200\n" + PRESET_INI, "no section headers"),
        (PRESET_INI.replace("E = 200\n", "E = 200\nE = 300\n"), "option 'E' in section 'material'"),
        (PRESET_INI.replace("eps = 1e-8", "eps = 5%"), "solver.eps: cannot parse '5%'"),
        (PRESET_INI.replace("left = neumann", "left = interior"),
         "domain: boundary segments cannot be labeled INTERIOR"),
    ], ids=["no-section-header", "duplicate-key", "percent-sign", "interior-side"])
    def test_malformed_ini_exit_1(self, tmp_path, capsys, text, named):
        ini = write_ini(tmp_path, text)
        with pytest.raises(ConfigError, match=named):
            load_config(ini)
        assert main(["solve", "--config", ini]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err

    @pytest.mark.parametrize("old,new,named", [
        ("E = 200", "E = nan", "material.E"),
        ("eps = 1e-8", "eps = nan", "solver.eps"),
        ("T = 1\n", "T = inf\n", "study.T"),
        ("g_a = 0.0012", "g_a = nan", "loads.g_a"),
        ("gx = 0.1 0 -0.02", "gx = 0.1 -inf -0.02", "loads.gx"),
        (SIDE_KEYS, "segments =\n    left 0 inf neumann\n    right 0 4 dirichlet\n"
         "    bottom 0 4 contact\n    top 0 4 neumann", "domain.segments"),
    ], ids=["E", "eps", "T", "g_a", "gx", "segments"])
    def test_non_finite_number_exit_1(self, tmp_path, capsys, old, new, named):
        ini = write_ini(tmp_path, PRESET_INI.replace(old, new))
        with pytest.raises(ConfigError, match=named):
            load_config(ini)
        assert main(["solve", "--config", ini]) == 1
        assert f"config error: {named}" in capsys.readouterr().err

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/run.ini")

    def test_missing_required_key(self, tmp_path):
        text = PRESET_INI.replace("E = 200\n", "")
        with pytest.raises(ConfigError, match="material"):
            load_config(write_ini(tmp_path, text))

    def test_invalid_poisson_ratio(self, tmp_path):
        text = PRESET_INI.replace("nu = 0.3", "nu = 0.6")
        with pytest.raises(ConfigError, match="material"):
            load_config(write_ini(tmp_path, text))

    def test_unparsable_rho_tilde(self, tmp_path):
        text = PRESET_INI.replace("rho = 10\n", "rho = 10\nrho_tilde = fast\n")
        with pytest.raises(ConfigError, match="solver.rho_tilde"):
            load_config(write_ini(tmp_path, text))

    def test_rho_tilde_auto_only(self, tmp_path):
        # files written for the former option still load; a number is refused, not ignored
        text = PRESET_INI.replace("rho = 10\n", "rho = 10\nrho_tilde = auto\n")
        assert load_config(write_ini(tmp_path, text)) == example_51_config()
        with pytest.raises(ConfigError, match="solver.rho_tilde"):
            load_config(write_ini(tmp_path, text.replace("= auto", "= 0.5")))

    @pytest.mark.parametrize("old,new,named", [
        ("eps = 1e-8", "esp = 1e-30\nmax_iters = 5", "solver.esp, solver.max_iters"),
        (SIDE_KEYS, SIDE_KEYS + "\nsegments =\n    left 0 4 neumann\n    right 0 4 dirichlet\n"
         "    bottom 0 4 contact\n    top 0 4 neumann",
         "domain.left, domain.right, domain.bottom, domain.top"),
    ], ids=["misspelled", "sides-beside-segments"])
    def test_unread_keys_exit_1(self, tmp_path, capsys, old, new, named):
        # a key the loader does not read must not leave its default in place unnoticed
        ini = write_ini(tmp_path, PRESET_INI.replace(old, new))
        with pytest.raises(ConfigError, match=f"unknown key\\(s\\) {named}$"):
            load_config(ini)
        assert main(["solve", "--config", ini]) == 1
        assert f"config error: unknown key(s) {named}" in capsys.readouterr().err

    def test_misspelled_traction_side_exit_1(self, tmp_path, capsys):
        ini = write_ini(tmp_path, PRESET_INI.replace("g_sides = left", "g_sides = leftt"))
        with pytest.raises(ConfigError, match="loads: .*leftt"):
            load_config(ini)
        assert main(["solve", "--config", ini]) == 1
        assert "config error: loads" in capsys.readouterr().err

    def test_empty_traction_sides_exit_1(self, tmp_path, capsys):
        ini = write_ini(tmp_path, PRESET_INI.replace("g_sides = left", "g_sides ="))
        with pytest.raises(ConfigError, match="loads: no traction side"):
            load_config(ini)
        assert main(["solve", "--config", ini]) == 1
        assert "config error: loads" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["right", "bottom"])  # clamped, contact
    def test_traction_side_without_neumann_edges_exit_1(self, tmp_path, capsys, side):
        # such a side carries no load, so the run would report zero displacements
        ini = write_ini(tmp_path, PRESET_INI.replace("g_sides = left", f"g_sides = {side}"))
        with pytest.raises(ConfigError, match=f"loads: traction side '{side}' has no neumann"):
            load_config(ini)
        assert main(["study", "--config", ini]) == 1
        assert f"config error: loads: traction side '{side}'" in capsys.readouterr().err

    def test_traction_without_neumann_side_exit_1(self, tmp_path, capsys):
        # with g_sides unset the traction falls on every neumann side, here none
        clamped = SIDE_KEYS.replace("neumann", "dirichlet")
        text = PRESET_INI.replace(SIDE_KEYS, clamped).replace("g_sides = left\n", "")
        ini = write_ini(tmp_path, text)
        with pytest.raises(ConfigError, match="loads: a traction is set but no side"):
            load_config(ini)
        assert main(["solve", "--config", ini]) == 1
        assert "config error: loads" in capsys.readouterr().err
        # a body force needs no neumann side
        body = text.replace("gx = 0.1 0 -0.02\ngy = -0.01 0 0", "f = 0.1 -0.01")
        assert load_config(write_ini(tmp_path, body)).loads.f == (0.1, -0.01)

    def test_no_dirichlet_side(self, tmp_path):
        text = PRESET_INI.replace("right = dirichlet", "right = neumann")
        with pytest.raises(ConfigError, match="domain"):
            load_config(write_ini(tmp_path, text))

    def test_validation_collects_problems(self):
        cfg = example_51_config()
        with pytest.raises(ConfigError, match="study.*solver|solver.*study"):
            dataclasses.replace(cfg, T=-1.0, rho=0.0)

    @pytest.mark.parametrize("change,named", [
        (dict(N=2.5), "study: need at least one time step and an integer N"),
        (dict(n=1.5), "study: n must be an integer"),
        (dict(levels=2.5), "study: levels must be an integer"),
        (dict(N=True), "study: need at least one time step and an integer N"),
        (dict(n=True), "study: n must be an integer"),
        (dict(levels=True), "study: levels must be an integer"),
    ], ids=["N", "n", "levels", "N-bool", "n-bool", "levels-bool"])
    def test_rejects_non_integer_counts(self, change, named):
        with pytest.raises(ConfigError, match=named):
            dataclasses.replace(example_51_config(), **change)

    def test_accepts_numpy_integer_counts(self):
        cfg = dataclasses.replace(example_51_config(), N=np.int64(40), n=np.int64(2),
                                  levels=np.int64(5), uzawa=UzawaConfig(max_iter=np.int64(10)))
        assert (cfg.N, cfg.n, cfg.levels, cfg.uzawa.max_iter) == (40, 2, 5, 10)

    def test_rejects_bad_error_mode(self):
        with pytest.raises(ConfigError, match="error_mode"):
            dataclasses.replace(example_51_config(), error_mode="median")

    @pytest.mark.parametrize("change,named", [
        (dict(T=np.inf), "study: final time"), (dict(T=np.nan), "study: final time"),
        (dict(N=np.nan), "study: need at least one time step"),
        (dict(n=np.nan), "study: n"), (dict(levels=np.inf), "study: levels"),
        (dict(rho=np.nan), "solver: rho"), (dict(rho=np.inf), "solver: rho"),
    ], ids=["T-inf", "T-nan", "N-nan", "n-nan", "levels-inf", "rho-nan", "rho-inf"])
    def test_rejects_non_finite_values(self, change, named):
        # x <= 0 is False for nan, so a plain sign check lets it through
        with pytest.raises(ConfigError, match=named):
            dataclasses.replace(example_51_config(), **change)

    def test_required_keys_only_take_the_documented_defaults(self, tmp_path):
        text = ("[domain]\nx_min = 0\nx_max = 4\ny_min = 0\ny_max = 4\n" + SIDE_KEYS
                + "\n[material]\nE = 200\nnu = 0.3\n[study]\nT = 1\nN = 40\nn = 2\n")
        got = load_config(write_ini(tmp_path, text))
        assert (got.uzawa.eps, got.uzawa.max_iter) == (1e-8, 10000)
        assert (got.rho, got.levels, got.error_mode) == (10.0, 1, "final")
        assert got.material == MaterialModel.from_engineering(200.0, 0.3, "strain")
        assert got.loads == LoadSpec(f=(0.0, 0.0), f_time="const",
                                     g_coeffs=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
                                     g_time="const", g_sides=None, g_a=0.0)

    @pytest.mark.parametrize("old,new", [
        ("gx = 0.1 0 -0.02", "gx = 0.1 0"), ("gy = -0.01 0 0", "gy = -0.01 0 0 0"),
        ("gx = 0.1 0 -0.02", "gx = 0.1 0 -0.02\nf = 0 0 -1"),
    ], ids=["gx-short", "gy-long", "f-long"])
    def test_load_row_length_exit_1(self, tmp_path, capsys, old, new):
        ini = write_ini(tmp_path, PRESET_INI.replace(old, new))
        with pytest.raises(ConfigError, match="loads: f needs 2 entries, gx and gy need 3"):
            load_config(ini)
        assert main(["solve", "--config", ini]) == 1
        assert "config error: loads" in capsys.readouterr().err

    def test_non_utf8_file_exit_1(self, tmp_path, capsys):
        path = tmp_path / "latin1.ini"
        path.write_bytes(PRESET_INI.replace("# plane:", "# \xff plane:").encode("latin-1"))
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_config(str(path))
        assert main(["solve", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error: cannot read config file")


class TestRunSingle:
    def test_preset_level0_summary(self):
        summary = run_single(example_51_config(), level=0)
        assert summary["dof"] == 28
        assert summary["time_steps"] == 40
        assert summary["uzawa_iterations_total"] > 0
        assert summary["ux_max"] > 0  # pushed toward the clamped side

    def test_zero_loads_zero_extrema(self):
        summary = run_single(zero_load_config(), level=0)
        for key in ("ux_min", "ux_max", "uy_min", "uy_max"):
            assert summary[key] == 0.0

    def test_field_dump(self, tmp_path):
        path = tmp_path / "fields.txt"
        run_single(zero_load_config(), level=0, dump_fields=str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 14  # non-Dirichlet edges of the 2x2 grid
        for ln in lines:
            parts = [float(tok) for tok in ln.split()]
            assert len(parts) == 4

    @pytest.mark.parametrize("level", [-1, 1.5, "1", True, False],
                             ids=["negative", "float", "string", "True", "False"])
    def test_rejects_level_that_is_not_a_nonnegative_integer(self, level):
        with pytest.raises(ConfigError, match="solve: level must be a nonnegative integer"):
            run_single(example_51_config(), level=level)


class TestSolveLevel:
    def test_error_mode_does_not_reach_the_march(self):
        # the mode decides which nodes the study reads, not what the march computes
        cfg = example_51_config()
        mesh = build_meshes(cfg, 2)[1]
        _, _, final = solve_level(cfg, mesh, 1)
        _, _, every = solve_level(dataclasses.replace(cfg, error_mode="max"), mesh, 1)
        assert len(final.multipliers) == len(every.multipliers) == final.grid.N + 1 == 81
        assert all(np.array_equal(a, b)
                   for a, b in zip(final.multipliers, every.multipliers, strict=True))
        assert final.uzawa_iters == every.uzawa_iters


@pytest.fixture(scope="module")
def small_rows():
    cfg = dataclasses.replace(example_51_config(), levels=3)
    return run_convergence_study(cfg)


@pytest.fixture(scope="module")
def unloading():
    """The unloading config on three levels, and its max-mode study."""
    cfg = dataclasses.replace(load_config(str(UNLOADING)), levels=3)
    assert cfg.error_mode == "max"
    return cfg, run_convergence_study(cfg)


class TestConvergenceStudy:
    def test_structure(self, small_rows):
        assert [r.dof for r in small_rows] == [28, 104, 400]
        assert [r.N for r in small_rows] == [40, 80, 160]
        assert small_rows[0].error is None and small_rows[0].order is None
        assert small_rows[1].error is not None and small_rows[1].order is None
        assert small_rows[2].order is not None

    def test_h_and_k_halve(self, small_rows):
        for prev, curr in zip(small_rows, small_rows[1:]):
            assert curr.h == pytest.approx(prev.h / 2)
            assert curr.k == pytest.approx(prev.k / 2)

    def test_rejects_single_level(self):
        cfg = dataclasses.replace(example_51_config(), levels=1)
        with pytest.raises(ConfigError):
            run_convergence_study(cfg)

    def test_csv_round_trip(self, small_rows, tmp_path):
        path = tmp_path / "study.csv"
        write_csv(small_rows, path)
        back = read_rows(path)
        assert back == small_rows

    def test_determinism(self, small_rows, tmp_path):
        cfg = dataclasses.replace(example_51_config(), levels=3)
        rows2 = run_convergence_study(cfg)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(small_rows, a)
        write_csv(rows2, b)
        assert a.read_bytes() == b.read_bytes()

    def test_format_table(self, small_rows):
        text = format_table(small_rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert "error" in lines[0] and "order" in lines[0]
        assert lines[1].split()[-1] == "-"

    def test_solver_failure_keeps_diagnostics(self):
        cfg = dataclasses.replace(example_51_config(), levels=2,
                                  uzawa=UzawaConfig(eps=1e-30, max_iter=5))
        with pytest.raises(UzawaError) as exc_info:
            run_convergence_study(cfg)
        err = exc_info.value
        assert str(err).startswith("level 0:")
        assert err.step == 1
        assert len(err.history) == 5

    def test_max_error_mode_at_least_final(self, unloading):
        # unloading's error peaks before T on row 2, so a max over u_N alone falls short
        cfg, rows_max = unloading
        rows_final = run_convergence_study(dataclasses.replace(cfg, error_mode="final"))
        assert rows_max[1].error >= rows_final[1].error
        assert rows_max[2].error > rows_final[2].error

    def test_max_error_mode_against_inter_mesh_error(self, unloading):
        # the study's error loop against the one-shot norm, node by node
        cfg, rows = unloading
        meshes = build_meshes(cfg, 3)
        coarse, fine = (solve_level(cfg, meshes[level], level)[2] for level in (1, 2))
        ref = max(inter_mesh_error(uc, fine.displacements[2 * i], cfg.material, cfg.rho)
                  for i, uc in enumerate(coarse.displacements))
        assert len(coarse.displacements) == 2 * cfg.N + 1
        assert len(fine.displacements) == 4 * cfg.N + 1
        assert rows[2].error == pytest.approx(ref, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("mode", ["final", "max"])
    def test_one_prolongation_per_level(self, mode, monkeypatch):
        # every shared node of a level is prolongated with the same P
        calls = []

        def counted(coarse, fine):
            calls.append((coarse, fine))
            return prolongation_matrix(coarse, fine)

        monkeypatch.setattr(cli, "prolongation_matrix", counted)
        cfg = dataclasses.replace(example_51_config(), levels=3, N=4, error_mode=mode)
        run_convergence_study(cfg)
        assert len(calls) == 2  # once for each level after the first
        assert all(fine.mesh.parent_mesh is coarse.mesh for coarse, fine in calls)
        assert calls[1][0] is calls[0][1]  # level 1's own space, not a rebuilt one


class TestMain:
    def test_bad_config_path_exit_1(self, capsys):
        assert main(["solve", "--config", "/nonexistent.ini"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_and_preset_exit_1(self, capsys):
        assert main(["solve"]) == 1
        assert capsys.readouterr().err == (
            "config error: one of the arguments --config --preset is required\n")

    def test_preset_and_config_exit_1(self, capsys):
        assert main(["solve", "--preset", "example-5.1", "--config", "/nonexistent.ini"]) == 1
        assert capsys.readouterr().err == (
            "config error: argument --config: not allowed with argument --preset\n")

    @pytest.mark.parametrize("argv", [
        ["solve", "--preset", "example-5.1", "--level", "abc"],
        ["solve", "--preset", "example-9.9"],
        ["refine", "--preset", "example-5.1"],
        [],
        ["study", "--preset", "example-5.1", "--levels", "3"],
    ], ids=["bad-level", "unknown-preset", "unknown-command", "no-arguments", "unknown-flag"])
    def test_usage_error_exit_1(self, capsys, argv):
        # argparse's own rejection takes the config-error exit, not 2
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["solve", "--help"])
        assert exc_info.value.code == 0
        assert "(--config CONFIG | --preset {example-5.1,regular})" in capsys.readouterr().out

    def test_solve_preset_exit_0(self, capsys, tmp_path):
        ini = write_ini(tmp_path, PRESET_INI.replace("N = 40", "N = 4"))
        assert main(["solve", "--config", ini]) == 0
        out = capsys.readouterr().out
        assert "dof: 28" in out

    def test_verbose_logs_each_step(self, capsys):
        assert main(["solve", "--preset", "example-5.1"]) == 0
        quiet = capsys.readouterr()
        assert main(["solve", "--preset", "example-5.1", "--verbose"]) == 0
        loud = capsys.readouterr()
        assert loud.out == quiet.out and quiet.err == ""
        lines = loud.err.splitlines()
        assert len(lines) == 40
        iters = []
        for n, line in enumerate(lines, start=1):
            match = re.fullmatch(rf"step {n}: t=(\S+) uzawa_iters=(\d+)", line)
            assert match and float(match[1]) == pytest.approx(n / 40, rel=1e-6), line
            iters.append(int(match[2]))
        assert f"uzawa_iterations_total: {sum(iters)}\n" in loud.out

    def test_study_writes_csv(self, capsys, tmp_path):
        ini = write_ini(tmp_path, PRESET_INI.replace("levels = 5", "levels = 2"))
        out_csv = tmp_path / "rows.csv"
        assert main(["study", "--config", ini, "--out", str(out_csv)]) == 0
        rows = read_rows(out_csv)
        assert [r.dof for r in rows] == [28, 104]
        assert "order" in capsys.readouterr().out

    def test_solver_failure_exit_2(self, capsys, tmp_path):
        # an unreachable tolerance with a tiny iteration cap must surface as
        # a solver failure, not a silent success
        text = PRESET_INI.replace("eps = 1e-8", "eps = 1e-30\nmax_iter = 5")
        ini = write_ini(tmp_path, text)
        assert main(["study", "--config", ini]) == 2
        err = capsys.readouterr().err
        assert "solver failure" in err
        # the step and the tail of the increment history are reported
        assert "at time step 1;" in err
        tail = err.split("last increments:")[1].split(",")
        assert len(tail) == 5 and all(float(x) > 0 for x in tail)

    @pytest.mark.parametrize("command,mode,wrong_on,level,step", [
        ("solve", "final", "every", 0, 40), ("study", "final", "every", 0, 40),
        ("study", "max", "every", 0, 1), ("study", "max", "refined", 1, 2)],
        ids=["solve", "study", "study-max", "study-max-fine"])
    def test_failed_step_check_exit_2(self, monkeypatch, capsys, tmp_path, command, mode,
                                      wrong_on, level, step):
        # a wrong friction vector fails the first node read: node N = 40 at
        # level 0, the one node that final mode reads; in max mode, node 1
        # of level 0, or node 2 of level 1 when only refined meshes are wrong
        friction_rhs = solver.friction_rhs

        def wrong(space, g_a, lam):
            if wrong_on == "every" or space.mesh.parent_mesh is not None:
                return np.ones(space.n_dofs_free)
            return friction_rhs(space, g_a, lam)

        monkeypatch.setattr(solver, "friction_rhs", wrong)
        text = PRESET_INI.replace("# error_mode = final", f"error_mode = {mode}")
        assert main([command, "--config", write_ini(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        prefix = "" if command == "solve" else f"level {level}: "
        assert f"solver failure: {prefix}linear solve residual" in err, err
        assert err.endswith(f"\n  at time step {step}\n"), err

    @pytest.mark.parametrize("command", ["solve", "study"])
    def test_boundary_gap_exit_1(self, capsys, tmp_path, command):
        # nothing labels [2, 4] of the bottom side; the mesh finds the gap
        text = PRESET_INI.replace("levels = 5", "levels = 2").replace(
            SIDE_KEYS,
            "segments =\n    left 0 4 neumann\n    right 0 4 dirichlet\n"
            "    bottom 0 2 contact\n    top 0 4 neumann")
        assert main([command, "--config", write_ini(tmp_path, text)]) == 1
        assert capsys.readouterr().err == ("config error: domain: boundary edge at (3.0, 0.0) "
                                           "on side 'bottom' is unlabeled\n")

    @pytest.mark.parametrize("command,flag", [("solve", "--dump-fields"), ("study", "--out")])
    def test_unwritable_output_exit_1_before_the_solve(self, monkeypatch, capsys, tmp_path,
                                                       command, flag):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the output path was checked")

        monkeypatch.setattr(cli, "solve_level", no_solve)
        path = str(tmp_path / "missing" / "out.txt")
        assert main([command, "--preset", "example-5.1", flag, path]) == 1
        assert capsys.readouterr().err == (f"config error: cannot write {path!r}: "
                                           "No such file or directory\n")

    @pytest.mark.parametrize("command,flag", [("solve", "--dump-fields"), ("study", "--out")])
    def test_output_check_leaves_no_file(self, monkeypatch, tmp_path, command, flag):
        def failed_solve(*args, **kwargs):
            raise SolverError("linear solve produced non-finite values")

        monkeypatch.setattr(cli, "solve_level", failed_solve)
        path = tmp_path / "out.txt"
        assert main([command, "--preset", "example-5.1", flag, str(path)]) == 2
        assert not path.exists()

    def test_negative_level_exit_1(self, capsys):
        assert main(["solve", "--preset", "example-5.1", "--level", "-1"]) == 1
        err = capsys.readouterr().err
        assert "config error: solve: level must be a nonnegative integer, got -1" in err

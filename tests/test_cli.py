"""Config parsing, runners, CSV output and the command-line interface."""

import csv
import dataclasses
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
from crcontact.solver import UzawaConfig, UzawaError, march

# the README's INI example, which writes out the example-5.1 preset in full
README = Path(__file__).resolve().parents[1] / "README.md"
PRESET_INI = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
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

    @pytest.mark.parametrize("line", ["left 0 4", "left 0 4 sticky", "left 0 four neumann"],
                             ids=["field-count", "unknown-label", "unparsable-number"])
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
    ], ids=["no-section-header", "duplicate-key", "percent-sign"])
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
    ], ids=["N", "n", "levels"])
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


class TestSolveLevel:
    def test_error_mode_sets_the_kept_nodes(self):
        # final mode keeps u_{N-1} and u_N, max mode every node; each kept
        # node is bit-equal to the same node of an all-node march
        cfg = example_51_config()
        mesh = build_meshes(cfg, 2)[1]
        _, system, final = solve_level(cfg, mesh, 1)
        _, _, every = solve_level(dataclasses.replace(cfg, error_mode="max"), mesh, 1)
        full = march(system, cfg.loads, final.grid, cfg.uzawa)
        assert len(final.displacements) == 2
        assert len(every.displacements) == len(full.displacements) == final.grid.N + 1 == 81
        for traj in (final, every):
            kept = full.displacements[-len(traj.displacements):]
            assert all(np.array_equal(u.coeffs, v.coeffs)
                       for u, v in zip(traj.displacements, kept, strict=True))
            assert len(traj.multipliers) == final.grid.N + 1
            assert traj.uzawa_iters == full.uzawa_iters


@pytest.fixture(scope="module")
def small_rows():
    cfg = dataclasses.replace(example_51_config(), levels=3)
    return run_convergence_study(cfg)


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

    def test_max_error_mode_at_least_final(self, small_rows):
        cfg = dataclasses.replace(example_51_config(), levels=2, error_mode="max")
        rows_max = run_convergence_study(cfg)
        assert rows_max[1].error >= small_rows[1].error - 1e-15

    def test_max_error_mode_against_inter_mesh_error(self):
        # the study's error loop against the one-shot norm, node by node
        cfg = dataclasses.replace(example_51_config(), levels=2, error_mode="max")
        error = run_convergence_study(cfg)[1].error
        coarse, fine = (solve_level(cfg, mesh, level)[2]
                        for level, mesh in enumerate(build_meshes(cfg, 2)))
        ref = max(inter_mesh_error(uc, uf, cfg.material, cfg.rho)
                  for uc, uf in zip(coarse.displacements, fine.displacements[::2], strict=True))
        assert len(coarse.displacements) == cfg.N + 1
        assert error == pytest.approx(ref, rel=1e-14, abs=0.0)


class TestMain:
    def test_bad_config_path_exit_1(self, capsys):
        assert main(["solve", "--config", "/nonexistent.ini"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_and_preset_exit_1(self, capsys):
        assert main(["solve"]) == 1

    def test_preset_and_config_exit_1(self, capsys):
        assert main(["solve", "--preset", "example-5.1", "--config", "/nonexistent.ini"]) == 1
        assert "config error: give --config or --preset, not both" in capsys.readouterr().err

    def test_solve_preset_exit_0(self, capsys, tmp_path):
        ini = write_ini(tmp_path, PRESET_INI.replace("N = 40", "N = 4"))
        assert main(["solve", "--config", ini]) == 0
        out = capsys.readouterr().out
        assert "dof: 28" in out

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

    @pytest.mark.parametrize("command", ["solve", "study"])
    def test_failed_step_check_exit_2(self, monkeypatch, capsys, tmp_path, command):
        # zero loads: u = 0, so every step takes the explicit residual check,
        # which a wrong friction vector fails
        text = PRESET_INI.replace("gx = 0.1 0 -0.02", "gx = 0 0 0").replace(
            "gy = -0.01 0 0", "gy = 0 0 0")
        monkeypatch.setattr("crcontact.solver.friction_rhs",
                            lambda space, g_a, lam: np.ones(space.n_dofs_free))
        assert main([command, "--config", write_ini(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert "solver failure: " in err and "linear solve residual" in err
        assert err.endswith("\n  at time step 1\n"), err

    def test_negative_level_exit_1(self, capsys):
        assert main(["solve", "--preset", "example-5.1", "--level", "-1"]) == 1
        assert "config error: solve: level must be nonnegative" in capsys.readouterr().err

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            main(["solve", "--preset", "example-9.9"])

"""Same numbers: the program's outputs against reference files in ``tests/data``.

The references are the outputs of ``crcontact study --preset example-5.1``
(stdout and ``--out`` CSV), of the same study with ``error_mode = max``
(CSV), and of ``crcontact solve --preset example-5.1 --level 3`` (stdout and
``--dump-fields``). On the preset the inter-mesh error peaks at T on every
level, so its max-mode CSV equals the final-mode one. ``unloading.ini``
gives max mode a reference of its own: its load runs down to zero net force
at T, and the error peaks at an earlier node on levels 2 and 3.

Counts (N, DOFs, time steps, Uzawa iterations) and the printed table must
match exactly. Floats must match to a relative 1e-12 of the largest
magnitude in their column, because another numpy or scipy may round
differently. ``tests/test_solver.py`` pins the per-level Uzawa totals.

A change that moves a reference number updates the file here and reports
the old and new lines in CHANGES.md, as it does for a ``CRITERION`` line.
"""

from pathlib import Path

import numpy as np

from crcontact.cli import main
from test_cli import PRESET_INI, read_rows, write_ini

DATA = Path(__file__).resolve().parent / "data"
RTOL = 1e-12


def assert_close(got, ref):
    """Equal to RTOL times the largest magnitude in each column of ``ref``."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    scale = np.max(np.abs(ref), axis=0)
    assert np.all(np.abs(got - ref) <= RTOL * scale), np.max(np.abs(got - ref))


def assert_same_study_csv(path, ref_path):
    got, ref = read_rows(path), read_rows(ref_path)
    # N and dof exactly; an empty error or order cell stays empty
    assert ([(r.N, r.dof, r.error is None, r.order is None) for r in got]
            == [(r.N, r.dof, r.error is None, r.order is None) for r in ref])
    for field in ("h", "k", "error", "order"):
        assert_close(*([getattr(r, field) for r in rows if getattr(r, field) is not None]
                       for rows in (got, ref)))


def test_study_matches_reference(tmp_path, capsys):
    out = tmp_path / "study.csv"
    assert main(["study", "--preset", "example-5.1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (DATA / "study.txt").read_text()
    assert_same_study_csv(out, DATA / "study.csv")


def test_max_mode_study_matches_reference(tmp_path, capsys):
    ini = write_ini(tmp_path, PRESET_INI.replace("# error_mode = final", "error_mode = max"))
    out = tmp_path / "study-max.csv"
    assert main(["study", "--config", ini, "--out", str(out)]) == 0
    capsys.readouterr()
    assert_same_study_csv(out, DATA / "study-max.csv")


def test_unloading_max_mode_study_matches_reference(tmp_path, capsys):
    out = tmp_path / "unloading-max.csv"
    assert main(["study", "--config", str(DATA / "unloading.ini"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert_same_study_csv(out, DATA / "unloading-max.csv")


def test_solve_level_3_matches_reference(tmp_path, capsys):
    fields = tmp_path / "fields.txt"
    assert main(["solve", "--preset", "example-5.1", "--level", "3",
                 "--dump-fields", str(fields)]) == 0
    got = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    ref = dict(line.split(": ") for line in (DATA / "solve-level3.txt").read_text().splitlines())
    assert list(got) == list(ref)
    counts = ["level", "dof", "dof_free", "time_steps", "uzawa_iterations_total"]
    assert [got[key] for key in counts] == [ref[key] for key in counts]
    for key in set(ref) - set(counts):
        assert_close([float(got[key])], [float(ref[key])])
    assert_close(np.loadtxt(fields), np.loadtxt(DATA / "fields-level3.txt"))

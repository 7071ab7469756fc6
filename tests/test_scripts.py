"""Smoke tests of the experiment scripts under scripts/."""

import importlib.util
from fractions import Fraction
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_spin_variance_table(capsys):
    # main asserts a converged lower <= bound <= lower + delta for each j itself
    _load("spin_variance_table").main(20)
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split()[0] for r in rows] == [str(Fraction(k, 2)) for k in range(1, 21)]


def test_range_gallery(tmp_path):
    _load("range_gallery").main(tmp_path)
    names = ["elliptope_polar.obj", "embedded_qubit_full.obj", "embedded_qubit_sep.obj", "pauli_ball.obj"]
    assert sorted(p.name for p in tmp_path.glob("*.obj")) == names


def test_xy_gap_trend(capsys):
    # main asserts that the gamma = 0 bounds decrease with N
    _load("xy_gap_trend").main(sizes=(6, 8, 10))
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split()[:2] for r in rows] == [[g, n] for g in ("0.00", "0.50") for n in ("6", "8", "10")]

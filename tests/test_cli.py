import argparse
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import ConvexHull

from qgeom import __version__, cli, core, entangle, gapwitness, numrange, su2, uncertainty, wigner
from qgeom.cli import _json_default, load_spinket, main, write_boundary_csv, write_obj_mesh, write_report


def run(args):
    return main([str(a) for a in args])


def write_ops(path, ops):
    with open(path, "w") as fh:
        json.dump({"ops": [core.operator_to_json(o) for o in ops]}, fh)


def test_jnr_pauli_mesh(tmp_path):
    ops = tmp_path / "ops.json"
    write_ops(ops, [core.PAULI_X, core.PAULI_Y, core.PAULI_Z])
    out = tmp_path / "body.json"
    mesh = tmp_path / "body.obj"
    rc = run(["jnr", "--ops", ops, "--dirs", 500, "--out", out, "--mesh", mesh])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["version"]
    verts = [
        list(map(float, line.split()[1:]))
        for line in mesh.read_text().splitlines()
        if line.startswith("v ")
    ]
    norms = np.linalg.norm(np.array(verts), axis=1)
    assert norms.min() > 0.98 and norms.max() < 1.02


def test_jnr_deterministic(tmp_path):
    ops = tmp_path / "ops.json"
    write_ops(ops, [core.PAULI_X, core.PAULI_Z])
    o1 = tmp_path / "a.json"
    o2 = tmp_path / "b.json"
    assert run(["jnr", "--ops", ops, "--dirs", 64, "--out", o1]) == 0
    assert run(["jnr", "--ops", ops, "--dirs", 64, "--out", o2]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_sep_max_deterministic(tmp_path):
    op = tmp_path / "h.json"
    op.write_text(json.dumps(core.operator_to_json(core.random_hermitian(6, np.random.default_rng(3)))))
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert run(["sep-max", "--op", op, "--dims", "2,3", "--out", out]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    doc = json.loads(outs[0].read_text())
    assert doc["tolerances"] == {"bracket_gap": entangle.SEP_TOL}
    meta = doc["meta"]
    assert meta["method"] == "bloch-branch-and-bound"
    assert meta["converged"] is True and 6 <= meta["evaluations"] <= entangle.SEP_BUDGET


def test_sep_max_seesaw_reports_are_byte_identical(tmp_path):
    # off (2, d) the see-saw reports its sweeps and whether every start converged
    op = tmp_path / "h.json"
    op.write_text(json.dumps(core.operator_to_json(core.random_hermitian(9, np.random.default_rng(4)))))
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert run(["sep-max", "--op", op, "--dims", "3,3", "--restarts", 8, "--out", out]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    meta = json.loads(outs[0].read_text())["meta"]
    res = entangle.seesaw_product_max(core.random_hermitian(9, np.random.default_rng(4)), (3, 3), restarts=8)
    assert meta == res.meta and meta["converged"] is True and 1 <= meta["sweeps"] < entangle.SEESAW_SWEEPS


def test_uncertainty_table_j1(tmp_path):
    out = tmp_path / "u.json"
    rc = run(["uncertainty", "--table-j", "1", "--out", out])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert abs(doc["value"] - 0.4375) < 1e-9
    assert "delta" in doc and "certificate" in doc


def test_uncertainty_pair_file(tmp_path):
    ops = tmp_path / "pair.json"
    jx, jy, _ = core.spin_operators(0.5)
    write_ops(ops, [jx, jy])
    out = tmp_path / "u.json"
    assert run(["uncertainty", "--ops", ops, "--out", out]) == 0
    assert abs(json.loads(out.read_text())["value"] - 0.25) < 1e-9


def test_uncertainty_identity_operator(tmp_path):
    # X = 1 has one eigenvalue, so the box and its triangles are flat
    ops = tmp_path / "pair.json"
    write_ops(ops, [np.eye(2), core.PAULI_Z])
    out = tmp_path / "u.json"
    assert run(["uncertainty", "--ops", ops, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == pytest.approx(0.0, abs=1e-12)
    assert doc["sector_bound"] <= doc["value"] <= doc["sector_bound"] + doc["delta"]


@pytest.mark.parametrize("pair", [[], ["--ops", "missing.json", "--table-j", "1"]], ids=["neither", "both"])
def test_uncertainty_needs_exactly_one_operator_pair(tmp_path, capsys, pair):
    out = tmp_path / "u.json"
    with pytest.raises(SystemExit) as exit_info:
        run(["uncertainty", *pair, "--out", out])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--ops" in err and "--table-j" in err
    assert "Traceback" not in err and not out.exists()


def test_uncertainty_report_is_the_library_bound_and_deterministic(tmp_path):
    ops = tmp_path / "pair.json"
    rng = np.random.default_rng(11)
    x, y = core.random_hermitian(4, rng), core.random_hermitian(4, rng)
    write_ops(ops, [x, y])
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert run(["uncertainty", "--ops", ops, "--out", out]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    doc = json.loads(outs[0].read_text())
    b = uncertainty.min_sum_variances(x, y)
    assert (doc["value"], doc["sector_bound"], doc["delta"]) == (b.value, b.sector_bound, b.delta)
    assert doc["sector_bound"] <= doc["value"] <= doc["sector_bound"] + doc["delta"]
    assert doc["meta"] == b.meta and doc["meta"]["method"] == "planar" and doc["meta"]["converged"] is True
    assert doc["tolerances"] == {"bracket": uncertainty.BRACKET_TOL}


def test_uncertainty_reports_an_unconverged_bracket(tmp_path, monkeypatch):
    # a search stopped by the evaluation cap still exits 0, with its wider certified bracket
    ops = tmp_path / "pair.json"
    jx, jy, _ = core.spin_operators(1)
    write_ops(ops, [jx, 1.001 * jy])
    closed = uncertainty.min_sum_variances(jx, 1.001 * jy)
    monkeypatch.setattr(uncertainty, "EVALUATION_CAP", 40)
    out = tmp_path / "u.json"
    assert run(["uncertainty", "--ops", ops, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["converged"] is False and doc["meta"]["evaluations"] <= 40
    assert doc["sector_bound"] <= closed.value and closed.sector_bound <= doc["value"]
    assert doc["value"] <= doc["sector_bound"] + doc["delta"] and doc["delta"] > 1e3 * closed.delta


@pytest.mark.parametrize("drop", ["dim", "re"])
def test_operator_file_missing_key_is_usage_error(tmp_path, capsys, drop):
    doc = core.operator_to_json(core.PAULI_Z)
    del doc[drop]
    ops = tmp_path / "pair.json"
    ops.write_text(json.dumps({"ops": [doc, core.operator_to_json(core.PAULI_X)]}))
    assert run(["uncertainty", "--ops", ops]) == 2
    assert repr(drop) in capsys.readouterr().err


def test_interconvert_example_exact(tmp_path):
    psi = tmp_path / "psi.json"
    phi = tmp_path / "phi.json"
    amps = [np.sqrt(p) for p in (1 / 6, 1 / 3, 1 / 3, 1 / 6)]
    psi.write_text(json.dumps({"offset": 1, "amps": [[a, 0.0] for a in amps]}))
    phi.write_text(
        json.dumps({"offset": 0, "amps": [[1 / np.sqrt(2), 0.0], [1 / np.sqrt(2), 0.0]]})
    )
    out = tmp_path / "rep.json"
    rc = run(["interconvert", "--psi", psi, "--phi", phi, "--exact", "--kraus", "--out", out])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["convertible"] is True
    assert doc["exact"] is True
    assert doc["w"]["offset"] == 1
    assert doc["w"]["weights"] == ["1/3", "1/3", "1/3"]
    assert len(doc["kraus"]["operators"]) == 3


@pytest.mark.parametrize(
    "p, q",
    [
        ((1 / 3, 1 / 3, 1 / 3), (1 / 2, 1 / 2)),  # nonnegative quotient, remainder 1/3
        ((1 / 2, 1 / 2), (1 / 3, 1 / 3, 1 / 3)),  # q wider than p
    ],
)
def test_interconvert_exact_nonzero_remainder(tmp_path, p, q):
    psi = tmp_path / "psi.json"
    phi = tmp_path / "phi.json"
    psi.write_text(json.dumps({"amps": [[np.sqrt(x), 0.0] for x in p]}))
    phi.write_text(json.dumps({"amps": [[np.sqrt(x), 0.0] for x in q]}))
    out = tmp_path / "rep.json"
    assert run(["interconvert", "--psi", psi, "--phi", phi, "--exact", "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["convertible"] is False and doc["exact"] is True
    assert "w" not in doc and "singular_retries" not in doc and "threads" not in doc


def test_gap_cli(tmp_path):
    out = tmp_path / "gap.json"
    csv = tmp_path / "curve.csv"
    rc = run(
        ["gap", "--n", 6, "--gamma", 0.5, "--lambda-max", 3.0,
         "--steps", 31, "--out", out, "--csv-out", csv]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["epsilon"] > 0
    assert doc["consistent"] is True
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "lambda,E0,eH,eV"
    assert len(lines) == 32


def test_gap_cli_long_chain_is_deterministic(tmp_path):
    # identical configs give byte-identical reports, also with zero edge modes at n=64
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert run(["gap", "--n", 64, "--gamma", 0.5, "--out", out]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    doc = json.loads(outs[0].read_text())
    assert doc["meta"] == {"method": "fermion", "solves": 31 + 40 + 1}
    assert all(np.isfinite(doc[k]) for k in ("epsilon", "lambda_star", "true_gap", "plateau_drift"))
    assert isinstance(doc["consistent"], bool)
    # too long a chain is a usage error, as any --n outside 3..MAX_XY_SITES
    assert run(["gap", "--n", gapwitness.MAX_XY_SITES + 1, "--out", tmp_path / "c.json"]) == 2


def test_gap_cli_zero_modes_same_in_every_process(tmp_path):
    # gamma=1 has two exact zero modes at every lambda; they are paired by a fixed rule
    src = str(Path(__file__).resolve().parent.parent / "src")
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"gap{threads}.json"
        cmd = [sys.executable, "-m", "qgeom.cli", "gap", "--n", "10", "--gamma", "1", "--out", str(out)]
        assert subprocess.run(cmd, env=env, timeout=120).returncode == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["consistent"] is True


def test_gap_cli_coarse_grid_reports_failure(tmp_path):
    # grid too coarse to resolve the plateau: computational failure, exit 1
    out = tmp_path / "gap.json"
    rc = run(
        ["gap", "--n", 6, "--gamma", 0.5, "--lambda-max", 3.0,
         "--steps", 4, "--out", out]
    )
    assert rc == 1


@pytest.mark.parametrize(
    "grid, option",
    [
        (["--steps", 0], "--steps"),
        (["--steps", 1], "--steps"),
        (["--lambda-max", "nan"], "--lambda-max"),
        (["--lambda-max", "inf"], "--lambda-max"),
        (["--lambda-max", 0], "--lambda-max"),
        (["--lambda-max", -1], "--lambda-max"),
        (["--gamma", "nan"], "--gamma"),
        (["--gamma", "inf"], "--gamma"),
        (["--n", 2], "--n"),
        (["--n", gapwitness.MAX_XY_SITES + 1], "--n"),
    ],
    ids=["steps-0", "steps-1", "lambda-nan", "lambda-inf", "lambda-0", "lambda-negative", "gamma-nan", "gamma-inf",
         "n-2", "n-301"],
)
def test_gap_cli_rejects_a_bad_grid_before_writing(tmp_path, capsys, grid, option):
    work = tmp_path / "work"
    work.mkdir()
    argv = ["gap", "--n", 6, *grid, "--out", work / "gap.json", "--csv-out", work / "curve.csv"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option} must be") and err.count("\n") == 1
    assert not any(work.iterdir())


@pytest.mark.parametrize("lams", [[], [0.0, np.nan], [0.0, np.inf]], ids=["empty", "nan", "inf"])
def test_ground_curve_rejects_an_empty_or_non_finite_grid(lams):
    h = gapwitness.xy_majorana(6, 0.5)
    with pytest.raises(ValueError, match="non-empty and finite"):
        gapwitness.ground_curve(h, gapwitness.gap_witness_majorana(6), lams)


def test_gap_cli_memory_error_is_computational_failure(tmp_path, monkeypatch, capsys):
    # an allocation failure exits 1 with a message, not a traceback
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 4.00 GiB")

    monkeypatch.setattr(gapwitness, "ground_curve", out_of_memory)
    rc = run(["gap", "--n", 6, "--gamma", 0.5, "--out", tmp_path / "gap.json"])
    assert rc == 1
    assert "computation failed: Unable to allocate 4.00 GiB" in capsys.readouterr().err


def test_sep_max_cli(tmp_path):
    op = tmp_path / "h.json"
    bell = np.zeros((4, 4))
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    op.write_text(json.dumps(core.operator_to_json(bell)))
    out = tmp_path / "sep.json"
    rc = run(["sep-max", "--op", op, "--dims", "2,2", "--dirs", 200, "--out", out])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["lower"] <= 0.5 + 1e-9
    assert doc["upper"] >= 0.5 - 1e-9


def test_sep_max_cli_seesaw_off_qubit_qudit_splits(tmp_path):
    # a triangle has clique number 3, so the product maximum is 2/3; a 3 x 3
    # split has no certified upper side
    op = tmp_path / "h.json"
    h = entangle.clique_matrix(entangle.Graph(3, [(0, 1), (0, 2), (1, 2)]))
    op.write_text(json.dumps(core.operator_to_json(h)))
    out = tmp_path / "sep.json"
    assert run(["sep-max", "--op", op, "--dims", "3,3", "--restarts", 4, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["lower"] == pytest.approx(2 / 3, abs=1e-9) and doc["upper"] is None
    assert doc["tolerances"] == {"seesaw_stagnation": entangle.SEESAW_TOL}
    assert doc["meta"] == {"restarts": 4, "seed": 0, "sweeps": doc["meta"]["sweeps"], "converged": True}
    assert 1 <= doc["meta"]["sweeps"] <= entangle.SEESAW_SWEEPS


def test_wigner_cli(tmp_path):
    st = tmp_path / "rho.json"
    st.write_text(json.dumps(core.operator_to_json(np.eye(3) / 3)))
    out = tmp_path / "w.json"
    csv = tmp_path / "w.csv"
    rc = run(["wigner", "--state", st, "--dims", "3", "--out", out, "--out-csv", csv])
    assert rc == 0
    doc = json.loads(out.read_text())
    vals = np.array(doc["values"])
    assert np.abs(vals - 1 / 9).max() < 1e-12
    assert csv.read_text().startswith("x,q,w")


def test_wigner_cli_csv_out_shorthand(tmp_path, capsys):
    # --out table.csv writes the CSV table, report goes to stdout
    st = tmp_path / "rho.json"
    st.write_text(json.dumps(core.operator_to_json(np.eye(3) / 3)))
    csv = tmp_path / "table.csv"
    assert run(["wigner", "--state", st, "--dims", "3", "--out", csv]) == 0
    assert csv.read_text().startswith("x,q,w")
    assert '"tool": "qgeom"' in capsys.readouterr().out


def test_wigner_cli_rejects_two_csv_outputs(tmp_path, capsys):
    st = tmp_path / "rho.json"
    st.write_text(json.dumps(core.operator_to_json(np.eye(3) / 3)))
    t, u = tmp_path / "t.csv", tmp_path / "u.csv"
    assert run(["wigner", "--state", st, "--dims", "3", "--out", t, "--out-csv", u]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not t.exists() and not u.exists()


def test_wigner_cli_three_prime_factors(tmp_path):
    st = tmp_path / "rho.json"
    st.write_text(json.dumps(core.operator_to_json(core.random_density(105, np.random.default_rng(3)))))
    out = tmp_path / "w.json"
    assert run(["wigner", "--state", st, "--dims", "3,5,7", "--out", out]) == 0
    assert np.array(json.loads(out.read_text())["values"]).shape == (105, 105)


def test_jnr_2d_boundary_csv(tmp_path):
    ops = tmp_path / "ops.json"
    write_ops(ops, [core.PAULI_X, core.PAULI_Z])
    mesh = tmp_path / "boundary.csv"
    assert run(["jnr", "--ops", ops, "--dirs", 90, "--out", tmp_path / "b.json", "--mesh", mesh]) == 0
    lines = mesh.read_text().strip().splitlines()
    assert lines[0] == "x,y"
    pts = np.array([list(map(float, l.split(","))) for l in lines[1:]])
    assert np.abs(np.linalg.norm(pts, axis=1) - 1).max() < 0.02  # unit circle


def test_jnr_mesh_of_four_operators_is_rejected_before_the_sweep(tmp_path, capsys, monkeypatch):
    ops = tmp_path / "ops.json"
    write_ops(ops, [core.random_hermitian(4, np.random.default_rng(k)) for k in range(4)])
    out = tmp_path / "r.json"
    monkeypatch.setattr(numrange, "jnr_approximate", lambda *a: pytest.fail("range computed"))
    monkeypatch.setattr(entangle, "ppt_numerical_range", lambda *a: pytest.fail("range computed"))
    for command, extra in (("jnr", []), ("ppt-jnr", ["--dims", "2,2"])):
        argv = [command, "--ops", ops, "--dirs", 20, "--mesh", tmp_path / "m.obj", "--out", out, *extra]
        assert run(argv) == 2
        assert not out.exists() and not (tmp_path / "m.obj").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--mesh" in err and "Traceback" not in err


def test_ppt_jnr_mesh_of_two_operators_is_a_csv_boundary(tmp_path):
    ops = tmp_path / "ops.json"
    rng = np.random.default_rng(4)
    write_ops(ops, [core.random_hermitian(4, rng) for _ in range(2)])
    out, mesh = tmp_path / "ppt.json", tmp_path / "boundary.csv"
    assert run(["ppt-jnr", "--ops", ops, "--dims", "2,2", "--dirs", 12, "--out", out, "--mesh", mesh]) == 0
    lines = mesh.read_text().splitlines()
    assert lines[0] == "x,y" and lines[1] == lines[-1] and len(lines) >= 5  # a closed polygon
    inner = np.array(json.loads(out.read_text())["inner_vertices"])
    for line in lines[1:]:
        assert np.abs(inner - [float(v) for v in line.split(",")]).max(axis=1).min() == 0.0


def _jsonify(obj):
    """The recursive serializer that write_report used before its json.dumps default hook."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    return str(obj)


def test_write_report_bytes_match_the_recursive_serializer(tmp_path):
    rng = np.random.default_rng(3)
    payload = {
        "floats": [0.1, -0.0, 1e-300, float("inf"), float("nan"), np.float64(2 / 3), np.float32(0.1)],
        "ints": [7, np.int64(-3), np.int32(5), np.uint8(200), True, np.bool_(False), np.bool_(True)],
        "arrays": [rng.normal(size=(2, 3)), np.arange(4), np.array([True, False]), np.array(2.5),
                   np.array([1 + 2j, -0.5j]), np.array([Fraction(1, 3), Fraction(-2)], dtype=object)],
        "scalars": [1 - 1j, np.complex128(0.25 + 3j), Fraction(5, 7), None, "text", np.str_("s")],
        "nested": {"tuple": (1, (2.5, [np.float64(3)])), "deep": {"x": [{"y": np.ones(2)}]}},
        "other": [range(3), {1, 2}],
        "meta": {"method": "dense", "count": np.int64(4)},
        "_tolerances": {"gap": 1e-8},
    }
    args = argparse.Namespace(seed=np.int64(9))
    path = tmp_path / "r.json"
    write_report(dict(payload), path, args)
    tolerances = payload.pop("_tolerances")
    doc = {"tool": "qgeom", "version": __version__, "seed": args.seed, "tolerances": tolerances, **payload}
    assert path.read_text() == json.dumps(_jsonify(doc), sort_keys=True, indent=1) + "\n"


# strings near the splice's slot text, which must stay plain strings ...
_SLOT_LIKE = ["qgeom-ndarray-0", "\x1eqgeom-ndarray-0", '"\\u001eqgeom-ndarray-0\\u001e"']
# ... and strings json writes exactly as a slot, which send the report down the plain path
_SLOTS = ["\x1eqgeom-ndarray-0\x1e", "\x1eqgeom-ndarray-1\x1e", "\x1eqgeom-ndarray-99\x1e"]
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
_SPECIAL = st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf")])


def _float_arrays(special):
    def arrays(dt):
        finite = st.floats(width=np.dtype(dt).itemsize * 8, allow_nan=False, allow_infinity=False)
        return hnp.arrays(dt, _SHAPES, elements=finite | _SPECIAL if special else finite)
    return st.sampled_from([np.float64, np.float32]).flatmap(arrays)


_LEAVES = st.one_of(
    _float_arrays(False), _float_arrays(False), _float_arrays(False), _float_arrays(True),
    hnp.arrays(st.sampled_from([np.int64, np.bool_, np.complex128]), _SHAPES),
    st.lists(st.fractions(max_denominator=9), max_size=3).map(lambda f: np.array(f, dtype=object)),
    st.floats(), st.integers(), st.booleans(), st.none(), st.complex_numbers(), st.fractions(max_denominator=9),
    st.text(max_size=4), st.sampled_from(_SLOT_LIKE),
)
_KEYS = st.one_of(st.text(max_size=4), st.sampled_from(["meta", *_SLOT_LIKE]))
_TREES = st.recursive(_LEAVES, lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_KEYS, kids, max_size=4),
                      max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_KEYS, _TREES, max_size=5), st.dictionaries(_KEYS, _TREES, max_size=3),
       st.sampled_from([None, None, *_SLOTS]), st.booleans())
def test_write_report_bytes_match_json_dumps(payload, meta, slot, as_key):
    # the float-array splice against the plain json.dumps it replaces
    payload["meta"] = {"nested": meta, "counts": np.arange(3), "points": np.ones((2, 3)) / 3}
    if slot is not None:
        payload["meta"].update({slot: 1} if as_key else {"text": slot})
    args = argparse.Namespace(seed=5)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        write_report(dict(payload), "-", args)
    doc = {"tool": "qgeom", "version": __version__, "seed": 5, "tolerances": payload.pop("_tolerances", {}), **payload}
    assert out.getvalue() == json.dumps(doc, sort_keys=True, indent=1, default=_json_default) + "\n"


def _old_obj(pts, path):
    """The OBJ writer's row loop before one formatted write replaced it."""
    hull = ConvexHull(pts)
    with open(path, "w") as fh:
        for p in pts[hull.vertices]:
            fh.write(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
        remap = {v: i + 1 for i, v in enumerate(hull.vertices)}
        for simplex in hull.simplices:
            a, b, c = (remap[s] for s in simplex)
            fh.write(f"f {a} {b} {c}\n")


def _old_boundary(pts, path):
    hull = ConvexHull(pts)
    with open(path, "w", newline="") as fh:
        fh.write("x,y\r\n")
        for i in list(hull.vertices) + [hull.vertices[0]]:
            fh.write(f"{pts[i][0]:.17g},{pts[i][1]:.17g}\r\n")


@pytest.mark.parametrize("k", [2, 3])
def test_mesh_writers_match_their_row_loops(tmp_path, k):
    ops = [core.random_hermitian(16, np.random.default_rng([k, i])) for i in range(k)]
    pts = numrange.jnr_approximate(ops, numrange.sphere_directions(k, 2000)).inner_vertices
    pts[0] = -0.0  # signed zeros keep their sign
    new, old = tmp_path / "new", tmp_path / "old"
    (write_obj_mesh if k == 3 else write_boundary_csv)(pts, new)
    (_old_obj if k == 3 else _old_boundary)(pts, old)
    assert new.read_bytes() == old.read_bytes()


@pytest.mark.parametrize("gamma", [0.5, 0.52])
def test_gap_csv_matches_the_row_loop(tmp_path, gamma):
    # the benchmark's gap_n10 grid, gamma within its jitter of 0.5 +- 0.03
    csv = tmp_path / "curve.csv"
    assert run(["gap", "--n", 10, "--gamma", gamma, "--lambda-max", 0.5, "--steps", 6,
                "--out", tmp_path / "gap.json", "--csv-out", csv]) == 0
    h = gapwitness.xy_majorana(10, gamma)
    curve = gapwitness.ground_curve(h, gapwitness.gap_witness_majorana(10), np.linspace(0.0, 0.5, 6))
    rows = "".join(f"{lam:.17g},{e0:.17g},{eh:.17g},{ev:.17g}\r\n"
                   for lam, e0, eh, ev in zip(curve.lams, curve.energies, curve.e_h, curve.e_v))
    assert csv.read_bytes() == ("lambda,E0,eH,eV\r\n" + rows).encode()


@pytest.mark.parametrize("dims", [(3, 5), (5, 7)])
def test_wigner_csv_matches_the_row_loop(tmp_path, dims):
    # the benchmark's Weyl-Heisenberg dims, with negative values and a signed zero
    d = int(np.prod(dims))
    rho = core.random_density(d, np.random.default_rng(d))
    st_path, csv = tmp_path / "rho.json", tmp_path / "w.csv"
    st_path.write_text(json.dumps(core.operator_to_json(rho)))
    assert run(["wigner", "--state", st_path, "--dims", ",".join(map(str, dims)), "--out", tmp_path / "w.json",
                "--out-csv", csv]) == 0
    values = wigner.wigner_of(rho, dims).values
    assert values.min() < 0
    rows = "".join(f"{x},{q},{values[x, q]:.17g}\r\n" for x in range(d) for q in range(d))
    assert csv.read_bytes() == ("x,q,w\r\n" + rows).encode()


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("command", ["jnr", "ppt-jnr"])
def test_mesh_of_a_flat_range_keeps_the_report_and_exits_1(tmp_path, capsys, command, k):
    # X, Z and X + Z (k = 3) or X and 2X (k = 2) on the first qubit: the range is a disc or a segment
    x, z = (np.kron(p, np.eye(2)) for p in (core.PAULI_X, core.PAULI_Z))
    ops = tmp_path / "ops.json"
    write_ops(ops, [x, z, x + z] if k == 3 else [x, 2 * x])
    out, mesh = tmp_path / "r.json", tmp_path / ("m.obj" if k == 3 else "m.csv")
    extra = ["--dims", "2,2"] if command == "ppt-jnr" else []
    assert run([command, "--ops", ops, "--dirs", 40, "--out", out, "--mesh", mesh, *extra]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "flat" in err and "no mesh written" in err and "QH" not in err
    assert json.loads(out.read_text())["unbounded"] is False
    assert not mesh.exists()


def test_su2_marvian_cli(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps([{"j": "1/2", "m": "1/2", "amp": [1.0, 0.0]}]))
    s = 1 / np.sqrt(2)
    b.write_text(
        json.dumps([{"j": "0", "m": "0", "amp": [s, 0.0]}, {"j": "1", "m": "1", "amp": [s, 0.0]}])
    )
    out = tmp_path / "m.json"
    rc = run(["su2", "marvian", "--a", a, "--b", b, "--samples", 80, "--seed", 3, "--out", out])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["consistent"] is False
    assert "certificate" in doc


def test_su2_chi_cli_lists_rotation_vectors_of_the_haar_samples(tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps([{"j": "1/2", "m": "1/2", "amp": [0.6, 0.0]}, {"j": "1", "m": "0", "amp": [0.0, 0.8]}]))
    out = tmp_path / "chi.json"
    assert run(["su2", "chi", "--a", a, "--samples", 6, "--seed", 4, "--out", out]) == 0
    rows = json.loads(out.read_text())["chi_samples"]
    q = su2.haar_quaternions(6, seed=4)
    v = np.array([r["v"] for r in rows])
    # exp(i v.sigma/2) = w + i (x, y, z).sigma, angle in [0, 2 pi]
    t = np.linalg.norm(v, axis=1)
    assert np.abs(np.cos(t / 2) - q[:, 0]).max() < 1e-12
    assert np.abs(np.sin(t / 2)[:, None] * v / t[:, None] - q[:, 1:]).max() < 1e-12
    ket = load_spinket(str(a))
    for r in rows:
        assert abs(complex(*r["chi"]) - su2.characteristic_function(ket, su2.GroupElement(r["v"]))) < 1e-15


@pytest.mark.parametrize("action,samples", [("marvian", 1), ("marvian", 0), ("marvian", -1), ("chi", 0), ("chi", -1)])
def test_su2_rejects_vacuous_sample_counts(tmp_path, capsys, action, samples):
    # one sample tests only f(e) = 1, none tests nothing: usage errors, not verdicts
    a = tmp_path / "a.json"
    a.write_text(json.dumps([{"j": "1/2", "m": "1/2", "amp": [1.0, 0.0]}]))
    out = tmp_path / "r.json"
    assert run(["su2", action, "--a", a, "--b", a, "--samples", samples, "--out", out]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "samples" in err and "Traceback" not in err


def test_su2_marvian_200_samples_same_in_every_process(tmp_path):
    # the c03 pair at the default 200 samples, under one and two BLAS threads
    src = str(Path(__file__).resolve().parent.parent / "src")
    phi = tmp_path / "phi.json"
    psi = tmp_path / "psi.json"
    phi.write_text(json.dumps([{"j": str(j), "m": "-1", "amp": [1 / np.sqrt(3), 0.0]} for j in (1, 2, 3)]))
    probs = {1: 3 / 10, 2: 43 / 126, 3: 97 / 360, 4: 5 / 56}
    psi.write_text(json.dumps([{"j": str(j), "m": "-1", "amp": [np.sqrt(p), 0.0]} for j, p in probs.items()]))
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"m{threads}.json"
        cmd = [sys.executable, "-m", "qgeom.cli", "su2", "marvian", "--a", str(psi), "--b", str(phi),
               "--seed", "1", "--out", str(out)]
        assert subprocess.run(cmd, env=env, timeout=120).returncode == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    doc = json.loads(reports[0])
    assert doc["consistent"] is True and doc["used"] + doc["skipped"] == 200


def test_su2_convert_cli(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    amp = 1 / np.sqrt(3)
    a.write_text(
        json.dumps([{"j": str(j), "m": "-1", "amp": [amp, 0.0]} for j in (1, 2, 3)])
    )
    amp2 = 1 / np.sqrt(2)
    b.write_text(
        json.dumps([{"j": "0", "m": "0", "amp": [amp2, 0.0]}, {"j": "1", "m": "0", "amp": [amp2, 0.0]}])
    )
    out = tmp_path / "psi.json"
    rc = run(["su2", "convert", "--a", a, "--b", b, "--out", out])
    assert rc == 0
    doc = json.loads(out.read_text())
    probs = {e["j"]: e["amp"][0] ** 2 + e["amp"][1] ** 2 for e in doc["state"]}
    assert abs(probs["1"] - 0.3) < 1e-12


def test_distinguish_cli(tmp_path):
    u = tmp_path / "u.json"
    v = tmp_path / "v.json"
    u.write_text(json.dumps(core.operator_to_json(np.eye(2))))
    v.write_text(json.dumps(core.operator_to_json(core.PAULI_Z)))
    out = tmp_path / "d.json"
    assert run(["distinguish", "--u", u, "--v", v, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["distinguishable"] is True


def test_classify_cli(tmp_path, monkeypatch):
    ops = tmp_path / "triple.json"
    e01 = np.zeros((3, 3)); e01[0, 1] = e01[1, 0] = -1.0
    e02 = np.zeros((3, 3)); e02[0, 2] = e02[2, 0] = -1.0
    e12 = np.zeros((3, 3)); e12[1, 2] = e12[2, 1] = -1.0
    write_ops(ops, [e01, e02, e12])
    rows = []  # rows of each _top_pair call: the candidates, then the live rows of each polish step
    top_pair = numrange._top_pair

    def counting(ops, n):
        rows.append(len(n))
        return top_pair(ops, n)

    monkeypatch.setattr(numrange, "_top_pair", counting)
    outs = [tmp_path / "cls.json", tmp_path / "again.json"]
    for out in outs:
        rows.clear()
        assert run(["classify", "--ops", ops, "--dirs", 800, "--out", out]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    doc = json.loads(outs[0].read_text())
    assert (doc["e"], doc["s"]) == (4, 0)
    assert doc["meta"] == {"method": "sweep-polish", "candidates": rows[0], "polish_steps": len(rows) - 1}
    assert rows[0] > 0 and len(rows) > 1
    # commuting triple: refusal report and exit 1
    write_ops(ops, [np.diag([1.0, 2, 3]), np.diag([0.0, 1, -1]), np.diag([2.0, 2, 5])])
    assert run(["classify", "--ops", ops, "--out", tmp_path / "r.json"]) == 1
    assert json.loads((tmp_path / "r.json").read_text())["refused"] is True


def test_classify_cli_without_candidates_writes_strict_json(tmp_path):
    # spin-1: n.J has eigenvalues -1, 0, 1 for every unit n, so every sweep
    # gap is 1 and no direction is a flat-face candidate
    ops = tmp_path / "spin1.json"
    write_ops(ops, core.spin_operators(1))
    out = tmp_path / "cls.json"
    assert run(["classify", "--ops", ops, "--dirs", 200, "--out", out]) == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads(out.read_text(), parse_constant=reject)
    assert (doc["e"], doc["s"], doc["faces"]) == (0, 0, [])
    assert doc["min_unpolished_gap"] == pytest.approx(1.0, abs=1e-12)
    assert doc["meta"] == {"method": "sweep-polish", "candidates": 0, "polish_steps": 0}


def test_classify_cli_every_direction_merged_writes_strict_json(tmp_path, monkeypatch):
    # every direction is a candidate and every candidate joins a face, so no
    # sweep gap lies outside the faces: the margin is null
    monkeypatch.setattr(numrange, "CANDIDATE_GAP", 2.5)  # relative gaps are at most 2
    monkeypatch.setattr(numrange, "FLAT_GAP", 10.0)
    ops = tmp_path / "triple.json"
    e01 = np.zeros((3, 3)); e01[0, 1] = e01[1, 0] = -1.0
    e02 = np.zeros((3, 3)); e02[0, 2] = e02[2, 0] = -1.0
    e12 = np.zeros((3, 3)); e12[1, 2] = e12[2, 1] = -1.0
    write_ops(ops, [e01, e02, e12])
    out = tmp_path / "cls.json"
    assert run(["classify", "--ops", ops, "--dirs", 30, "--out", out]) == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads(out.read_text(), parse_constant=reject)
    assert (doc["e"], doc["s"]) == (4, 0)
    assert doc["min_unpolished_gap"] is None
    assert doc["meta"]["candidates"] == 30


def test_sep_max_cli_budget(tmp_path, capsys):
    op = tmp_path / "h.json"
    op.write_text(json.dumps(core.operator_to_json(core.random_hermitian(6, np.random.default_rng(5)))))
    out = tmp_path / "sep.json"
    assert run(["sep-max", "--op", op, "--dims", "2,3", "--dirs", 20, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["lower"] <= doc["upper"] and doc["meta"]["evaluations"] == 18
    assert run(["sep-max", "--op", op, "--dims", "2,3", "--dirs", 0]) == 2
    assert run(["sep-max", "--op", op, "--dims", "3,2", "--restarts", 0]) == 2
    err = capsys.readouterr().err
    assert "budget" in err and "restart" in err and "Traceback" not in err


def test_sep_jnr_seesaw_needs_a_restart(tmp_path, capsys):
    ops = tmp_path / "ops.json"
    write_ops(ops, [core.random_hermitian(9, np.random.default_rng(k)) for k in range(3)])
    out = tmp_path / "r.json"
    assert run(["sep-jnr", "--ops", ops, "--dims", "3,3", "--restarts", 0, "--out", out]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "need at least one restart" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["jnr", "sep-jnr", "ppt-jnr"])
@pytest.mark.parametrize("dirs", [0, -1])
def test_range_commands_reject_empty_direction_sets(tmp_path, capsys, command, dirs):
    ops = tmp_path / "ops.json"
    write_ops(ops, [core.random_hermitian(4, np.random.default_rng(k)) for k in range(3)])
    out = tmp_path / "r.json"
    extra = [] if command == "jnr" else ["--dims", "2,2"]
    assert run([command, "--ops", ops, "--dirs", dirs, "--out", out, *extra]) == 2
    assert not out.exists()
    assert "at least one direction" in capsys.readouterr().err


def test_sep_and_ppt_jnr_cli(tmp_path):
    ops = tmp_path / "ops.json"
    rng = np.random.default_rng(4)
    write_ops(ops, [core.random_hermitian(4, rng) for _ in range(2)])
    sep_out = tmp_path / "sep.json"
    rc = run(["sep-jnr", "--ops", ops, "--dims", "2,2", "--dirs", 12,
              "--restarts", 4, "--out", sep_out])
    assert rc == 0
    doc = json.loads(sep_out.read_text())
    assert doc["meta"]["outer_rigorous"] is True
    ppt_out = tmp_path / "ppt.json"
    rc = run(["ppt-jnr", "--ops", ops, "--dims", "2,2", "--dirs", 8, "--out", ppt_out])
    assert rc == 0
    doc = json.loads(ppt_out.read_text())
    assert len(doc["inner_vertices"]) == 8


def test_ppt_jnr_cli_closes_the_triangle_clique_bracket(tmp_path):
    ops = tmp_path / "tri.json"
    write_ops(ops, [entangle.clique_matrix(entangle.Graph(3, [(0, 1), (0, 2), (1, 2)]))])
    out = tmp_path / "ppt.json"
    assert run(["ppt-jnr", "--ops", ops, "--dims", "3,3", "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["outer_rigorous"] is True
    # directions +1 and -1: the PPT maximum 2/3 (Friedland-Lim) and minus the minimum 0
    assert doc["outer_offsets"] == pytest.approx([2 / 3, 0.0], abs=1e-8)


def test_ppt_jnr_report_same_in_every_process(tmp_path):
    ops = tmp_path / "ops.json"
    pair = [core.random_hermitian(6, np.random.default_rng(k)) for k in range(2)]
    write_ops(ops, pair)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    reports = []
    for k in range(2):
        out = tmp_path / f"ppt{k}.json"
        cmd = [sys.executable, "-m", "qgeom.cli", "ppt-jnr", "--ops", str(ops), "--dims", "2,3",
               "--dirs", "16", "--out", str(out)]
        assert subprocess.run(cmd, env=env, timeout=120).returncode == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    meta = json.loads(reports[0])["meta"]
    assert meta["method"] == "admm" and meta["converged"] is True and meta["outer_rigorous"] is True
    runs = [entangle.ppt_max(sum(c * x for c, x in zip(n, pair)), (2, 3), tol=1e-8)
            for n in numrange.sphere_directions(2, 16)]
    assert meta["iterations"] == sum(r.iterations for r in runs)
    assert meta["max_bracket"] == pytest.approx(max(r.upper - r.value for r in runs), abs=1e-14)
    assert meta["max_bracket"] <= 1e-8


@pytest.mark.parametrize("command", ["sep-jnr", "ppt-jnr"])
@pytest.mark.parametrize("dims", [[2.5, 2], "22", [2.0, 2.0], [True, 4]], ids=["2.5,2", "str", "floats", "bool"])
def test_non_integer_dims_in_an_ops_file_are_usage_errors(tmp_path, capsys, command, dims):
    ops = tmp_path / "ops.json"
    rng = np.random.default_rng(0)
    ops.write_text(json.dumps({"ops": [core.operator_to_json(core.random_hermitian(4, rng)) for _ in range(2)],
                               "dims": dims}))
    out = tmp_path / "r.json"
    assert run([command, "--ops", ops, "--dirs", 2, "--out", out]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: local dimensions must be integers")


def test_sep_jnr_offsets_are_the_sep_max_uppers(tmp_path):
    # each direction's operator H_n, written out and read back exactly, gives through
    # sep-max the same certified upper, bit for bit, as sep-jnr's outer offset
    ops = tmp_path / "ops.json"
    pair = [core.random_hermitian(6, np.random.default_rng(k)) for k in (5, 6)]
    write_ops(ops, pair)
    body = tmp_path / "sep.json"
    assert run(["sep-jnr", "--ops", ops, "--dims", "2,3", "--dirs", 6, "--out", body]) == 0
    doc = json.loads(body.read_text())
    for k, (n, offset) in enumerate(zip(doc["outer_normals"], doc["outer_offsets"])):
        op, out = tmp_path / f"h{k}.json", tmp_path / f"max{k}.json"
        op.write_text(json.dumps(core.operator_to_json(sum(c * x for c, x in zip(n, pair)))))
        assert run(["sep-max", "--op", op, "--dims", "2,3", "--out", out]) == 0
        assert json.loads(out.read_text())["upper"] == offset


@pytest.mark.parametrize("command", ["jnr", "sep-jnr"])
def test_body_reports_same_in_every_process(tmp_path, command):
    # W(X, Y) is the triangle (0, 0), (1, 1), (1, -1): four directions of eight
    # have a degenerate top eigenvalue, and jnr samples each of those faces
    ops = tmp_path / "ops.json"
    x, y = np.diag([1.0, 1.0, 0.0, 0.0]), np.zeros((4, 4))
    y[0, 1] = y[1, 0] = 1.0
    write_ops(ops, [x, y])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    reports = []
    extra = [] if command == "jnr" else ["--dims", "2,2"]
    for k in range(2):
        out = tmp_path / f"{command}{k}.json"
        cmd = [sys.executable, "-m", "qgeom.cli", command, "--ops", str(ops), "--dirs", "8", "--out", str(out), *extra]
        assert subprocess.run(cmd, env=env, timeout=120).returncode == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    meta = json.loads(reports[0])["meta"]
    if command == "jnr":
        assert meta == {"method": "support-sweep", "faces": 4}
    else:
        runs = [entangle.qubit_qudit_sep_max(n[0] * x + n[1] * y, (2, 2)) for n in numrange.sphere_directions(2, 8)]
        assert meta == {"outer_rigorous": True, "method": "bloch-branch-and-bound",
                        "evaluations": sum(b.meta["evaluations"] for b in runs),
                        "converged": all(b.meta["converged"] for b in runs)}


def test_ppt_jnr_exits_1_on_an_open_bracket(tmp_path, monkeypatch):
    ops = tmp_path / "ops.json"
    write_ops(ops, [core.random_hermitian(4, np.random.default_rng(k)) for k in range(2)])
    out = tmp_path / "ppt.json"
    monkeypatch.setattr(entangle, "PPT_MAX_ITER", 2)
    assert run(["ppt-jnr", "--ops", ops, "--dims", "2,2", "--dirs", 12, "--out", out]) == 1
    doc = json.loads(out.read_text())
    assert doc["meta"]["converged"] is False and doc["meta"]["outer_rigorous"] is True
    assert doc["meta"]["max_bracket"] > 1e-8 and doc["meta"]["iterations"] <= 2 * 12
    # every upper is a weak-duality bound at any step, so the PPT states stay inside
    normals, inner = np.array(doc["outer_normals"]), np.array(doc["inner_vertices"])
    assert np.all(normals @ inner.T <= np.array(doc["outer_offsets"])[:, None] + 1e-12)


def test_wh_convert_cli(tmp_path):
    rng = np.random.default_rng(9)
    sigma = core.random_density(3, rng)
    from qgeom import wigner as wg

    d = wg.wh_displacement(1, 1, (3,))
    rho = d @ sigma @ d.conj().T
    pa = tmp_path / "rho.json"
    pb = tmp_path / "sigma.json"
    pa.write_text(json.dumps(core.operator_to_json(rho)))
    pb.write_text(json.dumps(core.operator_to_json(sigma)))
    out = tmp_path / "k.json"
    assert run(["wh-convert", "--rho", pa, "--sigma", pb, "--dims", "3", "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["convertible"] is True
    assert abs(np.array(doc["kernel"])[1, 1] - 1.0) < 1e-8


def test_usage_errors(tmp_path):
    assert run(["sep-max", "--op", tmp_path / "missing.json", "--dims", "2,2"]) == 2
    op = tmp_path / "h.json"
    op.write_text(json.dumps(core.operator_to_json(np.eye(4))))
    assert run(["sep-max", "--op", op, "--dims", "2,x"]) == 2
    with pytest.raises(SystemExit):
        run(["no-such-command"])


@pytest.mark.parametrize(
    "argv",
    [["uncertainty", "--table-j", "1", "--out"], ["gap", "--n", "8", "--csv-out"]],
    ids=["out", "csv-out"],
)
def test_unwritable_output_path_is_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing-dir" / "report"
    assert run(argv + [target]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(target) in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "command, doc",
    [
        ("interconvert", {}),
        ("interconvert", {"amps": 5}),
        ("su2", [1, 2]),
        ("su2", [{"j": "1"}]),
        ("sep-jnr", 5),
        ("ppt-jnr", 5),
    ],
    ids=["ladder-empty", "ladder-amps-5", "spin-list", "spin-no-amp", "sep-jnr-dims-5", "ppt-jnr-dims-5"],
)
def test_malformed_input_file_is_usage_error(tmp_path, capsys, command, doc):
    bad = tmp_path / "bad.json"
    good = tmp_path / "good.json"
    if command == "interconvert":
        good.write_text(json.dumps({"amps": [[1.0, 0.0]]}))
        argv = ["interconvert", "--psi", bad, "--phi", good]
    elif command == "su2":
        good.write_text(json.dumps([{"j": "1/2", "m": "1/2", "amp": [1.0, 0.0]}]))
        argv = ["su2", "combine", "--a", bad, "--b", good]
    else:
        doc = {"ops": [core.operator_to_json(o) for o in (core.PAULI_X, core.PAULI_Z)], "dims": doc}
        argv = [command, "--ops", bad, "--dirs", 2]
    bad.write_text(json.dumps(doc))
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("workers", [2, 3])
def test_jnr_report_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, workers):
    rng = np.random.default_rng(64)
    ops = tmp_path / "ops.json"
    write_ops(ops, [core.random_hermitian(64, rng) for _ in range(3)])
    reports = []
    for w in (1, workers):
        monkeypatch.setattr(core, "cpu_workers", lambda: w)
        out = tmp_path / f"jnr{w}.json"
        assert run(["jnr", "--ops", ops, "--dirs", 300, "--out", out]) == 0
        reports.append(out.read_bytes())
    assert reports[1] == reports[0]


def test_an_error_in_a_threaded_chunk_exits_1(tmp_path, monkeypatch, capsys):
    class ChunkFailure(RuntimeError):
        pass

    starts = itertools.count()
    top_pairs = numrange._top_pairs

    def second_chunk_fails(mats):
        if next(starts) == 1:
            raise ChunkFailure("the second chunk failed")
        return top_pairs(mats)

    monkeypatch.setattr(core, "cpu_workers", lambda: 2)
    monkeypatch.setattr(numrange, "_top_pairs", second_chunk_fails)
    rng = np.random.default_rng(32)
    ops = tmp_path / "ops.json"
    write_ops(ops, [core.random_hermitian(32, rng) for _ in range(3)])
    assert run(["jnr", "--ops", ops, "--dirs", 500, "--out", tmp_path / "r.json"]) == 1
    assert "computation failed: the second chunk failed" in capsys.readouterr().err


def _spin_file(path, terms):
    path.write_text(json.dumps([{"j": j, "m": m, "amp": [a, 0.0]} for j, m, a in terms]))
    return path


def _shared_parser_sequence(tmp_path):
    """argv lists that set options the next call of the same subcommand leaves at their defaults."""
    ops3 = tmp_path / "ops3.json"
    write_ops(ops3, [core.PAULI_X, core.PAULI_Y, core.PAULI_Z])
    pair = tmp_path / "pair.json"
    write_ops(pair, core.spin_operators(0.5)[:2])
    s = 1 / np.sqrt(2)
    a = _spin_file(tmp_path / "a.json", [("1/2", "1/2", 1.0)])
    b = _spin_file(tmp_path / "b.json", [("0", "0", s), ("1", "1", s)])
    return [
        ["jnr", "--ops", ops3, "--dirs", 60, "--seed", 4, "--mesh", "@mesh.obj", "--out", "@jnr_mesh.json"],
        ["jnr", "--dirs", 7, "--seed", 9],  # usage error: --ops is missing
        ["jnr", "--ops", ops3, "--out", "@jnr.json"],
        ["uncertainty", "--ops", pair, "--out", "@u_ops.json"],
        ["--version"],
        ["uncertainty", "--table-j", "1", "--out", "@u_table.json"],
        ["su2", "marvian", "--a", a, "--b", b, "--samples", 20, "--seed", 3, "--out", "@marvian.json"],
        ["su2", "combine", "--a", a, "--b", b, "--out", "@combine.json"],
    ]


def _run_sequence(sequence, outdir):
    """Exit code (or SystemExit code) of each call, and the bytes of every file the calls wrote."""
    outdir.mkdir()
    codes = []
    for argv in sequence:
        argv = [str(outdir / a[1:]) if isinstance(a, str) and a.startswith("@") else str(a) for a in argv]
        try:
            codes.append(main(argv))
        except SystemExit as e:
            codes.append(("exit", e.code))
    return codes, {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def test_the_shared_parser_gives_the_reports_of_a_fresh_one(tmp_path, monkeypatch, capsys):
    sequence = _shared_parser_sequence(tmp_path)
    shared = _run_sequence(sequence, tmp_path / "shared")
    shared_out = capsys.readouterr()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)  # a new parser per call
    fresh = _run_sequence(sequence, tmp_path / "fresh")
    assert shared == fresh and shared_out == capsys.readouterr()
    codes, files = shared
    assert codes == [0, ("exit", 2), 0, 0, ("exit", 0), 0, 0, 0]
    assert shared_out.out == f"qgeom {__version__}\n"
    # the second jnr wrote its report and no mesh
    assert sorted(files) == ["combine.json", "jnr.json", "jnr_mesh.json", "marvian.json", "mesh.obj",
                             "u_ops.json", "u_table.json"]
    marvian = json.loads(files["marvian.json"])
    assert marvian["used"] + marvian["skipped"] == 20


def test_no_option_value_carries_over_between_calls():
    parser, fresh = cli.build_parser(), cli.build_parser.__wrapped__()
    assert cli.build_parser() is parser
    for argv in [
        ["jnr", "--ops", "o.json", "--dirs", "7", "--mesh", "m.obj", "--seed", "4", "--out", "r.json"],
        ["jnr", "--ops", "o.json"],
        ["uncertainty", "--ops", "p.json"],
        ["uncertainty", "--table-j", "1"],
        ["su2", "marvian", "--a", "a.json", "--b", "b.json", "--samples", "20"],
        ["su2", "combine", "--a", "a.json", "--b", "b.json"],
    ]:
        assert vars(parser.parse_args(argv)) == vars(fresh.parse_args(argv))
    plain = parser.parse_args(["jnr", "--ops", "o.json"])
    assert (plain.mesh, plain.dirs, plain.seed, plain.out) == (None, 1000, 0, None)
    assert parser.parse_args(["uncertainty", "--table-j", "1"]).ops is None
    assert parser.parse_args(["su2", "combine"]).samples == 200


def test_two_subcommands_on_two_threads_write_their_serial_reports(tmp_path):
    rng = np.random.default_rng(8)
    ops = tmp_path / "ops.json"
    write_ops(ops, [core.random_hermitian(4, rng) for _ in range(3)])
    s = 1 / np.sqrt(2)
    a = _spin_file(tmp_path / "a.json", [("1/2", "1/2", 1.0)])
    b = _spin_file(tmp_path / "b.json", [("0", "0", s), ("1", "1", s)])

    def calls(tag):
        return [["jnr", "--ops", ops, "--dirs", 400, "--seed", 2, "--out", tmp_path / f"jnr_{tag}.json"],
                ["su2", "marvian", "--a", a, "--b", b, "--samples", 60, "--seed", 5,
                 "--out", tmp_path / f"marvian_{tag}.json"]]

    assert [run(argv) for argv in calls("serial")] == [0, 0]
    cli.build_parser.cache_clear()  # both threads may also race to build the parser
    start = threading.Barrier(2, timeout=60)

    def at_once(argv):
        start.wait()
        return run(argv)

    with ThreadPoolExecutor(2) as pool:
        futures = [pool.submit(at_once, argv) for argv in calls("threaded")]
        assert [f.result(timeout=120) for f in futures] == [0, 0]
    for name in ("jnr", "marvian"):
        assert (tmp_path / f"{name}_threaded.json").read_bytes() == (tmp_path / f"{name}_serial.json").read_bytes()

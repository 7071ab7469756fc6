import json

import numpy as np
import pytest

from qgeom import core, gapwitness
from qgeom.cli import main


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


def test_gap_cli(tmp_path):
    out = tmp_path / "gap.json"
    csv = tmp_path / "curve.csv"
    rc = run(
        ["gap", "--model", "xy", "--n", 6, "--gamma", 0.5, "--lambda-max", 3.0,
         "--steps", 31, "--out", out, "--csv-out", csv]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["epsilon"] > 0
    assert doc["consistent"] is True
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "lambda,E0,eH,eV"
    assert len(lines) == 32


def test_gap_cli_coarse_grid_reports_failure(tmp_path):
    # grid too coarse to resolve the plateau: computational failure, exit 1
    out = tmp_path / "gap.json"
    rc = run(
        ["gap", "--model", "xy", "--n", 6, "--gamma", 0.5, "--lambda-max", 3.0,
         "--steps", 4, "--out", out]
    )
    assert rc == 1


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


def test_jnr_2d_boundary_csv(tmp_path):
    ops = tmp_path / "ops.json"
    write_ops(ops, [core.PAULI_X, core.PAULI_Z])
    mesh = tmp_path / "boundary.csv"
    assert run(["jnr", "--ops", ops, "--dirs", 90, "--out", tmp_path / "b.json", "--mesh", mesh]) == 0
    lines = mesh.read_text().strip().splitlines()
    assert lines[0] == "x,y"
    pts = np.array([list(map(float, l.split(","))) for l in lines[1:]])
    assert np.abs(np.linalg.norm(pts, axis=1) - 1).max() < 0.02  # unit circle


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


def test_classify_cli(tmp_path):
    ops = tmp_path / "triple.json"
    e01 = np.zeros((3, 3)); e01[0, 1] = e01[1, 0] = -1.0
    e02 = np.zeros((3, 3)); e02[0, 2] = e02[2, 0] = -1.0
    e12 = np.zeros((3, 3)); e12[1, 2] = e12[2, 1] = -1.0
    write_ops(ops, [e01, e02, e12])
    out = tmp_path / "cls.json"
    assert run(["classify", "--ops", ops, "--dirs", 800, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert (doc["e"], doc["s"]) == (4, 0)
    # commuting triple: refusal report and exit 1
    write_ops(ops, [np.diag([1.0, 2, 3]), np.diag([0.0, 1, -1]), np.diag([2.0, 2, 5])])
    assert run(["classify", "--ops", ops, "--out", tmp_path / "r.json"]) == 1
    assert json.loads((tmp_path / "r.json").read_text())["refused"] is True


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


def test_threads_env_fallback(tmp_path, monkeypatch):
    ops = tmp_path / "ops.json"
    write_ops(ops, [core.PAULI_X, core.PAULI_Z])
    out = tmp_path / "a.json"
    monkeypatch.setenv("QGEOM_THREADS", "3")
    assert run(["jnr", "--ops", ops, "--dirs", 16, "--out", out]) == 0
    assert json.loads(out.read_text())["threads"] == 3
    monkeypatch.setenv("QGEOM_THREADS", "0")
    assert run(["jnr", "--ops", ops, "--dirs", 16, "--out", out]) == 2
    monkeypatch.delenv("QGEOM_THREADS")
    assert run(["jnr", "--ops", ops, "--dirs", 16, "--out", out, "--threads", "2"]) == 0
    assert json.loads(out.read_text())["threads"] == 2

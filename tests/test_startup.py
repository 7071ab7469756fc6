"""A fresh interpreter loads no scipy module for `import qgeom.cli`, nor for
the subcommands whose algorithms are numpy-only (scipy is imported inside
the few functions that run it)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qgeom import core, wigner

PROBE = """
import json, sys
from qgeom.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

after_import = scipy_modules()
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"import": after_import, "codes": codes, "runs": scipy_modules()}))
"""


def test_numpy_only_commands_load_no_scipy(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps([{"j": "1/2", "m": "1/2", "amp": [1.0, 0.0]}]))
    s = 1 / np.sqrt(2)
    b.write_text(json.dumps([{"j": "0", "m": "0", "amp": [s, 0.0]}, {"j": "1", "m": "1", "amp": [s, 0.0]}]))
    psi, phi = tmp_path / "psi.json", tmp_path / "phi.json"
    psi.write_text(json.dumps({"amps": [[np.sqrt(p), 0.0] for p in (0.3, 0.7)]}))
    phi.write_text(json.dumps({"amps": [[np.sqrt(p), 0.0] for p in (0.15, 0.5, 0.35)]}))
    sigma = core.random_density(3, np.random.default_rng(9))  # full rank
    d = wigner.wh_displacement(1, 1, (3,))
    rho_path, sigma_path = tmp_path / "rho.json", tmp_path / "sigma.json"
    rho_path.write_text(json.dumps(core.operator_to_json(d @ sigma @ d.conj().T)))
    sigma_path.write_text(json.dumps(core.operator_to_json(sigma)))
    # the elliptope's polar: four elliptic flat faces to polish
    triple = tmp_path / "triple.json"
    units = [np.zeros((3, 3)) for _ in range(3)]
    for m, (i, j) in zip(units, [(0, 1), (0, 2), (1, 2)]):
        m[i, j] = m[j, i] = -1.0
    triple.write_text(json.dumps({"ops": [core.operator_to_json(m) for m in units]}))
    # a two-qubit triple at two directions: too few normals to span, so no linprog
    ppt_ops = tmp_path / "ppt_ops.json"
    rng = np.random.default_rng(2)
    ppt_ops.write_text(json.dumps({"ops": [core.operator_to_json(core.random_hermitian(4, rng)) for _ in range(3)]}))
    runs = [
        ["su2", "marvian", "--a", a, "--b", b, "--samples", "20"],
        ["gap", "--n", "10"],
        ["interconvert", "--psi", psi, "--phi", phi, "--aux-d", "1"],
        ["wh-convert", "--rho", rho_path, "--sigma", sigma_path, "--dims", "3"],
        ["classify", "--ops", triple, "--dirs", "400"],
        ["jnr", "--ops", triple, "--dirs", "200"],  # bounded: the k + 1 picked normals span, so no linprog
        ["uncertainty", "--table-j", "1"],
        ["ppt-jnr", "--ops", ppt_ops, "--dims", "2,2", "--dirs", "2"],
    ]
    argvs = [[str(x) for x in argv] + ["--out", str(tmp_path / f"r{i}.json")] for i, argv in enumerate(runs)]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argvs)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc == {"import": [], "codes": [0] * len(runs), "runs": []}
    assert json.loads((tmp_path / "r2.json").read_text())["aux_reachable"] == pytest.approx([0.0, 0.5, 0.5], abs=1e-12)
    assert json.loads((tmp_path / "r3.json").read_text())["convertible"] is True
    assert [json.loads((tmp_path / "r4.json").read_text())[k] for k in ("e", "s")] == [4, 0]
    assert json.loads((tmp_path / "r5.json").read_text())["unbounded"] is False
    assert json.loads((tmp_path / "r7.json").read_text())["unbounded"] is True

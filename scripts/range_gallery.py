"""Write OBJ meshes for a small gallery of 3D joint numerical ranges.

Produces the Pauli unit ball, the four-ellipse range polar to the
elliptope, and the separable-vs-full pair for the embedded-qubit triple.

Usage: python scripts/range_gallery.py [outdir]
"""

import pathlib
import sys

import numpy as np

from qgeom.cli import write_obj_mesh
from qgeom.core import PAULI_X, PAULI_Y, PAULI_Z
from qgeom.entangle import sep_numerical_range
from qgeom.numrange import jnr_approximate, sphere_directions


def sym(a, b):
    m = np.zeros((3, 3), dtype=complex)
    m[a, b] = m[b, a] = 1.0
    return m


def embedded(s):
    m = np.zeros((4, 4), dtype=complex)
    m[1:3, 1:3] = s
    return m


def main(outdir="."):
    out = pathlib.Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    dirs = sphere_directions(3, 2000)

    body = jnr_approximate([PAULI_X, PAULI_Y, PAULI_Z], dirs)
    write_obj_mesh(body.inner_vertices, out / "pauli_ball.obj")

    body = jnr_approximate([-sym(0, 1), -sym(0, 2), -sym(1, 2)], dirs)
    write_obj_mesh(body.inner_vertices, out / "elliptope_polar.obj")

    ops = [embedded(s) for s in (PAULI_X, PAULI_Y, PAULI_Z)]
    full = jnr_approximate(ops, dirs)
    write_obj_mesh(full.inner_vertices, out / "embedded_qubit_full.obj")
    sep = sep_numerical_range(ops, (2, 2), sphere_directions(3, 300))
    write_obj_mesh(sep.inner_vertices, out / "embedded_qubit_sep.obj")
    print("wrote", *[p.name for p in out.glob("*.obj")])


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ".")

"""Reproducers for defects the benchmark's baseline records but does not run.

The benchmark's workloads are chosen so that no operation fails today; the
defects below are left out of them and reproduced here instead, so a change
that fixes one can show it:

* ppt_infeasible - `entangle.ppt_max` on a 3x3 instance raises
  "Dykstra returned an infeasible iterate" (about 4% of random directions):
  a Dykstra run capped at 400 iterations returns a slightly infeasible
  iterate and the ascent accepts it.  About 10 s.
* ppt_trace - `entangle.ppt_max` on the Friedland-Lim triangle matrix
  (acceptance c04) returns a "state" of trace 4/3 without raising: the final
  feasibility test checks eigenvalues only.  About 2 s.

Not reproduced, because it needs about 4.3 GB: `qgeom gap --n 14` densifies
the 16384-dimensional chain before choosing its Lanczos branch.

    python3 perfbench/known_defects.py [ppt_infeasible|ppt_trace ...]

Prints one line per defect: "present: ..." or "absent: ...".  Exit code 0.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

from inputs import C04_TRIANGLE, clique_matrix  # noqa: E402


def ppt_infeasible():
    from qgeom import core, entangle, numrange

    rng = np.random.default_rng(3)
    for size in (9, 4, 6, 4, 4, 4):
        core.random_hermitian(size, rng)
    triple = [core.random_hermitian(9, rng) for _ in range(3)]
    n = numrange.sphere_directions(3, 20)[4]
    h = sum(c * x for c, x in zip(n, triple))
    try:
        res = entangle.ppt_max(h, (3, 3))
    except RuntimeError as e:
        return True, f"ppt_max raised: {e}"
    return False, f"ppt_max returned value {res.value:.12g} after {res.iterations} steps"


def ppt_trace():
    from qgeom import entangle

    res = entangle.ppt_max(clique_matrix(*C04_TRIANGLE), (3, 3))
    tr = float(np.trace(res.state).real)
    return abs(tr - 1) > 1e-6, f"returned state has trace {tr:.12g}"


DEFECTS = {"ppt_infeasible": ppt_infeasible, "ppt_trace": ppt_trace}


def main(argv):
    for name in argv or list(DEFECTS):
        present, detail = DEFECTS[name]()
        print(f"{name}: {'present' if present else 'absent'}: {detail}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

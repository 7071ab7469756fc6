"""Sweep the total spin j and tabulate the tight additive variance bound.

For each j one `min_sum_variances` call gives the attained value, the
certified lower side below it and the size of its search.

Usage: python scripts/spin_variance_table.py [max_twice_j]
"""

import sys
import time
from fractions import Fraction

from qgeom.core import spin_operators
from qgeom.uncertainty import min_sum_variances


def main(max_twice_j=8):
    print(f"{'j':>5} {'bound':>12} {'lower':>12} {'delta':>9} {'evals':>6} {'time[s]':>8}")
    for twice_j in range(1, max_twice_j + 1):
        j = Fraction(twice_j, 2)
        jx, jy, _ = spin_operators(j)
        t0 = time.monotonic()
        bound = min_sum_variances(jx, jy)
        dt = time.monotonic() - t0
        lower, delta = bound.sector_bound, bound.delta
        assert bound.meta["converged"] and lower <= bound.value <= lower + delta
        print(f"{str(j):>5} {bound.value:12.6f} {lower:12.6f} {delta:9.1e} {bound.meta['evaluations']:6d} {dt:8.2f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)

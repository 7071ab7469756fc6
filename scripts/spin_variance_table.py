"""Sweep the total spin j and tabulate the tight additive variance bound.

For each j one `min_sum_variances` call gives the attained value and the
sector-approximant bracket [c, c + delta] it must lie in.

Usage: python scripts/spin_variance_table.py [max_twice_j]
"""

import sys
import time
from fractions import Fraction

from qgeom.core import spin_operators
from qgeom.uncertainty import min_sum_variances


def main(max_twice_j=8):
    print(f"{'j':>5} {'bound':>12} {'sector c':>12} {'c+delta':>12} {'time[s]':>8}")
    for twice_j in range(1, max_twice_j + 1):
        j = Fraction(twice_j, 2)
        jx, jy, _ = spin_operators(j)
        t0 = time.monotonic()
        bound = min_sum_variances(jx, jy)
        dt = time.monotonic() - t0
        c, delta = bound.sector_bound, bound.delta
        assert c <= bound.value + 1e-9 <= c + delta + 2e-9
        print(f"{str(j):>5} {bound.value:12.6f} {c:12.6f} {c + delta:12.6f} {dt:8.2f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)

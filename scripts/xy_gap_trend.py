"""Gap-witness trend study on open XY chains (free-fermion solver).

For each (N, gamma) the jump of <H> along the ground curve of H + lambda*V
is refined and compared with the exact spectral gap.  The gamma = 0 bounds
close like 1/N (gapless trend); the gamma = 1/2 bounds do not.
Once the gamma = 1/2 edge-mode splitting falls below the 1e-9 degeneracy
threshold (N of about 30), the true gap column is the bulk gap and the
witness check `true gap <= epsilon` may fail.

Usage: python scripts/xy_gap_trend.py [--taper]
"""

import sys

import numpy as np

from qgeom.gapwitness import gap_upper_bound, gap_witness_majorana, ground_curve, true_gap, xy_majorana


def main(taper=False, sizes=(10, 20, 50, 100)):
    lams = np.linspace(0.0, 3.0, 31)
    print(f"{'gamma':>6} {'N':>4} {'lambda*':>9} {'epsilon':>10} {'true gap':>10} "
          f"{'drift':>9} {'transients':>10} {'consistent':>10}")
    for gamma in (0.0, 0.5):
        eps = []
        for n in sizes:
            h = xy_majorana(n, gamma, taper=taper)
            curve = ground_curve(h, gap_witness_majorana(n, taper=taper), lams)
            tg = true_gap(h)
            rep = gap_upper_bound(curve, true_gap_value=tg)
            eps.append(rep.epsilon)
            print(f"{gamma:6.2f} {n:4d} {rep.lambda_star:9.4f} {rep.epsilon:10.5f} {tg:10.5f} "
                  f"{rep.plateau_drift:9.2e} {rep.transient_crossings:10d} {str(rep.consistent):>10}")
        if gamma == 0.0:
            assert np.all(np.diff(eps) < 0), "gamma = 0 bounds do not close"


if __name__ == "__main__":
    main(taper="--taper" in sys.argv)

"""Seeded input generator for the qgeom benchmark.

Writes the JSON files the `qgeom` CLI reads (operators, operator lists,
ladder states, spin kets) into a directory, as a user would prepare them.
The same (workload, seed) always gives byte-identical files.  Only numpy is
used here, so the inputs and the oracles built from them do not depend on
the code under test.

Where a workload's cost depends strongly on the instance (PPT solves,
classification polishing), the seed draws local unitaries that rotate fixed
base problems: every input and every report changes with the seed, while the
amount of work per pass does not.

Usage:
    python3 perfbench/inputs.py --workload sweeps --seed 3 --out DIR [--warm]
"""

from __future__ import annotations

import argparse
import json
import os
from fractions import Fraction

import numpy as np

WORKLOADS = ("sweeps", "chains", "group", "ppt")

# Fixed base problems for the cost-sensitive members (see module docstring).
BASE_SEED = 20230313

# Paper goldens kept verbatim as members.
C01_TABLE = {"1": (0.4375, 1e-9), "2": (0.7496, 1e-3), "3": (1.018, 1e-3)}
C02_P = ([Fraction(1, 6), Fraction(1, 3), Fraction(1, 3), Fraction(1, 6)], 1)
C02_Q = ([Fraction(1, 2), Fraction(1, 2)], 0)
C02_W = ([Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)], 1)
C03_PHI = [(j, -1, 1 / np.sqrt(3)) for j in (1, 2, 3)]
C03_OMEGA = [(0, 0, 1 / np.sqrt(2)), (1, 0, 1 / np.sqrt(2))]
C03_PROBS = {1: Fraction(3, 10), 2: Fraction(43, 126), 3: Fraction(97, 360), 4: Fraction(5, 56)}
C04_TRIANGLE = (3, [(0, 1), (0, 2), (1, 2)])  # clique number 3 -> sep max 2/3


# ---------------------------------------------------------------------------
# random instances


def herm(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def rotate(ops, u):
    out = []
    for x in ops:
        y = u @ x @ u.conj().T
        out.append((y + y.conj().T) / 2)
    return out


def local_unitary(rng, dims):
    u = np.eye(1)
    for d in dims:
        u = np.kron(u, unitary(rng, d))
    return u


def clique_matrix(n, edges):
    """Friedland-Lim matrix: sum over edges (p, q) of |s><s| with s = (|pq> + |qp>) / sqrt 2.

    Its product-state maximum is (kappa - 1) / kappa for clique number kappa.
    """
    m = np.zeros((n * n, n * n))
    for p, q in edges:
        s = np.zeros(n * n)
        s[p * n + q] = s[q * n + p] = 1 / np.sqrt(2)
        m += np.outer(s, s)
    return m


# ---------------------------------------------------------------------------
# file formats


def op_doc(a):
    a = np.asarray(a, dtype=complex)
    return {"dim": int(a.shape[0]), "re": a.real.tolist(), "im": a.imag.tolist()}


def ladder_doc(weights, offset=0):
    amps = [[float(np.sqrt(float(w))), 0.0] for w in weights]
    return {"offset": int(offset), "amps": amps}


def spinket_doc(terms):
    return [{"j": str(j), "m": str(m), "amp": [float(a), 0.0]} for j, m, a in terms]


class Writer:
    def __init__(self, out):
        self.out = out
        os.makedirs(out, exist_ok=True)

    def __call__(self, name, doc):
        path = os.path.join(self.out, name)
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
        return path


def composition(rng, parts, total):
    """Random positive integer vector of length `parts` summing to `total`."""
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    return np.diff(np.concatenate([[0], cuts, [total]])).tolist()


def fraction_convolve(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# workloads: each writes its files and returns the parameters the ops need


def gen_sweeps(rng, w, warm):
    p = {}
    dims_jnr = (2, 3) if warm else (4, 16)
    for d in dims_jnr:
        p[f"jnr_d{d}"] = w(f"jnr_d{d}.json", [op_doc(herm(rng, d)) for _ in range(3)])
    base = np.random.default_rng([BASE_SEED, 1])
    triples = [[herm(base, 3) for _ in range(3)] for _ in range(3)]
    # base triple 0 has flat faces to polish, triple 2 has none
    for k in (0,) if warm else (0, 2):
        p[f"classify_{k}"] = w(f"classify_{k}.json", [op_doc(x) for x in rotate(triples[k], unitary(rng, 3))])
    p["sepmax_2x3"] = w("sepmax_2x3.json", op_doc(herm(rng, 4 if warm else 6)))
    p["sepjnr_2x2"] = w("sepjnr_2x2.json", {"ops": [op_doc(herm(rng, 4)) for _ in range(3)], "dims": [2, 2]})
    return p


def gen_chains(rng, w, warm):
    # gamma jitter moves every energy and report while keeping the grid, the
    # bisection length and hence the number of ground-state solves fixed
    p = {"gamma": round(0.5 + 0.03 * (2 * rng.random() - 1), 6)}
    d = 2 if warm else 64
    p["jnr_d64"] = w("jnr_d64.json", [op_doc(herm(rng, d)) for _ in range(3)])
    return p


def gen_group(rng, w, warm):
    p = {}
    p["phi"] = w("c03_phi.json", spinket_doc(C03_PHI))
    p["omega"] = w("c03_omega.json", spinket_doc(C03_OMEGA))
    psi_terms = [(j, -1, float(np.sqrt(float(v)))) for j, v in C03_PROBS.items()]
    p["psi"] = w("c03_psi.json", spinket_doc(psi_terms))
    p["marvian_seed"] = int(rng.integers(0, 2**31))

    # exact U(1) pair: p = w * q with weights in multiples of 1/200, so the size
    # of the Fractions, and with it the elimination work, barely depends on the seed
    nq, nw = (4, 3) if warm else (21, 20)
    q = [Fraction(v, 200) for v in composition(rng, nq, 200)]
    wv = [Fraction(v, 200) for v in composition(rng, nw, 200)]
    pv = fraction_convolve(wv, q)
    p["exact_p"] = w("exact_p.json", ladder_doc(pv, offset=int(rng.integers(-3, 4))))
    p["exact_q"] = w("exact_q.json", ladder_doc(q, offset=int(rng.integers(-3, 4))))
    p["exact_p_weights"] = [str(v) for v in pv]
    p["exact_q_weights"] = [str(v) for v in q]

    # float pair for --kraus, and a shift mixture for --aux-d
    qf = rng.random(5) + 0.1
    wf = rng.random(4) + 0.1
    qf, wf = qf / qf.sum(), wf / wf.sum()
    pf = np.convolve(wf, qf)
    p["float_p"] = w("float_p.json", ladder_doc(pf))
    p["float_q"] = w("float_q.json", ladder_doc(qf))
    mix = rng.random(3) + 0.1
    mix = mix / mix.sum()
    aux_q = np.convolve(mix, qf)  # sum_m mix_m Delta^m q on shifts -1..1
    p["aux_q"] = w("aux_q.json", ladder_doc(aux_q, offset=-1))
    p["aux_d"] = 1

    p["c02_p"] = w("c02_p.json", ladder_doc(*C02_P))
    p["c02_q"] = w("c02_q.json", ladder_doc(*C02_Q))

    # accessible states: fixed root structure (3 negative real roots, 3
    # conjugate pairs with negative real part), so 2^6 candidate factors
    n_real, n_pair = (1, 1) if warm else (3, 3)
    poly = np.array([1.0])
    for _ in range(n_real):
        poly = np.convolve(poly, [rng.uniform(0.3, 3.0), 1.0])
    for _ in range(n_pair):
        r = rng.uniform(0.5, 2.0)
        th = rng.uniform(0.55, 0.9) * np.pi
        poly = np.convolve(poly, [r * r, -2 * r * np.cos(th), 1.0])
    p["accessible_p"] = (poly / poly.sum()).tolist()

    # Weyl-Heisenberg: sigma random, rho its depolarization, which is the
    # twirl of sigma with kernel (1 - t) delta_0 + t / d^2
    p["wh"] = []
    for dims in ((3,),) if warm else ((3, 5), (5, 7)):
        d = int(np.prod(dims))
        tag = "x".join(map(str, dims))
        sigma = density(rng, d)
        t = float(rng.uniform(0.2, 0.4))
        rho = (1 - t) * sigma + t * np.eye(d) / d
        p["wh"].append(
            {
                "dims": list(dims),
                "t": t,
                "sigma": w(f"wh_sigma_{tag}.json", op_doc(sigma)),
                "rho": w(f"wh_rho_{tag}.json", op_doc(rho)),
            }
        )
    return p


def gen_ppt(rng, w, warm):
    # The base problems are ones `ppt_max` solves today.  About 4% of random 3x3
    # instances raise "infeasible iterate" (known_defects.py); with the seed
    # only rotating the base, a failing base would fail on every seed.
    p = {}
    base = np.random.default_rng([BASE_SEED, 4])
    t22 = [herm(base, 4) for _ in range(3)]
    t33 = [herm(base, 9) for _ in range(3)]
    p["pptjnr_2x2"] = w(
        "pptjnr_2x2.json", {"ops": [op_doc(x) for x in rotate(t22, local_unitary(rng, (2, 2)))], "dims": [2, 2]}
    )
    if not warm:
        p["pptjnr_3x3"] = w(
            "pptjnr_3x3.json", {"ops": [op_doc(x) for x in rotate(t33, local_unitary(rng, (3, 3)))], "dims": [3, 3]}
        )
    h2 = [herm(base, 4) for _ in range(3)][: 1 if warm else 2]
    p["c07"] = [w(f"c07_{k}.json", op_doc(rotate([h], local_unitary(rng, (2, 2)))[0])) for k, h in enumerate(h2)]
    # the warm-up solves a two-qubit instance: same code path, a fraction of the cost
    p["h33_dims"] = [2, 2] if warm else [3, 3]
    h3 = herm(base, int(np.prod(p["h33_dims"])))
    p["h33"] = w("h33.json", op_doc(rotate([h3], local_unitary(rng, p["h33_dims"]))[0]))
    p["c04"] = w("c04_triangle.json", op_doc(clique_matrix(*C04_TRIANGLE)))
    return p


GENERATORS = {"sweeps": gen_sweeps, "chains": gen_chains, "group": gen_group, "ppt": gen_ppt}


def generate(workload, seed, out, warm=False):
    """Write the inputs of one workload; returns the parameters for its ops."""
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload), int(warm)])
    return GENERATORS[workload](rng, Writer(out), warm)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--warm", action="store_true", help="the small warm-up variant")
    args = ap.parse_args(argv)
    params = generate(args.workload, args.seed, args.out, warm=args.warm)
    print(json.dumps(params, sort_keys=True, indent=1))


if __name__ == "__main__":
    main()

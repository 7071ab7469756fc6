"""Operations of each benchmark workload, with their output checks.

An operation is one call a researcher makes: a `qgeom` CLI subcommand run
in-process through `cli.main`, or a library call where the CLI has no
subcommand for it.  Each operation has

* `run()`   - the timed call;
* `check()` - an output check against an oracle outside the code path it
  checks (own eigensolves, own Fraction convolution, paper goldens, ...);
  it raises `CheckFailed`;
* `digest()` - a hash of the report files or of the returned arrays, which
  must be identical on every pass and every run of the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from inputs import C01_TABLE, C02_P, C02_Q, C02_W, C03_PROBS


class CheckFailed(Exception):
    pass


def need(cond, msg):
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    digest: Callable[[Any], str]


class Context:
    """Work directory, generated parameters and per-pass results of one workload."""

    def __init__(self, workdir, params):
        self.workdir = os.path.join(workdir, "out")  # reports; inputs stay apart
        os.makedirs(self.workdir, exist_ok=True)
        self.params = params
        self.results = {}  # op name -> value returned by run(), this pass
        self.oracles = {}  # memoized oracle values, computed once per run

    def path(self, name):
        return os.path.join(self.workdir, name)

    def oracle(self, key, fn):
        if key not in self.oracles:
            self.oracles[key] = fn()
        return self.oracles[key]


# ---------------------------------------------------------------------------
# readers and small independent oracles


def load(path):
    with open(path) as fh:
        return json.load(fh)


def read_op(doc):
    return np.array(doc["re"], dtype=float) + 1j * np.array(doc["im"], dtype=float)


def read_ops(path):
    doc = load(path)
    docs = doc["ops"] if isinstance(doc, dict) and "ops" in doc else doc
    return [read_op(d) for d in docs] if isinstance(docs, list) else [read_op(docs)]


def cvec(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def frac(s):
    return Fraction(s) if isinstance(s, str) else Fraction(s)


def fraction_convolve(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def partial_transpose_a(m, dims):
    da, db = dims
    return m.reshape(da, db, da, db).transpose(2, 1, 0, 3).reshape(da * db, da * db)


def check_ppt_state(rho, h, value, dims, tol=1e-8):
    need(abs(np.trace(rho) - 1) <= 1e-6, f"trace {np.trace(rho).real:.3e} != 1")
    need(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0] >= -tol, "state not PSD")
    pt = partial_transpose_a(rho, dims)
    need(np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0] >= -tol, "state not PPT")
    need(abs(np.trace(rho @ h).real - value) <= 1e-7 * max(1.0, abs(value)), "value != Tr rho H")


def check_body(doc, ops=None, probe=16):
    """inner_in_outer on the report, and sampled offsets = lambda_max(n.X)."""
    v = np.array(doc["inner_vertices"], dtype=float)
    n = np.array(doc["outer_normals"], dtype=float)
    b = np.array(doc["outer_offsets"], dtype=float)
    scale = max(1.0, float(np.abs(b).max()))
    need(len(v) > 0 and len(n) == len(b), "empty body")
    need(float((n @ v.T - b[:, None]).max()) <= 1e-8 * scale, "inner vertex outside outer half-spaces")
    if ops is not None:
        for i in np.linspace(0, len(n) - 1, min(probe, len(n))).astype(int):
            top = np.linalg.eigvalsh(sum(c * x for c, x in zip(n[i], ops)))[-1]
            need(abs(top - b[i]) <= 1e-9 * scale, f"offset {i} is not lambda_max(n.X)")


def xy_spectrum(n_sites, gamma):
    """Spectrum of an own dense XY chain: sum_n (1+g)/2 X_n X_n+1 + (1-g)/2 Y_n Y_n+1."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    dim = 2**n_sites
    h = np.zeros((dim, dim), dtype=complex)
    for k in range(n_sites - 1):
        left, right = np.eye(2**k), np.eye(2 ** (n_sites - k - 2))
        for p, c in ((x, (1 + gamma) / 2), (y, (1 - gamma) / 2)):
            h += c * np.kron(np.kron(left, np.kron(p, p)), right)
    return np.linalg.eigvalsh(h)


def true_gap(w):
    above = w[w > w[0] + 1e-9 * max(abs(w[0]), abs(w[-1]), 1.0)]
    return float(above[0] - w[0])


def cyclic_convolve(k, t, dims):
    """Convolution over Z_dims x Z_dims of two (d, d) tables."""
    shape = tuple(dims) + tuple(dims)
    f = np.fft.fftn(k.reshape(shape)) * np.fft.fftn(t.reshape(shape))
    return np.fft.ifftn(f).real.reshape(k.shape)


# ---------------------------------------------------------------------------
# operation builders


def file_digest(*paths, head=""):
    h = hashlib.sha256(head.encode())
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def array_digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def cli_op(ctx, name, argv, check=None, extra=()):
    """`qgeom <argv> --out <name>.json`; the check gets the parsed report."""
    from qgeom import cli

    out = ctx.path(f"{name}.json")
    extra = [ctx.path(e) for e in extra]
    # "@name" arguments are output files in the work directory
    argv = [ctx.path(a[1:]) if a.startswith("@") else a for a in map(str, argv)] + ["--out", out]

    def run():
        return cli.main(argv)

    def chk(rc):
        need(rc == 0, f"exit code {rc}")
        if check is not None:
            check(load(out))

    return Op(name, run, chk, lambda rc: file_digest(out, *extra, head=str(rc)))


# ---------------------------------------------------------------------------
# sweeps: many small support eigensolves reached through the CLI


def build_sweeps(ctx, warm):
    p = ctx.params
    ops = []
    for key in sorted(k for k in p if k.startswith("jnr_d")):
        mats = read_ops(p[key])
        mesh = f"{key}.obj"
        ops.append(
            cli_op(
                ctx, key, ["jnr", "--ops", p[key], "--dirs", 50 if warm else 2000, "--mesh", f"@{mesh}"],
                lambda doc, mats=mats: check_body(doc, mats), extra=[mesh],
            )
        )
    for key in sorted(k for k in p if k.startswith("classify_")):
        ops.append(cli_op(ctx, key, ["classify", "--ops", p[key], "--dirs", 100 if warm else 2000], check_classify))
    for j in ("1/2",) if warm else ("1", "3"):
        ops.append(cli_op(ctx, f"uncertainty_j{j.replace('/', '_')}", ["uncertainty", "--table-j", j],
                          lambda doc, j=j: check_uncertainty(doc, j)))
    h = read_ops(p["sepmax_2x3"])[0]
    dims = "2,2" if warm else "2,3"
    ops.append(cli_op(ctx, "sepmax_2x3", ["sep-max", "--op", p["sepmax_2x3"], "--dims", dims,
                                          "--dirs", 20 if warm else 400, "--seed", 7],
                      lambda doc: check_sep_max(doc, h, [int(x) for x in dims.split(",")])))
    ops.append(cli_op(ctx, "sepjnr_2x2", ["sep-jnr", "--ops", p["sepjnr_2x2"], "--dirs", 1 if warm else 6],
                      check_body))
    return ops


def check_classify(doc):
    # paper's face census constraints for qutrit triples (acceptance c09)
    e, s = int(doc["e"]), int(doc["s"])
    need(0 <= s <= 1 and 0 <= e <= 4, f"(e, s) = ({e}, {s}) outside the census")
    need(s == 0 or e <= 2, f"s = 1 with e = {e} > 2")


def check_uncertainty(doc, j):
    c, delta, value = doc["sector_bound"], doc["delta"], doc["value"]
    need(c <= value + 1e-9 and value <= c + delta + 1e-9, f"not c <= min Var <= c + delta for j={j}")
    if j in C01_TABLE:
        ref, tol = C01_TABLE[j]
        need(abs(value - ref) <= tol, f"c01 golden j={j}: {value} vs {ref}")


def check_sep_max(doc, h, dims):
    need(doc["upper"] is None or doc["lower"] <= doc["upper"] + 1e-9, "sep-max lower > upper")
    psi = np.array([1.0 + 0j])
    for f in doc["witness"]:
        psi = np.kron(psi, cvec(f))
    val = float(np.real(psi.conj() @ h @ psi) / np.real(psi.conj() @ psi))
    need(abs(val - doc["lower"]) <= 1e-8 * max(1.0, abs(val)), "witness does not attain the lower bound")


# ---------------------------------------------------------------------------
# chains: Lanczos and dense ground states of XY chains, plus a d=64 range


def build_chains(ctx, warm):
    from qgeom import gapwitness

    p = ctx.params
    gamma = p["gamma"]
    lams = np.linspace(0.0, 0.5, 6)

    def curve_op(n, refine):
        """Ground-state curve and bisection through the library (n=12: Lanczos, n=8: dense)."""

        def run():
            h = gapwitness.xy_hamiltonian(n, gamma)
            v = gapwitness.gap_witness_v(n)
            curve = gapwitness.ground_curve(h, v, lams)
            return curve, gapwitness.gap_upper_bound(curve, refine_iters=refine)

        def check(res):
            curve, rep = res
            need(np.abs(curve.energies - curve.e_h - curve.lams * curve.e_v).max() <= 1e-8,
                 "E0 != <H> + lambda <V> on the curve")
            need(rep.epsilon >= 0 and lams[0] < rep.lambda_star <= lams[-1], "gap report out of range")
            if n <= 8:  # own dense ground energy; 4096^2 at n=12 would cost more than the pass
                w = ctx.oracle(("xy", n, gamma), lambda: xy_spectrum(n, gamma))
                need(abs(curve.energies[0] - w[0]) <= 1e-8, "E0(lambda=0) != dense ground energy")

        def digest(res):
            curve, rep = res
            return array_digest(curve.energies, curve.e_h, curve.e_v, curve.states,
                                np.array([rep.epsilon, rep.lambda_star, rep.plateau_drift]))

        return Op(f"curve_n{n}", run, check, digest)

    ops = [curve_op(10, 1)] if warm else [curve_op(12, 3), curve_op(8, 3)]
    # full report: Lanczos curve, the CLI's 40-step bisection and the dense true_gap
    n = 6 if warm else 10
    grid = ["--lambda-max", 3, "--steps", 31] if warm else ["--lambda-max", 0.5, "--steps", 6]

    def gap_check(doc):
        tg = true_gap(ctx.oracle(("xy", n, gamma), lambda: xy_spectrum(n, gamma)))
        need(doc["consistent"] is True, "gap witness inconsistent")
        need(abs(doc["true_gap"] - tg) <= 1e-8, f"true_gap {doc['true_gap']} != oracle {tg}")
        need(tg <= doc["epsilon"] + 1e-6, "true_gap > epsilon")

    ops.append(cli_op(ctx, f"gap_n{n}", ["gap", "--n", n, "--gamma", gamma, *grid, "--csv-out", f"@gap_n{n}.csv"],
                      gap_check, extra=[f"gap_n{n}.csv"]))
    mats = read_ops(p["jnr_d64"])
    ops.append(cli_op(ctx, "jnr_d64", ["jnr", "--ops", p["jnr_d64"], "--dirs", 50 if warm else 300],
                      lambda doc: check_body(doc, mats)))
    return ops


# ---------------------------------------------------------------------------
# group: exact and group-sampled work


def build_group(ctx, warm):
    from qgeom import interconvert, su2, wigner

    p = ctx.params
    ops = [
        cli_op(ctx, "su2_convert", ["su2", "convert", "--a", p["phi"], "--b", p["omega"]], check_c03_convert),
        cli_op(ctx, "su2_combine", ["su2", "combine", "--a", p["phi"], "--b", p["omega"]], check_c03_combine),
        cli_op(ctx, "su2_marvian", ["su2", "marvian", "--a", p["psi"], "--b", p["phi"],
                                    "--samples", 6 if warm else 50, "--seed", p["marvian_seed"]],
               lambda doc: check_marvian(doc, 6 if warm else 50)),
    ]
    pw = [frac(x) for x in p["exact_p_weights"]]
    qw = [frac(x) for x in p["exact_q_weights"]]
    p_off, q_off = load(p["exact_p"])["offset"], load(p["exact_q"])["offset"]
    ops.append(cli_op(ctx, "interconvert_exact", ["interconvert", "--psi", p["exact_p"], "--phi", p["exact_q"], "--exact"],
                      lambda doc: check_exact_w(doc, pw, p_off, qw, q_off)))
    fp = np.array([a[0] ** 2 for a in load(p["float_p"])["amps"]])
    fq = np.array([a[0] ** 2 for a in load(p["float_q"])["amps"]])
    ops.append(cli_op(ctx, "interconvert_kraus", ["interconvert", "--psi", p["float_p"], "--phi", p["float_q"], "--kraus"],
                      lambda doc: check_float_w(doc, fp, fq)))
    aq = np.array([a[0] ** 2 for a in load(p["aux_q"])["amps"]])
    ops.append(cli_op(ctx, "interconvert_aux", ["interconvert", "--psi", p["float_q"], "--phi", p["aux_q"],
                                                "--aux-d", p["aux_d"]],
                      lambda doc: check_aux(doc, fq, aq, p["aux_d"])))
    ops.append(cli_op(ctx, "interconvert_c02", ["interconvert", "--psi", p["c02_p"], "--phi", p["c02_q"],
                                                "--exact", "--kraus"], check_c02))

    acc_p = np.array(p["accessible_p"])

    def acc_run():
        return interconvert.accessible_states(interconvert.ProbVector.from_weights(acc_p))

    def acc_check(res):
        pairs = res["pairs"]
        need(len(pairs) >= 2, "fewer than the two trivial factor pairs")
        for q, w in pairs:
            need(min(q.as_floats().min(), w.as_floats().min()) >= 0, "negative factor weight")
            need(np.abs(np.convolve(q.as_floats(), w.as_floats()) - acc_p).max() <= 1e-8, "q * w != p")

    def acc_digest(res):
        return array_digest(*[np.concatenate([q.as_floats(), w.as_floats()]) for q, w in res["pairs"]])

    ops.append(Op("accessible_states", acc_run, acc_check, acc_digest))

    for wh in p["wh"]:
        dims = ",".join(map(str, wh["dims"]))
        tag = "x".join(map(str, wh["dims"]))
        for which in ("sigma", "rho"):
            rho = read_op(load(wh[which]))
            csv = f"wigner_{which}_{tag}.csv"
            ops.append(cli_op(ctx, f"wigner_{which}_{tag}", ["wigner", "--state", wh[which], "--dims", dims,
                                                             "--out-csv", f"@{csv}"],
                              lambda doc, rho=rho, dims=wh["dims"]: check_wigner(doc, rho, dims, wigner), extra=[csv]))
        ops.append(cli_op(ctx, f"wh_convert_{tag}", ["wh-convert", "--rho", wh["rho"], "--sigma", wh["sigma"],
                                                     "--dims", dims],
                          lambda doc, wh=wh, tag=tag: check_wh(ctx, doc, wh, tag)))
    return ops


def check_c03_convert(doc):
    probs = {frac(e["j"]): e["amp"][0] ** 2 + e["amp"][1] ** 2 for e in doc["state"]}
    need(set(probs) == set(C03_PROBS), f"c03 j set {sorted(probs)}")
    for j, ref in C03_PROBS.items():
        need(abs(probs[j] - float(ref)) <= 1e-12, f"c03 p_{j} = {probs[j]} vs {ref}")


def check_c03_combine(doc):
    tot = {}
    for e in doc["state"]:
        j = frac(e["j"])
        tot[j] = tot.get(j, 0.0) + e["amp"][0] ** 2 + e["amp"][1] ** 2
    need(abs(sum(tot.values()) - 1) <= 1e-12, "combined state not normalized")
    for j, ref in C03_PROBS.items():
        need(abs(tot.get(j, 0.0) - float(ref)) <= 1e-12, f"coupled weight of j={j} != c03 p_j")


def check_marvian(doc, samples):
    # phi (x) omega shares chi with psi, so chi_psi / chi_phi = chi_omega is positive definite
    need(doc["consistent"] is True, "marvian test rejects a possible conversion")
    need(doc["used"] + doc["skipped"] == samples, "used + skipped != samples")


def check_exact_w(doc, pw, p_off, qw, q_off):
    need(doc["convertible"] is True and doc["exact"] is True, "exact pair not convertible")
    w = [frac(x) for x in doc["w"]["weights"]]
    need(fraction_convolve(w, qw) == pw, "w * q != p (Fraction convolution)")
    need(doc["w"]["offset"] + q_off == p_off, "ladder offsets do not add up")


def check_float_w(doc, fp, fq):
    need(doc["convertible"] is True, "float pair not convertible")
    w = np.array(doc["w"]["weights"], dtype=float)
    need(np.abs(np.convolve(w, fq) - fp).max() <= 1e-9, "w * q != p")
    check_kraus(doc["kraus"], fp, 0, fq, 0, 1e-9)


def check_kraus(kraus, p, p_off, q, q_off, tol):
    """Trace preserving on the support of p, and maps sqrt(p) onto sqrt(q)."""
    ks = [read_op(k) for k in kraus["operators"]]
    lo, dim = kraus["window_offset"], ks[0].shape[0]
    sup = np.arange(len(p)) + p_off - lo
    comp = sum(k.conj().T @ k for k in ks)[np.ix_(sup, sup)]
    need(np.abs(comp - np.eye(len(sup))).max() <= tol, "Kraus operators not trace preserving on supp p")
    src, dst = np.zeros(dim), np.zeros(dim)
    src[sup] = np.sqrt(np.asarray(p, dtype=float))
    dst[np.arange(len(q)) + q_off - lo] = np.sqrt(np.asarray(q, dtype=float))
    out = sum(k @ np.outer(src, src) @ k.conj().T for k in ks)
    need(np.real(dst @ out @ dst) >= 1 - tol, "channel output is not the target state")


def check_aux(doc, p, q, d):
    w = doc.get("aux_reachable")
    need(w is not None, "shift mixture reported unreachable")
    w = np.array(w, dtype=float)
    need(abs(w.sum() - 1) <= 1e-8 and w.min() >= -1e-12, "aux weights not a distribution")
    # q (window -d .. diam+d) = sum_m w_m p shifted by m
    mix = np.zeros(len(p) + 2 * d)
    for m, wm in zip(range(-d, d + 1), w):
        mix[m + d : m + d + len(p)] += wm * p
    need(np.abs(mix[: len(q)] - q).max() <= 1e-8, "sum_m w_m Delta^m p != q")


def check_c02(doc):
    need(doc["convertible"] is True and doc["exact"] is True, "c02 not convertible")
    weights, offset = C02_W
    need(doc["w"]["offset"] == offset and [frac(x) for x in doc["w"]["weights"]] == weights,
         "c02 golden w = (0, 1/3, 1/3, 1/3) not reproduced")
    (pw, p_off), (qw, q_off) = C02_P, C02_Q
    check_kraus(doc["kraus"], [float(x) for x in pw], p_off, [float(x) for x in qw], q_off, 1e-12)


def check_wigner(doc, rho, dims, wigner):
    values = np.array(doc["values"], dtype=float)
    need(abs(values.sum() - 1) <= 1e-9, "Wigner table does not sum to 1")
    need(np.abs(np.array(doc["marginal_x"]) - np.diag(rho).real).max() <= 1e-9, "x marginal != diag(rho)")
    back = wigner.state_of(wigner.WignerTable(tuple(dims), values))
    need(np.abs(back - rho).max() <= 1e-10, "state_of(wigner_of(rho)) != rho")


def check_wh(ctx, doc, wh, tag):
    need(doc["convertible"] is True, "depolarized state reported not WH-convertible")
    k = np.array(doc["kernel"], dtype=float)
    d = k.shape[0]
    need(k.min() >= -1e-9 and abs(k.sum() - 1) <= 1e-9, "kernel not a distribution")
    planted = np.full((d, d), wh["t"] / d**2)
    planted[0, 0] += 1 - wh["t"]
    need(np.abs(k - planted).max() <= 1e-8, "kernel != (1 - t) delta_0 + t / d^2")
    w_s = np.array(load(ctx.path(f"wigner_sigma_{tag}.json"))["values"])
    w_r = np.array(load(ctx.path(f"wigner_rho_{tag}.json"))["values"])
    need(np.abs(cyclic_convolve(k, w_s, wh["dims"]) - w_r).max() <= 1e-9, "W_rho != k * W_sigma")


# ---------------------------------------------------------------------------
# ppt: Dykstra-projected PPT maximisation against see-saw product states


def build_ppt(ctx, warm):
    from qgeom import entangle

    p = ctx.params
    ops = [cli_op(ctx, "pptjnr_2x2", ["ppt-jnr", "--ops", p["pptjnr_2x2"], "--dirs", 1 if warm else 2], check_body)]
    if "pptjnr_3x3" in p:
        ops.append(cli_op(ctx, "pptjnr_3x3", ["ppt-jnr", "--ops", p["pptjnr_3x3"], "--dirs", 1], check_body))

    def ppt_state_digest(res):
        return array_digest(res.state, np.array([res.value, res.iterations]))

    for k, path in enumerate(p["c07"]):
        h = read_ops(path)[0]
        ops.append(Op(f"c07_{k}_ppt", lambda h=h: entangle.ppt_max(h, (2, 2)),
                      lambda res, h=h: check_ppt_state(res.state, h, res.value, (2, 2)), ppt_state_digest))

        def seesaw_check(res, k=k, h=h):
            ppt = ctx.results[f"c07_{k}_ppt"].value
            # two qubits: PPT = SEP, so see-saw must meet the PPT value (c07)
            need(ppt >= res.lower - 1e-7, "PPT maximum below a product-state value")
            need(abs(ppt - res.lower) <= 1e-4, f"|ppt - seesaw| = {abs(ppt - res.lower):.2e} > 1e-4")

        ops.append(Op(f"c07_{k}_seesaw", lambda h=h, k=k: entangle.seesaw_product_max(h, (2, 2), restarts=16, seed=k),
                      seesaw_check, lambda res: array_digest(np.array([res.lower]), *res.witness.factors)))

    h33, dims = read_ops(p["h33"])[0], tuple(p["h33_dims"])
    ops.append(Op("ppt_max_3x3", lambda: entangle.ppt_max(h33, dims),
                  lambda res: check_ppt_state(res.state, h33, res.value, dims), ppt_state_digest))

    def sep33_check(doc):
        check_sep_max(doc, h33, dims)
        ppt = ctx.results["ppt_max_3x3"].value
        need(ppt >= doc["lower"] - 1e-7, "PPT maximum below the see-saw product value")

    ops.append(cli_op(ctx, "sepmax_3x3", ["sep-max", "--op", p["h33"], "--dims", ",".join(map(str, dims)),
                                          "--seed", 7], sep33_check))
    tri = read_ops(p["c04"])[0]

    def c04_check(doc):
        check_sep_max(doc, tri, (3, 3))
        need(abs(doc["lower"] - 2 / 3) <= 1e-6, f"c04 triangle see-saw {doc['lower']} != 2/3")

    ops.append(cli_op(ctx, "sepmax_c04", ["sep-max", "--op", p["c04"], "--dims", "3,3", "--seed", 0], c04_check))
    return ops


BUILDERS = {"sweeps": build_sweeps, "chains": build_chains, "group": build_group, "ppt": build_ppt}

"""Unified command-line front door.

Every subcommand reads JSON inputs, runs the owning module, and writes
deterministic JSON/CSV/OBJ artifacts: all randomness flows from the single
--seed, floats are serialized with 17 significant digits, and keys are
sorted, so identical configs produce byte-identical reports.

Exit codes: 0 success, 1 computational failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__, core, entangle, gapwitness, interconvert, numrange, su2, uncertainty, wigner


class UsageError(Exception):
    pass


class ComputationError(Exception):
    pass


# ---------------------------------------------------------------------------
# serialization helpers


def _fmt(x):
    if isinstance(x, float):
        return float(f"{x:.17g}")
    return x


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return _fmt(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, complex):
        return [_fmt(obj.real), _fmt(obj.imag)]
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    return str(obj)


def write_report(payload, path, args):
    doc = {
        "tool": "qgeom",
        "version": __version__,
        "seed": getattr(args, "seed", 0),
        "threads": _threads(args),
        "tolerances": payload.pop("_tolerances", {}),
        **payload,
    }
    text = json.dumps(_jsonify(doc), sort_keys=True, indent=1)
    if path is None or path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _threads(args):
    t = getattr(args, "threads", None)
    if t is None:
        t = os.environ.get("QGEOM_THREADS", "1")
    t = int(t)
    if t < 1:
        raise UsageError("--threads must be positive")
    return t


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"input file not found: {path}")
    except json.JSONDecodeError as e:
        raise UsageError(f"bad JSON in {path}: {e}")


def load_operator(path):
    return core.operator_from_json(_load_json(path))


def load_operator_list(path):
    doc = _load_json(path)
    if isinstance(doc, dict) and "ops" in doc:
        ops = [core.operator_from_json(d) for d in doc["ops"]]
        dims = tuple(doc["dims"]) if "dims" in doc else None
        return ops, dims
    if isinstance(doc, list):
        return [core.operator_from_json(d) for d in doc], None
    return [core.operator_from_json(doc)], None


def load_ladder_state(path):
    doc = _load_json(path)
    amps = [complex(re, im) for re, im in doc["amps"]]
    return interconvert.LadderState(int(doc.get("offset", 0)), tuple(amps))


def _half_from_str(s):
    if isinstance(s, str):
        return Fraction(s)
    return Fraction(s)


def load_spinket(path):
    doc = _load_json(path)
    terms = []
    for entry in doc:
        amp = complex(entry["amp"][0], entry["amp"][1])
        terms.append((_half_from_str(entry["j"]), _half_from_str(entry["m"]), entry.get("tag", ""), amp))
    return su2.SpinKet.from_terms(terms)


def _parse_dims(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"bad dims {text!r}; expected comma-separated integers")


def write_obj_mesh(points, path):
    """ASCII OBJ of the convex hull of a 3D point cloud."""
    from scipy.spatial import ConvexHull

    pts = np.asarray(points, dtype=float)
    hull = ConvexHull(pts)
    with open(path, "w") as fh:
        for p in pts[hull.vertices]:
            fh.write(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
        remap = {v: i + 1 for i, v in enumerate(hull.vertices)}
        for simplex in hull.simplices:
            a, b, c = (remap[s] for s in simplex)
            fh.write(f"f {a} {b} {c}\n")


def write_boundary_csv(points, path):
    """RFC-4180 CSV polyline of a 2D boundary (hull order)."""
    from scipy.spatial import ConvexHull

    pts = np.asarray(points, dtype=float)
    hull = ConvexHull(pts)
    order = list(hull.vertices) + [hull.vertices[0]]
    with open(path, "w", newline="") as fh:
        fh.write("x,y\r\n")
        for i in order:
            fh.write(f"{pts[i][0]:.17g},{pts[i][1]:.17g}\r\n")


def _body_payload(body):
    return {
        "inner_vertices": body.inner_vertices,
        "outer_normals": body.outer_normals,
        "outer_offsets": body.outer_offsets,
        "unbounded": bool(body.unbounded),
        "meta": {k: _jsonify(v) for k, v in body.meta.items()},
    }


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_jnr(args):
    ops, _ = load_operator_list(args.ops)
    k = len(ops)
    dirs = numrange.sphere_directions(k, args.dirs, seed=args.seed)
    body = numrange.jnr_approximate(ops, dirs)
    payload = _body_payload(body)
    payload["_tolerances"] = {"degeneracy_gap": numrange.DEGENERACY_GAP}
    write_report(payload, args.out, args)
    if args.mesh:
        if k == 3:
            write_obj_mesh(body.inner_vertices, args.mesh)
        elif k == 2:
            write_boundary_csv(body.inner_vertices, args.mesh)
        else:
            raise UsageError("--mesh supports 2D (CSV) and 3D (OBJ) ranges only")
    return 0


def cmd_classify(args):
    ops, _ = load_operator_list(args.ops)
    if len(ops) != 3:
        raise UsageError("classify expects exactly three operators")
    try:
        cls = numrange.classify_qutrit_jnr(*ops, sweep=args.dirs)
    except numrange.CommonEigenvectorError as e:
        write_report(
            {"refused": True, "reason": str(e), "point": e.point},
            args.out,
            args,
        )
        return 1
    payload = {
        "e": cls.e,
        "s": cls.s,
        "faces": [
            {"normal": f.normal, "dim": f.dim, "shape": f.shape, "gap": f.gap}
            for f in cls.faces
        ],
        "min_unpolished_gap": cls.min_unpolished_gap,
        "_tolerances": {"flat_gap": numrange.FLAT_GAP, "merge": numrange.FACE_MERGE_TOL},
    }
    write_report(payload, args.out, args)
    return 0


def cmd_distinguish(args):
    u = load_operator(args.u)
    v = load_operator(args.v)
    ok, wit = numrange.one_shot_distinguishable(u, v)
    payload = {"distinguishable": bool(ok)}
    if ok:
        payload["witness"] = wit
    else:
        payload["separating_direction"] = wit
    write_report(payload, args.out, args)
    return 0


def cmd_uncertainty(args):
    if args.table_j is not None:
        j = Fraction(args.table_j)
        jx, jy, _ = core.spin_operators(j)
        x, y = jx, jy
    else:
        ops, _ = load_operator_list(args.ops)
        if len(ops) != 2:
            raise UsageError("uncertainty expects a pair of operators")
        x, y = ops
    bound = uncertainty.min_sum_variances(x, y)
    px = uncertainty.default_partition(x, tol=args.sector_tol)
    py = uncertainty.default_partition(y, tol=args.sector_tol)
    c, delta = uncertainty.sector_sum_bound(x, y, px, py)
    payload = {
        "value": bound.value,
        "x": bound.minimizer[0],
        "y": bound.minimizer[1],
        "sector_bound": c,
        "delta": delta,
        "certificate": core.operator_to_json(bound.certificate_state),
        "_tolerances": {"sector_tol": args.sector_tol},
    }
    write_report(payload, args.out, args)
    return 0


def cmd_gap(args):
    if args.model != "xy":
        raise UsageError(f"unknown model {args.model!r}")
    h = gapwitness.xy_hamiltonian(args.n, args.gamma, taper=args.taper)
    v = gapwitness.gap_witness_v(args.n, taper=args.taper)
    lams = np.linspace(0.0, args.lambda_max, args.steps)
    curve = gapwitness.ground_curve(h, v, lams)
    if args.csv_out:
        with open(args.csv_out, "w", newline="") as fh:
            fh.write("lambda,E0,eH,eV\r\n")
            for lam, e0, eh, ev in zip(curve.lams, curve.energies, curve.e_h, curve.e_v):
                fh.write(f"{lam:.17g},{e0:.17g},{eh:.17g},{ev:.17g}\r\n")
    tg = gapwitness.true_gap(h) if (2**args.n) <= gapwitness.FULL_SPECTRUM_LIMIT else None
    try:
        report = gapwitness.gap_upper_bound(curve, true_gap_value=tg)
    except gapwitness.PlateauError as e:
        write_report({"error": str(e)}, args.out, args)
        return 1
    payload = {
        "epsilon": report.epsilon,
        "lambda_star": report.lambda_star,
        "true_gap": report.true_gap,
        "consistent": report.consistent,
        "plateau_drift": report.plateau_drift,
        "transient_crossings": report.transient_crossings,
        "_tolerances": {"overlap_threshold": 0.5, "degeneracy": 1e-9},
    }
    write_report(payload, args.out, args)
    return 0


def cmd_sep_max(args):
    h = load_operator(args.op)
    dims = _parse_dims(args.dims)
    if len(dims) == 2 and dims[0] == 2:
        b = entangle.qubit_qudit_sep_max(h, dims, directions=args.dirs, seed=args.seed)
    else:
        b = entangle.seesaw_product_max(h, dims, restarts=args.restarts, seed=args.seed)
    payload = {
        "lower": b.lower,
        "upper": b.upper,
        "witness": [f for f in b.witness.factors],
        "meta": {k: _jsonify(v) for k, v in b.meta.items()},
        "_tolerances": {"seesaw_stagnation": 1e-10},
    }
    write_report(payload, args.out, args)
    return 0


def cmd_sep_jnr(args):
    ops, dims_doc = load_operator_list(args.ops)
    dims = _parse_dims(args.dims) if args.dims else dims_doc
    if dims is None:
        raise UsageError("--dims required (or a dims field in the ops file)")
    dirs = numrange.sphere_directions(len(ops), args.dirs, seed=args.seed)
    body = entangle.sep_numerical_range(ops, dims, dirs, restarts=args.restarts, seed=args.seed)
    write_report(_body_payload(body), args.out, args)
    return 0


def cmd_ppt_jnr(args):
    ops, dims_doc = load_operator_list(args.ops)
    dims = _parse_dims(args.dims) if args.dims else dims_doc
    if dims is None:
        raise UsageError("--dims required (or a dims field in the ops file)")
    dirs = numrange.sphere_directions(len(ops), args.dirs, seed=args.seed)
    body = entangle.ppt_numerical_range(ops, dims, dirs)
    payload = _body_payload(body)
    write_report(payload, args.out, args)
    if args.mesh and len(ops) == 3:
        write_obj_mesh(body.inner_vertices, args.mesh)
    return 0 if body.meta.get("converged", True) else 1


def cmd_interconvert(args):
    psi = load_ladder_state(args.psi)
    phi = load_ladder_state(args.phi)
    if args.exact:
        p = _rationalize(psi)
        q = _rationalize(phi)
        report = interconvert.u1_convertible(p, q)
    else:
        report = interconvert.u1_convertible(psi, phi)
    payload = {
        "convertible": report.convertible,
        "embedding_dim": report.embedding_dim,
        "singular_retries": report.singular_retries,
        "exact": report.exact,
    }
    if report.convertible:
        payload["w"] = {
            "offset": report.w.offset,
            "weights": [w for w in report.w.weights],
        }
        if args.kraus:
            p = _rationalize(psi) if args.exact else psi.probs()
            q = _rationalize(phi) if args.exact else phi.probs()
            lch = interconvert.build_u1_kraus(p, q, report.w)
            payload["kraus"] = {
                "window_offset": lch.window_offset,
                "shifts": list(lch.shifts),
                "operators": [core.operator_to_json(k) for k in lch.channel.kraus],
            }
    if args.aux_d is not None:
        w_aux = interconvert.aux_reachable(psi.probs(), phi.probs(), args.aux_d)
        payload["aux_reachable"] = None if w_aux is None else list(w_aux)
    write_report(payload, args.out, args)
    return 0


def _rationalize(state: interconvert.LadderState, tol=1e-12):
    fr = []
    for a in state.amps:
        p = abs(a) ** 2
        f = Fraction(p).limit_denominator(10**9)
        if abs(float(f) - p) > tol:
            raise UsageError(f"amplitude^2 {p} is not rational within {tol}; drop --exact")
        fr.append(f)
    total = sum(fr)
    fr = [f / total for f in fr]
    return interconvert.ProbVector.from_weights(fr, offset=state.offset)


def cmd_wigner(args):
    rho = load_operator(args.state)
    dims = _parse_dims(args.dims)
    table = wigner.wigner_of(rho, dims)
    csv_path = args.out_csv
    report_path = args.out
    if report_path and report_path.endswith(".csv"):
        csv_path, report_path = report_path, None
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            fh.write("x,q,w\r\n")
            d = table.d
            for xf in range(d):
                for qf in range(d):
                    fh.write(f"{xf},{qf},{table.values[xf, qf]:.17g}\r\n")
    write_report(
        {
            "dims": list(dims),
            "values": table.values,
            "marginal_x": table.marginal_x(),
            "marginal_q": table.marginal_q(),
        },
        report_path,
        args,
    )
    return 0


def cmd_wh_convert(args):
    rho = load_operator(args.rho)
    sigma = load_operator(args.sigma)
    dims = _parse_dims(args.dims)
    kernel = wigner.wh_convertible(rho, sigma, dims)
    payload = {"convertible": kernel is not None}
    if kernel is not None:
        payload["kernel"] = kernel
    write_report(payload, args.out, args)
    return 0


def cmd_su2(args):
    a = load_spinket(args.a) if args.a else None
    b = load_spinket(args.b) if args.b else None
    if args.action == "combine":
        if a is None or b is None:
            raise UsageError("combine needs --a and --b")
        out = su2.spin_combine(a, b)
        payload = {"state": _spinket_payload(out)}
    elif args.action == "chi":
        if a is None:
            raise UsageError("chi needs --a")
        rng_qs = su2.haar_quaternions(args.samples, seed=args.seed)
        rows = []
        for q in rng_qs:
            g = su2.GroupElement(su2._quat_to_rotvec(q))
            val = su2.characteristic_function(a, g)
            rows.append({"v": list(g.v), "chi": val})
        payload = {"chi_samples": rows}
    elif args.action == "convert":
        if a is None or b is None:
            raise UsageError("convert needs --a and --b")
        out = su2.jz_convert(a, b)
        payload = {"state": _spinket_payload(out)}
    elif args.action == "marvian":
        if a is None or b is None:
            raise UsageError("marvian needs --a and --b")
        verdict = su2.marvian_necessary_test(a, b, samples=args.samples, seed=args.seed)
        payload = {
            "consistent": verdict.consistent,
            "used": verdict.used,
            "skipped": verdict.skipped,
            "min_eig": verdict.min_eig,
        }
        if verdict.certificate is not None:
            payload["certificate"] = verdict.certificate
    else:
        raise UsageError(f"unknown su2 action {args.action!r}")
    write_report(payload, args.out, args)
    return 0


def _spinket_payload(s: su2.SpinKet):
    return [
        {"j": str(j), "m": str(m), "tag": tag, "amp": [a.real, a.imag]}
        for (j, m, tag), a in s.amps
    ]


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="qgeom", description=__doc__)
    p.add_argument("--version", action="version", version=f"qgeom {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--threads", type=int, default=None)
        sp.add_argument("--out", default=None, help="JSON report path (default stdout)")

    sp = sub.add_parser("jnr", help="joint numerical range approximation")
    sp.add_argument("--ops", required=True)
    sp.add_argument("--dirs", type=int, default=1000)
    sp.add_argument("--mesh", default=None, help="OBJ (3D) or CSV (2D) boundary output")
    common(sp)
    sp.set_defaults(fn=cmd_jnr)

    sp = sub.add_parser("classify", help="qutrit triple face census")
    sp.add_argument("--ops", required=True)
    sp.add_argument("--dirs", type=int, default=2000)
    common(sp)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("distinguish", help="one-shot unitary distinguishability")
    sp.add_argument("--u", required=True)
    sp.add_argument("--v", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_distinguish)

    sp = sub.add_parser("uncertainty", help="additive variance bound")
    sp.add_argument("--ops", default=None)
    sp.add_argument("--table-j", default=None, help="spin pair J_X, J_Y for this j")
    sp.add_argument("--sector-tol", type=float, default=1e-4)
    common(sp)
    sp.set_defaults(fn=cmd_uncertainty)

    sp = sub.add_parser("gap", help="spectral-gap witness on a spin chain")
    sp.add_argument("--model", default="xy")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--gamma", type=float, default=0.0)
    sp.add_argument("--lambda-max", type=float, default=3.0)
    sp.add_argument("--steps", type=int, default=31)
    sp.add_argument("--taper", action="store_true")
    sp.add_argument("--csv-out", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_gap)

    sp = sub.add_parser("sep-max", help="separable maximum of an observable")
    sp.add_argument("--op", required=True)
    sp.add_argument("--dims", required=True)
    sp.add_argument("--restarts", type=int, default=32)
    sp.add_argument("--dirs", type=int, default=400)
    common(sp)
    sp.set_defaults(fn=cmd_sep_max)

    sp = sub.add_parser("sep-jnr", help="separable numerical range")
    sp.add_argument("--ops", required=True)
    sp.add_argument("--dims", default=None)
    sp.add_argument("--dirs", type=int, default=200)
    sp.add_argument("--restarts", type=int, default=8)
    common(sp)
    sp.set_defaults(fn=cmd_sep_jnr)

    sp = sub.add_parser("ppt-jnr", help="PPT numerical range")
    sp.add_argument("--ops", required=True)
    sp.add_argument("--dims", default=None)
    sp.add_argument("--dirs", type=int, default=500)
    sp.add_argument("--mesh", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_ppt_jnr)

    sp = sub.add_parser("interconvert", help="U(1)-covariant interconversion test")
    sp.add_argument("--psi", required=True)
    sp.add_argument("--phi", required=True)
    sp.add_argument("--exact", action="store_true")
    sp.add_argument("--kraus", action="store_true", help="emit the realizing Kraus operators")
    sp.add_argument("--aux-d", type=int, default=None)
    common(sp)
    sp.set_defaults(fn=cmd_interconvert)

    sp = sub.add_parser("wigner", help="discrete Wigner table of a state")
    sp.add_argument("--state", required=True)
    sp.add_argument("--dims", required=True)
    sp.add_argument("--out-csv", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_wigner)

    sp = sub.add_parser("wh-convert", help="Weyl-Heisenberg covariant interconversion")
    sp.add_argument("--rho", required=True)
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--dims", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_wh_convert)

    sp = sub.add_parser("su2", help="SU(2) combine / chi / convert / marvian")
    sp.add_argument("action", choices=["combine", "chi", "convert", "marvian"])
    sp.add_argument("--a", default=None)
    sp.add_argument("--b", default=None)
    sp.add_argument("--samples", type=int, default=200)
    common(sp)
    sp.set_defaults(fn=cmd_su2)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _threads(args)  # validate early
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (
        interconvert.SingularCirculantError,
        gapwitness.PlateauError,
        gapwitness.ChainTooLargeError,
        RuntimeError,
        MemoryError,
    ) as e:
        print(f"computation failed: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

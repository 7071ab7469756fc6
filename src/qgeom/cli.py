"""Unified command-line front door.

Every subcommand reads JSON inputs, runs the owning module, and writes
deterministic JSON/CSV/OBJ artifacts: all randomness flows from --seed
(taken by jnr, sep-max, sep-jnr, ppt-jnr and su2; the other reports say 0),
floats are serialized as Python's shortest round-trip repr, and keys are
sorted, so identical configs produce byte-identical reports at a fixed BLAS
thread count.

Exit codes: 0 a result, 1 no result (computational failure), 2 usage error.
An open certified bracket (`converged: false`) is a result.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

import numpy as np

from . import __version__, core, entangle, gapwitness, interconvert, numrange, su2, uncertainty, wigner


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# serialization helpers


def _json_default(obj):
    """What json cannot write itself: arrays as lists, numpy scalars as Python ones,
    complex as [re, im], Fractions as "p/q", anything else as its str."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    return str(obj)


_SLOT = "\x1eqgeom-ndarray-{}\x1e"  # json writes it as "\u001eqgeom-ndarray-<i>\u001e"
_SLOT_RE = re.compile(r'"\\u001eqgeom-ndarray-(\d+)\\u001e"')


def _spliceable(obj):
    """A finite, non-empty, 1-D or 2-D float array: json and float.__repr__ write it alike."""
    return (type(obj) is np.ndarray and obj.dtype.kind == "f" and obj.dtype.itemsize <= 8
            and obj.ndim in (1, 2) and obj.size > 0 and bool(np.isfinite(obj).all()))


def _slot_arrays(obj, arrays):
    """Copy of the dict tree obj with each spliceable array (a dict value) swapped for a slot."""
    if isinstance(obj, dict):
        return {k: _slot_arrays(v, arrays) for k, v in obj.items()}
    if _spliceable(obj):
        arrays.append(obj)
        return _SLOT.format(len(arrays) - 1)
    return obj


def _array_text(a, indent):
    """json.dumps(a.tolist(), indent=1) for a spliceable array, its '[' at this indent."""
    reprs = map(float.__repr__, a.ravel().tolist())
    pad = "\n" + " " * indent
    if a.ndim == 2:
        row = ",\n" + " " * (indent + 2)
        reprs = map(f"[{pad}  {{}}{pad} ]".format, map(row.join, zip(*[reprs] * a.shape[1])))
    return f"[{pad} " + f",{pad} ".join(reprs) + f"{pad}]"


def _dumps(doc):
    """json.dumps(doc, sort_keys=True, indent=1, default=_json_default), byte for byte.

    With an indent json has no C encoder, so the float arrays in doc's dicts
    go in as slots and are spliced back as text built by float.__repr__ and
    one join per level.  A slot json did not write exactly once (a string
    that looks like one) sends the whole doc down the plain path.
    """
    arrays = []
    text = json.dumps(_slot_arrays(doc, arrays), sort_keys=True, indent=1, default=_json_default)
    slots = list(_SLOT_RE.finditer(text))
    if sorted(int(m[1]) for m in slots) != list(range(len(arrays))):
        return json.dumps(doc, sort_keys=True, indent=1, default=_json_default)
    parts, end = [], 0
    for m in slots:  # in text order: sort_keys moved them
        head = text[text.rfind("\n", 0, m.start()) + 1:m.start()]  # indent, key, ": "
        indent = len(head) - len(head.lstrip(" "))
        parts += [text[end:m.start()], _array_text(arrays[int(m[1])], indent)]
        end = m.end()
    parts.append(text[end:])
    return "".join(parts)


def write_report(payload, path, args):
    """Write the JSON report (stdout for None or "-"): payload plus tool, version, seed and tolerances.

    The text is json.dumps(doc, sort_keys=True, indent=1, default=_json_default)
    byte for byte; `_dumps` writes its float arrays without json's Python encoder.
    """
    doc = {
        "tool": "qgeom",
        "version": __version__,
        "seed": getattr(args, "seed", 0),
        "tolerances": payload.pop("_tolerances", {}),
        **payload,
    }
    text = _dumps(doc)
    if path is None or path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


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
        try:
            dims = tuple(doc["dims"]) if "dims" in doc else None
        except TypeError:
            raise UsageError(f"bad dims in {path}: {doc['dims']!r}")
        return ops, dims
    if isinstance(doc, list):
        return [core.operator_from_json(d) for d in doc], None
    return [core.operator_from_json(doc)], None


def load_ladder_state(path):
    doc = _load_json(path)
    try:
        amps = [complex(re, im) for re, im in doc["amps"]]
        offset = int(doc.get("offset", 0))
    except (KeyError, TypeError, ValueError) as e:
        raise UsageError(f"bad ladder state in {path}: {e!r}")
    return interconvert.LadderState(offset, tuple(amps))


def load_spinket(path):
    doc = _load_json(path)
    try:
        terms = [
            (Fraction(t["j"]), Fraction(t["m"]), t.get("tag", ""), complex(t["amp"][0], t["amp"][1]))
            for t in doc
        ]
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise UsageError(f"bad spin state in {path}: {e!r}")
    return su2.SpinKet.from_terms(terms)


def _parse_dims(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"bad dims {text!r}; expected comma-separated integers")


def _hull(points, path):
    """scipy's ConvexHull of the points; a flat range (qhull finds no full-dimensional simplex) is a RuntimeError."""
    from scipy.spatial import ConvexHull

    try:
        return ConvexHull(points)
    except RuntimeError:  # scipy's QhullError; the base class needs no version-dependent import
        raise RuntimeError(f"the range is flat (no {points.shape[1]}D hull); no mesh written to {path}") from None


def write_obj_mesh(points, path):
    """ASCII OBJ of the convex hull of a 3D point cloud."""
    pts = np.asarray(points, dtype=float)
    hull = _hull(pts, path)
    remap = np.zeros(len(pts), dtype=int)
    remap[hull.vertices] = np.arange(1, len(hull.vertices) + 1)
    with open(path, "w") as fh:
        fh.write(("v %.17g %.17g %.17g\n" * len(hull.vertices)) % tuple(pts[hull.vertices].ravel().tolist()))
        fh.write(("f %d %d %d\n" * len(hull.simplices)) % tuple(remap[hull.simplices].ravel().tolist()))


def write_boundary_csv(points, path):
    """RFC-4180 CSV polyline of a 2D boundary (hull order)."""
    pts = np.asarray(points, dtype=float)
    hull = _hull(pts, path)
    order = np.append(hull.vertices, hull.vertices[0])
    with open(path, "w", newline="") as fh:
        fh.write("x,y\r\n" + ("%.17g,%.17g\r\n" * len(order)) % tuple(pts[order].ravel().tolist()))


def _mesh_writer(args, k):
    """The --mesh writer of a range of k operators (OBJ for 3, CSV for 2), None without --mesh."""
    if not args.mesh:
        return None
    if k not in (2, 3):
        raise UsageError("--mesh supports 2D (CSV) and 3D (OBJ) ranges only")
    return write_obj_mesh if k == 3 else write_boundary_csv


def _body_payload(body):
    return {
        "inner_vertices": body.inner_vertices,
        "outer_normals": body.outer_normals,
        "outer_offsets": body.outer_offsets,
        "unbounded": bool(body.unbounded),
        "meta": body.meta,
    }


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_jnr(args):
    ops, _ = load_operator_list(args.ops)
    mesh = _mesh_writer(args, len(ops))
    dirs = numrange.sphere_directions(len(ops), args.dirs, seed=args.seed)
    body = numrange.jnr_approximate(ops, dirs)
    payload = _body_payload(body)
    payload["_tolerances"] = {"degeneracy_gap": numrange.DEGENERACY_GAP}
    write_report(payload, args.out, args)
    if mesh:
        mesh(body.inner_vertices, args.mesh)
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
        "meta": {"method": "sweep-polish", "candidates": cls.candidates, "polish_steps": cls.polish_steps},
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
        x, y, _ = core.spin_operators(j)
    else:
        ops, _ = load_operator_list(args.ops)
        if len(ops) != 2:
            raise UsageError("uncertainty expects a pair of operators")
        x, y = ops
    bound = uncertainty.min_sum_variances(x, y)
    payload = {
        "value": bound.value,
        "x": bound.minimizer[0],
        "y": bound.minimizer[1],
        "sector_bound": bound.sector_bound,
        "delta": bound.delta,
        "certificate": core.operator_to_json(bound.certificate_state),
        "meta": bound.meta,
        "_tolerances": {"bracket": uncertainty.BRACKET_TOL},
    }
    write_report(payload, args.out, args)
    return 0


def cmd_gap(args):
    if not 3 <= args.n <= gapwitness.MAX_XY_SITES:
        raise UsageError(f"--n must be in 3..{gapwitness.MAX_XY_SITES}, got {args.n}")
    if not np.isfinite(args.gamma):
        raise UsageError(f"--gamma must be finite, got {args.gamma}")
    if args.steps < 2:
        raise UsageError(f"--steps must be at least 2, got {args.steps}")
    if not 0 < args.lambda_max < np.inf:
        raise UsageError(f"--lambda-max must be finite and > 0, got {args.lambda_max}")
    h = gapwitness.xy_majorana(args.n, args.gamma, taper=args.taper)
    v = gapwitness.gap_witness_majorana(args.n, taper=args.taper)
    with np.errstate(over="ignore"):
        if not np.isfinite(args.lambda_max * v.a).all():
            raise UsageError(f"--lambda-max must be small enough for a finite lambda * V, got {args.lambda_max}")
    lams = np.linspace(0.0, args.lambda_max, args.steps)
    curve = gapwitness.ground_curve(h, v, lams)
    if args.csv_out:
        rows = np.column_stack([curve.lams, curve.energies, curve.e_h, curve.e_v])
        with open(args.csv_out, "w", newline="") as fh:
            fh.write("lambda,E0,eH,eV\r\n" + ("%.17g,%.17g,%.17g,%.17g\r\n" * len(rows)) % tuple(rows.ravel().tolist()))
    try:
        report = gapwitness.gap_upper_bound(curve, true_gap_value=gapwitness.true_gap(h))
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
        "meta": {"method": report.method, "solves": report.solves},
        "_tolerances": {"overlap_threshold": gapwitness.OVERLAP_THRESHOLD, "degeneracy": gapwitness.DEGENERACY_TOL},
    }
    write_report(payload, args.out, args)
    return 0


def cmd_sep_max(args):
    h = load_operator(args.op)
    dims = _parse_dims(args.dims)
    b = entangle.sep_max(h, dims, restarts=args.restarts, seed=args.seed, directions=args.dirs)
    tolerances = {"seesaw_stagnation": entangle.SEESAW_TOL} if b.upper is None else {"bracket_gap": entangle.SEP_TOL}
    payload = {
        "lower": b.lower,
        "upper": b.upper,
        "witness": list(b.witness.factors),
        "meta": b.meta,
        "_tolerances": tolerances,
    }
    write_report(payload, args.out, args)
    return 0


def _range_inputs(args):
    """The operators, local dimensions (--dims, else the ops file's) and sphere directions of a range command."""
    ops, dims_doc = load_operator_list(args.ops)
    dims = _parse_dims(args.dims) if args.dims else dims_doc
    if dims is None:
        raise UsageError("--dims required (or a dims field in the ops file)")
    return ops, dims, numrange.sphere_directions(len(ops), args.dirs, seed=args.seed)


def cmd_sep_jnr(args):
    ops, dims, dirs = _range_inputs(args)
    body = entangle.sep_numerical_range(ops, dims, dirs, restarts=args.restarts, seed=args.seed)
    write_report(_body_payload(body), args.out, args)
    return 0


def cmd_ppt_jnr(args):
    ops, dims, dirs = _range_inputs(args)
    mesh = _mesh_writer(args, len(ops))
    body = entangle.ppt_numerical_range(ops, dims, dirs)
    write_report(_body_payload(body), args.out, args)
    if mesh:
        mesh(body.inner_vertices, args.mesh)
    return 0


def cmd_interconvert(args):
    psi = load_ladder_state(args.psi)
    phi = load_ladder_state(args.phi)
    p, q = (_rationalize(psi), _rationalize(phi)) if args.exact else (psi.probs(), phi.probs())
    report = interconvert.u1_convertible(p, q)
    payload = {
        "convertible": report.convertible,
        "embedding_dim": report.embedding_dim,
        "exact": report.exact,
    }
    if report.convertible:
        payload["w"] = {
            "offset": report.w.offset,
            "weights": [w for w in report.w.weights],
        }
        if args.kraus:
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
    csv_path = args.out_csv
    report_path = args.out
    if report_path and report_path.endswith(".csv"):
        if csv_path:
            raise UsageError(f"--out {report_path} writes the CSV table; drop --out-csv")
        csv_path, report_path = report_path, None
    table = wigner.wigner_of(rho, dims)
    if csv_path:
        x, q = np.indices(table.values.shape)  # %d writes these small whole floats as integers
        rows = np.column_stack([x.ravel(), q.ravel(), table.values.ravel()])
        with open(csv_path, "w", newline="") as fh:
            fh.write("x,q,w\r\n" + ("%d,%d,%.17g\r\n" * len(rows)) % tuple(rows.ravel().tolist()))
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
        if args.samples < 1:
            raise UsageError(f"chi needs --samples >= 1, got {args.samples}")
        qs = su2.haar_quaternions(args.samples, seed=args.seed)
        # rotation vectors, angle 2 atan2(|xyz|, w) in [0, 2 pi] along xyz
        norm = np.linalg.norm(qs[:, 1:], axis=1, keepdims=True)
        vs = 2 * np.arctan2(norm, qs[:, :1]) * (qs[:, 1:] / norm)
        chis = su2.characteristic_values(a, vs).tolist()
        payload = {"chi_samples": [{"v": v, "chi": chi} for v, chi in zip(vs.tolist(), chis)]}
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
            "min_eig_bound": verdict.min_eig_bound,
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


@functools.cache
def build_parser():
    """The qgeom argument parser, built on the first call and shared for the whole process.

    `main` parses every argv with this one parser: `parse_args` fills a
    fresh Namespace per call and leaves the parser as it was, so one call's
    options never reach the next.  Callers must not mutate the parser.
    Each `set_defaults(fn=cmd_*)` binds its handler, and `sep-max --dirs`
    its default `entangle.SEP_BUDGET`, when the parser is first built;
    `build_parser.__wrapped__()` builds a new one.
    """
    p = argparse.ArgumentParser(prog="qgeom", description=__doc__)
    p.add_argument("--version", action="version", version=f"qgeom {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seeded=False):
        if seeded:  # only the subcommands that draw samples take a seed
            sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None, help="JSON report path (default stdout)")

    sp = sub.add_parser("jnr", help="joint numerical range approximation")
    sp.add_argument("--ops", required=True)
    sp.add_argument("--dirs", type=int, default=1000)
    sp.add_argument("--mesh", default=None, help="OBJ (3D) or CSV (2D) boundary output")
    common(sp, seeded=True)
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
    pair = sp.add_mutually_exclusive_group(required=True)
    pair.add_argument("--ops", default=None)
    pair.add_argument("--table-j", default=None, help="spin pair J_X, J_Y for this j")
    common(sp)
    sp.set_defaults(fn=cmd_uncertainty)

    sp = sub.add_parser("gap", help="spectral-gap witness on a spin chain")
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
    sp.add_argument("--dirs", type=int, default=entangle.SEP_BUDGET, help="sphere samples on (2, d)")
    common(sp, seeded=True)
    sp.set_defaults(fn=cmd_sep_max)

    sp = sub.add_parser("sep-jnr", help="separable numerical range")
    sp.add_argument("--ops", required=True)
    sp.add_argument("--dims", default=None)
    sp.add_argument("--dirs", type=int, default=200)
    sp.add_argument("--restarts", type=int, default=8)
    common(sp, seeded=True)
    sp.set_defaults(fn=cmd_sep_jnr)

    sp = sub.add_parser("ppt-jnr", help="PPT numerical range")
    sp.add_argument("--ops", required=True)
    sp.add_argument("--dims", default=None)
    sp.add_argument("--dirs", type=int, default=500)
    sp.add_argument("--mesh", default=None)
    common(sp, seeded=True)
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
    common(sp, seeded=True)
    sp.set_defaults(fn=cmd_su2)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (
        gapwitness.PlateauError,
        gapwitness.ChainTooLargeError,
        RuntimeError,
        MemoryError,
    ) as e:
        print(f"computation failed: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:  # OSError: an unwritable --out, --mesh or CSV path
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

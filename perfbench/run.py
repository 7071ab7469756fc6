"""qgeom benchmark: seeded report workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (the program is imported from
`src/`).  One process, one client, a closed loop: each operation starts after
the previous one returns, as a researcher drives the CLI.  A pass runs every
operation of the workload once; passes repeat until `--seconds` is used up.

--trace 0 reports, as the last stdout line, the end-to-end metrics
    wall_s       median wall seconds of one pass (operations only, checks excluded)
    setup_s      median of 3 set-ups (import qgeom, generate inputs, one warm-up
                 call per operation kind), each in a fresh process
    peak_rss_mb  peak resident memory of this process, which ran the passes
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of `tracing.py` (medians over traced passes) and the tracing overhead.

Failed operations (raised, nonzero exit, failed check, or a report digest that
differs from another pass or from an earlier run of the same inputs and code)
are counted in `failed` out of `attempted`, and the pass continues.  Lines
before the last one give the same figures for people, including
`failed_share`, and the environment record; a copy of the result goes to
`.bench_results/`.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy is imported (here and in every child).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(ROOT, ".bench_results")
WORKLOADS = ("sweeps", "chains", "group", "ppt")
SETUP_SAMPLES = 3
MIN_PASSES = {0: 3, 1: 4}  # trace 1 needs two untraced and two traced passes
CHILD_TIMEOUT_S = 120


def log(msg):
    print(msg, flush=True)


# ---------------------------------------------------------------------------
# set-up: import, inputs, warm-up


def setup(workload, seed, workdir):
    """Import qgeom, write the inputs and warm up.

    Returns (raw seconds, speed-corrected seconds, speed probe, ctx, ops, warm_failures).
    """
    t0 = time.perf_counter()
    sys.path[:0] = [SRC, HERE]
    import numpy  # noqa: F401

    import qgeom
    from qgeom import cli  # noqa: F401

    if not os.path.abspath(qgeom.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"qgeom imported from {qgeom.__file__}, not from this checkout")
    import inputs
    import speed
    import workloads

    build = workloads.BUILDERS[workload]
    full_dir, warm_dir = os.path.join(workdir, "full"), os.path.join(workdir, "warm")
    ctx = workloads.Context(full_dir, inputs.generate(workload, seed, full_dir))
    ops = build(ctx, warm=False)
    wctx = workloads.Context(warm_dir, inputs.generate(workload, seed, warm_dir, warm=True))
    warm_failures = []
    for op in build(wctx, warm=True):
        err = run_op(op, wctx, None)[0]
        if err:
            warm_failures.append((f"warm:{op.name}", err))
    raw = time.perf_counter() - t0
    probe = speed.SpeedProbe()
    return raw, raw * speed.REFERENCE_S / probe.read(repeats=9), probe, ctx, ops, warm_failures


def cpu_seconds():
    t = os.times()
    return t.user + t.system


def run_op(op, ctx, tracer):
    """Run and check one operation; returns (error or None, wall s, cpu s, digest)."""
    from workloads import CheckFailed

    c0, t0 = cpu_seconds(), time.perf_counter()
    try:
        res = op.run()
        err = None
    except (Exception, SystemExit) as e:  # counted as a failed operation
        res, err = None, f"raised {type(e).__name__}: {e}"
    dt, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    ctx.results[op.name] = res
    if err:
        return err, dt, cpu, None
    if tracer is not None:
        tracer.enabled = False
    try:
        op.check(res)
        return None, dt, cpu, op.digest(res)
    except CheckFailed as e:
        return f"check failed: {e}", dt, cpu, None
    except Exception as e:  # a check that cannot read the output fails the op
        return f"check raised {type(e).__name__}: {e}", dt, cpu, None
    finally:
        if tracer is not None:
            tracer.enabled = True


def clear_program_caches():
    """Empty qgeom's module-level memo dicts, so every pass starts as a fresh CLI process would."""
    import types

    import qgeom

    for mod in vars(qgeom).values():
        if isinstance(mod, types.ModuleType):
            for name, val in vars(mod).items():
                if name.endswith("_CACHE") and isinstance(val, dict):
                    val.clear()


# ---------------------------------------------------------------------------
# environment and determinism records


def code_hash():
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "qgeom"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    return h.hexdigest()[:16]


def environment():
    import numpy
    import scipy

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy prints instead of returning a dict
        blas_name = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_rev": rev,
        "code_hash": code_hash(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": nproc,
        "machine": platform.machine(),
    }


def stored_digests(key):
    path = os.path.join(WORK, "digests.json")
    try:
        with open(path) as fh:
            return json.load(fh).get(key, {})
    except (OSError, ValueError):
        return {}


def store_digests(key, digests):
    path = os.path.join(WORK, "digests.json")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        doc = {}
    doc.setdefault(key, {}).update(digests)
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# the measured loop


def child_setup_times(args, n):
    """Speed-corrected set-up seconds of n fresh processes."""
    out = []
    for _ in range(n):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"]
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if r.returncode != 0:
            sys.stderr.write(r.stderr)
            raise RuntimeError(f"set-up child exited with {r.returncode}")
        out.append(json.loads(r.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def measure(args, workdir):
    import speed

    setup_raw, setup_s, probe, ctx, ops, failures = setup(args.workload, args.seed, workdir)
    setup_samples = [setup_s] + child_setup_times(args, SETUP_SAMPLES - 1)
    env = environment()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    key = f"{args.workload}/{args.seed}/{env['code_hash']}"
    previous = stored_digests(key)
    first = {}
    passes = []  # dicts: traced, ops (speed-corrected s), raw (s), cpu (corrected s), counters
    kernels = [probe.read()]  # speed-probe readings, one before the run and one after each operation
    attempted = len(failures)
    pass_seconds = []  # real time of each pass, probes and checks included
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        clear_program_caches()
        ctx.results.clear()
        gc.collect()
        if traced:
            tracer.install()
        op_s, op_raw = {}, {}
        cpu = 0.0
        try:
            for op in ops:
                err, op_raw[op.name], op_cpu, digest = run_op(op, ctx, tracer if traced else None)
                kernels.append(probe.read())
                factor = speed.REFERENCE_S / ((kernels[-2] + kernels[-1]) / 2)
                op_s[op.name] = op_raw[op.name] * factor
                cpu += op_cpu * factor
                attempted += 1
                if err is None:
                    ref = first.setdefault(op.name, digest)
                    if digest != ref:
                        err = "report digest differs from the first pass" + (" (traced)" if traced else "")
                    elif previous.get(op.name, digest) != digest:
                        err = "report digest differs from an earlier run of the same inputs"
                if err:
                    failures.append((f"pass{len(passes)}:{op.name}", err))
        finally:
            counters = tracer.take() if traced else None
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "ops": op_s, "raw": op_raw, "cpu": cpu, "counters": counters})
        now = time.perf_counter()
        pass_seconds.append(now - (t_start + sum(pass_seconds)))
        if len(passes) >= MIN_PASSES[args.trace] and now - t_start + statistics.median(pass_seconds) > args.seconds:
            break
    store_digests(key, first)
    return {
        "env": env,
        "setup_samples": setup_samples,
        "setup_raw_s": setup_raw,
        "passes": passes,
        "kernels": kernels,
        "attempted": attempted,
        "failures": failures,
    }


def op_medians(passes):
    return {name: statistics.median(p["ops"][name] for p in passes) for name in passes[0]["ops"]}


def median_pass(passes):
    """Seconds of a typical pass: the sum of each operation's median over the passes."""
    return sum(op_medians(passes).values())


def summarize(args, run):
    """Metrics; every time is speed-corrected (see speed.py)."""
    passes = run["passes"]
    plain = [p for p in passes if not p["traced"]]
    wall = median_pass(plain)
    if not args.trace:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(run["setup_samples"]), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    import tracing

    traced = [p for p in passes if p["traced"]]
    per_pass = []
    for p in traced:
        m = tracing.layer_metrics(p["counters"])
        # layer seconds get their pass's overall speed correction
        factor = sum(p["ops"].values()) / sum(p["raw"].values())
        per_pass.append({k: v * factor if k.endswith("_s") else v for k, v in m.items()})
    out = {}
    for name in per_pass[0]:
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"
        out[name] = (statistics.median(m[name] for m in per_pass), unit)
    out["process.cpu_s"] = (statistics.median(p["cpu"] for p in plain), "s")
    out["process.blas_threads"] = (BLAS_THREADS, "count")
    out["trace.overhead_s"] = (median_pass(traced) - wall, "s")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="qgeom benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qgeom", "__init__.py")):
        sys.stderr.write(f"error: no qgeom sources under {SRC}; run from a qgeom checkout\n")
        return 2
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    try:
        if args.setup_only:
            raw, setup_s, _, _, _, failures = setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": raw, "warm_failures": failures}))
            return 0
        load_start = os.getloadavg()
        run = measure(args, workdir)
        load_end = os.getloadavg()
    except Exception as e:
        sys.stderr.write(f"error: benchmark could not run: {type(e).__name__}: {e}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = dict(run["env"], loadavg_start=list(load_start), loadavg_end=list(load_end))
    env["busy_start"] = load_start[0] >= env["nproc"]
    metrics = summarize(args, run)
    attempted, failed = run["attempted"], len(run["failures"])
    n_plain = sum(not p["traced"] for p in run["passes"])

    log(f"environment: {json.dumps(env, sort_keys=True)}")
    if env["busy_start"]:
        log(f"warning: started on a busy machine (1-min load {load_start[0]:.2f} >= {env['nproc']} CPUs)")
    log(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(run['passes'])} passes "
        f"({n_plain} untraced), closed loop, 1 client")
    for name, (value, unit) in metrics.items():
        note = (f" (per-operation medians over {n_plain} passes, summed; median probe kernel "
                f"{statistics.median(run['kernels']) * 1e3:.3g} ms)" if name == "wall_s" else "")
        note = f" (median of {len(run['setup_samples'])} set-ups)" if name == "setup_s" else note
        log(f"  {name} = {value:.6g} {unit}{note}")
    log(f"  failed_share = {failed}/{attempted} = {failed / attempted:.4g} (ratio)")
    for where, err in run["failures"]:
        log(f"  FAILED {where}: {err}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, seconds=args.seconds,
                  environment=env, setup_samples_s=run["setup_samples"],
                  setup_raw_s=run["setup_raw_s"], probe_kernel_s=run["kernels"],
                  pass_traced=[p["traced"] for p in run["passes"]],
                  pass_ops_raw_s=[p["raw"] for p in run["passes"]],
                  pass_ops_s=[p["ops"] for p in run["passes"]],
                  failures=run["failures"])
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

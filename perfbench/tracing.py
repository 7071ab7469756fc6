"""Per-layer spans for the traced benchmark run.

The layers are qgeom's modules plus a `linalg` kernel boundary.  A layer is
timed by replacing the public functions of its module, in every qgeom module
namespace that holds them (names imported with `from .numrange import
support` included), by a wrapper that opens a span.  A call from a layer into
itself runs unwrapped, so `<layer>.calls` counts entries into the layer from
outside it.  A span's self time is its duration minus the time of the spans
it caused.  `core` is not a layer: its helpers are imported by name into the
other modules and their time falls in the caller's self time.

Counters are aggregated in memory while the spans run; `Tracer.take()` returns
and resets them, once per pass.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

MODULE_LAYERS = ("numrange", "uncertainty", "gapwitness", "entangle", "interconvert", "wigner", "su2")
LAYERS = ("cli",) + MODULE_LAYERS + ("linalg",)


def _arg(fn, args, kwargs, name):
    """Value of parameter `name` in a call of fn, defaults applied."""
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments[name]


def _n_dirs(fn, args, kwargs, res):
    import numpy as np

    return {"numrange.directions": len(np.atleast_2d(_arg(fn, args, kwargs, "directions")))}


def _eigh_work(fn, args, kwargs, res):
    import numpy as np

    shape = np.shape(args[0] if args else kwargs["a"])
    mats = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    return {"linalg.eigh_mats": mats, "linalg.eigh_n3": mats * shape[-1] ** 3}


def _sector_pairs(fn, args, kwargs, res):
    px = _arg(fn, args, kwargs, "px")
    py = _arg(fn, args, kwargs, "py")
    return {"uncertainty.sector_pairs": len(px.sectors()) * len(py.sectors())}


def _marvian(fn, args, kwargs, res):
    return {"su2.marvian_used": res.used, "su2.marvian_samples": res.used + res.skipped}


# Counters read at layer boundaries: (layer, function name) -> probe returning
# increments.  Probes run after a successful call.
PROBES = {
    ("cli", "main"): lambda fn, a, k, res: {"cli.failed": int(res != 0)},
    ("numrange", "support"): lambda fn, a, k, res: {"numrange.directions": 1},
    ("numrange", "jnr_approximate"): _n_dirs,
    ("numrange", "classify_qutrit_jnr"): lambda fn, a, k, res: {
        "numrange.directions": _arg(fn, a, k, "sweep")
    },
    ("uncertainty", "sector_sum_bound"): _sector_pairs,
    ("entangle", "ppt_max"): lambda fn, a, k, res: {"entangle.ppt_outer_iters": res.iterations},
    ("su2", "marvian_necessary_test"): _marvian,
    ("interconvert", "u1_convertible"): lambda fn, a, k, res: {
        "interconvert.embedding_dim": res.embedding_dim,
        "interconvert.singular_retries": res.singular_retries,
    },
    ("linalg", "eigh"): _eigh_work,
    ("linalg", "eigvalsh"): _eigh_work,
}

# Kernel entry points grouped into one counter family each.
LINALG_FAMILY = {"eigh": "eigh", "eigvalsh": "eigh", "eigsh": "eigsh", "expm": "expm"}


class _Span:
    __slots__ = ("layer", "child")

    def __init__(self, layer):
        self.layer = layer
        self.child = 0.0


class Tracer:
    """Installs layer wrappers into qgeom, numpy and scipy, and removes them."""

    def __init__(self):
        self.stack = []
        self.counters = defaultdict(float)
        self.enabled = True
        self._patched = []  # (namespace, name, original)

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, layer, name, fn):
        probe = PROBES.get((layer, name))
        family = LINALG_FAMILY.get(name) if layer == "linalg" else None
        calls_key = f"linalg.{family}_calls" if family else f"{layer}.calls"
        time_key = f"linalg.{family}_s" if family else f"{layer}.self_s"
        failed_key = f"linalg.{family}_failed" if family else f"{layer}.failed"
        stack = self.stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if not self.enabled or (parent is not None and parent.layer == layer):
                return fn(*args, **kwargs)
            span = _Span(layer)
            stack.append(span)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                counters[failed_key] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if parent is not None:
                    parent.child += dt
                counters[calls_key] += 1
                counters[time_key] += dt - span.child
            if probe is not None:
                for key, inc in probe(fn, args, kwargs, res).items():
                    counters[key] += inc
            return res

        return wrapper

    def take(self):
        """Counters since the last call, then reset."""
        out = dict(self.counters)
        self.counters.clear()
        return out

    # -- installation -----------------------------------------------------

    def _set(self, namespace, name, value):
        self._patched.append((namespace, name, getattr(namespace, name)))
        setattr(namespace, name, value)

    def install(self):
        import numpy
        import scipy.linalg
        import scipy.sparse.linalg

        from qgeom import cli
        import qgeom

        modules = [getattr(qgeom, m) for m in MODULE_LAYERS] + [cli]
        wrapped = {}  # id(original) -> wrapper, shared by every namespace

        for mod in modules[:-1]:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped[id(obj)] = (obj, self._wrap(layer, name, obj))
        wrapped[id(cli.main)] = (cli.main, self._wrap("cli", "main", cli.main))

        kernels = [
            (numpy.linalg, "eigh"),
            (numpy.linalg, "eigvalsh"),
            (scipy.sparse.linalg, "eigsh"),
            (scipy.linalg, "expm"),
        ]
        for ns, name in kernels:
            fn = getattr(ns, name)
            wrapped[id(fn)] = (fn, self._wrap("linalg", name, fn))
            self._set(ns, name, wrapped[id(fn)][1])

        for mod in modules + [qgeom.core]:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])

    def uninstall(self):
        while self._patched:
            ns, name, original = self._patched.pop()
            setattr(ns, name, original)


def layer_metrics(counters):
    """Per-pass per-layer metrics from one pass of counters (missing -> 0)."""
    c = counters
    out = {}
    for layer in LAYERS[:-1]:
        for stat in ("calls", "self_s", "failed"):
            out[f"{layer}.{stat}"] = c.get(f"{layer}.{stat}", 0.0)
    for key in ("numrange.directions", "uncertainty.sector_pairs", "entangle.ppt_outer_iters",
                "interconvert.embedding_dim", "interconvert.singular_retries"):
        out[key] = c.get(key, 0.0)
    samples = c.get("su2.marvian_samples", 0.0)
    out["su2.marvian_used_ratio"] = c.get("su2.marvian_used", 0.0) / samples if samples else 0.0
    for family in ("eigh", "eigsh", "expm"):
        out[f"linalg.{family}_calls"] = c.get(f"linalg.{family}_calls", 0.0)
        out[f"linalg.{family}_s"] = c.get(f"linalg.{family}_s", 0.0)
    out["linalg.eigh_mats"] = c.get("linalg.eigh_mats", 0.0)
    out["linalg.eigh_n3"] = c.get("linalg.eigh_n3", 0.0)
    return out

"""Opt-in call tracing of the library's public functions, from outside it.

``Tracer.install`` wraps every public function and public method defined in
the layer modules, and rebinds the wrapper wherever the original is bound:
in the defining module, in every ``bregcheb`` module that imported it by
name (``center`` imports ``distance_matrix``, ``farthest`` and ``certify``;
``cli`` imports ``farthest_values``), and in the package namespace.
``uninstall`` puts every original back, so an untraced phase runs the
library exactly as shipped; ``installed_wrappers`` finds any leftover.

Spans are not stored one by one (a center solve makes tens of thousands of
``legendre`` calls); each wrapper adds its call into running totals per
function: calls, total time, self time (duration minus the time covered by
the spans it caused) and work counters.
"""

import math
import sys
import time
from pathlib import Path
from types import FunctionType

import numpy as np

LAYERS = ("legendre", "compactset", "bregman", "farthest", "simplex", "center", "cli")

_MARK = "__bench_wrapped__"


def _count_legendre(stat, args, kwargs, out, exc):
    # rows in the point argument: the product of all axes but the last
    if len(args) >= 2:
        shape = np.shape(args[1])
        stat["rows"] += math.prod(shape[:-1]) if len(shape) >= 2 else 1


def _count_distance_matrix(stat, args, kwargs, out, exc):
    if out is None:
        return
    n, m = out.shape
    dim = np.shape(args[1])[-1]
    stat["cells"] += n * m
    # computed, not measured: X and C read, grad f(C), K, f(X) and the
    # output written, 8 bytes per float64
    stat["bytes_computed"] += 8 * (n * dim + 2 * m * dim + m + n + n * m)


def _count_farthest_values(stat, args, kwargs, out, exc):
    if out is not None:
        stat["points"] += len(out)


def _count_solver(stat, args, kwargs, out, exc):
    cert = out if exc is None else getattr(exc, "certificate", None)
    if cert is not None:
        stat["iterations"] += cert.iterations


def _count_certify(stat, args, kwargs, out, exc):
    if out is not None and out.valid:
        stat["valid"] += 1


def _count_cli_main(stat, args, kwargs, out, exc):
    argv = args[0] if args else kwargs.get("argv")
    if argv and "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        if path.exists():
            stat["bytes_written"] += path.stat().st_size


_COUNTERS = {
    "bregman.distance_matrix": (_count_distance_matrix, ("cells", "bytes_computed")),
    "farthest.farthest_values": (_count_farthest_values, ("points",)),
    "center.solve_fixed_point": (_count_solver, ("iterations",)),
    "center.solve_subgradient": (_count_solver, ("iterations",)),
    "center.certify": (_count_certify, ("valid",)),
    "cli.main": (_count_cli_main, ("bytes_written",)),
}


def _public_functions(module):
    """(owner, attribute, function, span name) for every public function and
    public method defined in ``module``."""
    layer = module.__name__.rsplit(".", 1)[-1]
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, FunctionType):
            out.append((module, name, obj, f"{layer}.{name}"))
        elif isinstance(obj, type):
            for meth_name, meth in vars(obj).items():
                if not meth_name.startswith("_") and isinstance(meth, FunctionType):
                    out.append((obj, meth_name, meth, f"{layer}.{meth_name}"))
    return out


def installed_wrappers():
    """Every binding in a ``bregcheb`` module or class that is a wrapper."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("bregcheb"):
            continue
        for name, obj in vars(module).items():
            if hasattr(obj, _MARK):
                found.append(f"{mod_name}.{name}")
            elif isinstance(obj, type) and obj.__module__ == mod_name:
                found.extend(f"{mod_name}.{name}.{m}" for m, v in vars(obj).items()
                             if hasattr(v, _MARK))
    return found


class Tracer:
    """Running totals per traced function; see the module docstring."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._restore = []

    def _wrap(self, span, fn):
        counter, extra = _COUNTERS.get(span, (None, ()))
        if span.startswith("legendre."):
            counter, extra = _count_legendre, ("rows",)
        stat = self.stats.setdefault(
            span, {"calls": 0, "total_s": 0.0, "self_s": 0.0, **{k: 0 for k in extra}})
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            out = exc = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as err:
                exc = err
                raise
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                stat["calls"] += 1
                stat["total_s"] += dur
                stat["self_s"] += dur - child
                if counter is not None:
                    counter(stat, args, kwargs, out, exc)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"bregcheb.{layer}"]
            for owner, attr, fn, span in _public_functions(module):
                wrapper = self._wrap(span, fn)
                originals[id(fn)] = (fn, wrapper)
                if isinstance(owner, type):
                    self._restore.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
        # rebind module-level names wherever the original function is bound
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "bregcheb" or mod_name.startswith("bregcheb.")):
                continue
            for name, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, name, obj))
                    setattr(module, name, hit[1])

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore = []

    def layer_totals(self):
        """Calls and self time summed over each layer's functions."""
        totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for span, stat in self.stats.items():
            layer = span.split(".", 1)[0]
            totals[layer]["calls"] += stat["calls"]
            totals[layer]["self_s"] += stat["self_s"]
        return totals

"""Run one higgsmoduli CLI call with a span around every call into a layer.

The layers are the package's modules.  Every public function of exactpoly,
bundles, higgs, mirror, geometry and stability is wrapped, under every name
it is bound to (a by-name import such as `higgs.poincare_N_closed` or
`cli.coeff_extract_x` is patched too, so no self time lands on the caller).
So are `cli.run`, `IntPoly.__mul__/__rmul__/__pow__` and
`TruncSeries.__mul__/__rmul__`.  `mirror.weil_pairing` is left alone: it runs
16.7M times at genus 6 and would bury the sweep in tracing overhead.

Spans stay in memory as (name, start, end, parent, call id, counts) and are
written as one JSON list to the file descriptor PERFBENCH_TRACE_FD when the
call ends.  Counts are derived from operand sizes, not counted inside the
program.  stdout is the CLI's own, byte for byte.

    PYTHONPATH=src PERFBENCH_TRACE_FD=3 python3 -c \
        "import sys; sys.path.insert(0, 'perfbench'); import tracer; tracer.main()" \
        poincare --space higgs --genus 3 3>spans.json
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import types

LAYERS = ("exactpoly", "bundles", "higgs", "mirror", "geometry", "stability")
SKIP = {"mirror.weil_pairing"}

clock = time.perf_counter
CALL_ID = os.getpid()  # one process per CLI call, so the pid names the call
spans = []
stack = []
paused = False


def wrap(name, fn, counter=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if paused:
            return fn(*args, **kwargs)
        index = len(spans)
        spans.append(None)
        stack.append(index)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            spans[index] = [name, start, end, stack[-1] if stack else -1, CALL_ID, None]
        if counter is not None:
            spans[index][5] = counter(args, kwargs, result)
        return result

    return traced


def _size(poly):
    """Coefficient count of an IntPoly operand; an int operand counts as one."""
    return len(poly.coeffs) if hasattr(poly, "coeffs") else 1


def count_mul(args, kwargs, result):
    a, b = args
    return [len(a.coeffs) * _size(b)]


def count_trunc_mul(args, kwargs, result):
    """[coefficients computed, coefficients kept below the truncation order]."""
    a, b = args
    n_a, n_b = len(a.poly.coeffs), _size(getattr(b, "poly", b))
    computed = n_a + n_b - 1 if n_a and n_b else 0
    return [computed, min(computed, result.order)]


def count_series(args, kwargs, result):
    return [result.order]


def count_pairings(args, kwargs, result):
    """The average over Jac[2] that defines the right-hand side has 4^g terms."""
    return [4 ** args[0]]


def count_strata(args, kwargs, result):
    global paused
    strata_count = getattr(sys.modules["higgsmoduli.bundles"], "recursion_strata_count", None)
    if strata_count is None:
        return [0]
    paused = True
    try:
        return [strata_count(args[0], kwargs.get("order", args[1] if len(args) > 1 else None))]
    finally:
        paused = False


COUNTERS = {
    "exactpoly.series_expand": count_series,
    "mirror.e_poly_rhs": count_pairings,
    "bundles.poincare_N_recursion": count_strata,
}


def install():
    """Wrap every layer entry point and rebind each name it is imported under."""
    modules = [importlib.import_module(f"higgsmoduli.{name}") for name in LAYERS]
    cli = importlib.import_module("higgsmoduli.cli")
    package = sys.modules["higgsmoduli"]
    replacements = {}
    for module in modules:
        layer = module.__name__.rpartition(".")[2]
        for attr, fn in vars(module).items():
            name = f"{layer}.{attr}"
            if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                    and fn.__module__ == module.__name__ and name not in SKIP):
                replacements[id(fn)] = wrap(name, fn, COUNTERS.get(name))
    replacements[id(cli.run)] = wrap("cli.run", cli.run)
    for module in [*modules, cli, package]:
        for attr, value in list(vars(module).items()):
            if id(value) in replacements:
                setattr(module, attr, replacements[id(value)])

    exactpoly = sys.modules["higgsmoduli.exactpoly"]
    for cls, methods in (
        (exactpoly.IntPoly, {"__mul__": ("exactpoly.mul", count_mul),
                             "__rmul__": ("exactpoly.mul", count_mul),
                             "__pow__": ("exactpoly.pow", None)}),
        (exactpoly.TruncSeries, {"__mul__": ("exactpoly.trunc_mul", count_trunc_mul),
                                 "__rmul__": ("exactpoly.trunc_mul", count_trunc_mul)}),
    ):
        for attr, (name, counter) in methods.items():
            setattr(cls, attr, wrap(name, vars(cls)[attr], counter))
    return cli


def main():
    fd = int(os.environ["PERFBENCH_TRACE_FD"])
    start = clock()
    import higgsmoduli.cli  # noqa: F401  (timed: the import is the cli layer's set-up)
    spans.append(["cli.import", start, clock(), -1, CALL_ID, None])
    cli = install()
    try:
        code = cli.run(sys.argv[1:])
        sys.stdout.flush()
    finally:
        with os.fdopen(fd, "w") as out:
            json.dump(spans, out)
    sys.exit(code)

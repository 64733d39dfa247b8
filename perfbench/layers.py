"""Per-layer metrics from the spans that tracer.py writes for each traced call.

A span's self time is its duration minus the durations of its direct
children.  Every metric is summed over one pass of the call list (cli.import_s
is the median over the pass's calls) and then reported as the median over the
traced passes of a run.  Counts marked "computed" come from operand sizes.
"""
from __future__ import annotations

import statistics
from collections import Counter, defaultdict

# (name, unit, better); BENCHMARK.json's per_layer list matches this one.
METRICS = [
    ("exactpoly.mul.calls", "count", "lower"),
    ("exactpoly.mul.self_s", "s", "lower"),
    ("exactpoly.mul.coeff_products", "count", "lower"),  # computed: len(a) * len(b)
    ("exactpoly.pow.calls", "count", "lower"),
    ("exactpoly.pow.self_s", "s", "lower"),
    ("exactpoly.trunc_mul.calls", "count", "lower"),
    ("exactpoly.trunc_mul.self_s", "s", "lower"),
    ("exactpoly.trunc_mul.kept_ratio", "ratio", "higher"),  # kept / computed coefficients
    ("exactpoly.series_expand.calls", "count", "lower"),
    ("exactpoly.series_expand.self_s", "s", "lower"),
    ("exactpoly.series_expand.coeffs", "count", "lower"),
    ("exactpoly.poly_exact_div.calls", "count", "lower"),
    ("exactpoly.poly_exact_div.self_s", "s", "lower"),
    ("exactpoly.coeff_extract_x.calls", "count", "lower"),
    ("exactpoly.coeff_extract_x.self_s", "s", "lower"),
    ("exactpoly.self_s", "s", "lower"),
    ("bundles.poincare_N_recursion.self_s", "s", "lower"),
    ("bundles.poincare_N_closed.self_s", "s", "lower"),
    ("bundles.strata", "count", "lower"),
    ("bundles.self_s", "s", "lower"),
    ("higgs.poincare_M_closed.self_s", "s", "lower"),
    ("higgs.poincare_M_stratified.self_s", "s", "lower"),
    ("higgs.self_s", "s", "lower"),
    ("mirror.mirror_verify.self_s", "s", "lower"),
    ("mirror.e_poly_rhs.calls", "count", "lower"),
    ("mirror.e_poly_rhs.per_call_us", "us", "lower"),  # calls after each process's first
    ("mirror.e_poly_rhs.first_s", "s", "lower"),  # includes the element-table build
    ("mirror.pairings", "count", "lower"),  # computed: 4^g per e_poly_rhs call
    ("mirror.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.run.calls", "count", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("geometry.calls", "count", "lower"),
    ("geometry.self_s", "s", "lower"),
    ("stability.calls", "count", "lower"),
    ("stability.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),  # traced wall_s minus untraced wall_s
]


def pass_metrics(results):
    """Every metric but trace.overhead_s, for one traced pass of the call list."""
    calls = Counter()
    self_s = defaultdict(float)
    counts = defaultdict(lambda: [0, 0])
    imports = []
    rhs_first = rhs_rest = 0.0
    rhs_later = 0
    for result in results:
        spans = result.spans or []
        children = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        seen_rhs = False
        for (name, start, end, _, _, work), child in zip(spans, children):
            if name == "cli.import":
                imports.append(end - start)
                continue
            calls[name] += 1
            self_s[name] += end - start - child
            for i, n in enumerate(work or ()):
                counts[name][i] += n
            if name == "mirror.e_poly_rhs":
                if seen_rhs:
                    rhs_rest += end - start
                    rhs_later += 1
                else:
                    rhs_first += end - start
                    seen_rhs = True

    layer_calls, layer_self = Counter(), defaultdict(float)
    for name, n in calls.items():
        layer = name.partition(".")[0]
        layer_calls[layer] += n
        layer_self[layer] += self_s[name]
    computed, kept = counts["exactpoly.trunc_mul"]

    values = {}
    for name, _, _ in METRICS:  # "<span>.calls" / "<span>.self_s", or per layer
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls[span] if "." in span else layer_calls[span]
        elif kind == "self_s":
            values[name] = self_s[span] if "." in span else layer_self[span]
    values.update({
        "exactpoly.mul.coeff_products": counts["exactpoly.mul"][0],
        "exactpoly.trunc_mul.kept_ratio": kept / computed if computed else 0.0,
        "exactpoly.series_expand.coeffs": counts["exactpoly.series_expand"][0],
        "bundles.strata": counts["bundles.poincare_N_recursion"][0],
        "mirror.e_poly_rhs.per_call_us": rhs_rest / rhs_later * 1e6 if rhs_later else 0.0,
        "mirror.e_poly_rhs.first_s": rhs_first,
        "mirror.pairings": counts["mirror.e_poly_rhs"][0],
        "cli.import_s": statistics.median(imports) if imports else 0.0,
    })
    return values


def per_layer(traced, plain):
    """Medians over traced passes; traced and plain are lists of (wall, results)."""
    per_pass = [pass_metrics(results) for _, results in traced]
    values = {name: statistics.median(p[name] for p in per_pass)
              for name, _, _ in METRICS if name != "trace.overhead_s"}
    values["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                                  - statistics.median(w for w, _ in plain))
    return values

"""Metric names, units and the arithmetic that produces them.

`END_TO_END` and `PER_LAYER` must match the lists in BENCHMARK.json; the
smoke check compares them.  Per-layer values are per timed operation of
the traced phase, so runs of different length stay comparable.
"""

from __future__ import annotations

import statistics

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# the 32 theorem checks and 6 category laws of qc.verify, by report id
CHECK_IDS = (
    "filters.cauchy_round_implies_minimal",
    "filters.roundify_preserves_cauchy",
    "filters.roundify_round_under_uva",
    "filters.minimal_iff_cauchy_round_under_uva",
    "filters.point_filters_coincide_under_va",
    "filters.cauchy_iff_op_cauchy_under_uva",
    "filters.roundify_idempotent",
    "filters.ball_set_distance_bounds",
    "filters.roundify_functorial",
    "filters.roundify_adjunction",
    "completion.cauchy_space_is_uva_vspace",
    "completion.quotient_inherits_asymmetry",
    "completion.minimal_space_isometric_to_quotient",
    "completion.embedding_isometry",
    "completion.embedding_dense",
    "completion.completion_is_cauchy_complete",
    "completion.completion_separated_uva",
    "completion.zero_distance_intersection_cauchy",
    "completion.idempotent_up_to_isometry",
    "completion.functorial_on_maps",
    "completion.universal_property",
    "structures.va_conditions_agree",
    "structures.uva_conditions_agree",
    "structures.uva_implies_va",
    "structures.finite_model_collapse_zero_pattern",
    "structures.balls_closed_in_topology",
    "structures.uniformity_topology_consistent",
    "structures.separated_va_hausdorff_discrete",
    "vspace.quotient_separated_isometric",
    "degenerate.uva_everywhere",
    "degenerate.all_filters_cauchy",
    "degenerate.completion_single_point",
    "category.identity_morphism",
    "category.powerset_left_adjoint",
    "category.carrier_right_adjoint",
    "category.roundify_functorial",
    "category.roundify_adjunction",
    "category.composition",
)

_LAYER_NAMES = (
    "quantale.self_s",
    "quantale.leq.calls",
    "quantale.add.calls",
    "quantale.meet.calls",
    "quantale.check.calls",
    "vspace.self_s",
    "vspace.VSpace.calls",
    "vspace.VSpace.self_s",
    "vspace.validate_vspace.calls",
    "vspace.validate_vspace.self_s",
    "vspace.has_vanishing_asymmetry.self_s",
    "vspace.has_uniformly_vanishing_asymmetry.calls",
    "vspace.has_uniformly_vanishing_asymmetry.self_s",
    "vspace.separation_quotient.self_s",
    "vspace.is_uniformly_continuous.calls",
    "vspace.is_uniformly_continuous.self_s",
    "filters.self_s",
    "filters.is_cauchy.calls",
    "filters.is_cauchy.self_s",
    "filters.is_cauchy.true_ratio",
    "filters.is_round.self_s",
    "filters.roundify.calls",
    "filters.filter_distance.calls",
    "filters.filter_distance.self_s",
    "filters.converges.self_s",
    "filters.is_minimal_cauchy.self_s",
    "completion.self_s",
    "completion.complete.self_s",
    "completion.cauchy_filter_space.self_s",
    "completion.minimal_cauchy_filters.self_s",
    "completion.is_cauchy_complete.self_s",
    "completion.points_per_call",
    "structures.self_s",
    "structures.quasi_uniformity_of.self_s",
    "structures.topology_of.self_s",
    "verify.self_s",
    "verify.oracle_gate.self_s",
    "verify.triangle_repair.calls",
    "verify.triangle_repair.self_s",
    "verify.run_theorem_suite.self_s",
    *(f"verify.check.{cid}.s" for cid in CHECK_IDS),
    "serialize.self_s",
    "serialize.parse_space.calls",
    "serialize.parse_space.self_s",
    "serialize.dumps_canonical.self_s",
    "cli.main.total_s",
    "cli.process_overhead_s",
    "trace.overhead_ratio",
)


def _unit(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "completion.points_per_call":
        return "points/call"
    return "s/op"


PER_LAYER = tuple((name, _unit(name)) for name in _LAYER_NAMES)


def percentile(values, fraction: float) -> float:
    """Linear-interpolated percentile inside the sample range."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def end_to_end(setup_runs, op_times, peak_rss_kb) -> dict:
    """The end-to-end metrics from per-operation times in seconds, scaled to nominal host speed."""
    return {
        "setup_s": statistics.median(setup_runs),
        "op_p50_ms": statistics.median(op_times) * 1000,
        "op_p90_ms": percentile(op_times, 0.9) * 1000,
        "ops_per_s": len(op_times) / sum(op_times),
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def merge_summaries(summaries) -> dict:
    """Sum tracer summaries from several traced processes."""
    out = {"spans": {}, "element_s": 0.0, "element_calls": {}, "counters": {}}
    for s in summaries:
        for name, rec in s["spans"].items():
            acc = out["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += rec[key]
        out["element_s"] += s["element_s"]
        for key in ("element_calls", "counters"):
            for k, v in s[key].items():
                out[key][k] = out[key].get(k, 0) + v
    return out


def per_layer(summary: dict, ops: int, overhead_ratio: float,
              process_overhead_s: float = 0.0) -> dict:
    """Every PER_LAYER metric from a merged tracer summary of `ops` operations.

    A layer or function the workload never calls reads 0.
    """
    spans = summary["spans"]
    counters = summary["counters"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def layer_self(layer: str) -> float:
        total = sum(rec["self_s"] for n, rec in spans.items() if n.startswith(layer + "."))
        return total + (summary["element_s"] if layer == "quantale" else 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for name, _ in PER_LAYER:
        if name == "trace.overhead_ratio":
            value = overhead_ratio
        elif name == "cli.process_overhead_s":
            value = process_overhead_s
        elif name == "cli.main.total_s":
            value = span("cli.main", "total_s") / ops
        elif name == "filters.is_cauchy.true_ratio":
            value = ratio(counters.get("filters.is_cauchy.true", 0),
                          span("filters.is_cauchy", "calls"))
        elif name == "completion.points_per_call":
            value = ratio(counters.get("completion.complete.points", 0),
                          span("completion.complete", "calls"))
        elif name.startswith("verify.check."):
            value = counters.get(name[: -len(".s")], 0.0) / ops
        elif name.startswith("quantale.") and name.endswith(".calls"):
            value = summary["element_calls"].get(name.split(".")[1], 0) / ops
        elif name.count(".") == 1:
            value = layer_self(name.split(".")[0]) / ops
        else:
            fn, key = name.rsplit(".", 1)
            value = span(fn, key) / ops
        out[name] = value
    return out

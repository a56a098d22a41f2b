"""Turn a :class:`workloads.Run` (and, traced, its spans) into the printed metrics."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

import tracing
from measures import median, metric, percentile

#: Layers of the program; ``bench`` is the benchmark's own code around each operation.
BENCH_LAYER = "bench"
#: Measured operations in which a user customizes a matrix.
CUSTOMIZING_OPERATIONS = {"report", "cold_report", "customize"}


def fault_summary(run) -> Dict[str, object]:
    """Operations attempted and failed, in total and per round, with the fault of every failure."""
    return {
        "rounds": run.rounds,
        "attempted": run.attempted,
        "failed": run.failed,
        "per_round": {"attempted": run.attempted / run.rounds, "failed": run.failed / run.rounds},
        "faults": dict(run.faults),
        "details": run.details,
    }


def end_to_end_metrics(run, scale: float = 1.0) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics, times multiplied by *scale* (the run's host-speed factor)."""
    return {
        "setup_s": metric(median(run.setup_s) * scale, "s"),
        "cold_forest_s": metric(median(run.cold_forest_s) * scale, "s"),
        "refresh_s": metric(median(run.refresh_s) * scale, "s"),
        "report_ms.p50": metric(percentile(run.report_ms, 50) * scale, "ms"),
        "reports_per_s": metric(len(run.report_ms) / run.report_wall_s / scale, "1/s"),
        "response_kb": metric(np.mean(list(run.response_bytes.values())) / 1000.0, "KB"),
        "utility_loss_km": metric(np.mean(run.utility_km), "km"),
        "attacker_error_km": metric(np.mean(run.attacker_km), "km"),
        "peak_rss_mb": metric(run.peak_rss_mb, "MB"),
    }


# ---------------------------------------------------------------------- #
# Traced runs
# ---------------------------------------------------------------------- #


def analyse_trace(load_records: List[Dict], server_records: List[Dict]) -> Dict[str, object]:
    """Link the two processes' spans, keep those under measured operations, sum self times per layer."""
    spans = tracing.link_processes(tracing.load(load_records), tracing.load(server_records))
    spans = tracing.measured(spans, BENCH_LAYER)
    roots = [span for span in spans if span.parent is None]
    per_operation: Dict[str, List[float]] = {}
    for span in roots:
        per_operation.setdefault(span.name, []).append(span.duration)
    return {
        "objects": spans,
        "spans": [span.__dict__ for span in spans],
        "layers": tracing.layer_self_times(spans),
        "e2e_s": sum(span.duration for span in roots),
        "operation_median_s": {name: median(durations) for name, durations in per_operation.items()},
    }


def _durations(spans, layer: str, name: str = None, **note) -> List[float]:
    return [
        span.duration
        for span in spans
        if span.layer == layer
        and (name is None or span.name == name)
        and all(span.note.get(key) == value for key, value in note.items())
    ]


def _med(values: List[float], scale: float = 1.0) -> float:
    return median(values) * scale if values else 0.0


def _sums_under(spans, parents, layers) -> List[float]:
    """Per parent span, the total duration of its descendants in *layers*."""
    by_id = {span.id: span for span in spans}
    totals = {parent.id: 0.0 for parent in parents}
    for span in spans:
        if span.layer not in layers:
            continue
        ancestor = by_id.get(span.parent)
        while ancestor is not None and ancestor.id not in totals:
            ancestor = by_id.get(ancestor.parent)
        if ancestor is not None:
            totals[ancestor.id] += span.duration
    return list(totals.values())


def per_layer_metrics(run, analysis: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    spans = analysis["objects"]
    rounds = float(run.rounds)
    counts = run.counts
    solver = [span for span in spans if span.layer == "core.solver"]
    forest_requests = [
        span for span in spans if span.layer == "service.http" and span.note.get("path") == "/forest"
    ]
    fetches = [span for span in spans if span.layer == "client.fetch" and span.name == "fetch_forest"]
    reports = [span for span in spans if span.layer == BENCH_LAYER and span.name in CUSTOMIZING_OPERATIONS]
    to_dict_calls = sum(1 for span in spans if span.layer == "service.encode" and span.name == "to_dict")
    lookups = counts.get("matrix_cache.hits", 0.0) + counts.get("matrix_cache.misses", 0.0)
    program_self = sum(seconds for layer, seconds in analysis["layers"].items() if layer != BENCH_LAYER)
    return {
        "core.solver.solve_s": metric(_med([span.duration for span in solver]), "s"),
        "core.solver.cpu_s": metric(_med([span.cpu for span in solver]), "s"),
        "core.solver.solves": metric(counts.get("solver.solves", 0.0) / rounds, "count"),
        "core.solver.iterations": metric(sum(span.note["iterations"] for span in solver) / rounds, "count"),
        "core.solver.warm_solves": metric(counts.get("solver.warm_solves", 0.0) / rounds, "count"),
        "core.solver.cold_retries": metric(counts.get("solver.cold_retries", 0.0) / rounds, "count"),
        "core.lp.refresh_s": metric(_med(_durations(spans, "core.lp")), "s"),
        "core.robust.rpb_s": metric(_med(_durations(spans, "core.robust")), "s"),
        "core.pruning.prune_ms": metric(_med(_durations(spans, "core.pruning"), 1e3), "ms"),
        "core.precision.reduce_ms": metric(_med(_durations(spans, "core.precision"), 1e3), "ms"),
        "core.matrix.sample_ms": metric(_med(_durations(spans, "core.matrix"), 1e3), "ms"),
        "pipeline.matrix_cache.hit_rate": metric(
            counts.get("matrix_cache.hits", 0.0) / lookups if lookups else 0.0, "ratio"
        ),
        "pipeline.matrix_cache.misses": metric(counts.get("matrix_cache.misses", 0.0) / rounds, "count"),
        "pipeline.structure.reuses": metric(counts.get("structure.reuses", 0.0) / rounds, "count"),
        "server.engine.build_s": metric(_med(_durations(spans, "server.engine", cached=False)), "s"),
        "server.engine.hit_ms": metric(_med(_durations(spans, "server.engine", cached=True), 1e3), "ms"),
        "service.handle_ms": metric(_med(_durations(spans, "service", "handle"), 1e3), "ms"),
        "service.encode_ms": metric(_med(_sums_under(spans, forest_requests, {"service.encode"}), 1e3), "ms"),
        "service.encode_calls": metric(to_dict_calls / max(len(forest_requests), 1), "count"),
        "service.http.request_ms": metric(_med([span.duration for span in forest_requests], 1e3), "ms"),
        "service.publish_ms": metric(_med(_durations(spans, "service", "publish"), 1e3), "ms"),
        "client.fetch_ms": metric(_med([span.duration for span in fetches], 1e3), "ms"),
        "client.decode_ms": metric(_med(_sums_under(spans, fetches, {"client.decode"}), 1e3), "ms"),
        "client.customize_ms": metric(
            _med(_sums_under(spans, reports, {"core.pruning", "core.precision", "core.matrix"}), 1e3), "ms"
        ),
        "policy.evaluate_ms": metric(_med(_durations(spans, "policy"), 1e3), "ms"),
        "tree.leaf_lookup_ms": metric(_med(_durations(spans, "tree"), 1e3), "ms"),
        "trace.layer_coverage": metric(program_self / analysis["e2e_s"], "ratio"),
    }


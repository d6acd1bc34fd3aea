"""Reduce traced spans to per-layer metrics.

A span's self time is its duration minus the part of its interval that
its child spans cover (the union of the children, so children that
overlap, as worker threads do, are not counted twice).  A layer's self
time is the sum of its spans' self times.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS

# every function span reported as <name>.s / <name>.calls
SPAN_METRICS = (
    "cli.run",
    "cli.load_foliation_file",
    "vfparse.parse_vector_field",
    "vfparse.lie_bracket",
    "vfparse.format_poly",
    "vfparse.format_vector_field",
    "modalg.module_groebner",
    "modalg.syzygy_basis",
    "modalg.contains",
    "modalg.is_involutive",
    "modalg.singular_locus",
    "modalg.minimal_local_generators",
    "modalg.fiber_dim",
    "modalg.tangent_dim",
    "modalg.rank_exact",
    "flow.flow",
    "flow.flow_jet",
    "flow.flow_box",
    "flow.leaf_sample",
    "flow.chart_rank_check",
    "holonomy.holonomy_jet",
    "holonomy.jet_exact_linear",
    "holonomy.germ_equal_at_fixed_point",
    "holonomy.check_pushforward_linear",
    "holonomy.matrix_exp",
)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Self time of each span; ``spans`` are (name, start, end, parent index)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered(children.get(i, ()), start, end)
        for i, (_, start, end, _) in enumerate(spans)
    ]


def reduce_request(trace: dict) -> dict:
    """Per-name self seconds and calls, per-layer self seconds, root time."""
    names = trace["names"]
    spans = [(names[n], s, e, p) for n, s, e, p in trace["spans"]]
    by_name: dict[str, list] = {}
    by_layer = dict.fromkeys(LAYERS, 0.0)
    root_s = 0.0
    for (name, start, end, parent), self_s in zip(spans, self_times(spans)):
        slot = by_name.setdefault(name, [0.0, 0])
        slot[0] += self_s
        slot[1] += 1
        by_layer[name.split(".", 1)[0]] += self_s
        if parent is None:
            root_s += end - start
    return {"names": by_name, "layers": by_layer, "root_s": root_s}


def summarize(trace: dict) -> dict:
    """What the per-layer metrics need from one request's span file."""
    return dict(
        reduce_request(trace),
        import_s=trace["import_s"],
        basis_len=trace["basis_len"] or 0,
        relations_len=trace["relations_len"] or 0,
        points=trace["points"],
        spans=len(trace["spans"]),
    )


def layer_metrics(summaries, work, traced_wall, untraced_wall) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced pass.

    ``summaries`` come from :func:`summarize`, one per request; ``work`` is
    the computed flow work of each request, ``traced_wall``/``untraced_wall``
    the wall times of the same requests run traced and untraced.  A layer's
    share is of the self time of all spans: worker threads' spans overlap in
    wall time, so shares of the wall time could exceed 1.
    """
    names: dict[str, list] = {}
    layers = dict.fromkeys(LAYERS, 0.0)
    for r in summaries:
        for name, (s, calls) in r["names"].items():
            slot = names.setdefault(name, [0.0, 0])
            slot[0] += s
            slot[1] += calls
        for layer, s in r["layers"].items():
            layers[layer] += s
    total = sum(layers.values())
    out: dict[str, tuple[float, str]] = {}
    out["cli.import_s"] = (statistics.median(r["import_s"] for r in summaries), "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layers[layer], "s")
        out[f"{layer}.self_share"] = (layers[layer] / total if total else 0.0, "ratio")
    for name in SPAN_METRICS:
        s, calls = names.get(name, (0.0, 0))
        out[f"{name}.s"] = (s, "s")
        out[f"{name}.calls"] = (calls, "count")
    for count in ("basis_len", "relations_len", "points"):
        out[f"modalg.{count}"] = (sum(r[count] for r in summaries), "count")
    steps = sum(w.get("rk4_steps", 0) for w in work)
    segments = sum(w.get("segments", 0) for w in work)
    fresh = sum(w.get("fresh", 0) for w in work)
    out["flow.rk4_steps"] = (steps, "count")
    out["flow.segments"] = (segments, "count")
    out["flow.fresh_coeff_share"] = (fresh / segments if segments else 0.0, "ratio")
    out["flow.steps_per_s"] = (steps / layers["flow"] if layers["flow"] else 0.0, "1/s")
    out["trace.run_s"] = (sum(r["root_s"] for r in summaries), "s")
    out["trace.spans"] = (sum(r["spans"] for r in summaries), "count")
    out["trace.overhead_ratio"] = (sum(traced_wall) / sum(untraced_wall), "ratio")
    return out

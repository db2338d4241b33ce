"""Per-layer metrics of a traced run."""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, unit, better) of every per-layer metric, as BENCHMARK.json lists
#: them.
#: "op" is the workload's operation: a training step, a request, a grid.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("defense.train_batch_ms", "ms/op", "lower"),
    ("defense.train_batch_self_ms", "ms/op", "lower"),
    ("attacks.input_gradient_ms", "ms/op", "lower"),
    ("attacks.input_gradient_self_ms", "ms/op", "lower"),
    ("attacks.input_gradient_calls", "count/op", "lower"),
    ("nn.backward_ms", "ms/op", "lower"),
    ("nn.conv2d_ms", "ms/op", "lower"),
    ("nn.conv2d_calls", "count/op", "lower"),
    ("nn.batch_norm_ms", "ms/op", "lower"),
    ("nn.batch_norm_calls", "count/op", "lower"),
    ("nn.relu_ms", "ms/op", "lower"),
    ("nn.relu_calls", "count/op", "lower"),
    ("nn.linear_ms", "ms/op", "lower"),
    ("nn.linear_calls", "count/op", "lower"),
    ("quant.fake_quantize_ms", "ms/op", "lower"),
    ("quant.fake_quantize_calls", "count/op", "lower"),
    ("quant.set_precision_ms", "ms/op", "lower"),
    ("optim.step_ms", "ms/op", "lower"),
    ("ckpt.save_ms", "ms/call", "lower"),
    ("ckpt.saves", "count/op", "lower"),
    ("ckpt.bytes_written", "bytes/call", "lower"),
    ("nn.workspace_hits", "count/op", "higher"),
    ("nn.workspace_misses", "count/op", "lower"),
    ("inference.predict_ms", "ms/call", "lower"),
    ("inference.predict_self_ms", "ms/call", "lower"),
    ("inference.predict_calls", "count/op", "lower"),
    ("inference.batch_size", "requests/call", "higher"),
    ("serving.execute_busy", "s/s", "lower"),
    ("serving.queue_wait_ms", "ms", "lower"),
    ("nn.conv2d_infer_ms", "ms/call", "lower"),
    ("nn.channel_affine_infer_ms", "ms/call", "lower"),
    ("inference.plan_builds", "count", "lower"),
    ("inference.plan_build_ms", "ms/call", "lower"),
    ("accel.optimize_layer_ms", "ms/call", "lower"),
    ("accel.optimize_layer_self_ms", "ms/call", "lower"),
    ("accel.optimize_layer_calls", "count/op", "lower"),
    ("accel.batched_metrics_ms", "ms/op", "lower"),
    ("accel.candidates_scored", "count/op", "lower"),
    ("accel.ms_per_candidate", "ms", "lower"),
    ("accel.cells_computed", "count/op", "lower"),
    ("accel.cache_hits", "count/op", "higher"),
    ("proc.cpu_util", "s/s", "lower"),
    ("trace.unclaimed_share", "share", "lower"),
    ("trace.throughput_per_s", "1/s", "higher"),
    ("trace.untraced_throughput_per_s", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, workload, traced_phase, untraced_phase,
                  workspace: Dict[str, int]) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric from the traced phase; layers a workload
    never calls read 0."""
    spans = tracer.summary("measure")
    setup = tracer.summary("setup")
    ops = max(traced_phase.attempted, 1)

    def get(name: str, field: str, summary=spans) -> float:
        return summary.get(name, {}).get(field, 0.0)

    def per_op_ms(name: str, field: str = "time_s") -> float:
        return get(name, field) * 1e3 / ops

    def per_call_ms(name: str, field: str = "time_s", summary=spans) -> float:
        return _ratio(get(name, field, summary) * 1e3,
                      get(name, "calls", summary))

    m: Dict[str, float] = {
        "defense.train_batch_ms": per_op_ms("defense.train_batch"),
        "defense.train_batch_self_ms": per_op_ms("defense.train_batch",
                                                 "self_s"),
        "attacks.input_gradient_ms": per_op_ms("attacks.input_gradient"),
        "attacks.input_gradient_self_ms": per_op_ms("attacks.input_gradient",
                                                    "self_s"),
        "attacks.input_gradient_calls":
            get("attacks.input_gradient", "calls") / ops,
        "nn.backward_ms": per_op_ms("nn.backward"),
        "quant.set_precision_ms": per_op_ms("quant.set_precision"),
        "optim.step_ms": per_op_ms("optim.step"),
        "ckpt.save_ms": per_call_ms("ckpt.save"),
        "ckpt.saves": get("ckpt.save", "calls") / ops,
        "ckpt.bytes_written": _ratio(tracer.count("ckpt.save:amount"),
                                     get("ckpt.save", "calls")),
        "nn.workspace_hits": workspace["hits"] / ops,
        "nn.workspace_misses": workspace["misses"] / ops,
        "inference.predict_ms": per_call_ms("inference.predict"),
        "inference.predict_self_ms": per_call_ms("inference.predict",
                                                 "self_s"),
        "inference.predict_calls": get("inference.predict", "calls") / ops,
        "inference.batch_size": _ratio(
            tracer.count("inference.predict:amount"),
            get("inference.predict", "calls")),
        "nn.conv2d_infer_ms": per_call_ms("nn.conv2d_infer"),
        "nn.channel_affine_infer_ms": per_call_ms("nn.channel_affine_infer"),
        "inference.plan_builds": get("inference.plan_build", "calls"),
        "inference.plan_build_ms": per_call_ms("inference.plan_build",
                                               summary=setup),
        "accel.optimize_layer_ms": per_call_ms("accel.optimize_layer"),
        "accel.optimize_layer_self_ms": per_call_ms("accel.optimize_layer",
                                                    "self_s"),
        "accel.optimize_layer_calls": get("accel.optimize_layer", "calls") / ops,
        "accel.batched_metrics_ms": per_op_ms("accel.batched_metrics"),
        "accel.candidates_scored":
            tracer.count("accel.batched_metrics:amount") / ops,
        "accel.ms_per_candidate": _ratio(
            get("accel.optimize_layer", "time_s") * 1e3,
            tracer.count("accel.batched_metrics:amount")),
        "proc.cpu_util": _ratio(traced_phase.cpu_s, traced_phase.wall_s),
        "trace.unclaimed_share": _ratio(get(workload.op_span, "self_s"),
                                        get(workload.op_span, "time_s")),
        "trace.throughput_per_s": traced_phase.throughput,
        "trace.untraced_throughput_per_s": untraced_phase.throughput,
        "trace.overhead_pct": 100.0 * (1.0 - _ratio(
            traced_phase.throughput, untraced_phase.throughput)),
    }
    for op in ("conv2d", "batch_norm", "relu", "linear"):
        m[f"nn.{op}_ms"] = per_op_ms(f"nn.{op}")
        m[f"nn.{op}_calls"] = get(f"nn.{op}", "calls") / ops
    m["quant.fake_quantize_ms"] = per_op_ms("quant.fake_quantize")
    m["quant.fake_quantize_calls"] = get("quant.fake_quantize", "calls") / ops

    # Serving: executor busy share and the wait outside the batch call.
    batches = traced_phase.state.get("batches", [])
    latencies = traced_phase.latencies_s
    busy = sum(spent for *_, spent in batches)
    m["serving.execute_busy"] = _ratio(busy, traced_phase.wall_s)
    m["serving.queue_wait_ms"] = _ratio(
        (sum(latencies) - sum(len(rows) * spent
                              for _, rows, _, spent in batches)) * 1e3,
        len(latencies)) if batches else 0.0

    # Accelerator search: the engine's own counters.
    cache = traced_phase.state.get("cache", {"misses": 0, "hits": 0})
    m["accel.cells_computed"] = cache["misses"] / ops
    m["accel.cache_hits"] = cache["hits"] / ops
    return {name: float(m[name]) for name, _, _ in PER_LAYER}

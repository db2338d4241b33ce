"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload rps_train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` the last line of
stdout is the end-to-end metrics; with ``--trace 1`` the run measures an
untraced phase and then a traced one, and the last line is the per-layer
metrics.  The line before it is the run record (manifest, checks, counts).
Exits 2 without a result when the program cannot be imported, 1 when a run
raised.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space of a run (checkpoint rings, span dumps), inside the checkout.
SCRATCH = ROOT / ".perfbench"

END_TO_END = [("setup_s", "s"), ("throughput_per_s", "1/s"),
              ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"),
              ("peak_rss_mb", "MB")]


def workloads():
    from perfbench.dse import AccelDSE
    from perfbench.serve import RPSServe
    from perfbench.train import RPSTrain

    return {cls.name: cls for cls in (RPSTrain, RPSServe, AccelDSE)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, phase, setup_times) -> dict:
    from perfbench import stats

    return {
        "setup_s": stats.median(setup_times),
        "throughput_per_s": phase.throughput,
        "latency_p50_ms": stats.median(
            [x for w in phase.latency_windows for x in w]
            or phase.latencies_s) * 1e3,
        "latency_tail_ms": tail(workload, phase) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


def tail(workload, phase) -> float:
    """The workload's tail percentile: the median of the per-window values
    when the phase reports latencies by window, else over all."""
    from perfbench import stats

    if phase.latency_windows:
        return stats.median([stats.percentile(w, workload.tail_percentile)
                             for w in phase.latency_windows if w])
    return stats.percentile(phase.latencies_s, workload.tail_percentile)


def run(workload, seconds: float, trace: bool, dump_path=None):
    """Set up ``setup_reps`` times, measure, optionally trace, check.

    Returns (metrics, record, attempted, failed, correct)."""
    from perfbench.layers import layer_metrics
    from perfbench.tracer import Tracer
    from repro.nn.workspace import default_workspace

    setup_times, rigs = [], []
    try:
        for _ in range(workload.setup_reps):
            if rigs:
                workload.close(rigs.pop())
            start = time.perf_counter()
            rigs.append(workload.setup())
            setup_times.append(time.perf_counter() - start)
        phases = [workload.measure(rigs[-1], seconds)]
        metrics = end_to_end(workload, phases[0], setup_times)
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                rigs.append(workload.setup())
                tracer.phase = "measure"
                ws = default_workspace()
                hits, misses = ws.hits, ws.misses
                phases.append(workload.measure(rigs[-1], seconds, tracer))
                counters = {"hits": ws.hits - hits,
                            "misses": ws.misses - misses}
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer, workload, phases[1], phases[0],
                                    counters)
            if dump_path is not None:
                tracer.dump(dump_path)
        checks = {}
        for label, phase in zip(("untraced", "traced"), phases):
            for name, error in workload.check(phase).items():
                checks[f"{label}.{name}" if trace else name] = error
    finally:
        for rig in rigs:
            workload.close(rig)
        workload.shutdown()

    from perfbench import stats

    first = phases[0]
    groups = first.latency_windows or [first.latencies_s]
    tail_samples = first.state.get("tail_samples",
                                   min(len(g) for g in groups))
    record = {
        "setup_s_each": setup_times,
        "samples": len(first.latencies_s),
        "tail_percentile": workload.tail_percentile,
        "tail_samples": tail_samples,
        "tail_supported": stats.supported_tail(tail_samples)
        >= workload.tail_percentile,
        "steal_s": [p.steal_s for p in phases],
        "checks": checks,
        "errors": [e for p in phases for e in p.state.get("errors", [])][:5],
    }
    for key in ("digest", "ratios", "live_agreement", "reference_update",
                "slice_steal_s", "passes"):
        values = [p.state[key] for p in phases if key in p.state]
        if values:
            record[key] = values[-1]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = all(error is None for error in checks.values())
    return metrics, record, attempted, failed, correct


def main(argv=None) -> int:
    table = ("rps_train", "rps_serve", "accel_dse")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=table)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # noqa: F401
        import perfbench  # noqa: F401
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{error}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED
    from perfbench.record import manifest

    SCRATCH.mkdir(exist_ok=True)
    workload = workloads()[args.workload](args.seed, SCRATCH)
    dump = (SCRATCH / f"spans-{args.workload}-seed{args.seed}.json"
            if args.trace else None)
    metrics, record, attempted, failed, correct = run(
        workload, args.seconds, bool(args.trace), dump)

    units = dict(END_TO_END)
    if args.trace:
        from perfbench.layers import UNITS as units
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "attempted": attempted, "failed": failed, "import_s": import_s,
              **record, "spans": str(dump) if dump else None,
              "manifest": manifest(ROOT)}
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

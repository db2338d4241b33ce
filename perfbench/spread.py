"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload rps_serve --seeds 1-10 --seconds 20

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints per
metric the median, the quartiles and (Q3 - Q1) / median, the spread a
metric's bound in BENCHMARK.json is set against.  ``--out`` keeps every
run's last line as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE.parent))
    from perfbench.stats import quartile_spread
    import statistics

    runs = []
    for seed in seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600, cwd=HERE.parent)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["steal_s"] = json.loads(lines[-2])["record"]["steal_s"][0]
        runs.append(result)
        print(json.dumps({"seed": seed, "correct": result["correct"],
                          "failed": result["failed"],
                          "steal_s": round(result["steal_s"], 2),
                          **{k: round(v["value"], 4)
                             for k, v in result["metrics"].items()}}),
              flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        print(f"{name:18s} median {q2:10.4f}  Q1 {q1:10.4f}  Q3 {q3:10.4f}"
              f"  spread {quartile_spread(values):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

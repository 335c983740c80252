"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/repeat.py --seeds 1-10 [--workload NAME ...] [--trace 0|1]
                                [--seconds S] [--out FILE]

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, beside the
metric's bound from BENCHMARK.json, and the median of the machine's
slowdown factor. ``--out`` writes every run (with its measured values and
slowdown) and the summary as JSON, with the environment of the first run
and the seeds used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, check=True, cwd=ROOT)
    lines = done.stdout.splitlines()
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    measured = next(json.loads(ln[9:]) for ln in lines if ln.startswith("measured "))
    return dict(json.loads(lines[-1]), measured=measured), env


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
              "env": None, "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            result, env = run_once(workload, seed, args.seconds, args.trace)
            report["env"] = report["env"] or env
            runs.append(result)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} invocations failed", file=sys.stderr)
        summary = {}
        for name, first in runs[0]["metrics"].items():
            summary[name] = dict(summarize([r["metrics"][name]["value"] for r in runs]),
                                 unit=first["unit"])
        slowdown = statistics.median(r["measured"]["slowdown"] for r in runs)
        report["workloads"][workload] = {
            "summary": summary,
            "slowdown_median": slowdown,
            "runs": runs,
        }
        print(f"== {workload}: {len(runs)} runs, "
              f"{sum(r['failed'] for r in runs)} failed of {sum(r['attempted'] for r in runs)}, "
              f"median slowdown {slowdown:.4f}")
        for name, s in summary.items():
            bound = bounds.get(name)
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:42s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {spread:8s} {s['unit']:6s}"
                  + ("" if bound is None else f" bound {bound}"))
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

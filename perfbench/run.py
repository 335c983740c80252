"""Benchmark of the teleportsim CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
With ``--trace 0`` it prints every end-to-end metric: set-up time measured
in fresh interpreters, then the closed loop of one workload process
(loop.py). With ``--trace 1`` it prints every per-layer metric of a
fixed-size traced run. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Every child runs with BLAS pinned to one thread, so 2x2 to 8x8 LAPACK
calls do not compete with the single-threaded loop for the cores. Times are
calibrated to the nominal speed of reference.py's computation, measured in
the same processes. The measured values and the machine's slowdown factor
are printed beside them, and as JSON on the line starting ``measured``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

sys.path.insert(0, str(HERE))
from reference import NOMINAL_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_STARTS = 11
SETUP_TIMEOUT_S = 5
LOOP_TIMEOUT_S = 100

# Time to import teleportsim.cli and build its parser, as every invocation of
# the console script pays it, then the median of three reference passes after
# an untimed one; prints both and the module's path.
SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import teleportsim.cli as cli
cli.build_parser()
seconds = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from reference import reference_s
reference_s()
print(seconds, sorted(reference_s() for _ in range(3))[1], cli.__file__)
"""


def measure_setup(env: dict) -> tuple[list[float], list[float]]:
    """(set-up seconds, reference seconds) per fresh interpreter; one extra
    untimed start first, which may write the bytecode cache."""
    setup, reference = [], []
    for _ in range(SETUP_STARTS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE)],
                              env=env, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        seconds, ref, path = done.stdout.split()
        if Path(path).resolve().parent != SRC / "teleportsim":
            raise RuntimeError(f"set-up probe imported {path}, not this checkout's package")
        setup.append(float(seconds))
        reference.append(float(ref))
    return setup[1:], reference[1:]


def run_loop(args, env: dict) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "loop.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, capture_output=True, text=True, timeout=LOOP_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"workload process exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (SRC / "teleportsim" / "cli.py").is_file():
        print(f"error: no teleportsim package under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, **THREAD_ENV)
    try:
        setup = None if args.trace else measure_setup(env)
        result = run_loop(args, env)
    except (OSError, ValueError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics, notes, measured = result["metrics"], result["notes"], result["measured"]
    if setup is not None:
        times, reference = setup
        calibrated = [t * NOMINAL_S / r for t, r in zip(times, reference)]
        metrics = {"setup_s": [statistics.median(calibrated), "s"], **metrics}
        measured = {"setup_s": [statistics.median(times), "s"], **measured}
        notes["setup_s"] = (f"measured {statistics.median(times):.6g} s, median of {len(times)} "
                            "fresh interpreters: import teleportsim.cli and build the parser")
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name} (seed {args.seed}, "
          f"{'traced fixed-size run' if args.trace else f'{args.seconds} s closed loop'}, "
          f"one client): {workload.why}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"the machine ran {result['slowdown']:.4f}x the nominal reference time over "
          f"{result['reference_passes']} passes (reference.py)"
          + ("" if args.trace else "; the times below are calibrated by that factor"))
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'ops_failed_frac':42s} {failed / attempted:14.6g} {'':6s} "
          f"{failed} of {attempted} invocations (warm-up included)")
    for reason in result["failures"]:
        print(f"FAILED {reason}")
    print("measured " + json.dumps({
        "slowdown": result["slowdown"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in measured.items()},
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

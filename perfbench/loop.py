"""One workload in one fresh process: a single-threaded closed loop over
``teleportsim.cli.main``, called in-process with the generated argv.

One client sends the next invocation only after the previous one returned.
After one untimed warm-up round the loop either runs rounds until
``--seconds`` have passed (``--trace 0``) or runs a fixed number of rounds
twice, plain and then traced, and compares their tables (``--trace 1``).
Every table is checked by ``checks.check_table``. During the timed loop and
the untraced pass a timer signal runs the reference computation
(reference.py) every REFERENCE_EVERY_S, also in the middle of an
invocation, whose time then excludes it; the end-to-end times are reported
at the reference's nominal speed, beside the measured ones. The last line
of stdout is one JSON object for ``run.py``.

Start it through run.py, which pins the BLAS threads to one; by hand:

    OPENBLAS_NUM_THREADS=1 python3 perfbench/loop.py \\
        --workload teleport_mc --seed 1 --seconds 5 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_DIR = ROOT / "src" / "teleportsim"

sys.path.insert(0, str(HERE))
from checks import check_table  # noqa: E402
from reference import NOMINAL_S, reference_s  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS, Call  # noqa: E402

# Layers named by the per-layer metrics; each reports .calls and .self_s.
TRACED = (
    "protocols.standard_teleport",
    "protocols.conclusive_teleport",
    "protocols.teleport_average_fidelity",
    "protocols.bilocal_filter",
    "protocols.trial_rng",
    "states.PureState.init",
    "states.DensityMatrix.init",
    "states.fidelity",
    "povm.Povm.init",
    "linalg.kron",
    "linalg.partial_trace",
    "linalg.sqrt_psd",
    "steering.steer",
    "cli.emit",
)
BUILDERS = ("protocols.standard_teleport", "protocols.conclusive_teleport")
VALIDATED = ("states.PureState.init", "states.DensityMatrix.init")
MAX_REPORTED_FAILURES = 5
REFERENCE_EVERY_S = 0.2  # wall time between reference passes


def import_cli():
    """Import teleportsim.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(PACKAGE_DIR.parent))
    from teleportsim import cli

    if Path(cli.__file__).resolve().parent != PACKAGE_DIR:
        raise SystemExit(f"imported {cli.__file__}, expected it under {PACKAGE_DIR}")
    return cli


class Tally:
    """Invocations attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, call: Call, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.fail(f"{' '.join(call.argv)}: {'; '.join(problems)}")

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(reason)


class Reference:
    """Reference passes run from a SIGALRM handler every REFERENCE_EVERY_S of
    wall time, so the machine's speed is sampled evenly through the run, not
    only between invocations (a conclusive_deep invocation lasts seconds).
    ``spent_s`` is the time taken by the handler, which ``invoke`` subtracts."""

    def __init__(self) -> None:
        self.passes: list[float] = []
        self.spent_s = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a pass slower than the period; skip, do not nest
            return
        self._busy = True
        start = time.perf_counter()
        self.passes.append(reference_s())
        self.spent_s += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> "Reference":
        self._tick(None, None)  # at least one pass, however short the run
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self) -> float:
        """Trimmed mean pass time over NOMINAL_S. The machine flips between a
        fast and a slow state every few seconds, so the passes are bimodal;
        their mean, not their median, follows the share of time spent slow.
        The outer tenths are dropped against preemptions."""
        ordered = sorted(self.passes)
        cut = len(ordered) // 10
        return statistics.mean(ordered[cut:len(ordered) - cut]) / NOMINAL_S


NO_REFERENCE = Reference()  # never entered, so it never ticks


def invoke(cli, call: Call, tally: Tally,
           reference: Reference = NO_REFERENCE) -> tuple[float, str]:
    """Run one invocation; returns (seconds, table text) and tallies it. The
    seconds exclude reference passes that ran during the invocation."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        spent = reference.spent_s
        start = time.perf_counter()
        try:
            status = cli.main(list(call.argv))
        except SystemExit as exc:  # argparse rejects bad argv this way
            status = exc.code
        except Exception as exc:  # a crash is a failed operation; keep looping
            status = repr(exc)
        elapsed = time.perf_counter() - start - (reference.spent_s - spent)
    text = out.getvalue()
    if status != 0:
        problems = [f"exit status {status}: {err.getvalue().strip()}"]
    else:
        problems = check_table(call, text)
    tally.record(call, problems)
    return elapsed, text


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest nearest-rank
    percentile with ten samples beyond it, but never below p75: a run of
    fewer than 40 samples reports its nearest-rank p75, which varies less
    from run to run than the maximum of a few. The two rules meet at 40
    samples, so the percentile does not jump as the count grows."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - 10, math.ceil(0.75 * n))
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def timed_run(cli, workload, rng: random.Random, seconds: float, tally: Tally) -> dict:
    latencies_ms: list[float] = []
    trial_rates: list[float] = []
    row_rates: list[float] = []
    deadline = time.perf_counter() + seconds
    with Reference() as reference:
        while time.perf_counter() < deadline:
            busy = 0.0
            calls = workload.make_round(rng)
            for call in calls:
                elapsed, _ = invoke(cli, call, tally, reference)
                latencies_ms.append(1e3 * elapsed)
                busy += elapsed
            trial_rates.append(sum(c.trials for c in calls) / busy)
            row_rates.append(sum(c.rows for c in calls) / busy)
    slowdown = reference.slowdown()
    tail_ms, tail_pct, beyond = tail(latencies_ms)
    n = len(latencies_ms)
    measured = {
        "trials_per_s": (statistics.median(trial_rates), "1/s",
                         f"median over {len(trial_rates)} rounds"),
        "rows_per_s": (statistics.median(row_rates), "1/s", f"median over {len(row_rates)} rounds"),
        "cmd_p50_ms": (statistics.median(latencies_ms), "ms", f"median of {n} invocations"),
        "cmd_tail_ms": (tail_ms, "ms", f"p{tail_pct:.1f} of {n} invocations, {beyond} beyond it"),
    }
    metrics, notes = {}, {}
    for name, (value, unit, how) in measured.items():
        metrics[name] = [value * slowdown if unit == "1/s" else value / slowdown, unit]
        notes[name] = f"measured {value:.6g} {unit}, {how}"
    rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"]
    metrics["peak_rss_mb"] = rss
    notes["peak_rss_mb"] = "ru_maxrss of the workload process"
    return {"metrics": metrics, "notes": notes, "slowdown": slowdown,
            "reference_passes": len(reference.passes),
            "measured": dict({n: [v, u] for n, (v, u, _) in measured.items()}, peak_rss_mb=rss)}


def _run_all(cli, calls: list[Call], tally: Tally,
             reference: Reference = NO_REFERENCE) -> tuple[float, list[str]]:
    total = 0.0
    texts = []
    for call in calls:
        elapsed, text = invoke(cli, call, tally, reference)
        total += elapsed
        texts.append(text)
    return total, texts


def traced_run(cli, workload, rng: random.Random, tally: Tally) -> dict:
    calls = [c for _ in range(workload.trace_rounds) for c in workload.make_round(rng)]
    with Reference() as reference:
        plain_s, plain = _run_all(cli, calls, tally, reference)
    slowdown = reference.slowdown()
    tracer = Tracer().install()
    try:
        traced_s, traced = _run_all(cli, calls, tally)
    finally:
        tracer.uninstall()
    if traced != plain:
        tally.fail("traced tables differ from the untraced ones")

    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = [tracer.calls(name), "count"]
        metrics[f"{name}.self_s"] = [tracer.self_s(name), "s"]
    metrics["protocols.sampler.self_s"] = [tracer.self_s("protocols.conclusive_monte_carlo"), "s"]
    metrics["cli.emit.bytes"] = [sum(len(t.encode()) for t in traced), "bytes"]
    for short in MODULES:
        metrics[f"{short}.self_s"] = [tracer.module_self_s(short), "s"]
    trials = sum(c.trials for c in calls)
    builder_calls = sum(tracer.calls(b) for b in BUILDERS)
    metrics["protocols.trials"] = [trials, "count"]
    metrics["protocols.builder_calls"] = [builder_calls, "count"]
    metrics["protocols.builder_calls_per_trial"] = [builder_calls / trials, "ratio"]
    metrics["states.validations_per_builder_call"] = [
        sum(tracer.calls(v) for v in VALIDATED) / builder_calls if builder_calls else 0.0, "ratio"]
    metrics["trace.untraced_s"] = [plain_s, "s"]
    metrics["trace.overhead_frac"] = [traced_s / plain_s - 1.0, "ratio"]
    per_call_ms = 1e3 * plain_s / len(calls)
    return {
        "metrics": metrics,
        "slowdown": slowdown,
        "reference_passes": len(reference.passes),
        "measured": {"untraced_ms_per_invocation": [per_call_ms, "ms"]},
        "notes": {
            "trace.untraced_s": f"{per_call_ms:.6g} ms per invocation measured, "
                                f"{per_call_ms / slowdown:.6g} ms calibrated; a mean, "
                                "to hold beside cmd_p50_ms of a --trace 0 run",
            "protocols.builder_calls_per_trial": f"base: protocols.trials = {trials}",
            "states.validations_per_builder_call":
                f"base: protocols.builder_calls = {builder_calls}",
            "trace.overhead_frac": f"traced {traced_s:.4f} s against untraced {plain_s:.4f} s "
                                   f"over the same {len(calls)} invocations",
        },
    }


def environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       "unknown")
    except OSError:
        cpu = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": deps.get("blas", {}).get("name", "unknown"),
        "blas_version": deps.get("blas", {}).get("version", "unknown"),
        "lapack": deps.get("lapack", {}).get("name", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    cli = import_cli()
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    tally = Tally()
    for call in workload.make_round(rng):  # untimed warm-up round
        invoke(cli, call, tally)
    if args.trace:
        result = traced_run(cli, workload, rng, tally)
    else:
        result = timed_run(cli, workload, rng, args.seconds, tally)
    result.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures, env=environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

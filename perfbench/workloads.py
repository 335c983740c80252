"""The benchmark's workloads: each turns a workload seed into the argv lists
handed to ``teleportsim.cli.main``.

A workload is a sequence of rounds. A round is the unit the closed loop
times and checks: one invocation, or one of each command for
``analytic_sweep``. Every round of a workload does the same amount of work
whatever the seed, so runs with different seeds measure the same thing; the
seed only picks values the cost does not depend on.

Every generated value lies inside the CLI's documented domains (a2 in
[0.5, 1], p and epsilon in (0, 1), n >= 1) and keeps the planner's filter
index far below ``MAX_FILTER_INDEX``: with p >= 0.05 and epsilon >= 1e-4 the
index stays under 2e5. No failure can therefore come from the generator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its table must look like."""

    argv: tuple[str, ...]
    rows: int
    """Table rows the command must emit."""
    trials: int
    """Trials the CLI runs for it: ``--trials`` times the sweep points for
    the Monte Carlo commands; the analytic commands keep ``RunConfig``'s
    default of one."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_round: Callable[[random.Random], list[Call]]
    trace_rounds: int
    """Rounds in the fixed-size traced run, whose call counts must repeat."""


def _seed(rng: random.Random) -> str:
    return str(rng.getrandbits(32))


def _haar_qubit_flags(rng: random.Random) -> tuple[str, ...]:
    """(alpha, beta) Haar-distributed; repr() round-trips each float, so the
    CLI's |alpha|^2 + |beta|^2 = 1 check sees the normalized values. The
    ``--flag=value`` form is needed: argparse reads a separate token such as
    ``-9.8e-05`` as an unknown option and the CLI exits with status 2."""
    z = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
    norm = math.sqrt(abs(z[0]) ** 2 + abs(z[1]) ** 2)
    a, b = z[0] / norm, z[1] / norm
    return (f"--alpha-re={a.real!r}", f"--alpha-im={a.imag!r}",
            f"--beta-re={b.real!r}", f"--beta-im={b.imag!r}")


def _grid(start: float, step: float, points: int) -> str:
    """START:STOP:STEP holding exactly ``points`` values: STOP is computed as
    START + (points-1)*STEP, the same expression parse_range checks."""
    return f"{start!r}:{start + (points - 1) * step!r}:{step!r}"


TELEPORT_TRIALS = 200


def _teleport_mc(rng: random.Random) -> list[Call]:
    argv = ("teleport", "--trials", str(TELEPORT_TRIALS), "--seed", _seed(rng))
    return [Call(argv, rows=1, trials=TELEPORT_TRIALS)]


SWEEP_GRID = "0.5:1.0:0.25"
SWEEP_POINTS = 3
SWEEP_TRIALS = 2000


def _conclusive_sweep(rng: random.Random) -> list[Call]:
    # a2 = 0.75 takes the generic discrimination path, as the CLI's default
    # a2 = 0.8 does; at 0.5 the inconclusive element vanishes and two of the
    # six branches are skipped, and 1.0 uses the degenerate two-element POVM.
    # The CLI's sweeps are uniform START:STOP:STEP, so a grid that holds both
    # ends at a fixed cost is fixed; the seed draws only --seed.
    argv = ("conclusive", "--a2", SWEEP_GRID, "--trials", str(SWEEP_TRIALS),
            "--seed", _seed(rng))
    return [Call(argv, rows=SWEEP_POINTS, trials=SWEEP_POINTS * SWEEP_TRIALS)]


DEEP_TRIALS = 5_000_000


def _conclusive_deep(rng: random.Random) -> list[Call]:
    # The sampler's per-trial cost grows with the success probability
    # 2 - 2 a2, so a2 is drawn from a narrow band to keep seeds comparable.
    a2 = rng.uniform(0.70, 0.74)
    argv = ("conclusive", "--a2", repr(a2), "--trials", str(DEEP_TRIALS),
            "--seed", _seed(rng))
    return [Call(argv, rows=1, trials=DEEP_TRIALS)]


A2_POINTS = 51
P_POINTS = 41


def _a2_grid(rng: random.Random) -> str:
    return _grid(0.5 + 0.09 * rng.random(), 0.008, A2_POINTS)  # stops below 0.99


def _p_grid(rng: random.Random) -> str:
    return _grid(0.05 + 0.05 * rng.random(), 0.02, P_POINTS)  # stops below 0.9


def _analytic_sweep(rng: random.Random) -> list[Call]:
    epsilon = 10 ** rng.uniform(-4, -2)
    n = rng.uniform(1, 50)
    return [
        Call(("naive", "--a2", _a2_grid(rng)) + _haar_qubit_flags(rng), A2_POINTS, 1),
        Call(("quasi", "--p", _p_grid(rng), "--epsilon", repr(epsilon))
             + _haar_qubit_flags(rng), P_POINTS, 1),
        Call(("quasi", "--p", _p_grid(rng), "--n", repr(n)), P_POINTS, 1),
        Call(("steer", "--a2", _a2_grid(rng)), 2 * A2_POINTS, 1),
        Call(("povm-check", "--a2", _a2_grid(rng)) + _haar_qubit_flags(rng), 1 + A2_POINTS, 1),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "teleport_mc",
            "per-trial standard teleportation: trial_rng, a Haar draw and the "
            "pure-path builder with its validated states; never samples",
            _teleport_mc,
            trace_rounds=15,
        ),
        Workload(
            "conclusive_sweep",
            "builder-bound: 200 conclusive_teleport calls (sqrt_psd, "
            "DensityMatrix, Povm) per a2 point on 0.5, 0.75, 1.0; sampler negligible",
            _conclusive_sweep,
            trace_rounds=2,
        ),
        Workload(
            "conclusive_deep",
            "sampler-bound: same command, one a2, 5e6 trials, so the "
            "per-trial inverse-CDF loop dominates the 200 builder calls",
            _conclusive_deep,
            trace_rounds=1,
        ),
        Workload(
            "analytic_sweep",
            "closed forms, density-matrix teleport, 8x8 average fidelity, "
            "steering, POVM checks and emission; no Monte Carlo",
            _analytic_sweep,
            trace_rounds=4,
        ),
    )
}

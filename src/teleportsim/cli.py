"""Reproducibility front end: analytic sweeps and seeded Monte Carlo runs.

Every command emits a machine-readable table (CSV or JSON) whose analytic
columns are taken verbatim from the library's closed forms; the CLI adds no
arithmetic of its own.  Identical configuration and seed produce
byte-identical output.

Exit codes: 0 success, 1 I/O error, 2 validation error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import povm as povm_mod
from . import protocols, steering
from .linalg import ATOL, max_abs, partial_trace
from .states import (
    PureState,
    SchmidtPair,
    bell_state,
    fidelity,
    haar_random_amplitudes,
    mixed_resource,
    partially_entangled,
    qubit,
)

SCHEMA_COMMENT = "# schema=1"

COMMANDS = ("teleport", "naive", "conclusive", "quasi", "steer", "povm-check")

MAX_TRIALS = 10**8
"""Largest accepted --trials."""

MAX_SWEEP_POINTS = 10**4
"""Largest number of points a START:STOP:STEP sweep may hold."""

TELEPORT_CHUNK = 4096
"""Inputs the teleport command evaluates per batch; bounds its memory."""

GRID_TOL = 1e-12
"""How far a sweep value may miss its domain's bound or a grid point and count as on it."""


class CliError(Exception):
    """Validation failure; maps to exit code 2."""


@dataclass
class RunConfig:
    command: str
    seed: int = 0
    trials: int = 1
    sweep: dict[str, list[float]] = field(default_factory=dict)
    alpha: complex | None = None
    beta: complex | None = None
    n: float | None = None
    epsilon: float | None = None
    basis: str = "diagonal"
    output_format: str = "csv"
    output_path: str = "-"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise CliError(f"unknown command {self.command!r}")
        if not 0 <= self.seed < 2**64:
            raise CliError("seed must be an unsigned 64-bit integer")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise CliError(f"trials must lie in [1, {MAX_TRIALS}]")
        if self.output_format not in ("csv", "json"):
            raise CliError("format must be csv or json")
        for name, values in self.sweep.items():
            if not values:
                raise CliError(f"sweep over {name} is empty")
            lo, hi, inc_lo, inc_hi = _PARAM_DOMAINS[name]
            for v in values:
                above = v >= lo - GRID_TOL if inc_lo else v > lo + GRID_TOL
                below = v <= hi + GRID_TOL if inc_hi else v < hi - GRID_TOL
                if not (above and below):
                    raise CliError(f"{name}={v!r} outside its domain")


# name -> (low, high, low inclusive, high inclusive)
_PARAM_DOMAINS = {
    "a2": (0.5, 1.0, True, True),
    "p": (0.0, 1.0, False, False),
}


def parse_range(text: str) -> list[float]:
    """Parse a sweep: a single value or start:stop:step (both ends closed;
    stop is included when it lies within GRID_TOL of a step point), holding at
    most MAX_SWEEP_POINTS values."""
    parts = text.split(":")
    try:
        nums = [float(p) for p in parts]
    except ValueError as exc:
        raise CliError(f"cannot parse sweep {text!r}") from exc
    if not all(np.isfinite(nums)):
        raise CliError(f"sweep values must be finite, got {text!r}")
    if len(parts) == 1:
        return nums
    if len(parts) != 3:
        raise CliError(f"sweep must be VALUE or START:STOP:STEP, got {text!r}")
    start, stop, step = nums
    if step <= 0:
        raise CliError("sweep step must be positive")
    if stop < start:
        raise CliError("sweep stop must be >= start")
    span = (stop - start) / step
    too_long = f"sweep {text!r} holds more than {MAX_SWEEP_POINTS} points"
    if span >= MAX_SWEEP_POINTS:  # also catches a span that overflows to inf
        raise CliError(too_long)
    k_round = round(span)
    if k_round >= 0 and abs(start + k_round * step - stop) <= GRID_TOL:
        count = k_round
    else:
        count = int(np.floor(span + GRID_TOL))
    if count >= MAX_SWEEP_POINTS:
        raise CliError(too_long)
    return [start + k * step for k in range(count + 1)]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _jsonable(value):
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def emit(rows: list[dict], columns: list[str], output_format: str, path: str) -> None:
    """Write homogeneous rows as CSV (RFC 4180, LF endings, 17 significant
    digits for floats) or as a JSON array of flat objects."""
    if output_format == "csv":
        buf = io.StringIO()
        buf.write(SCHEMA_COMMENT + "\n")
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(c)) for c in columns])
        text = buf.getvalue()
    else:
        payload = [{c: _jsonable(row.get(c)) for c in columns} for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _resolve_phi(config: RunConfig) -> PureState:
    alpha = config.alpha if config.alpha is not None else complex(1 / np.sqrt(2))
    beta = config.beta if config.beta is not None else complex(1 / np.sqrt(2))
    return qubit(alpha, beta)


def _run_teleport(config: RunConfig) -> tuple[list[dict], list[str]]:
    maps = protocols.teleport_maps(bell_state("psi-"))
    max_dev = 0.0
    min_fid = 1.0
    fid_sum = 0.0
    for start in range(0, config.trials, TELEPORT_CHUNK):
        phis = np.array([
            haar_random_amplitudes(2, protocols.trial_rng(config.seed, t))
            for t in range(start, min(start + TELEPORT_CHUNK, config.trials))
        ])
        probs, fids = maps.evaluate(phis)
        max_dev = max(max_dev, float(np.abs(probs - 0.25).max()))
        min_fid = min(min_fid, float(fids.min()))
        fid_sum += float(fids.sum())
    row = {
        "seed": config.seed,
        "trials": config.trials,
        "expected_branch_probability": 0.25,
        "max_prob_deviation": max_dev,
        "min_fidelity": min_fid,
        "mean_fidelity": fid_sum / (len(maps.labels) * config.trials),
    }
    return [row], list(row.keys())


_NAIVE_COLUMNS = [
    "a2", "a", "b", "alpha_re", "alpha_im", "beta_re", "beta_im",
    "phi_plus_prob", "phi_plus_fidelity", "phi_plus_prob_sim",
    "phi_plus_fidelity_sim", "max_residual",
]


def _run_naive(config: RunConfig) -> tuple[list[dict], list[str]]:
    phi = _resolve_phi(config)
    rows = []
    for a2 in config.sweep["a2"]:
        s = SchmidtPair.from_a_squared(a2)
        prob = protocols.naive_phi_plus_probability(phi, s)
        fid = protocols.naive_phi_plus_fidelity(phi, s)
        rec = protocols.naive_partial_teleport(phi, s)[0]
        rows.append({
            "a2": a2,
            "a": s.a,
            "b": s.b,
            "alpha_re": phi.amplitudes[0].real,
            "alpha_im": phi.amplitudes[0].imag,
            "beta_re": phi.amplitudes[1].real,
            "beta_im": phi.amplitudes[1].imag,
            "phi_plus_prob": prob,
            "phi_plus_fidelity": fid,
            "phi_plus_prob_sim": rec.probability,
            "phi_plus_fidelity_sim": rec.fidelity,
            "max_residual": max(abs(rec.probability - prob), abs(rec.fidelity - fid)),
        })
    return rows, _NAIVE_COLUMNS


_CONCLUSIVE_COLUMNS = [
    "a2", "success_prob", "trials", "seed", "successes", "empirical_success_rate",
    "abs_deviation", "three_sigma", "within_three_sigma", "wrong_outcomes",
    "min_conclusive_fidelity",
]


def _run_conclusive(config: RunConfig) -> tuple[list[dict], list[str]]:
    rows = []
    for a2 in config.sweep["a2"]:
        s = SchmidtPair.from_a_squared(a2)
        analytic = protocols.conclusive_success_probability(s)
        mc = protocols.conclusive_monte_carlo(s, config.trials, config.seed)
        sigma = float(np.sqrt(analytic * (1.0 - analytic) / config.trials))
        dev = abs(mc.empirical_rate - analytic)
        rows.append({
            "a2": a2,
            "success_prob": analytic,
            "trials": config.trials,
            "seed": config.seed,
            "successes": mc.successes,
            "empirical_success_rate": mc.empirical_rate,
            "abs_deviation": dev,
            "three_sigma": 3.0 * sigma,
            "within_three_sigma": dev <= 3.0 * sigma,
            "wrong_outcomes": mc.wrong_outcomes,
            "min_conclusive_fidelity": mc.min_conclusive_fidelity,
        })
    return rows, _CONCLUSIVE_COLUMNS


def _run_quasi(config: RunConfig) -> tuple[list[dict], list[str]]:
    phi = _resolve_phi(config)
    rows = []
    if config.epsilon is not None:
        columns = ["p", "epsilon", "n", "strength", "p_prime", "success_prob",
                   "avg_fidelity", "fidelity_target"]
        for p in config.sweep["p"]:
            result = protocols.quasi_conclusive_teleport(phi, p, config.epsilon)
            rows.append({
                "p": p,
                "epsilon": config.epsilon,
                "n": result.n,
                "strength": result.filter_params.strength,
                "p_prime": result.p_prime,
                "success_prob": result.filter_success_prob,
                "avg_fidelity": result.average_fidelity,
                "fidelity_target": 1.0 - config.epsilon,
            })
        return rows, columns
    n = config.n if config.n is not None else 1.0
    fp = protocols.FilterParams.from_n(n)
    columns = ["p", "n", "strength", "p_prime", "success_prob", "p_prime_sim",
               "success_prob_sim", "avg_fidelity", "max_fidelity_bound"]
    for p in config.sweep["p"]:
        post, success_sim = protocols.bilocal_filter(mixed_resource(p), fp)
        p_prime = protocols.p_prime_after_filter(p, n)
        rows.append({
            "p": p,
            "n": n,
            "strength": fp.strength,
            "p_prime": p_prime,
            "success_prob": protocols.filter_success_probability(p, n),
            "p_prime_sim": fidelity(bell_state("psi-"), post),
            "success_prob_sim": success_sim,
            "avg_fidelity": protocols.teleport_average_fidelity(post),
            "max_fidelity_bound": protocols.max_teleport_fidelity(p_prime),
        })
    return rows, columns


def _steer_rows(result: steering.SteeringResult, base: dict) -> list[dict]:
    rows = []
    for i, branch in enumerate(result.branches):
        bob = branch.bob_state
        row = dict(base)
        row.update({
            "branch": i,
            "label": branch.label,
            "probability": branch.probability,
            "bob0_re": None if bob is None else bob.amplitudes[0].real,
            "bob0_im": None if bob is None else bob.amplitudes[0].imag,
            "bob1_re": None if bob is None else bob.amplitudes[1].real,
            "bob1_im": None if bob is None else bob.amplitudes[1].imag,
        })
        rows.append(row)
    return rows


def _run_steer(config: RunConfig) -> tuple[list[dict], list[str]]:
    if "a2" in config.sweep and (config.alpha is not None or config.beta is not None):
        raise CliError("steer takes either --a2 or alpha/beta flags, not both")
    if "a2" in config.sweep:
        columns = ["mode", "a2", "basis", "branch", "label", "probability",
                   "bob0_re", "bob0_im", "bob1_re", "bob1_im", "overlap", "hjw_residual"]
        rows = []
        for a2 in config.sweep["a2"]:
            s = SchmidtPair.from_a_squared(a2)
            result = steering.b92_generation(s, basis=config.basis)
            v = partially_entangled(s).amplitudes
            reduced = partial_trace(np.outer(v, v.conj()), (2, 2), trace_out="A")
            residual = max_abs(result.realized_density() - reduced)
            states = [b.bob_state for b in result.branches if b.bob_state is not None]
            overlap = abs(states[0].overlap(states[1])) if len(states) == 2 else 1.0
            branch_rows = _steer_rows(result, {"mode": "b92", "a2": a2, "basis": config.basis})
            for row in branch_rows:
                row["overlap"] = overlap
                row["hjw_residual"] = residual
            rows.extend(branch_rows)
        return rows, columns
    phi = _resolve_phi(config)
    result = steering.steer(
        bell_state("psi-"),
        povm_mod.teleportation_povm(phi.amplitudes[0], phi.amplitudes[1]),
    )
    residual = max_abs(result.realized_density() - np.eye(2) / 2)
    rows = _steer_rows(result, {"mode": "telepovm"})
    for row in rows:
        row["hjw_residual"] = residual
    columns = ["mode", "branch", "label", "probability",
               "bob0_re", "bob0_im", "bob1_re", "bob1_im", "hjw_residual"]
    return rows, columns


_POVM_CHECK_COLUMNS = ["povm", "dim", "n_elements", "completeness_residual",
                       "min_eigenvalue", "psd_ok"]


def _run_povm_check(config: RunConfig) -> tuple[list[dict], list[str]]:
    rows = []
    phi = _resolve_phi(config)
    alpha, beta = phi.amplitudes[0], phi.amplitudes[1]
    built = [("teleportation", povm_mod.teleportation_povm(alpha, beta))]
    for a2 in config.sweep.get("a2", []):
        s = SchmidtPair.from_a_squared(a2)
        built.append((f"discrimination(a2={a2!r})", povm_mod.discrimination_povm(s)))
    for name, p in built:
        min_eig = povm_mod.min_eigenvalue(p.elements)
        rows.append({
            "povm": name,
            "dim": p.dim,
            "n_elements": len(p),
            "completeness_residual": povm_mod.completeness_residual(p.elements),
            "min_eigenvalue": min_eig,
            "psd_ok": min_eig >= -ATOL,
        })
    return rows, _POVM_CHECK_COLUMNS


_RUNNERS = {
    "teleport": _run_teleport,
    "naive": _run_naive,
    "conclusive": _run_conclusive,
    "quasi": _run_quasi,
    "steer": _run_steer,
    "povm-check": _run_povm_check,
}


def run(config: RunConfig) -> int:
    """Execute one command and emit its table.  Returns the exit status."""
    try:
        rows, columns = _RUNNERS[config.command](config)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        emit(rows, columns, config.output_format, config.output_path)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="64-bit unsigned RNG seed")
    sub.add_argument("--trials", type=int, default=None, help="number of Monte Carlo trials")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default="-", help="output path, or - for stdout")


def _add_phi_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha-re", type=float, default=None)
    sub.add_argument("--alpha-im", type=float, default=None)
    sub.add_argument("--beta-re", type=float, default=None)
    sub.add_argument("--beta-im", type=float, default=None)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads a separate negative number in exponent
    notation (``--alpha-im -9.8e-05``) as a value; argparse's own pattern
    knows only plain decimals and takes such a token for an option."""

    _NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE_NUMBER


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    ``main`` call; parsing leaves it unchanged."""
    parser = _Parser(
        prog="teleportsim",
        description="Teleportation-as-generalized-measurement simulator",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("teleport", help="standard teleportation over the singlet")
    _add_common(p)

    p = subs.add_parser("naive", help="plain Bell measurement over a partial resource")
    _add_common(p)
    _add_phi_flags(p)
    p.add_argument("--a2", default="0.5:1.0:0.1", help="sweep of the larger Schmidt weight a^2")

    p = subs.add_parser("conclusive", help="perfect conclusive teleportation")
    _add_common(p)
    p.add_argument("--a2", default="0.8")

    p = subs.add_parser("quasi", help="bilocal filtering plus teleportation over a mixed resource")
    _add_common(p)
    _add_phi_flags(p)
    p.add_argument("--p", default="0.5", help="sweep of the singlet weight of the resource")
    p.add_argument("--n", type=float, default=None, help="filter index (strength 1/sqrt(n))")
    p.add_argument("--epsilon", type=float, default=None, help="target infidelity for the planner")

    p = subs.add_parser("steer", help="remote ensemble preparation")
    _add_common(p)
    _add_phi_flags(p)
    p.add_argument("--a2", default=None, help="use a partially entangled shared state")
    p.add_argument("--basis", choices=("diagonal", "rectilinear"), default="diagonal")

    p = subs.add_parser("povm-check", help="validate the POVM builders")
    _add_common(p)
    _add_phi_flags(p)
    p.add_argument("--a2", default=None, help="also check the discrimination POVM")

    return parser


_DEFAULT_TRIALS = {"teleport": 500, "conclusive": 10000}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    sweep: dict[str, list[float]] = {}
    if getattr(args, "a2", None) is not None:
        sweep["a2"] = parse_range(args.a2)
    if getattr(args, "p", None) is not None:
        sweep["p"] = parse_range(args.p)

    alpha = beta = None
    phi_flags = [getattr(args, k, None) for k in ("alpha_re", "alpha_im", "beta_re", "beta_im")]
    if any(v is not None for v in phi_flags):
        alpha = complex(phi_flags[0] or 0.0, phi_flags[1] or 0.0)
        beta = complex(phi_flags[2] or 0.0, phi_flags[3] or 0.0)

    n = getattr(args, "n", None)
    epsilon = getattr(args, "epsilon", None)
    if n is not None and epsilon is not None:
        raise CliError("give either --n or --epsilon, not both")

    trials = args.trials if args.trials is not None else _DEFAULT_TRIALS.get(args.command, 1)
    return RunConfig(
        command=args.command,
        seed=args.seed,
        trials=trials,
        sweep=sweep,
        alpha=alpha,
        beta=beta,
        n=n,
        epsilon=epsilon,
        basis=getattr(args, "basis", "diagonal"),
        output_format=args.format,
        output_path=args.out,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())

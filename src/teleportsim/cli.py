"""Reproducibility front end: analytic sweeps and seeded Monte Carlo runs.

Every command emits a machine-readable table (CSV or JSON) whose analytic
columns are taken verbatim from the library's closed forms; the CLI adds no
arithmetic of its own.  Identical configuration and seed produce
byte-identical output.  The parsed arguments are the whole configuration:
each subcommand carries its own defaults and binds its runner, which
returns the rows of its table.

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

import numpy as np

from . import povm as povm_mod
from . import protocols, steering
from .linalg import ATOL, max_abs
from .states import (
    PLUS,
    PureState,
    SchmidtPair,
    bell_state,
    haar_random_amplitudes,
    qubit,
)

SCHEMA_COMMENT = "# schema=1"

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


def _sweep(args: argparse.Namespace, name: str) -> list[float]:
    """The values of sweep flag ``name``, each checked against its domain
    before any point is computed.  A value within GRID_TOL outside a closed
    bound becomes the bound."""
    lo, hi, inc_lo, inc_hi = _PARAM_DOMAINS[name]
    values = []
    for v in parse_range(getattr(args, name)):
        above = v >= lo - GRID_TOL if inc_lo else v > lo + GRID_TOL
        below = v <= hi + GRID_TOL if inc_hi else v < hi - GRID_TOL
        if not (above and below):
            raise CliError(f"{name}={v!r} outside its domain")
        values.append(min(max(v, lo), hi))  # moves only values past a closed bound
    return values


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


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
        payload = [{c: row.get(c) for c in columns} for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


_PHI_FLAGS = ("alpha_re", "alpha_im", "beta_re", "beta_im")


def _phi(args: argparse.Namespace) -> PureState:
    """The input state (alpha, beta) from the alpha/beta flags, a missing
    part counting as 0; (1, 1)/sqrt(2) when no flag is given."""
    flags = [getattr(args, k) for k in _PHI_FLAGS]
    if all(v is None for v in flags):
        return PLUS
    alpha_re, alpha_im, beta_re, beta_im = (v or 0.0 for v in flags)
    return qubit(complex(alpha_re, alpha_im), complex(beta_re, beta_im))


def _run_teleport(args: argparse.Namespace) -> list[dict]:
    maps = protocols.teleport_maps(bell_state("psi-"))
    max_dev = 0.0
    min_fid = 1.0
    fid_sum = 0.0
    for start in range(0, args.trials, TELEPORT_CHUNK):
        phis = np.array([
            haar_random_amplitudes(2, protocols.trial_rng(args.seed, t))
            for t in range(start, min(start + TELEPORT_CHUNK, args.trials))
        ])
        probs, fids = maps.evaluate(phis)
        max_dev = max(max_dev, float(np.abs(probs - 0.25).max()))
        min_fid = min(min_fid, float(fids.min()))
        fid_sum += float(fids.sum())
    return [{
        "seed": args.seed,
        "trials": args.trials,
        "expected_branch_probability": 0.25,
        "max_prob_deviation": max_dev,
        "min_fidelity": min_fid,
        "mean_fidelity": fid_sum / (len(maps.labels) * args.trials),
    }]


def _run_naive(args: argparse.Namespace) -> list[dict]:
    a2s = _sweep(args, "a2")
    phi = _phi(args)
    rows = []
    for a2 in a2s:
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
            # np.maximum keeps a nan, which Python's max would drop
            "max_residual": float(np.maximum(abs(rec.probability - prob), abs(rec.fidelity - fid))),
        })
    return rows


def _run_conclusive(args: argparse.Namespace) -> list[dict]:
    rows = []
    for a2 in _sweep(args, "a2"):
        s = SchmidtPair.from_a_squared(a2)
        analytic = protocols.conclusive_success_probability(s)
        mc = protocols.conclusive_monte_carlo(s, args.trials, args.seed)
        sigma = float(np.sqrt(analytic * (1.0 - analytic) / args.trials))
        dev = abs(mc.empirical_rate - analytic)
        rows.append({
            "a2": a2,
            "success_prob": analytic,
            "trials": args.trials,
            "seed": args.seed,
            "successes": mc.successes,
            "empirical_success_rate": mc.empirical_rate,
            "abs_deviation": dev,
            "three_sigma": 3.0 * sigma,
            "within_three_sigma": dev <= 3.0 * sigma,
            "wrong_outcomes": mc.wrong_outcomes,
            "min_conclusive_fidelity": mc.min_conclusive_fidelity,
        })
    return rows


def _run_quasi(args: argparse.Namespace) -> list[dict]:
    if args.n is not None and args.epsilon is not None:
        raise CliError("give either --n or --epsilon, not both")
    ps = _sweep(args, "p")
    phi = _phi(args)
    rows = []
    if args.epsilon is not None:
        for p in ps:
            result = protocols.quasi_conclusive_teleport(phi, p, args.epsilon)
            rows.append({
                "p": p,
                "epsilon": args.epsilon,
                "n": result.n,
                "strength": result.filter_params.strength,
                "p_prime": result.p_prime,
                "success_prob": result.filter_success_prob,
                "avg_fidelity": result.average_fidelity,
                "fidelity_target": 1.0 - args.epsilon,
            })
        return rows
    n = args.n if args.n is not None else 1.0
    fp = protocols.FilterParams.from_n(n)
    for p in ps:
        maps, success_sim = protocols.filtered_teleport_maps(p, fp)
        p_prime_sim, avg_fidelity = maps.haar_averages()
        p_prime = protocols.p_prime_after_filter(p, n)
        rows.append({
            "p": p,
            "n": n,
            "strength": fp.strength,
            "p_prime": p_prime,
            "success_prob": protocols.filter_success_probability(p, n),
            "p_prime_sim": p_prime_sim,
            "success_prob_sim": success_sim,
            "avg_fidelity": avg_fidelity,
            "max_fidelity_bound": protocols.max_teleport_fidelity(p_prime),
        })
    return rows


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


def _run_steer(args: argparse.Namespace) -> list[dict]:
    if args.a2 is not None:
        a2s = _sweep(args, "a2")
        if any(getattr(args, k) is not None for k in _PHI_FLAGS):
            raise CliError("steer takes either --a2 or alpha/beta flags, not both")
        rows = []
        for a2 in a2s:
            s = SchmidtPair.from_a_squared(a2)
            result = steering.b92_generation(s, basis=args.basis)
            reduced = np.diag([s.a * s.a, s.b * s.b])  # Bob's half of a|00> + b|11>
            residual = max_abs(result.realized_density() - reduced)
            states = [b.bob_state for b in result.branches if b.bob_state is not None]
            overlap = abs(states[0].overlap(states[1])) if len(states) == 2 else 1.0
            branch_rows = _steer_rows(result, {"mode": "b92", "a2": a2, "basis": args.basis})
            for row in branch_rows:
                row["overlap"] = overlap
                row["hjw_residual"] = residual
            rows.extend(branch_rows)
        return rows
    phi = _phi(args)
    result = steering.steer(
        bell_state("psi-"),
        povm_mod.teleportation_povm(phi.amplitudes[0], phi.amplitudes[1]),
    )
    residual = max_abs(result.realized_density() - np.eye(2) / 2)
    rows = _steer_rows(result, {"mode": "telepovm"})
    for row in rows:
        row["hjw_residual"] = residual
    return rows


def _run_povm_check(args: argparse.Namespace) -> list[dict]:
    a2s = _sweep(args, "a2") if args.a2 is not None else []
    rows = []
    phi = _phi(args)
    alpha, beta = phi.amplitudes[0], phi.amplitudes[1]
    built = [("teleportation", povm_mod.teleportation_povm(alpha, beta))]
    for a2 in a2s:
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
    return rows


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads a separate negative number in exponent
    notation (``--alpha-im -9.8e-05``) as a value; argparse's own pattern
    knows only plain decimals and takes such a token for an option."""

    _NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE_NUMBER


def _add_command(subs, name: str, run, summary: str, trials: int | None = None,
                 phi: bool = True) -> argparse.ArgumentParser:
    """Subcommand ``name`` with the flags every command shares, --seed and
    --trials (defaulting to ``trials``) if it samples, the alpha/beta flags
    if ``phi``, and its runner bound as ``run``."""
    p = subs.add_parser(name, help=summary)
    p.set_defaults(run=run)
    if trials is not None:
        p.add_argument("--seed", type=int, default=0, help="64-bit unsigned RNG seed")
        p.add_argument("--trials", type=int, default=trials, help="number of Monte Carlo trials")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-", help="output path, or - for stdout")
    if phi:
        for flag in ("--alpha-re", "--alpha-im", "--beta-re", "--beta-im"):
            p.add_argument(flag, type=float, default=None)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    ``main`` call; parsing leaves it unchanged."""
    parser = _Parser(
        prog="teleportsim",
        description="Teleportation-as-generalized-measurement simulator",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    _add_command(subs, "teleport", _run_teleport, "standard teleportation over the singlet",
                 trials=500, phi=False)

    p = _add_command(subs, "naive", _run_naive,
                     "plain Bell measurement over a partial resource")
    p.add_argument("--a2", default="0.5:1.0:0.1", help="sweep of the larger Schmidt weight a^2")

    p = _add_command(subs, "conclusive", _run_conclusive, "perfect conclusive teleportation",
                     trials=10000, phi=False)
    p.add_argument("--a2", default="0.8")

    p = _add_command(subs, "quasi", _run_quasi,
                     "bilocal filtering plus teleportation over a mixed resource")
    p.add_argument("--p", default="0.5", help="sweep of the singlet weight of the resource")
    p.add_argument("--n", type=float, default=None, help="filter index (strength 1/sqrt(n))")
    p.add_argument("--epsilon", type=float, default=None, help="target infidelity for the planner")

    p = _add_command(subs, "steer", _run_steer, "remote ensemble preparation")
    p.add_argument("--a2", default=None, help="use a partially entangled shared state")
    p.add_argument("--basis", choices=("diagonal", "rectilinear"), default="diagonal")

    p = _add_command(subs, "povm-check", _run_povm_check, "validate the POVM builders")
    p.add_argument("--a2", default=None, help="also check the discrimination POVM")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv``, run its command and emit the table.  Returns the exit
    status: 0 success, 1 I/O error, 2 validation error."""
    args = build_parser().parse_args(argv)
    try:
        if "seed" in args and not 0 <= args.seed < 2**64:
            raise CliError("seed must be an unsigned 64-bit integer")
        if "trials" in args and not 1 <= args.trials <= MAX_TRIALS:
            raise CliError(f"trials must lie in [1, {MAX_TRIALS}]")
        rows = args.run(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        # every row lists its columns in header order
        emit(rows, list(rows[0]), args.format, args.out)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Reproducibility front end: analytic sweeps and seeded Monte Carlo runs.

Every command emits a machine-readable table (CSV or JSON) whose analytic
columns are taken verbatim from the library.  The CLI derives only check and
residual columns: teleport's chunk statistics, conclusive's abs_deviation,
three_sigma and within_three_sigma, naive's max_residual, steer's overlap and
hjw_residual, and povm-check's psd_ok.  Identical configuration and seed
produce byte-identical output.  The parsed arguments are the whole
configuration: each subcommand carries its own defaults and binds its
runner, which returns its table as equal-length columns.

Exit codes: 0 success, 1 I/O error, 2 validation error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
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


def _quoted(texts: set[str]) -> dict[str, str]:
    """Each of ``texts`` as csv.writer writes it as one field of a row of
    several: one row of them all shows whether any needs quoting, and only
    then is each written in a row of its own."""
    texts = list(texts)
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(texts)
    if buf.getvalue() == ",".join(texts) + "\n":  # a quoted field would be longer
        return dict(zip(texts, texts))
    quoted = {}
    for text in texts:
        buf.seek(0)
        buf.truncate()
        writer.writerow((text, ""))
        quoted[text] = buf.getvalue()[:-2]  # without the empty field's "," and the "\n"
    return quoted


def _csv_column(column: list) -> tuple[str, list]:
    """The format spec of one CSV column and the cells it formats, chosen
    from the types of its cells: floats and ints format themselves, bools
    and strings map to their fields, and a column of mixed types (None
    among floats) is formatted cell by cell, quoting only its strings."""
    kind = type(column[0]) if column else None
    if len(column) > 1 and set(map(type, column)) != {kind}:
        kind = None
    if kind is float:
        return "{:.17g}", column
    if kind is int:
        return "{}", column
    if kind is bool:
        return "{}", ["true" if v else "false" for v in column]
    if kind is str:
        return "{}", list(map(_quoted(set(column)).__getitem__, column))
    quoted = _quoted({v for v in column if isinstance(v, str)})
    return "{}", [quoted[v] if isinstance(v, str) else _format_cell(v) for v in column]


def emit(table: dict[str, list], output_format: str, path: str) -> None:
    """Write a table of equal-length columns, headed by their names, as CSV
    (RFC 4180, LF endings, 17 significant digits for floats) or as a JSON
    array of flat objects, one per row.

    CSV rows come from one template of a formatter per column, chosen from
    the types of its cells (``_csv_column``).  Only the header and string
    cells go through csv.writer, each distinct string once, so the bytes
    are those of csv.writer writing every cell."""
    if output_format == "csv":
        header = io.StringIO()
        csv.writer(header, quoting=csv.QUOTE_MINIMAL, lineterminator="\n").writerow(table)
        specs, cells = zip(*map(_csv_column, table.values())) if table else ((), ())
        template = ",".join(specs) + "\n"
        rows = [template.format(*row) for row in zip(*cells)]
        if len(table) == 1:  # csv.writer quotes a row of one empty field
            rows = ['""\n' if row == "\n" else row for row in rows]
        text = "".join([SCHEMA_COMMENT + "\n", header.getvalue(), *rows])
    else:
        text = json.dumps([dict(zip(table, row)) for row in zip(*table.values())], indent=2) + "\n"
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


def _run_teleport(args: argparse.Namespace) -> dict[str, list]:
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
    return {
        "seed": [args.seed],
        "trials": [args.trials],
        "expected_branch_probability": [0.25],
        "max_prob_deviation": [max_dev],
        "min_fidelity": [min_fid],
        "mean_fidelity": [fid_sum / (len(maps.labels) * args.trials)],
    }


def _table(columns: dict, shape: tuple[int, ...]) -> dict[str, list]:
    """``columns`` (a single value, one per sweep point, ...) broadcast to
    ``shape`` and flattened in C order, as lists of the Python scalars
    ``emit`` formats.  A column already of that shape skips ``broadcast_to``,
    which costs microseconds even then."""
    arrays = {name: np.asarray(value) for name, value in columns.items()}
    return {name: (v if v.shape == shape else np.broadcast_to(v, shape)).ravel().tolist()
            for name, v in arrays.items()}


def _run_naive(args: argparse.Namespace) -> dict[str, list]:
    a2s = _sweep(args, "a2")
    phi = _phi(args)
    s = SchmidtPair.from_a_squared(np.array(a2s))
    prob = protocols.naive_phi_plus_probability(phi, s)
    fid = protocols.naive_phi_plus_fidelity(phi, s)
    evaluated = protocols.naive_maps(s).evaluate(phi.amplitudes[None])
    sim_prob, sim_fid = (v[0, :, 0] for v in evaluated)  # the phi+ branch of every pair
    alpha, beta = phi.amplitudes
    return _table({
        "a2": a2s,
        "a": s.a,
        "b": s.b,
        "alpha_re": alpha.real,
        "alpha_im": alpha.imag,
        "beta_re": beta.real,
        "beta_im": beta.imag,
        "phi_plus_prob": prob,
        "phi_plus_fidelity": fid,
        "phi_plus_prob_sim": sim_prob,
        "phi_plus_fidelity_sim": sim_fid,
        # np.maximum keeps a nan, which Python's max would drop
        "max_residual": np.maximum(abs(sim_prob - prob), abs(sim_fid - fid)),
    }, (len(a2s),))


def _run_conclusive(args: argparse.Namespace) -> dict[str, list]:
    a2s = _sweep(args, "a2")
    s = SchmidtPair.from_a_squared(np.array(a2s))
    mc = protocols.conclusive_monte_carlo(s, args.trials, args.seed)
    analytic = protocols.conclusive_success_probability(s).tolist()
    rate = mc.empirical_rate.tolist()
    # the check columns in Python floats: cheaper than numpy on a short sweep
    three_sigma = [3.0 * math.sqrt(p * (1.0 - p) / args.trials) for p in analytic]
    dev = [abs(r - p) for r, p in zip(rate, analytic)]
    return {
        "a2": a2s,
        "success_prob": analytic,
        "trials": [args.trials] * len(a2s),
        "seed": [args.seed] * len(a2s),
        "successes": mc.successes.tolist(),
        "empirical_success_rate": rate,
        "abs_deviation": dev,
        "three_sigma": three_sigma,
        "within_three_sigma": [d <= t for d, t in zip(dev, three_sigma)],
        "wrong_outcomes": mc.wrong_outcomes.tolist(),
        "min_conclusive_fidelity": mc.min_conclusive_fidelity.tolist(),
    }


def _run_quasi(args: argparse.Namespace) -> dict[str, list]:
    if args.n is not None and args.epsilon is not None:
        raise CliError("give either --n or --epsilon, not both")
    ps = _sweep(args, "p")
    _phi(args)  # checked, though no column depends on the input
    if args.epsilon is not None:
        p = np.array(ps)
        n = protocols.required_filter_index(p, args.epsilon)
        p_prime = protocols.p_prime_after_filter(p, n)
        return _table({
            "p": ps,
            "epsilon": args.epsilon,
            "n": n,
            "strength": 1.0 / np.sqrt(n),
            "p_prime": p_prime,
            # Python ints: above 2**53 a float n * n would round twice
            "success_prob": [protocols.filter_success_probability(x, k)
                             for x, k in zip(ps, n.tolist())],
            "avg_fidelity": protocols.max_teleport_fidelity(p_prime),
            "fidelity_target": 1.0 - args.epsilon,
        }, (len(ps),))
    n = args.n if args.n is not None else 1.0
    fp = protocols.FilterParams.from_n(n)
    p = np.array(ps)
    maps, success_sim = protocols.filtered_teleport_maps(p, fp)
    p_prime_sim, avg_fidelity = maps.haar_averages()
    p_prime = protocols.p_prime_after_filter(p, n)
    return _table({
        "p": ps,
        "n": n,
        "strength": fp.strength,
        "p_prime": p_prime,
        "success_prob": protocols.filter_success_probability(p, n),
        "p_prime_sim": p_prime_sim,
        "success_prob_sim": success_sim,
        "avg_fidelity": avg_fidelity,
        "max_fidelity_bound": protocols.max_teleport_fidelity(p_prime),
    }, (len(ps),))


def _steer_table(result: steering.SteeringResult, before: dict, after: dict) -> dict[str, list]:
    """Columns of one row per branch of each shared state: ``before``, the
    branch with Bob's amplitudes (empty when impossible), then ``after``."""
    possible = result.probabilities > 0.0
    columns = dict(before, branch=np.arange(len(result.labels)), label=result.labels,
                   probability=result.probabilities)
    for i, amp in enumerate(np.moveaxis(result.states, -1, 0)):
        columns[f"bob{i}_re"] = np.where(possible, amp.real, None)
        columns[f"bob{i}_im"] = np.where(possible, amp.imag, None)
    return _table(dict(columns, **after), possible.shape)


def _run_steer(args: argparse.Namespace) -> dict[str, list]:
    if args.a2 is not None:
        a2s = _sweep(args, "a2")
        if any(getattr(args, k) is not None for k in _PHI_FLAGS):
            raise CliError("steer takes either --a2 or alpha/beta flags, not both")
        s = SchmidtPair.from_a_squared(np.array(a2s))
        result = steering.b92_generation(s, basis=args.basis)
        reduced = np.zeros((len(a2s), 2, 2))  # Bob's half of a|00> + b|11>
        reduced[:, 0, 0], reduced[:, 1, 1] = s.a * s.a, s.b * s.b
        bob = result.states
        overlap = np.where((result.probabilities > 0.0).all(axis=-1),
                           abs((bob[:, 0].conj() * bob[:, 1]).sum(axis=-1)), 1.0)
        return _steer_table(
            result,
            {"mode": "b92", "a2": np.array(a2s)[:, None], "basis": args.basis},
            {"overlap": overlap[:, None],
             "hjw_residual": max_abs(result.realized_density() - reduced, axis=(-2, -1))[:, None]},
        )
    phi = _phi(args)
    result = steering.steer(
        bell_state("psi-"),
        povm_mod.teleportation_povm(phi.amplitudes[0], phi.amplitudes[1]),
    )
    residual = max_abs(result.realized_density() - np.eye(2) / 2)
    return _steer_table(result, {"mode": "telepovm"}, {"hjw_residual": residual})


def _povm_table(names: list[str], p: povm_mod.Povm) -> dict[str, list]:
    """Report columns, a row per name, of POVMs that passed ``Povm``'s checks,
    so ``psd_ok`` is always true: a builder defect exits 2 before any output."""
    min_eig = povm_mod.min_eigenvalue(p.elements)
    return _table({
        "povm": names,
        "dim": p.dim,
        "n_elements": len(p),
        "completeness_residual": povm_mod.completeness_residual(p.elements),
        "min_eigenvalue": min_eig,
        "psd_ok": min_eig >= -ATOL,
    }, (len(names),))


def _run_povm_check(args: argparse.Namespace) -> dict[str, list]:
    a2s = _sweep(args, "a2") if args.a2 is not None else []
    phi = _phi(args)
    table = _povm_table(["teleportation"], povm_mod.teleportation_povm(*phi.amplitudes))
    if a2s:  # one stack of POVMs, checked at once
        disc = povm_mod.discrimination_povm(SchmidtPair.from_a_squared(np.array(a2s)))
        for name, column in _povm_table([f"discrimination(a2={a2!r})" for a2 in a2s], disc).items():
            table[name] += column
    return table


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
        table = args.run(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        emit(table, args.format, args.out)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

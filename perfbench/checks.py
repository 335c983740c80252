"""Checks every CLI table against the paper's invariants.

A table that breaks one counts as a failed operation, exactly like a
non-zero exit status.

The Monte Carlo success rate is held to ``MC_SIGMAS`` binomial standard
deviations, not to the table's own ``within_three_sigma`` column: three
sigma trips by chance on about 13% of 51-point sweeps (1 - 0.9973^51), so
failures would depend on the seed. Seven sigma trips with probability
2.6e-12 per row; a full set of benchmark runs checks fewer than 1e5 rows,
so the chance of a false failure is below 3e-7.
"""

from __future__ import annotations

import csv
import math

from workloads import Call

MC_SIGMAS = 7.0
FIDELITY_DEFECT = 1e-10
RESIDUAL = 1e-9
EXACT = 1e-12


def _flag(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def _rows(text: str) -> list[dict[str, str]]:
    lines = text.splitlines()
    if not lines or lines[0] != "# schema=1":
        raise ValueError("missing '# schema=1' line")
    return list(csv.DictReader(lines[1:]))


def _check_teleport(call: Call, row: dict, out: list[str]) -> None:
    if int(row["trials"]) != int(_flag(call.argv, "--trials")):
        out.append(f"trials {row['trials']} != requested")
    if int(row["seed"]) != int(_flag(call.argv, "--seed")):
        out.append(f"seed {row['seed']} != requested")
    if float(row["min_fidelity"]) < 1.0 - FIDELITY_DEFECT:
        out.append(f"min_fidelity {row['min_fidelity']} < 1-{FIDELITY_DEFECT}")
    if float(row["max_prob_deviation"]) > FIDELITY_DEFECT:
        out.append(f"max_prob_deviation {row['max_prob_deviation']} > {FIDELITY_DEFECT}")


def _check_conclusive(call: Call, row: dict, out: list[str]) -> None:
    trials = int(_flag(call.argv, "--trials"))
    if int(row["trials"]) != trials:
        out.append(f"trials {row['trials']} != requested {trials}")
    if int(row["seed"]) != int(_flag(call.argv, "--seed")):
        out.append(f"seed {row['seed']} != requested")
    a2 = float(row["a2"])
    p = float(row["success_prob"])
    if abs(p - (2.0 - 2.0 * a2)) > EXACT:  # 1 - (a^2 - b^2) with b^2 = 1 - a^2
        out.append(f"a2={a2}: success_prob {p} != 1 - (a^2 - b^2)")
    rate = int(row["successes"]) / trials
    bound = MC_SIGMAS * math.sqrt(p * (1.0 - p) / trials) + EXACT
    if abs(rate - p) > bound:
        out.append(f"a2={a2}: success rate {rate} is {abs(rate - p):.3g} from {p} (> {bound:.3g})")
    if int(row["wrong_outcomes"]) != 0:
        out.append(f"a2={a2}: wrong_outcomes {row['wrong_outcomes']} != 0")
    if float(row["min_conclusive_fidelity"]) < 1.0 - FIDELITY_DEFECT:
        out.append(f"a2={a2}: min_conclusive_fidelity {row['min_conclusive_fidelity']} too low")


def _check_residuals(call: Call, row: dict, out: list[str]) -> None:
    for col, value in row.items():
        if col.endswith("residual") and not float(value) <= RESIDUAL:
            out.append(f"{col} {value} > {RESIDUAL}")
    if "psd_ok" in row and row["psd_ok"] != "true":
        out.append(f"psd_ok is {row['psd_ok']!r} for {row.get('povm')}")


def _check_quasi(call: Call, row: dict, out: list[str]) -> None:
    p = row["p"]
    for closed, simulated in (("p_prime", "p_prime_sim"), ("success_prob", "success_prob_sim")):
        if simulated in row and not abs(float(row[closed]) - float(row[simulated])) <= RESIDUAL:
            out.append(f"p={p}: {closed} {row[closed]} != {simulated} {row[simulated]}")
    if "fidelity_target" in row and not float(row["avg_fidelity"]) >= float(row["fidelity_target"]):
        out.append(f"p={p}: avg_fidelity {row['avg_fidelity']} < target {row['fidelity_target']}")


_CHECKERS = {
    "teleport": _check_teleport,
    "conclusive": _check_conclusive,
    "naive": _check_residuals,
    "steer": _check_residuals,
    "povm-check": _check_residuals,
    "quasi": _check_quasi,
}


def check_table(call: Call, text: str) -> list[str]:
    """Problems found in the table ``call`` emitted; empty when it is correct."""
    try:
        rows = _rows(text)
        if len(rows) != call.rows:
            return [f"{len(rows)} rows, expected {call.rows}"]
        out: list[str] = []
        for row in rows:
            _CHECKERS[call.argv[0]](call, row, out)
        return out
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable table: {exc!r}"]

"""Analytic sweeps run as one batch: a point's row must not depend on the
sweep it sits in, and a sweep of the largest accepted length stays small.
A ``conclusive`` row must not depend on its sweep either: every point
draws from its own generator keyed by (seed, 0)."""

import contextlib
import io
import tracemalloc

import pytest

from teleportsim import cli

A2_GRID, P_GRID = (0.5, 0.01, 51), (0.01, 0.01, 51)  # start, step, points

# argv before the sweep, sweep flag, grid, table rows per point, rows before the first point
SWEEPS = [
    ("naive --alpha-re 0.6 --beta-im 0.8", "--a2", A2_GRID, 1, 0),
    ("quasi --n 37.3", "--p", P_GRID, 1, 0),
    ("quasi --epsilon 1e-3", "--p", P_GRID, 1, 0),
    ("steer --basis diagonal", "--a2", A2_GRID, 2, 0),
    ("steer --basis rectilinear", "--a2", A2_GRID, 2, 0),
    ("povm-check", "--a2", A2_GRID, 1, 1),
    ("conclusive --trials 200 --seed 3", "--a2", A2_GRID, 1, 0),
]


def table(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue().splitlines()[2:]  # without the schema line and the header


def point_rows(command, flag, sweep, per_point, skip):
    """The rows of each point of ``sweep``, keyed by its value."""
    values = cli.parse_range(sweep)
    rows = table(command.split() + [flag, sweep])[skip:]
    assert len(rows) == per_point * len(values)
    return {v: rows[i * per_point:(i + 1) * per_point] for i, v in enumerate(values)}


@pytest.mark.parametrize("command, flag, grid, per_point, skip", SWEEPS)
def test_point_row_does_not_depend_on_sweep(command, flag, grid, per_point, skip):
    start, step, points = grid
    full = point_rows(command, flag, f"{start!r}:{start + (points - 1) * step!r}:{step!r}",
                      per_point, skip)
    assert len(full) == points

    def alone(v):
        return point_rows(command, flag, repr(v), per_point, skip)[v]

    for i, (v, rows) in enumerate(full.items()):
        assert alone(v) == rows, v
        if i + 1 < points:  # the 2-point sweep that starts at v
            pair = point_rows(command, flag, f"{v!r}:{v + step!r}:{step!r}", per_point, skip)
            assert list(pair) == [v, v + step]
            assert pair[v] == rows
            assert pair[v + step] == alone(v + step)


@pytest.mark.parametrize("command", ["naive", "steer"])
def test_longest_sweep_memory(command, tmp_path):
    # 10^4 points, the most a sweep may hold: its batch arrays and rows stay
    # well under 64 MB
    sweep = f"0.5:1.0:{0.5 / (cli.MAX_SWEEP_POINTS - 1)!r}"
    assert len(cli.parse_range(sweep)) == cli.MAX_SWEEP_POINTS
    out = tmp_path / "sweep.csv"
    tracemalloc.start()
    try:
        assert cli.main([command, "--a2", sweep, "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows_per_point = 2 if command == "steer" else 1
    assert len(out.read_text().splitlines()) == 2 + rows_per_point * cli.MAX_SWEEP_POINTS
    assert peak < 64 * 2**20

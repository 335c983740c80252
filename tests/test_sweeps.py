"""Sweeps run as one batch: a point's row must not depend on the sweep it
sits in, and a sweep of the largest accepted length stays small.  A
``conclusive`` row must not depend on its sweep either: the sweep's one
generator, keyed by (seed, 0), draws the Haar inputs once and is rewound
to its post-Haar state for each point's outcome counts."""

import contextlib
import io
import tracemalloc

import pytest

from teleportsim import cli, protocols

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
    ("quasi --epsilon 1e-13", "--p", P_GRID, 1, 0),  # every point takes the planner's search
]


def stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def table(argv):
    return stdout(argv).splitlines()[2:]  # without the schema line and the header


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


@pytest.mark.parametrize("command", ["naive", "steer", "conclusive --trials 200 --seed 3",
                                     "quasi --epsilon 1e-3"])
def test_longest_sweep_memory(command, tmp_path):
    # 10^4 points, the most a sweep may hold: its batch arrays, its columns
    # and their formatted rows stay well under 64 MB
    if command.startswith("quasi"):  # p inside (0, 1)
        step = 1.0 / (cli.MAX_SWEEP_POINTS + 1)
        flag, sweep = "--p", f"{step!r}:{cli.MAX_SWEEP_POINTS * step!r}:{step!r}"
    else:
        flag, sweep = "--a2", f"0.5:1.0:{0.5 / (cli.MAX_SWEEP_POINTS - 1)!r}"
    assert len(cli.parse_range(sweep)) == cli.MAX_SWEEP_POINTS
    out = tmp_path / "sweep.csv"
    tracemalloc.start()
    try:
        assert cli.main(command.split() + [flag, sweep, "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows_per_point = 2 if command == "steer" else 1
    assert len(out.read_text().splitlines()) == 2 + rows_per_point * cli.MAX_SWEEP_POINTS
    assert peak < 64 * 2**20


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("trials, seed", [(57, 5), (3000, 4)])
def test_conclusive_chunks_do_not_change_output(chunk, trials, seed, monkeypatch):
    # 11 points, cut into chunks of 7 and 4 or into eleven of one, against the default chunk
    argv = f"conclusive --a2 0.5:1.0:0.05 --trials {trials} --seed {seed}".split()
    default = stdout(argv)
    assert len(default.splitlines()) == 2 + 11
    monkeypatch.setattr(protocols, "CONCLUSIVE_CHUNK", chunk)
    assert stdout(argv) == default


def test_conclusive_sweep_draws_once(monkeypatch):
    # one generator and one Haar draw per sweep, not one per point
    calls = {"trial_rng": 0, "haar_random_amplitudes": 0}

    def counted(name):
        fn = getattr(protocols, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(protocols, name, counted(name))
    assert len(table("conclusive --a2 0.5:1.0:0.05 --trials 300 --seed 8".split())) == 11
    assert calls == {"trial_rng": 1, "haar_random_amplitudes": 1}

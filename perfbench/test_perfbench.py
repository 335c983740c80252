"""Tests of the benchmark's own machinery: the table checker and the tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import io
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from checks import check_table  # noqa: E402
from loop import Tally, invoke, tail  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Call  # noqa: E402

from teleportsim import cli, protocols, states  # noqa: E402


def table(call: Call) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(list(call.argv)) == 0
    return out.getvalue()


def replace_cell(text: str, column: str, value: str, row: int = 0) -> str:
    lines = text.splitlines(keepends=True)
    header = lines[1].rstrip("\n").split(",")
    cells = lines[2 + row].rstrip("\n").split(",")
    cells[header.index(column)] = value
    lines[2 + row] = ",".join(cells) + "\n"
    return "".join(lines)


TELEPORT = Call(("teleport", "--trials", "20", "--seed", "5"), rows=1, trials=20)
CONCLUSIVE = Call(("conclusive", "--a2", "0.5:1.0:0.25", "--trials", "400", "--seed", "5"),
                  rows=3, trials=1200)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_tables_pass(name):
    for call in WORKLOADS[name].make_round(random.Random(3)):
        if call.argv[0] == "conclusive":  # keep the test fast; the grid is unchanged
            argv = list(call.argv)
            argv[argv.index("--trials") + 1] = "400"
            call = Call(tuple(argv), call.rows, call.rows * 400)
        assert check_table(call, table(call)) == []


def test_exponent_notation_amplitude_reaches_the_cli():
    rng = random.Random(52)
    for _ in range(22):  # the 22nd round draws alpha_im = -9.87e-05
        quasi = WORKLOADS["analytic_sweep"].make_round(rng)[1]
    assert "--alpha-im=-9.872213561951213e-05" in quasi.argv
    assert check_table(quasi, table(quasi)) == []


@pytest.mark.parametrize("call, column, value", [
    (TELEPORT, "min_fidelity", "0.99"),
    (TELEPORT, "max_prob_deviation", "1e-6"),
    (TELEPORT, "trials", "19"),
    (CONCLUSIVE, "wrong_outcomes", "1"),
    (CONCLUSIVE, "min_conclusive_fidelity", "0.9"),
    (CONCLUSIVE, "successes", "300"),
])
def test_corrupted_table_is_a_failure(call, column, value):
    bad = replace_cell(table(call), column, value)
    assert check_table(call, bad)


def test_corrupted_residual_and_lost_row_are_failures():
    call = WORKLOADS["analytic_sweep"].make_round(random.Random(4))[0]
    text = table(call)
    assert check_table(call, replace_cell(text, "max_residual", "1e-6", row=3))
    assert check_table(call, text.rsplit("\n", 2)[0] + "\n")
    assert check_table(call, "")


@pytest.mark.parametrize("n, rank", [(9, 7), (25, 19), (40, 30), (41, 31), (200, 190)])
def test_tail_keeps_ten_beyond_and_never_drops_below_p75(n, rank):
    value, percentile, beyond = tail([float(i) for i in range(n, 0, -1)])
    assert (value, beyond) == (rank, n - rank)
    assert percentile == pytest.approx(100 * rank / n)


def test_loop_counts_a_corrupted_table_as_failed(monkeypatch):
    tally = Tally()
    invoke(cli, TELEPORT, tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    real_emit = cli.emit
    monkeypatch.setattr(cli, "emit", lambda rows, *a: real_emit(
        [dict(r, min_fidelity=0.5) for r in rows], *a))
    invoke(cli, TELEPORT, tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_tracer_patches_import_sites_and_keeps_tables():
    plain = [table(c) for c in (TELEPORT, CONCLUSIVE)]
    original_kron = protocols.kron
    tracer = Tracer().install()
    try:
        assert protocols.kron is not original_kron
        assert protocols.PureState is states.PureState  # classes are not rebound
        traced = [table(c) for c in (TELEPORT, CONCLUSIVE)]
    finally:
        tracer.uninstall()
    assert protocols.kron is original_kron
    assert traced == plain
    assert tracer.calls("protocols.standard_teleport") == 20
    assert tracer.calls("protocols.conclusive_teleport") == 3 * 200
    assert tracer.calls("protocols.trial_rng") == 20 + 3 * 200
    assert tracer.calls("cli.emit") == 2
    assert tracer.calls("states.PureState.init") > 0
    assert 0 < tracer.self_s("cli.main") < sum(stat[1] for stat in tracer.stats.values())

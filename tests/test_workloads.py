"""The benchmark's traffic through the benchmark's own table checker.

Every workload in ``perfbench/workloads.py`` makes two rounds from a fixed
seed; each call must exit 0 and ``perfbench/checks.py`` must find no problem
in its table, so a change the benchmark would count as failed operations
fails here first.
"""

import contextlib
import io
import random
import sys
from pathlib import Path

import pytest

from teleportsim import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from checks import check_table  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_tables_pass_benchmark_checks(name):
    rng = random.Random(2024)
    for call in [c for _ in range(2) for c in WORKLOADS[name].make_round(rng)]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(list(call.argv)) == 0, call.argv
        assert check_table(call, out.getvalue()) == [], call.argv

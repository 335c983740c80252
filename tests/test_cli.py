import contextlib
import csv
import hashlib
import io
import json
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleportsim import cli, protocols
from teleportsim.states import SchmidtPair, bell_state, haar_random_qubit, qubit


def run_cli(args, capsys=None):
    return cli.main(args)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "# schema=1"
    reader = csv.DictReader(io.StringIO("\n".join(lines[1:])))
    return list(reader)


class TestParseRange:
    def test_single_value(self):
        assert cli.parse_range("0.8") == [0.8]

    def test_inclusive_sweep(self):
        values = cli.parse_range("0.5:1.0:0.1")
        assert len(values) == 6
        assert abs(values[0] - 0.5) < 1e-15
        assert abs(values[-1] - 1.0) < 1e-12

    def test_stop_not_on_grid_excluded(self):
        values = cli.parse_range("0.5:0.95:0.2")
        np.testing.assert_allclose(values, [0.5, 0.7, 0.9], atol=1e-12)
        # 0.7 misses STOP by 1e-10, more than GRID_TOL, so it lies beyond STOP
        assert cli.parse_range("0.5:0.6999999999:0.1") == [0.5, 0.6]

    def test_rejects_oversized_sweep_before_building_it(self):
        with pytest.raises(cli.CliError, match="points"):
            cli.parse_range("0.5:1.0:1e-15")
        with pytest.raises(cli.CliError, match="points"):
            cli.parse_range("0:1:1e-320")  # the span overflows to inf
        assert len(cli.parse_range(f"0:{cli.MAX_SWEEP_POINTS - 1}:1")) == cli.MAX_SWEEP_POINTS
        with pytest.raises(cli.CliError, match="points"):
            cli.parse_range(f"0:{cli.MAX_SWEEP_POINTS}:1")

    def test_rejects_non_finite(self):
        for text in ("nan", "0.5:inf:0.1", "0.5:1.0:nan"):
            with pytest.raises(cli.CliError):
                cli.parse_range(text)

    def test_rejects_bad_syntax(self):
        with pytest.raises(cli.CliError):
            cli.parse_range("0.5:1.0")
        with pytest.raises(cli.CliError):
            cli.parse_range("abc")
        with pytest.raises(cli.CliError):
            cli.parse_range("1.0:0.5:0.1")


class TestNegativeValues:
    def test_exponent_notation_is_a_value(self):
        args = cli.build_parser().parse_args(
            ["povm-check", "--alpha-re", "1", "--alpha-im", "-9.8e-05", "--beta-re", "0"]
        )
        assert args.alpha_im == -9.8e-05
        args = cli.build_parser().parse_args(["steer", "--beta-im", "-1E+2", "--alpha-re", "-.5"])
        assert (args.beta_im, args.alpha_re) == (-100.0, -0.5)

    def test_exponent_notation_run(self, tmp_path):
        path = tmp_path / "povm.csv"
        argv = ["povm-check", "--alpha-re", "0.6", "--alpha-im", "-1e-12", "--beta-re", "0.8"]
        assert run_cli(argv + ["--out", str(path)]) == 0
        assert read_csv(str(path))[0]["psd_ok"] == "true"

    def test_option_like_token_still_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["povm-check", "--alpha-im", "-e5"])
        assert exc.value.code == 2


class TestEmit:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        cli.emit({"x": [], "y": []}, "csv", str(path))
        text = path.read_text()
        assert text == "# schema=1\nx,y\n"

    def test_json_single_element(self, tmp_path):
        path = tmp_path / "one.json"
        cli.emit({"x": [1], "y": [0.5]}, "json", str(path))
        data = json.loads(path.read_text())
        assert data == [{"x": 1, "y": 0.5}]

    def test_float_round_trip(self, tmp_path):
        path = tmp_path / "f.csv"
        cli.emit({"v": [0.15625]}, "csv", str(path))
        rows = read_csv(str(path))
        assert float(rows[0]["v"]) == 0.15625

    def test_seventeen_digits(self, tmp_path):
        path = tmp_path / "pi.csv"
        cli.emit({"v": [np.pi]}, "csv", str(path))
        rows = read_csv(str(path))
        assert float(rows[0]["v"]) == np.pi

    def test_quoting(self, tmp_path):
        path = tmp_path / "q.csv"
        cli.emit({"label": ['a,"b"'], "v": [1]}, "csv", str(path))
        rows = read_csv(str(path))
        assert rows[0]["label"] == 'a,"b"'

    def test_newlines_are_lf(self, tmp_path):
        path = tmp_path / "lf.csv"
        cli.emit({"v": [1]}, "csv", str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw

    def test_mixed_cell_types_exact_bytes(self, tmp_path):
        table = {"none": [None, 1.5], "flag": [True, False], "count": [3, -1],
                 "label": ["x y", "a,b"], "value": [0.1, 1e-300]}
        csv_path, json_path = tmp_path / "m.csv", tmp_path / "m.json"
        cli.emit(table, "csv", str(csv_path))
        cli.emit(table, "json", str(json_path))
        assert csv_path.read_bytes() == (
            b"# schema=1\nnone,flag,count,label,value\n"
            b",true,3,x y,0.10000000000000001\n"
            b'1.5,false,-1,"a,b",1e-300\n')
        assert json_path.read_bytes() == (
            b'[\n  {\n    "none": null,\n    "flag": true,\n    "count": 3,\n'
            b'    "label": "x y",\n    "value": 0.1\n  },\n'
            b'  {\n    "none": 1.5,\n    "flag": false,\n    "count": -1,\n'
            b'    "label": "a,b",\n    "value": 1e-300\n  }\n]\n')


def csv_writer_reference(table):
    """The CSV bytes of ``table`` written cell by cell through csv.writer:
    None empty, bools as true/false, floats to 17 significant digits,
    everything else through str()."""
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        return f"{v:.17g}" if isinstance(v, float) else str(v)

    buf = io.StringIO()
    buf.write("# schema=1\n")
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(table)
    for row in zip(*table.values()):
        writer.writerow(map(cell, row))
    return buf.getvalue()


csv_floats = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e-300, 5e-324, 0.1, 1e22])
csv_texts = st.text(st.sampled_from(list(',"\r\n ;\t\x00a1')), max_size=4) | st.text(max_size=4)
# cells of one column: one type, None among floats (steer's Bob columns), or any mix
csv_cells = (csv_floats, st.integers(), st.booleans(), csv_texts, st.none() | csv_floats,
             st.none() | csv_floats | st.integers() | st.booleans() | csv_texts)


@st.composite
def csv_tables(draw):
    """A table of 1 to 4 equal-length columns (0 to 5 rows), each of one
    kind of cell or of mixed kinds, under names that may need quoting."""
    rows = draw(st.integers(0, 5))
    names = draw(st.lists(csv_texts, min_size=1, max_size=4, unique=True))
    return {name: draw(st.lists(draw(st.sampled_from(csv_cells)), min_size=rows, max_size=rows))
            for name in names}


@settings(max_examples=400, deadline=None)
@given(table=csv_tables())
def test_emit_csv_matches_csv_writer(table):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.emit(table, "csv", "-")
    assert out.getvalue() == csv_writer_reference(table)


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["conclusive", "--a2", "0.8", "--trials", "4000", "--seed", "7"]
        assert run_cli(args + ["--out", str(p1)]) == 0
        assert run_cli(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_runs_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["teleport", "--trials", "50", "--seed", "3", "--format", "json"]
        assert run_cli(args + ["--out", str(p1)]) == 0
        assert run_cli(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["conclusive", "--a2", "0.8", "--trials", "4000", "--seed", "1", "--out", str(p1)])
        run_cli(["conclusive", "--a2", "0.8", "--trials", "4000", "--seed", "2", "--out", str(p2)])
        assert p1.read_bytes() != p2.read_bytes()


class TestCommands:
    def test_quasi_spot_row(self, tmp_path):
        path = tmp_path / "quasi.csv"
        assert run_cli(["quasi", "--p", "0.5", "--n", "4", "--out", str(path)]) == 0
        row = read_csv(str(path))[0]
        assert float(row["p_prime"]) == 0.8
        assert float(row["success_prob"]) == 0.15625

    def test_quasi_analytic_columns_match_library(self, tmp_path):
        path = tmp_path / "quasi.csv"
        run_cli(["quasi", "--p", "0.1:0.9:0.2", "--n", "16", "--out", str(path)])
        for row in read_csv(str(path)):
            p = float(row["p"])
            assert abs(float(row["p_prime"]) - protocols.p_prime_after_filter(p, 16)) < 1e-12
            assert (
                abs(float(row["success_prob"]) - protocols.filter_success_probability(p, 16))
                < 1e-12
            )
            assert abs(float(row["p_prime_sim"]) - float(row["p_prime"])) < 1e-12
            assert abs(float(row["success_prob_sim"]) - float(row["success_prob"])) < 1e-12

    def test_quasi_planner_mode(self, tmp_path):
        path = tmp_path / "quasi_eps.csv"
        run_cli(["quasi", "--p", "0.5", "--epsilon", "0.01", "--out", str(path)])
        row = read_csv(str(path))[0]
        assert int(row["n"]) == 66
        assert float(row["avg_fidelity"]) >= 0.99

    def test_quasi_strong_filter_plan(self, tmp_path):
        # the planned filter succeeds with probability 1.5e-17; every column is a closed form
        path = tmp_path / "quasi_eps.csv"
        argv = ["quasi", "--p", "0.01", "--epsilon", "1e-13", "--out", str(path)]
        assert run_cli(argv) == 0
        row = read_csv(str(path))[0]
        assert int(row["n"]) == 659063360103000
        assert float(row["avg_fidelity"]) >= float(row["fidelity_target"])

    def test_quasi_rejects_both_modes(self, capsys):
        assert run_cli(["quasi", "--p", "0.5", "--n", "4", "--epsilon", "0.1"]) == 2

    def test_povm_check(self, tmp_path):
        path = tmp_path / "povm.csv"
        assert run_cli(["povm-check", "--alpha-re", "1", "--beta-re", "0", "--out", str(path)]) == 0
        row = read_csv(str(path))[0]
        assert float(row["completeness_residual"]) < 1e-9
        assert row["psd_ok"] == "true"

    def test_povm_check_with_discrimination(self, tmp_path):
        path = tmp_path / "povm.csv"
        run_cli(["povm-check", "--a2", "0.8", "--out", str(path)])
        rows = read_csv(str(path))
        assert len(rows) == 2
        assert all(float(r["completeness_residual"]) < 1e-9 for r in rows)

    def test_povm_check_sweep_labels_distinct(self, tmp_path):
        path = tmp_path / "povm.csv"
        assert run_cli(["povm-check", "--a2", "0.7:0.7000003:0.0000001", "--out", str(path)]) == 0
        labels = [r["povm"] for r in read_csv(str(path))[1:]]
        assert len(labels) == 4
        assert len(set(labels)) == 4

    def test_conclusive_rate(self, tmp_path):
        path = tmp_path / "conc.csv"
        run_cli(["conclusive", "--a2", "0.8", "--trials", "20000", "--seed", "7", "--out", str(path)])
        row = read_csv(str(path))[0]
        assert float(row["success_prob"]) == 0.4
        assert row["within_three_sigma"] == "true"
        assert int(row["wrong_outcomes"]) == 0

    def test_naive_matches_closed_forms(self, tmp_path, monkeypatch):
        path = tmp_path / "naive.csv"
        run_cli(["naive", "--a2", "0.5:1.0:0.1", "--out", str(path)])
        rows = read_csv(str(path))
        assert len(rows) == 6
        phi = qubit(1 / np.sqrt(2), 1 / np.sqrt(2))
        for row in rows:
            s = SchmidtPair.from_a_squared(float(row["a2"]))
            assert (
                abs(float(row["phi_plus_prob"]) - protocols.naive_phi_plus_probability(phi, s))
                < 1e-12
            )
            assert (
                abs(float(row["phi_plus_fidelity"]) - protocols.naive_phi_plus_fidelity(phi, s))
                < 1e-12
            )
            assert float(row["max_residual"]) < 1e-10
        # an impossible phi+ branch (probability 0, or 5e-14 under PROB_FLOOR)
        # has fidelity 0 in the closed form as in the kernel, and valid JSON
        for a2 in ("1.0", "0.9999999999999"):
            argv = ["naive", "--a2", a2, "--alpha-re", "0", "--beta-re", "1", "--format", "json"]
            assert run_cli(argv + ["--out", str(path)]) == 0
            [row] = json.loads(path.read_text(), parse_constant=pytest.fail)
            assert row["phi_plus_fidelity"] == row["phi_plus_fidelity_sim"] == 0.0
            assert row["max_residual"] < 1e-13
        # a nan in either form shows in max_residual
        monkeypatch.setattr(protocols, "naive_phi_plus_fidelity", lambda phi, s: float("nan"))
        assert run_cli(["naive", "--a2", "0.8", "--out", str(path)]) == 0
        assert read_csv(str(path))[0]["max_residual"] == "nan"

    def test_teleport_summary(self, tmp_path):
        path = tmp_path / "tele.csv"
        run_cli(["teleport", "--trials", "100", "--seed", "1", "--out", str(path)])
        row = read_csv(str(path))[0]
        assert float(row["max_prob_deviation"]) < 1e-10
        assert float(row["min_fidelity"]) > 1 - 1e-10

    def test_teleport_chunks_equal_per_trial_reference(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "TELEPORT_CHUNK", 7)
        path = tmp_path / "tele.csv"
        assert run_cli(["teleport", "--trials", "50", "--seed", "3", "--out", str(path)]) == 0
        row = read_csv(str(path))[0]
        fids, devs = [], []
        for t in range(50):
            phi = haar_random_qubit(protocols.trial_rng(3, t))
            for rec in protocols.teleport_maps(bell_state("psi-")).records(phi):
                fids.append(rec.fidelity)
                devs.append(abs(rec.probability - 0.25))
        assert float(row["max_prob_deviation"]) == max(devs)
        assert float(row["min_fidelity"]) == min(fids)
        assert abs(float(row["mean_fidelity"]) - sum(fids) / len(fids)) < 1e-15

    def test_conclusive_counts_pinned(self, tmp_path):
        # counts of the batched sampler: one generator per sweep, one Haar
        # input per block, and for each point one multinomial draw over all
        # blocks from the generator rewound to its post-Haar state
        path = tmp_path / "conc.csv"
        argv = ["conclusive", "--a2", "0.8", "--trials", "100000", "--seed", "7"]
        assert run_cli(argv + ["--out", str(path)]) == 0
        row = read_csv(str(path))[0]
        assert (int(row["successes"]), int(row["wrong_outcomes"])) == (40006, 0)
        argv = ["conclusive", "--a2", "0.5:1.0:0.25", "--trials", "2000", "--seed", "3"]
        assert run_cli(argv + ["--out", str(path)]) == 0
        rows = read_csv(str(path))
        assert [int(r["successes"]) for r in rows] == [2000, 938, 0]
        assert all(int(r["wrong_outcomes"]) == 0 for r in rows)

    def test_steer_b92(self, tmp_path):
        path = tmp_path / "steer.csv"
        run_cli(["steer", "--a2", "0.8", "--out", str(path)])
        rows = read_csv(str(path))
        assert len(rows) == 2
        assert abs(float(rows[0]["overlap"]) - 0.6) < 1e-10
        assert float(rows[0]["hjw_residual"]) < 1e-9
        # over |00> one rectilinear branch is impossible; the one state left has overlap 1
        run_cli(["steer", "--a2", "1.0", "--basis", "rectilinear", "--out", str(path)])
        rows = read_csv(str(path))
        assert [row["overlap"] for row in rows] == ["1", "1"]

    def test_steer_telepovm(self, tmp_path):
        path = tmp_path / "steer2.csv"
        run_cli(["steer", "--alpha-re", "0.6", "--beta-re", "0.8", "--out", str(path)])
        rows = read_csv(str(path))
        assert len(rows) == 4
        for row in rows:
            assert abs(float(row["probability"]) - 0.25) < 1e-10


class TestExitCodes:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["conclusive", "--bogus", "1"])
        assert exc.value.code == 2
        # only teleport and conclusive sample, so only they take --seed and --trials
        for command in ("naive", "quasi", "steer", "povm-check"):
            for flag in ("--seed", "--trials"):
                with pytest.raises(SystemExit) as exc:
                    cli.main([command, flag, "1"])
                assert exc.value.code == 2

    def test_trials_bound_exits_two(self):
        assert run_cli(["conclusive", "--trials", str(cli.MAX_TRIALS + 1)]) == 2
        assert run_cli(["teleport", "--trials", "0"]) == 2
        # a conclusive run costs O(blocks), so the bound itself is cheap to run
        assert run_cli(["conclusive", "--a2", "0.8", "--trials", str(cli.MAX_TRIALS)]) == 0

    def test_seed_bound_exits_two(self):
        assert run_cli(["teleport", "--seed", "-1"]) == 2
        assert run_cli(["teleport", "--seed", str(2**64)]) == 2

    def test_oversized_sweep_exits_two(self):
        assert run_cli(["conclusive", "--a2", "0.5:1.0:1e-15"]) == 2

    def test_domain_violation_exits_two(self, tmp_path):
        assert run_cli(["conclusive", "--a2", "0.3"]) == 2
        assert run_cli(["conclusive", "--a2", "1.000000000002"]) == 2
        assert run_cli(["naive", "--a2", "0.499999999998"]) == 2
        # a value within GRID_TOL outside a closed bound runs at the bound
        path = tmp_path / "out.csv"
        for argv, a2 in ((["conclusive", "--a2", "1.0000000000005"], "1"),
                         (["conclusive", "--a2", "0.4999999999995"], "0.5"),
                         (["naive", "--a2", "0.4999999999995"], "0.5"),
                         (["naive", "--a2", "0.5:1.0:0.16666666666667"], "1")):
            assert run_cli(argv + ["--out", str(path)]) == 0
            assert read_csv(str(path))[-1]["a2"] == a2

    def test_p_out_of_domain_exits_two(self):
        assert run_cli(["quasi", "--p", "1.0", "--n", "2"]) == 2
        # the open domain takes no slack at its bounds
        assert run_cli(["quasi", "--p", "0.9999999999995", "--n", "2"]) == 2
        assert run_cli(["quasi", "--p", "5e-13", "--n", "2"]) == 2

    def test_bad_epsilon_exits_two(self):
        assert run_cli(["quasi", "--p", "0.5", "--epsilon", "2.0"]) == 2

    def test_filter_index_bound(self):
        assert run_cli(["quasi", "--p", "0.5", "--n", "0.5"]) == 2
        assert run_cli(["quasi", "--p", "0.5", "--n", "1e19"]) == 2
        assert run_cli(["quasi", "--p", "0.5", "--n", "1e17"]) == 0

    def test_unnormalized_phi_exits_two(self, capsys):
        for command in ("naive", "quasi", "steer", "povm-check"):
            assert run_cli([command, "--alpha-re", "1", "--beta-re", "1"]) == 2
        # a squared amplitude that overflows is one error line, not a warning
        for argv in (["steer", "--alpha-re=1e308"], ["quasi", "--beta-re=1e308"],
                     ["povm-check", "--beta-re=1e308"]):
            capsys.readouterr()
            assert run_cli(argv) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: "), (argv, err)

    def test_unwritable_path_exits_one(self, tmp_path):
        target = tmp_path / "missing_dir" / "out.csv"
        assert run_cli(["quasi", "--p", "0.5", "--n", "4", "--out", str(target)]) == 1

    def test_success_exit_zero(self):
        assert run_cli(["quasi", "--p", "0.5", "--n", "4", "--out", "-"]) == 0


# Flag values at the edges of float parsing and of each domain: subnormals,
# signed zeros, the overflow threshold, non-finite values, 2^62 +- 1 and
# GRID_TOL offsets of the domain bounds, beside ordinary values.
EDGE_FLOATS = (
    "5e-324", "1e-310", "0", "-0", "-0.0", "1e308", "-1e308", "nan", "inf", "-inf",
    str(2**62 - 1), str(2**62 + 1), "0.5", "0.6", "0.8", "1", "-1", "1e-13",
    repr(0.5 - cli.GRID_TOL / 2), repr(0.5 - 2 * cli.GRID_TOL),
    repr(1.0 + cli.GRID_TOL / 2), repr(1.0 + 2 * cli.GRID_TOL),
    repr(cli.GRID_TOL), repr(1.0 - cli.GRID_TOL),
)
# Steps of 0.1 or more keep every sweep that passes its domain check short.
STEPS = ("0.1", "0.25", "0.5", "1", "0", "-0.25", "nan", "inf", "1e-15", "5e-324",
         repr(cli.GRID_TOL))
INTS = ("0", "1", "7", "-1", str(2**62 - 1), str(2**62 + 1), str(2**64 - 1), str(2**64),
        "1e3", "nan")

floats = st.sampled_from(EDGE_FLOATS)
sweeps = st.one_of(
    floats,
    st.tuples(floats, floats, st.sampled_from(STEPS)).map(":".join),
    st.sampled_from(["0.5:1", "", "x"]),
)
ints = st.sampled_from(INTS)
PHI_FLAGS = {f: floats for f in ("--alpha-re", "--alpha-im", "--beta-re", "--beta-im")}
SAMPLING = {"--seed": ints, "--trials": ints}
COMMAND_FLAGS = {
    "teleport": SAMPLING,
    "naive": {"--a2": sweeps, **PHI_FLAGS},
    "conclusive": {"--a2": sweeps, **SAMPLING},
    "quasi": {"--p": sweeps, "--n": floats, "--epsilon": floats, **PHI_FLAGS},
    "steer": {"--a2": sweeps, "--basis": st.sampled_from(["diagonal", "rectilinear", "polar"]),
              **PHI_FLAGS},
    "povm-check": {"--a2": sweeps, **PHI_FLAGS},
}


@st.composite
def argvs(draw):
    """A command, a subset of its flags (with --format) and their values,
    each flag as ``--flag value`` or ``--flag=value``."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    optional = dict(COMMAND_FLAGS[command], **{"--format": st.sampled_from(["csv", "json"])})
    argv = [command]
    for flag, value in draw(st.fixed_dictionaries({}, optional=optional)).items():
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


def expected_rows(args):
    """Rows of a successful run: one per sweep point, one per branch for steer."""
    if args.command == "teleport":
        return 1
    if args.command == "quasi":
        return len(cli.parse_range(args.p))
    points = len(cli.parse_range(args.a2)) if args.a2 is not None else 0
    if args.command == "steer":
        return 2 * points if points else 4
    return 1 + points if args.command == "povm-check" else points


@settings(max_examples=300, deadline=None)
@given(argv=argvs())
def test_cli_contract_on_generated_argv(argv):
    # exit 0 with a well-formed table, exit 2 with one error line, or
    # argparse's SystemExit(2); no other exception and no warning escapes
    # on exit 0, the table emit receives is equal-length lists of plain
    # Python scalars: a numpy scalar would print or serialize differently
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), \
            mock.patch.object(cli, "emit", wraps=cli.emit) as emit:
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 2), argv
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        assert out.getvalue() == ""
        return
    table = emit.call_args.args[0]
    assert all(type(column) is list for column in table.values()), argv
    assert len({len(column) for column in table.values()}) == 1, argv
    cell_types = {type(cell) for column in table.values() for cell in column}
    assert cell_types <= {int, float, bool, str, type(None)}, (argv, cell_types)
    args = cli.build_parser().parse_args(argv)
    if args.format == "csv":
        lines = out.getvalue().splitlines()
        assert lines[0] == cli.SCHEMA_COMMENT
        header, *rows = csv.reader(lines[1:])
        assert all(len(row) == len(header) for row in rows), argv
    else:
        rows = json.loads(out.getvalue())
        assert all(list(row) == list(rows[0]) for row in rows), argv
    assert len(rows) == expected_rows(args), argv


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_share_no_values(self, tmp_path):
        first, second = tmp_path / "n.csv", tmp_path / "eps.csv"
        assert run_cli(["quasi", "--n", "4", "--out", str(first)]) == 0
        assert run_cli(["quasi", "--epsilon", "0.1", "--out", str(second)]) == 0
        assert float(read_csv(str(first))[0]["n"]) == 4.0
        assert float(read_csv(str(second))[0]["epsilon"]) == 0.1
        assert cli.build_parser().parse_args(["quasi", "--epsilon", "0.1"]).n is None


# sha256 of each README example's stdout.  A change that moves one of these
# tables updates its hash here and names the move in CHANGES.md.
README_STDOUT_SHA256 = {
    "teleport --trials 500 --seed 1":
        "706554f338d584e10fd00ad5722e4c309e939ed9ed40756a3518b169aef6fe68",
    "naive --a2 0.5:1.0:0.1":
        "a7e54125eca3a7ae5f250f6743985f5c753f6f92d188ede47bbac1357b065833",
    "conclusive --a2 0.8 --trials 100000 --seed 7":
        "53a6f8233796fc45cc5b0b19bc2a61fe51c6d9b46a1e40dbe459539f3d574a96",
    "quasi --p 0.5 --n 4":
        "c33967ddc96c67dbfb5403fc89b50bc2e41916ce2c9033e0ce056479a55b022a",
    "quasi --p 0.5 --epsilon 0.01":
        "db61447073ab301e770ab7576ff7b649a73cc5a196d58b49b81e01bb3b217b4c",
    "steer --a2 0.8":
        "563f4dc0db80d0369c10740cd7c2bcef0f1b082baedbeb387393d232f1216032",
    "steer --alpha-re 0.6 --beta-re 0.8":
        "a43e0381abba7efb520117318f5fa712550e6958baf990370a818d77dcf8274a",
    "povm-check --alpha-re 1 --beta-re 0 --a2 0.8":
        "20fd2c34c5d69119bf6009ec32e601940b09755164254cdf41e35c6599fa8d18",
}

README_EXAMPLES = re.findall(
    r"^teleportsim (.+)$", (Path(__file__).parents[1] / "README.md").read_text(), re.M
)


@pytest.mark.parametrize("command", README_EXAMPLES)
def test_readme_example_stdout_pinned(command, capsys):
    assert cli.main(command.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == README_STDOUT_SHA256[command]


# sha256 of the stdout of sweeps through the column formatter and the batch
# planner, in CSV and JSON.  At a2 = 1 the rectilinear steer has an
# impossible branch, so its Bob columns mix None (empty) and floats; the
# 1.2e-16 plan holds filter indices above 2**53.
SWEEP_STDOUT_SHA256 = {
    ("steer --a2 0.5:1.0:0.05 --basis rectilinear", "csv"):
        "f2c1bf47d716a71699ee98a629f634f5b2a3795be24865430da10dbbbde1793d",
    ("steer --a2 0.5:1.0:0.05 --basis rectilinear", "json"):
        "b66f9fddc455925aa614e0daec5c84dc3afa540568834cca9db47c6ffde27242",
    ("quasi --p 0.05:0.89:0.02 --epsilon 1e-4", "csv"):
        "333c25bd9668bcf9c5401d4a033263e0a808002d0cdc1d45850fa8cd8e2af808",
    ("quasi --p 0.05:0.89:0.02 --epsilon 1e-4", "json"):
        "3633390b4230ffcb6d46edf1e0007830bcab97b487c82d27ea04612c93e8843a",
    ("quasi --p 0.001:0.01:0.001 --epsilon 1.2e-16", "csv"):
        "5eb6e1a00ed268893494cd4370df08ba6533cbb5d23e933b4a7d0c9b850b3033",
    ("quasi --p 0.001:0.01:0.001 --epsilon 1.2e-16", "json"):
        "107b4524b2825d546ef7af177b617fc09b5909495b0b39c53d499db2f2bd496e",
}


@pytest.mark.parametrize("command, output_format", SWEEP_STDOUT_SHA256)
def test_sweep_stdout_pinned(command, output_format, capsys):
    assert cli.main(command.split() + ["--format", output_format]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == SWEEP_STDOUT_SHA256[command, output_format]

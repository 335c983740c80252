import csv
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

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
        cli.emit([], ["x", "y"], "csv", str(path))
        text = path.read_text()
        assert text == "# schema=1\nx,y\n"

    def test_json_single_element(self, tmp_path):
        path = tmp_path / "one.json"
        cli.emit([{"x": 1, "y": 0.5}], ["x", "y"], "json", str(path))
        data = json.loads(path.read_text())
        assert data == [{"x": 1, "y": 0.5}]

    def test_float_round_trip(self, tmp_path):
        path = tmp_path / "f.csv"
        cli.emit([{"v": 0.15625}], ["v"], "csv", str(path))
        rows = read_csv(str(path))
        assert float(rows[0]["v"]) == 0.15625

    def test_seventeen_digits(self, tmp_path):
        path = tmp_path / "pi.csv"
        cli.emit([{"v": np.pi}], ["v"], "csv", str(path))
        rows = read_csv(str(path))
        assert float(rows[0]["v"]) == np.pi

    def test_quoting(self, tmp_path):
        path = tmp_path / "q.csv"
        cli.emit([{"label": 'a,"b"', "v": 1}], ["label", "v"], "csv", str(path))
        rows = read_csv(str(path))
        assert rows[0]["label"] == 'a,"b"'

    def test_newlines_are_lf(self, tmp_path):
        path = tmp_path / "lf.csv"
        cli.emit([{"v": 1}], ["v"], "csv", str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw


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
            for rec in protocols.standard_teleport(phi, bell_state("psi-")):
                fids.append(rec.fidelity)
                devs.append(abs(rec.probability - 0.25))
        assert float(row["max_prob_deviation"]) == max(devs)
        assert float(row["min_fidelity"]) == min(fids)
        assert abs(float(row["mean_fidelity"]) - sum(fids) / len(fids)) < 1e-15

    def test_conclusive_counts_pinned(self, tmp_path):
        # counts of the batched sampler: one generator per sweep point, one
        # Haar input per block, one multinomial draw over all blocks
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

    def test_unnormalized_phi_exits_two(self):
        for command in ("naive", "quasi", "steer", "povm-check"):
            assert run_cli([command, "--alpha-re", "1", "--beta-re", "1"]) == 2

    def test_unwritable_path_exits_one(self, tmp_path):
        target = tmp_path / "missing_dir" / "out.csv"
        assert run_cli(["quasi", "--p", "0.5", "--n", "4", "--out", str(target)]) == 1

    def test_success_exit_zero(self):
        assert run_cli(["quasi", "--p", "0.5", "--n", "4", "--out", "-"]) == 0


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
        "f0b4e6ea75610a34fbbf2b5198d357b8fe8c59cf022424b768fe9fe8314462bc",
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

"""Acceptance suite: each test pins one protocol-level guarantee at its
stated tolerance and prints a PASS/FAIL line (visible with ``pytest -s``)."""

import csv
import io
import json
from contextlib import redirect_stdout

import numpy as np

from teleportsim import cli
from teleportsim import povm as pv
from teleportsim import protocols as pr
from teleportsim import steering
from teleportsim.linalg import max_abs, partial_trace
from teleportsim.states import (
    SchmidtPair,
    bell_state,
    haar_random_qubit,
    haar_random_state,
    mixed_resource,
    qubit,
)

BUILDER_BELL_ORDER = ("phi+", "psi-", "psi+", "phi-")


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {status}  {detail}")
    return ok


def _random_unit_pair(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return v[0], v[1]


def test_criterion_1_standard_teleportation_exactness():
    rng = np.random.default_rng(2024)
    maps = pr.teleport_maps(bell_state("psi-"))
    max_prob_dev = 0.0
    min_fid = 1.0
    for _ in range(500):
        phi = haar_random_qubit(rng)
        for rec in maps.records(phi):
            max_prob_dev = max(max_prob_dev, abs(rec.probability - 0.25))
            min_fid = min(min_fid, rec.fidelity)
    ok = max_prob_dev <= 1e-10 and min_fid >= 1 - 1e-10
    assert _report(
        1,
        "standard teleportation exactness",
        ok,
        f"max_prob_dev={max_prob_dev:.2e} min_fidelity={min_fid:.12f}",
    )


def test_criterion_2_dilated_measurement_equivalence():
    rng = np.random.default_rng(2025)
    projs = [
        np.outer(bell_state(lbl).amplitudes, bell_state(lbl).amplitudes.conj())
        for lbl in BUILDER_BELL_ORDER
    ]
    worst = 0.0
    for _ in range(200):
        alpha, beta = _random_unit_pair(rng)
        induced = pv.induced_povm(projs, qubit(alpha, beta).density())
        direct = pv.teleportation_povm(alpha, beta)
        for got, want in zip(induced.elements, direct.elements):
            worst = max(worst, float(np.max(np.abs(got - want))))
    # Worked example, spelled out as the block contraction it describes: the
    # (0,0) entry of the first element is the trace of the upper-left ancilla
    # block of the phi+ projector against the ancilla state.  For ancilla
    # (alpha, beta) that value is |alpha|^2 / 2; |beta|^2 / 2 appears instead
    # as the (0,0) entry of the psi-sector elements (indices 1 and 2).
    alpha, beta = 0.6, 0.8
    aux = qubit(alpha, beta).density()
    induced = pv.induced_povm(projs, aux)
    block = projs[0].reshape(2, 2, 2, 2)[0, :, 0, :]
    contraction = float(np.trace(block @ aux.matrix).real)
    entry_ok = (
        abs(induced.elements[0][0, 0] - contraction) < 1e-15
        and abs(contraction - 0.5 * alpha**2) < 1e-15
        and abs(induced.elements[1][0, 0] - 0.5 * beta**2) < 1e-15
        and abs(induced.elements[2][0, 0] - 0.5 * beta**2) < 1e-15
    )
    ok = worst < 1e-10 and entry_ok
    assert _report(
        2,
        "induced POVM equivalence",
        ok,
        f"max_entrywise_dev={worst:.2e} worked_entry={contraction:.6f}",
    )


def test_criterion_3_steering_consistency():
    rng = np.random.default_rng(2026)
    worst_residual = 0.0
    povms = [
        pv.projective((qubit(1, 0), qubit(0, 1)), ("0", "1")),
        pv.teleportation_povm(*_random_unit_pair(rng)),
        pv.discrimination_povm(SchmidtPair.from_a_squared(0.75)),
    ]
    for _ in range(30):
        shared = haar_random_state(4, rng)
        reduced = partial_trace(
            np.outer(shared.amplitudes, shared.amplitudes.conj()), (2, 2), "A"
        )
        for alice in povms:
            result = steering.steer(shared, alice)
            worst_residual = max(
                worst_residual, max_abs(result.realized_density() - reduced)
            )
    alpha, beta = 0.6, 0.8
    result = steering.steer(bell_state("psi-"), pv.teleportation_povm(alpha, beta))
    expected = [qubit(beta, -alpha), qubit(alpha, beta), qubit(alpha, -beta), qubit(beta, alpha)]
    states_ok = all(
        branch.bob_state.isclose_up_to_phase(want)
        for branch, want in zip(result.branches, expected)
    )
    probs_ok = bool(np.max(np.abs(result.probabilities - 0.25)) < 1e-12)
    ok = worst_residual < 1e-9 and states_ok and probs_ok
    assert _report(
        3,
        "ensemble steering consistency",
        ok,
        f"max_residual={worst_residual:.2e} telepovm_states_ok={states_ok}",
    )


def test_criterion_4_naive_partial_branch_statistics():
    rng = np.random.default_rng(2027)
    worst = 0.0
    for a2 in np.arange(0.5, 1.0 + 1e-9, 0.1):
        s = SchmidtPair.from_a_squared(float(a2))
        maps = pr.naive_maps(s)
        for _ in range(50):
            phi = haar_random_qubit(rng)
            rec = maps.records(phi)[0]
            worst = max(
                worst,
                abs(rec.probability - pr.naive_phi_plus_probability(phi, s)),
                abs(rec.fidelity - pr.naive_phi_plus_fidelity(phi, s)),
            )
    phi = qubit(1 / np.sqrt(2), 1 / np.sqrt(2))
    spot = pr.naive_maps(SchmidtPair.from_a_squared(0.8)).records(phi)[0]
    spot_ok = abs(spot.fidelity - 0.9) < 1e-10 and abs(spot.probability - 0.25) < 1e-10
    ok = worst < 1e-10 and spot_ok
    assert _report(
        4,
        "plain Bell measurement over partial resource",
        ok,
        f"max_formula_dev={worst:.2e} spot_fidelity={spot.fidelity:.12f}",
    )


def test_criterion_5_conclusive_teleportation():
    rng = np.random.default_rng(2028)
    min_fid = 1.0
    worst_success_dev = 0.0
    for a2 in np.linspace(0.5, 0.99, 8):
        s = SchmidtPair.from_a_squared(float(a2))
        maps = pr.conclusive_maps(s)
        for _ in range(10):
            phi = haar_random_qubit(rng)
            records = maps.records(phi)
            success = sum(r.probability for r in records if r.success)
            worst_success_dev = max(
                worst_success_dev, abs(success - pr.conclusive_success_probability(s))
            )
            for r in records:
                if r.success and r.probability > 0:
                    min_fid = min(min_fid, r.fidelity)
    mc = pr.conclusive_monte_carlo(SchmidtPair.from_a_squared(0.8), trials=100_000, seed=7)
    sigma = np.sqrt(0.4 * 0.6 / 100_000)
    mc_ok = abs(mc.empirical_rate - 0.4) <= 3 * sigma
    ok = (
        min_fid >= 1 - 1e-10
        and worst_success_dev < 1e-12
        and mc_ok
        and mc.wrong_outcomes == 0
    )
    assert _report(
        5,
        "conclusive teleportation",
        ok,
        f"min_success_fid={min_fid:.12f} mc_rate={mc.empirical_rate:.5f} "
        f"wrong={mc.wrong_outcomes}",
    )


def test_criterion_6_quasi_conclusive_filtering():
    worst_state = 0.0
    worst_prob = 0.0
    for p in np.arange(0.1, 0.95, 0.1):
        for n in (1, 2, 4, 16, 256):
            post, prob = pr.bilocal_filter(mixed_resource(float(p)), pr.FilterParams.from_n(n))
            p_prime = pr.p_prime_after_filter(float(p), n)
            worst_state = max(worst_state, max_abs(post.matrix - mixed_resource(p_prime).matrix))
            worst_prob = max(worst_prob, abs(prob - pr.filter_success_probability(float(p), n)))
    post, prob = pr.bilocal_filter(mixed_resource(0.5), pr.FilterParams.from_n(4))
    spot_ok = (
        abs(pr.p_prime_after_filter(0.5, 4) - 0.8) < 1e-12 and abs(prob - 0.15625) < 1e-12
    )
    # the planner's rows as the CLI prints them
    rows = []
    for eps in (0.1, 0.01, 0.001):
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(["quasi", "--p", "0.5", "--epsilon", repr(eps),
                             "--format", "json"]) == 0
        rows += json.loads(out.getvalue())
    closeness_ok = all(r["avg_fidelity"] >= 1 - eps for r, eps in zip(rows, (0.1, 0.01, 0.001)))
    succ = [r["success_prob"] for r in rows]
    decreasing_ok = succ[0] > succ[1] > succ[2] > 0
    ok = worst_state < 1e-12 and worst_prob < 1e-12 and spot_ok and closeness_ok and decreasing_ok
    assert _report(
        6,
        "quasi-conclusive filtering",
        ok,
        f"max_state_dev={worst_state:.2e} max_prob_dev={worst_prob:.2e} "
        f"success_probs={[f'{x:.2e}' for x in succ]}",
    )


def test_criterion_7_povm_validity_suite():
    rng = np.random.default_rng(2029)
    builders_ok = True
    for _ in range(50):
        alpha, beta = _random_unit_pair(rng)
        p = pv.teleportation_povm(alpha, beta)
        builders_ok &= pv.min_eigenvalue(p.elements) >= -1e-9
        builders_ok &= pv.completeness_residual(p.elements) < 1e-9
    for a2 in np.linspace(0.5, 1.0, 11):
        p = pv.discrimination_povm(SchmidtPair.from_a_squared(float(a2)))
        builders_ok &= pv.min_eigenvalue(p.elements) >= -1e-9
        builders_ok &= pv.completeness_residual(p.elements) < 1e-9
    # without the 1/(2 a^2) factor the three discrimination operators are
    # complete only at a^2 = 1/2 (regression guard for the normalization)
    erratum_ok = True
    for a2 in (0.6, 0.75, 0.9):
        s = SchmidtPair.from_a_squared(a2)
        raw = [
            np.array([[s.b**2, s.a * s.b], [s.a * s.b, s.a**2]]),
            np.array([[s.b**2, -s.a * s.b], [-s.a * s.b, s.a**2]]),
            np.diag([1 - s.b**2 / s.a**2, 0.0]),
        ]
        erratum_ok &= pv.completeness_residual(raw) > 1e-9
    ok = builders_ok and erratum_ok
    assert _report(
        7,
        "POVM validity suite",
        ok,
        f"builders_ok={builders_ok} unnormalized_incomplete={erratum_ok}",
    )


def test_criterion_8_cli_determinism(tmp_path):
    args = ["conclusive", "--a2", "0.8", "--trials", "5000", "--seed", "11"]
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli.main(args + ["--out", str(p1)]) == 0
    assert cli.main(args + ["--out", str(p2)]) == 0
    identical = p1.read_bytes() == p2.read_bytes()

    q = tmp_path / "quasi.csv"
    assert cli.main(["quasi", "--p", "0.1:0.9:0.1", "--n", "4", "--out", str(q)]) == 0
    lines = q.read_text().splitlines()
    assert lines[0] == "# schema=1"
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    analytic_ok = True
    for row in rows:
        p = float(row["p"])
        analytic_ok &= abs(float(row["p_prime"]) - pr.p_prime_after_filter(p, 4)) < 1e-12
        analytic_ok &= (
            abs(float(row["success_prob"]) - pr.filter_success_probability(p, 4)) < 1e-12
        )
    ok = identical and analytic_ok
    assert _report(
        8,
        "CLI determinism",
        ok,
        f"byte_identical={identical} analytic_columns_ok={analytic_ok}",
    )

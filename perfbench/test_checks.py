"""The benchmark's checks pass on real outputs and fail on deliberately wrong ones.

Run with: PYTHONPATH=src python -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import hashlib
import json
import math

import numpy as np
import pytest

import carvesim as cv
import checks
import inproc
from carvesim import cli


def _mc_case(trials=4000, seed=11):
    spec = cv.ProtocolSpec("single", cv.BellKind.PSI_PLUS, alpha=1.2)
    exact = inproc.exact_summary(cv.run_protocol(spec), spec.target)
    mc = inproc.mc_summary(cv.monte_carlo_run(spec, trials, seed))
    return mc, exact


def test_pooled_fidelity_passes_and_catches_a_shift():
    runs = []
    for seed in range(4):
        mc, exact = _mc_case(trials=8000, seed=seed)
        runs.append((mc["heralded"], mc["mean_fidelity"], mc["fidelity_stderr"]))
    assert sum(r[0] for r in runs) >= checks.MIN_POOLED_HERALDS
    assert checks.pooled_fidelity(runs, exact["fidelity"], "real") == []
    assert checks.pooled_fidelity(runs, exact["fidelity"] + 0.03, "shifted")
    # too few heralds to judge: no verdict either way
    assert checks.pooled_fidelity(runs[:1], exact["fidelity"] + 0.03, "small") == []


def test_mc_check_catches_wrong_counts_and_d_fractions():
    mc, exact = _mc_case()
    assert checks.mc_against_exact(mc, exact, "real") == []
    lost = dict(mc, heralded=mc["heralded"] - 1)
    assert checks.mc_against_exact(lost, exact, "heralded != last step")
    d = exact["d_fractions"][0]
    assert checks.mc_against_exact(mc, dict(exact, d_fractions=[0.5 * d]), "d-fraction")
    assert checks.mc_against_exact(mc, dict(exact, efficiency=0.5 * exact["efficiency"]), "eff")


def test_binomial_bound_holds_for_expected_counts_below_one():
    assert checks.binomial(3, 20000, 7e-6, "rare") == []
    assert checks.binomial(40, 20000, 7e-6, "far too many")
    assert checks.binomial(0, 50000, 0.003, "none at all")


def test_ideal_closed_forms():
    pts = [(cv.ProtocolSpec("double", cv.BellKind.PHI_MINUS), cv.PulseConfig(nbar=0.7)),
           (cv.ProtocolSpec("single", cv.BellKind.PHI_PLUS, alpha=2.0), cv.PulseConfig())]
    assert inproc.ideal_limit_problems(pts) == []
    assert checks.ideal_double([0.75, 2 / 3], 0.5, 1.0 - 1e-6, "F") != []
    alpha = 2.0
    c = math.cos(alpha / 2)
    assert checks.ideal_single(alpha, 1 - c**4, 4 * c * c / (3 + math.cos(alpha)), "ok") == []
    assert checks.ideal_single(alpha, 1 - c**2, 4 * c * c / (3 + math.cos(alpha)), "eta") != []


def test_tomography_check_passes_and_catches_shifts():
    wl = inproc.ExactTomography(seed=3)
    item = wl.inputs[5]
    tag, op = wl.summarize(item, wl.run(item, 0), 0)
    assert checks.tomography(op, tag) == []
    assert checks.tomography(dict(op, bell_fidelity=op["bell_fidelity"] + 1e-6), "F")
    assert checks.tomography(dict(op, husimi_integral=op["husimi_integral"] + 0.01), "Q")
    wrong = "phi_plus" if op["target"].startswith("psi") else "psi_plus"
    assert checks.tomography(dict(op, target=wrong), "tau")


def test_detect_check_passes_and_catches_a_wrong_row_sum():
    rates = {"transmission_means": [9.0, 1.0, 0.3], "fluorescence_means": [6.0, 3.0, 0.03],
             "transmission_threshold": 3, "fluorescence_threshold": 0}
    matrix = cv.confusion_matrix(cv.DetectionRates(), 20000, 5).tolist()
    assert checks.detect_matrix(matrix, rates, 20000, "real") == []
    bad = copy.deepcopy(matrix)
    bad[1][2] += 0.001
    assert any("sums to" in p for p in checks.detect_matrix(bad, rates, 20000, "sum"))
    swapped = [row[1::-1] + row[2:] for row in matrix]
    assert checks.detect_matrix(swapped, rates, 20000, "swapped")


@pytest.fixture
def cli_outputs(tmp_path):
    def run(*argv):
        assert cli.main(list(argv)) == 0
        return {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}

    return tmp_path, run


def test_cli_byte_check_catches_a_changed_byte(cli_outputs):
    tmp, run = cli_outputs
    argv = ("parity", "--n-phases", "12", "--out", str(tmp / "parity.csv"))
    first = {k: hashlib.sha256(v).hexdigest() for k, v in run(*argv).items()}
    again = run(*argv)
    assert checks.same_bytes(first, {k: hashlib.sha256(v).hexdigest() for k, v in again.items()}, "p") == []
    flipped = bytearray(again["parity.csv"])
    flipped[-2] ^= 1
    again["parity.csv"] = bytes(flipped)
    assert checks.same_bytes(first, {k: hashlib.sha256(v).hexdigest() for k, v in again.items()}, "p")
    assert checks.cli_exit(0, b"", "ok") == []
    assert checks.cli_exit(0, b"warning", "stderr")


def test_parity_and_husimi_file_checks(cli_outputs):
    tmp, run = cli_outputs
    files = run("parity", "--n-phases", "12", "--out", str(tmp / "parity.csv"))
    rows = [[float(v) for v in line.split(",")]
            for line in files["parity.csv"].decode().splitlines() if not line.startswith("#")]
    fit = json.loads(files["parity.json"])
    phases, values = [r[0] for r in rows], [r[1] for r in rows]
    assert checks.parity_curve(phases, values, fit, "real") == []
    assert checks.parity_curve(phases, values, dict(fit, re_upup_dndn=fit["re_upup_dndn"] + 1e-3), "x")
    grid = cv.husimi_grid(cv.bell_state(cv.BellKind.PSI_PLUS), 10, 20)
    q_rows = [(grid.theta[i], grid.phi[j], grid.q[i, j]) for i in range(10) for j in range(20)]
    assert checks.husimi_rows(q_rows, 10, 20, grid.integral, "real") == []
    assert checks.husimi_rows(q_rows, 10, 20, grid.integral * 1.01, "scaled")
    assert np.isclose(grid.integral, 1.0, atol=checks.husimi_quadrature_tol(10))

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import carvesim

from carvesim import (
    BellKind,
    CoherenceFit,
    DetectionRates,
    FitFailedError,
    NoiseModel,
    ParityScan,
    ProtocolSpec,
    ReflectionModel,
    RotationSpec,
    UnderdeterminedScanError,
    bell_fidelity,
    bell_state,
    classify,
    confusion_matrix,
    fidelity,
    fit_parity,
    gaussian_lifetime_fit,
    global_rotation,
    husimi_grid,
    husimi_q,
    mollweide,
    parity_closed_form,
    parity_of,
    populations,
    run_protocol,
    symmetric_projector,
    wait_evolution,
)

Q_SCALE = 3.0 / (4.0 * np.pi)


# --- parity ----------------------------------------------------------------


def test_operational_parity_equals_closed_form(make_state, rng):
    for _ in range(50):
        st = make_state()
        for phi in rng.uniform(0.0, 2 * np.pi, 4):
            assert parity_of(st, phi) == pytest.approx(
                parity_closed_form(st, phi), abs=1e-12
            )


def test_parity_of_is_bitwise_the_rotated_state_parity():
    # the parity read off the diagonal of a validated, rotated state
    carved = run_protocol(ProtocolSpec()).state
    states = [bell_state(kind) for kind in BellKind] + [carved]
    for st in states:
        for phi in np.linspace(0.0, 2 * np.pi, 24, endpoint=False):
            rotated = global_rotation(st, RotationSpec(np.pi / 2 - phi, np.pi / 2))
            d = rotated.rho.diagonal().real
            assert parity_of(st, phi) == float(d[0] + d[3] - d[1] - d[2])


def test_parity_of_bell_states():
    # the triplet oscillates with full contrast, the singlet not at all
    assert parity_of(bell_state(BellKind.PSI_PLUS), 0.0) == pytest.approx(1.0)
    assert parity_of(bell_state(BellKind.PSI_MINUS), 0.4) == pytest.approx(-1.0)
    # phi- sees -cos(2 phi): a node at pi/4, full contrast at pi/2
    phi_m = bell_state(BellKind.PHI_MINUS)
    assert parity_of(phi_m, 0.0) == pytest.approx(-1.0)
    assert parity_of(phi_m, np.pi / 4) == pytest.approx(0.0, abs=1e-12)
    assert parity_of(phi_m, np.pi / 2) == pytest.approx(1.0)


def test_fit_recovers_coherences(make_state):
    st = make_state()
    fit = fit_parity(ParityScan.of_state(st, 16))
    assert fit.re_updn_dnup == pytest.approx(st.rho[1, 2].real, abs=1e-10)
    assert fit.im_upup_dndn == pytest.approx(st.rho[0, 3].imag, abs=1e-10)
    assert fit.re_upup_dndn == pytest.approx(st.rho[0, 3].real, abs=1e-10)
    assert fit.residual < 1e-10


def test_underdetermined_scan_raises():
    # phases 0 and pi alias under the 2-phi harmonics
    with pytest.raises(UnderdeterminedScanError):
        fit_parity(ParityScan(np.array([0.0, np.pi / 2, np.pi]), np.zeros(3)))


def test_scan_validation():
    with pytest.raises(ValueError):
        ParityScan(np.array([0.0, 0.0, 1.0]), np.zeros(3))


def test_unphysical_fit_rejected():
    with pytest.raises(ValueError):
        CoherenceFit(0.7, 0.0, 0.0, 0.0)


def test_bell_fidelity_from_populations_and_fit():
    fit = CoherenceFit(re_updn_dnup=0.40, im_upup_dndn=0.0, re_upup_dndn=0.0, residual=0.0)
    f = bell_fidelity((0.05, 0.12, 0.83), fit, BellKind.PSI_PLUS)
    assert f == pytest.approx(0.815, abs=1e-12)
    f_minus = bell_fidelity((0.05, 0.12, 0.83), fit, BellKind.PSI_MINUS)
    assert f_minus == pytest.approx(0.415 - 0.40, abs=1e-12)


def test_bell_fidelity_consistency_on_exact_states(make_state):
    st = make_state()
    fit = fit_parity(ParityScan.of_state(st, 16))
    for kind in BellKind:
        assert bell_fidelity(populations(st), fit, kind) == pytest.approx(
            fidelity(st, kind), abs=1e-9
        )


def test_bell_fidelity_rejects_inconsistent_populations():
    fit = CoherenceFit(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        bell_fidelity((0.5, 0.5, 0.5), fit, BellKind.PSI_PLUS)


# --- Husimi ----------------------------------------------------------------


def test_singlet_husimi_vanishes(rng):
    st = bell_state(BellKind.PSI_MINUS)
    for theta, phi in zip(rng.uniform(0, np.pi, 25), rng.uniform(0, 2 * np.pi, 25)):
        assert abs(husimi_q(st, theta, phi)) < 1e-12
    # the grid reads rho through sums of its entries, which cancel exactly
    for n_theta, n_phi in ((9, 14), (60, 120)):
        grid = husimi_grid(st, n_theta, n_phi)
        assert np.all(grid.q == 0.0) and grid.integral == 0.0


def test_husimi_peak_values():
    dd = np.zeros(4)
    dd[3] = 1.0
    from carvesim import TwoAtomState

    q_dd = husimi_q(TwoAtomState.from_vector(dd), np.pi, 0.0)
    assert q_dd == pytest.approx(Q_SCALE, abs=1e-12)
    phi_m = bell_state(BellKind.PHI_MINUS)
    assert husimi_q(phi_m, 0.0, 1.3) == pytest.approx(Q_SCALE / 2, abs=1e-12)
    assert husimi_q(phi_m, np.pi, 0.2) == pytest.approx(Q_SCALE / 2, abs=1e-12)


def test_husimi_grid_integral_is_symmetric_weight(make_state):
    proj = symmetric_projector()
    for _ in range(5):
        st = make_state()
        grid = husimi_grid(st, 80, 160)
        expect = np.trace(st.rho @ proj).real
        assert grid.integral == pytest.approx(expect, abs=1e-3)


def test_husimi_grid_matches_pointwise_q(make_state):
    for _ in range(3):
        st = make_state()
        for n_theta, n_phi in ((9, 14), (17, 33), (60, 120)):
            grid = husimi_grid(st, n_theta, n_phi)
            for i, theta in enumerate(grid.theta):
                for j, phi in enumerate(grid.phi):
                    assert abs(grid.q[i, j] - husimi_q(st, theta, phi)) <= 1e-14


def test_husimi_grid_shapes_and_projection():
    grid = husimi_grid(bell_state(BellKind.PHI_MINUS), 40, 80)
    assert grid.q.shape == (40, 80)
    assert grid.theta.shape == (40,)
    assert grid.phi.shape == (80,)
    assert grid.x.shape == grid.q.shape and grid.y.shape == grid.q.shape
    assert np.all(grid.q >= -1e-12)
    with pytest.raises(ValueError):
        husimi_grid(bell_state(BellKind.PHI_MINUS), 1, 80)


def test_mollweide_landmarks():
    x, y = mollweide(np.pi / 2, np.pi)
    assert (x, y) == (pytest.approx(0.0, abs=1e-12), pytest.approx(0.0, abs=1e-12))
    _, y_np = mollweide(0.0, np.pi)
    assert y_np == pytest.approx(np.sqrt(2.0), abs=1e-12)
    _, y_sp = mollweide(np.pi, np.pi)
    assert y_sp == pytest.approx(-np.sqrt(2.0), abs=1e-12)
    # full map is bounded by the 2 sqrt 2 x sqrt 2 ellipse
    thetas = np.linspace(0.0, np.pi, 31)
    phis = np.linspace(0.0, 2 * np.pi, 61)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    x, y = mollweide(tt, pp)
    assert np.all((x / (2 * np.sqrt(2))) ** 2 + (y / np.sqrt(2)) ** 2 <= 1 + 1e-9)


def _mollweide_full_grid(theta, phi):
    """Newton solve at every grid point, as husimi_grid ran it on full grids."""
    lat = np.pi / 2.0 - theta
    lon = phi - np.pi
    polar = np.abs(lat) >= np.pi / 2.0 - 1e-9
    t = np.where(polar, np.sign(lat) * np.pi / 2.0, lat.copy())
    rhs = np.pi * np.sin(lat)
    for _ in range(50):
        f = 2.0 * t + np.sin(2.0 * t) - rhs
        step = np.where(polar, 0.0, f / np.maximum(2.0 + 2.0 * np.cos(2.0 * t), 1e-12))
        t = t - step
        if np.max(np.abs(step)) < 1e-10:
            break
    return 2.0 * np.sqrt(2.0) / np.pi * lon * np.cos(t), np.sqrt(2.0) * np.sin(t)


@pytest.mark.parametrize("n_theta, n_phi", [(60, 120), (100, 200), (7, 3)])
def test_mollweide_per_row_is_bitwise_the_full_grid_solve(n_theta, n_phi):
    grid = husimi_grid(bell_state(BellKind.PHI_PLUS), n_theta, n_phi)
    shape = (n_theta, n_phi)
    x_full, y_full = _mollweide_full_grid(
        np.broadcast_to(grid.theta[:, None], shape), np.broadcast_to(grid.phi[None, :], shape)
    )
    x_row, y_row = mollweide(grid.theta[:, None], grid.phi[None, :])
    for x, y in ((grid.x, grid.y), (x_row, y_row)):
        assert x.shape == y.shape == shape
        assert np.array_equal(x, x_full) and np.array_equal(y, y_full)


def test_mollweide_equator_is_linear_in_longitude():
    phis = np.linspace(0.0, 2 * np.pi, 9)
    x, y = mollweide(np.full_like(phis, np.pi / 2), phis)
    np.testing.assert_allclose(y, 0.0, atol=1e-12)
    np.testing.assert_allclose(x, (2 * np.sqrt(2) / np.pi) * (phis - np.pi), atol=1e-10)


# --- lifetime fits ---------------------------------------------------------


def test_lifetime_fit_recovers_generator():
    times = np.linspace(0.0, 400.0, 60)
    for tau in (204.0, 134.0, 90.0):
        fids = 0.5 + 0.46 * np.exp(-((times / tau) ** 2))
        assert gaussian_lifetime_fit(times, fids) == pytest.approx(tau, rel=1e-6)


def test_lifetime_fit_flat_curve_is_infinite():
    times = np.linspace(0.0, 100.0, 12)
    assert gaussian_lifetime_fit(times, np.full(12, 0.93)) == np.inf


def test_lifetime_fit_input_validation():
    with pytest.raises(ValueError):
        gaussian_lifetime_fit([0.0, 1.0], [1.0, 0.9])
    with pytest.raises(ValueError):
        gaussian_lifetime_fit([0.0, 1.0, 1.0], [1.0, 0.9, 0.8])


def _profiled_residual(times, fids, tau, baseline=0.5):
    e = np.exp(-((times / tau) ** 2))
    y = fids - baseline
    r = y - (e @ y) / (e @ e) * e
    return r @ r


def test_lifetime_fit_is_a_least_squares_minimum_on_noisy_data():
    rng = np.random.default_rng(8)
    for tau, sigma, n in ((60.0, 0.02, 25), (134.0, 0.005, 40), (300.0, 0.03, 60)):
        times = np.linspace(0.0, 350.0, n)
        fids = 0.5 + 0.45 * np.exp(-((times / tau) ** 2)) + sigma * rng.normal(size=n)
        fit = gaussian_lifetime_fit(times, fids)
        assert fit == pytest.approx(tau, rel=0.2)
        best = _profiled_residual(times, fids, fit)
        for nudge in (1.0 - 1e-4, 1.0 + 1e-4):
            assert _profiled_residual(times, fids, fit * nudge) >= best


def test_lifetime_fit_is_mirror_symmetric_about_the_baseline():
    rng = np.random.default_rng(9)
    times = np.linspace(0.0, 300.0, 40)
    below = 0.5 - 0.4 * np.exp(-((times / 110.0) ** 2)) + 0.01 * rng.normal(size=40)
    mirror = 1.0 - below
    assert gaussian_lifetime_fit(times, below) == pytest.approx(
        gaussian_lifetime_fit(times, mirror), rel=1e-12
    )


def test_lifetime_fit_ill_posed_inputs_end_cleanly():
    # no decay inside the window runs tau away: the inf sentinel, not an overflow;
    # a decay that is over before the first sample leaves no minimum to converge to
    times = np.linspace(0.0, 300.0, 40)
    rising = 0.5 + 0.4 * (1.0 - np.exp(-((times / 100.0) ** 2)))
    noise = 0.5 + 0.01 * np.random.default_rng(5).normal(size=40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gaussian_lifetime_fit(times, rising) == np.inf
        assert gaussian_lifetime_fit(times, noise) == np.inf
        with pytest.raises(FitFailedError):
            gaussian_lifetime_fit(times, 0.5 + 0.4 * np.exp(-((times / 1.0) ** 2)))


def test_lifetime_fit_rejects_a_window_whose_later_samples_sit_at_the_baseline():
    # 0.5 + 0.4 exp(-t^2) rounds to 0.5 from the second sample on, and a
    # sample below the baseline does not stand above it either
    times = np.linspace(0.0, 300.0, 40)
    at_baseline = 0.5 + 0.4 * np.exp(-(times**2))
    below = at_baseline.copy()
    below[5] = 0.49
    for fids in (at_baseline, below, 1.0 - at_baseline, 1.0 - below):
        with pytest.raises(FitFailedError, match="too coarse to resolve the decay"):
            gaussian_lifetime_fit(times, fids)
    # later samples above the baseline run the search as before
    below[1:3] = 0.5 + np.array([2e-3, 1e-3])
    assert np.isfinite(gaussian_lifetime_fit(times, below))


def test_lifetime_fit_takes_a_sample_one_ulp_from_the_baseline_as_at_it():
    # the second sample rounds to one ulp above the baseline and the third to
    # the baseline: nothing after the earliest resolves the decay
    times = np.array([0.0, 100.0, 200.0])
    fids = np.array([0.9, np.nextafter(0.5, 1.0), 0.5])
    for data in (fids, 1.0 - fids):
        with pytest.raises(FitFailedError, match="too coarse to resolve the decay"):
            gaussian_lifetime_fit(times, data)


def test_lifetime_fit_from_one_usable_sample_starts_on_the_line_through_it():
    # only the second sample lies between the earliest and the 1e-6 floor of
    # the log-linear start, which then takes the line through those two
    # samples instead of a rank-deficient least-squares line
    times = np.array([0.0, 100.0, 600.0])
    for tau in (90.0, 134.0):
        fids = 0.5 + 0.4 * np.exp(-((times / tau) ** 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gaussian_lifetime_fit(times, fids) == pytest.approx(tau, abs=1e-9)


def test_singlet_outlives_triplet_outlives_phi():
    # common-mode noise dominates: uu-dd coherences die first
    noise = NoiseModel(sigma_common_2pi_khz=5.0, sigma_diff_2pi_khz=0.5)
    times = np.linspace(0.0, 250.0, 30)
    taus = {}
    for kind in (BellKind.PSI_MINUS, BellKind.PSI_PLUS, BellKind.PHI_MINUS):
        st = bell_state(kind)
        fids = [fidelity(wait_evolution(st, t, noise), kind) for t in times]
        taus[kind] = gaussian_lifetime_fit(times, np.array(fids))
    assert taus[BellKind.PSI_MINUS] >= taus[BellKind.PSI_PLUS]
    assert taus[BellKind.PSI_PLUS] > taus[BellKind.PHI_MINUS]


# --- state detection -------------------------------------------------------


def test_classifier_decision_tree():
    rates = DetectionRates()
    for t in range(10):
        for f in range(7):
            label = classify(t, f, rates)
            if t > rates.transmission_threshold:
                expect = "down_down" if f > rates.fluorescence_threshold else "inconsistent"
            else:
                expect = "antiparallel" if f > rates.fluorescence_threshold else "up_up"
            assert label == expect


def test_default_thresholds():
    rates = DetectionRates()
    assert rates.transmission_threshold == 3
    assert rates.fluorescence_threshold == 0


def test_confusion_matrix_shape_and_normalization():
    cm = confusion_matrix(DetectionRates(), 20000, 11)
    assert cm.shape == (3, 4)
    np.testing.assert_allclose(cm.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(cm >= 0)
    np.testing.assert_array_equal(cm, confusion_matrix(DetectionRates(), 20000, 11))


def test_confusion_matrix_tallies_classify():
    # replay the matrix's Poisson draws and classify each pair one by one
    rates = DetectionRates(transmission_threshold=2, fluorescence_threshold=1)
    trials, seed = 500, 3
    gen = np.random.Generator(np.random.Philox(key=seed))
    expect = np.zeros((3, 4))
    assigned = ("down_down", "antiparallel", "up_up", "inconsistent")
    for i, cls in enumerate(("down_down", "antiparallel", "up_up")):
        t_mean, f_mean = rates.means_for(cls)
        ts, fs = gen.poisson(t_mean, size=trials), gen.poisson(f_mean, size=trials)
        for t, f in zip(ts, fs):
            expect[i, assigned.index(classify(int(t), int(f), rates))] += 1.0 / trials
    np.testing.assert_allclose(confusion_matrix(rates, trials, seed), expect, atol=1e-12)


def test_import_leaves_scipy_unloaded():
    # carvesim needs numpy alone, the lifetime fit included
    src = str(Path(carvesim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, numpy, carvesim, carvesim.cli\n"
        "t = numpy.linspace(0.0, 300.0, 40)\n"
        "carvesim.gaussian_lifetime_fit(t, 0.5 + 0.4 * numpy.exp(-(t / 134.0) ** 2))\n"
        "code = carvesim.cli.main(['lifetime'])\n"
        "print(code, 'scipy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines()[-1] == "0 False"


def test_array_dataclasses_compare_and_hash_by_identity():
    # equal array fields must not make == ambiguous: equality is identity
    makers = (
        ReflectionModel.ideal,
        lambda: ParityScan(np.array([0.0, 1.0, 2.0]), np.zeros(3)),
        lambda: husimi_grid(bell_state(BellKind.PSI_PLUS), 4, 6),
    )
    for make in makers:
        a, b = make(), make()
        assert (a == a) is True
        assert (a == b) is False
        assert len({a, b, a}) == 2


def test_rates_validation():
    with pytest.raises(ValueError):
        DetectionRates(transmission_means=(9.0, -1.0, 0.3))
    with pytest.raises(ValueError):
        DetectionRates(transmission_threshold=-1)

"""End-to-end acceptance checks, one test and one printed verdict per criterion.

Each criterion collects its sub-checks into a failure list so the verdict
line always states the full picture before the assert fires.
"""

import numpy as np

from carvesim import (
    BellKind,
    CavityParams,
    CoherenceFit,
    DetectionRates,
    NoiseModel,
    ParityScan,
    PreparationSpec,
    ProtocolSpec,
    PulseConfig,
    ReflectionModel,
    TwoAtomState,
    bell_fidelity,
    bell_state,
    classify,
    confusion_matrix,
    fidelity,
    fit_parity,
    gaussian_lifetime_fit,
    husimi_grid,
    husimi_q,
    monte_carlo_run,
    parity_closed_form,
    parity_of,
    run_protocol,
    symmetric_projector,
    wait_evolution,
)

IDEAL = ReflectionModel.ideal()
IDEAL_PULSE = PulseConfig(nbar=0.33, dark_prob=0.0, det_eff=1.0, mode_match=1.0)
PERFECT_PREP = PreparationSpec("down_down", 1.0)
MC_TRIALS = 100_000


def _verdict(number: int, name: str, failures: list[str], note: str = "") -> None:
    status = "FAIL" if failures else "PASS"
    tail = f"  ({note})" if note else ""
    print(f"criterion {number:2d} [{name}]: {status}{tail}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _random_density(rng) -> TwoAtomState:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return TwoAtomState(rho / np.trace(rho).real)


def test_criterion_01_closed_form_constants():
    failures: list[str] = []
    p = CavityParams()
    c1 = p.cooperativity(1)
    r = [p.reflection_amplitude(n) ** 2 for n in range(3)]
    r1 = p.reflection_amplitude(1)
    s1 = p.scattering_fraction(1)
    _check(failures, abs(c1 - 4.06) <= 0.01, f"C(1) = {c1:.6f} not within 4.06 +- 0.01")
    _check(failures, abs(r[0] - 0.706) <= 0.002, f"|r(0)|^2 = {r[0]:.6f} not within 0.706 +- 0.002")
    # The r(1) reference is the two-decimal amplitude 0.80: rounding half-width +-0.005.
    _check(failures, abs(r1 - 0.80) <= 0.005, f"r(1) = {r1:.6f} not within 0.80 +- 0.005")
    _check(failures, abs(r[2] - 0.798) <= 0.003, f"|r(2)|^2 = {r[2]:.6f} not within 0.798 +- 0.003")
    _check(failures, abs(s1 - 0.360) <= 0.002, f"s(1) = {s1:.6f} not within 0.360 +- 0.002")
    _verdict(
        1,
        "closed-form constants",
        failures,
        note=f"C(1)={c1:.4f}, r(1)={r1:.4f}, |r|^2={r[0]:.4f}/{r[1]:.4f}/{r[2]:.4f}, s(1)={s1:.4f}",
    )


def test_criterion_02_ideal_double_carving():
    failures: list[str] = []
    for nbar, det in ((0.2, 1.0), (1.0, 0.4)):
        pulse = PulseConfig(nbar=nbar, dark_prob=0.0, det_eff=det, mode_match=1.0)
        res = run_protocol(ProtocolSpec("double", prep=PERFECT_PREP), pulse, IDEAL)
        d1, d2 = (s.d_fraction for s in res.steps)
        tag = f"(nbar={nbar}, eta={det})"
        _check(failures, abs(d1 - 0.75) <= 1e-9, f"first d-fraction {d1!r} != 3/4 {tag}")
        _check(failures, abs(d2 - 2 / 3) <= 1e-9, f"second d-fraction {d2!r} != 2/3 {tag}")
        _check(failures, abs(res.success_prob - 0.5) <= 1e-9, f"success {res.success_prob!r} != 1/2 {tag}")
        f_plus = fidelity(res.state, BellKind.PSI_PLUS)
        _check(failures, abs(f_plus - 1.0) <= 1e-9, f"F(psi+) = {f_plus!r} {tag}")
        anti_spec = ProtocolSpec("double", BellKind.PSI_MINUS, prep=PreparationSpec("antiparallel", 1.0))
        anti = run_protocol(anti_spec, pulse, IDEAL)
        f_minus = fidelity(anti.state, BellKind.PSI_MINUS)
        _check(failures, abs(f_minus - 1.0) <= 1e-9, f"F(psi-) = {f_minus!r} {tag}")
    _verdict(2, "ideal double carving", failures, note="3/4, 2/3, 1/2 and unit fidelities")


def test_criterion_03_single_carving_tradeoff():
    failures: list[str] = []
    alphas = np.linspace(0.0, np.pi, 22)[1:-1]
    worst_eta = worst_f = 0.0
    for i, alpha in enumerate(alphas):
        eta = 1.0 - np.cos(alpha / 2) ** 4
        f = 4.0 * np.cos(alpha / 2) ** 2 / (3.0 + np.cos(alpha))
        res = run_protocol(ProtocolSpec("single", alpha=float(alpha)), IDEAL_PULSE, IDEAL)
        worst_eta = max(worst_eta, abs(res.success_prob - eta))
        worst_f = max(worst_f, abs(fidelity(res.state, BellKind.PSI_PLUS) - f))

        spec = ProtocolSpec("single", BellKind.PSI_PLUS, alpha=float(alpha), prep=PERFECT_PREP)
        mc = monte_carlo_run(spec, MC_TRIALS, 1300 + i, IDEAL_PULSE, IDEAL)
        se = np.sqrt(eta * (1.0 - eta) / mc.step_any_event[0])
        _check(
            failures,
            abs(mc.success_rate - eta) < 3.0 * se,
            f"MC efficiency at alpha={alpha:.3f}: {mc.success_rate:.5f} vs {eta:.5f} (3se={3 * se:.5f})",
        )
        # noise-free heralded trajectories all reach the same state
        tol = 3.0 * mc.fidelity_stderr + 1e-9
        _check(
            failures,
            abs(mc.mean_fidelity - f) < tol,
            f"MC fidelity at alpha={alpha:.3f}: {mc.mean_fidelity:.6f} vs {f:.6f}",
        )
    _check(failures, worst_eta <= 1e-9, f"exact efficiency off by {worst_eta:.2e}")
    _check(failures, worst_f <= 1e-9, f"exact fidelity off by {worst_f:.2e}")
    _verdict(
        3,
        "single carving trade-off",
        failures,
        note=f"20 angles, exact to {max(worst_eta, worst_f):.1e}, MC within 3 sigma",
    )


def test_criterion_04_photon_number_tradeoff():
    failures: list[str] = []
    s1 = CavityParams().scattering_fraction(1)
    nbars = np.linspace(0.02, 2.0, 30)

    def curve(nbar: float) -> float:
        pulse = PulseConfig(nbar=nbar, dark_prob=0.011, det_eff=1.0, mode_match=1.0)
        return fidelity(run_protocol(ProtocolSpec("double", prep=PERFECT_PREP), pulse).state, BellKind.PSI_PLUS)

    fs = np.array([curve(x) for x in nbars])
    peak = int(np.argmax(fs))
    _check(failures, 0 < peak < len(nbars) - 1, f"no interior maximum (argmax at index {peak})")
    f033 = curve(0.33)
    _check(failures, 0.75 <= f033 <= 0.92, f"F(0.33) = {f033:.4f} outside [0.75, 0.92]")
    # beyond the peak the curve decays toward the scattering-only prediction
    _check(failures, fs[-1] < fs[-5] < fs[peak], "no decay on the large-nbar side")
    oracle = 0.5 + 0.5 * np.exp(-2.0 * 2.0 * s1)
    rel = abs(fs[-1] - oracle) / oracle
    _check(failures, rel < 0.02, f"F(2) = {fs[-1]:.4f} vs scattering oracle {oracle:.4f} (rel {rel:.3f})")
    _verdict(
        4,
        "photon-number trade-off",
        failures,
        note=f"max at nbar={nbars[peak]:.3f}, F(0.33)={f033:.3f}, oracle gap {rel:.1%}",
    )


def test_criterion_05_weak_pulse_phi_minus():
    failures: list[str] = []
    pulse = PulseConfig(nbar=1.2, dark_prob=0.01, det_eff=1.0, mode_match=1.0)
    alphas = np.linspace(0.02 * np.pi, 0.63 * np.pi, 40)
    spec = ProtocolSpec("single", BellKind.PHI_MINUS, alpha=1.0)
    fs = np.array(
        [
            fidelity(run_protocol(ProtocolSpec("single", BellKind.PHI_MINUS, alpha=float(a)), pulse, None).state, BellKind.PHI_MINUS)
            for a in alphas
        ]
    )
    peak = int(np.argmax(fs))
    _check(failures, 0 < peak < len(alphas) - 1, f"no interior maximum (argmax at index {peak})")
    a_peak = alphas[peak]
    _check(
        failures,
        0.15 * np.pi <= a_peak <= 0.30 * np.pi,
        f"peak at alpha = {a_peak / np.pi:.3f} pi outside [0.15 pi, 0.30 pi]",
    )
    _check(failures, 0.60 <= fs[peak] <= 0.80, f"peak fidelity {fs[peak]:.4f} outside [0.60, 0.80]")
    _verdict(
        5,
        "weak-pulse phi- trade-off",
        failures,
        note=f"peak F={fs[peak]:.3f} at alpha={a_peak / np.pi:.3f} pi",
    )


def test_criterion_06_parity_machinery():
    failures: list[str] = []
    rng = np.random.default_rng(600)
    worst = 0.0
    for _ in range(1000):
        st = _random_density(rng)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        worst = max(worst, abs(parity_of(st, phi) - parity_closed_form(st, phi)))
    _check(failures, worst <= 1e-12, f"operational parity off closed form by {worst:.2e}")

    worst_fit = 0.0
    for _ in range(50):
        st = _random_density(rng)
        fit = fit_parity(ParityScan.of_state(st, 16))
        worst_fit = max(
            worst_fit,
            abs(fit.re_updn_dnup - st.rho[1, 2].real),
            abs(fit.im_upup_dndn - st.rho[0, 3].imag),
            abs(fit.re_upup_dndn - st.rho[0, 3].real),
        )
    _check(failures, worst_fit <= 1e-10, f"noiseless fit recovery off by {worst_fit:.2e}")

    fit = CoherenceFit(re_updn_dnup=0.40, im_upup_dndn=0.0, re_upup_dndn=0.0, residual=0.0)
    f_rec = bell_fidelity((0.05, 0.12, 0.83), fit, BellKind.PSI_PLUS)
    _check(failures, abs(f_rec - 0.815) <= 1e-12, f"reconstruction gave {f_rec!r}, want 0.815")
    _verdict(
        6,
        "parity machinery",
        failures,
        note=f"closed form to {worst:.1e}, fits to {worst_fit:.1e}, F=0.815",
    )


def test_criterion_07_husimi():
    failures: list[str] = []
    rng = np.random.default_rng(700)
    singlet = bell_state(BellKind.PSI_MINUS)
    q_max = max(
        abs(husimi_q(singlet, t, p))
        for t, p in zip(rng.uniform(0, np.pi, 100), rng.uniform(0, 2 * np.pi, 100))
    )
    _check(failures, q_max <= 1e-12, f"Q(psi-) reaches {q_max:.2e}")

    proj = symmetric_projector()
    worst_int = 0.0
    for _ in range(20):
        st = _random_density(rng)
        grid = husimi_grid(st, 100, 200)
        worst_int = max(worst_int, abs(grid.integral - np.trace(st.rho @ proj).real))
    _check(failures, worst_int <= 1e-3, f"sphere integral off by {worst_int:.2e}")

    dd = np.zeros(4)
    dd[3] = 1.0
    q_dd = husimi_q(TwoAtomState.from_vector(dd), np.pi, 0.7)
    _check(
        failures,
        abs(q_dd - 3.0 / (4.0 * np.pi)) <= 1e-12,
        f"Q(dd; theta=pi) = {q_dd!r}, want 3/(4 pi)",
    )
    _verdict(
        7,
        "Husimi distribution",
        failures,
        note=f"singlet <= {q_max:.1e}, integral err {worst_int:.1e}",
    )


def test_criterion_08_lifetimes():
    failures: list[str] = []
    singlet = bell_state(BellKind.PSI_MINUS)
    worst = 0.0
    for sigma in (0.3, 2.0, 15.0):
        noise = NoiseModel(sigma_common_2pi_khz=sigma, sigma_diff_2pi_khz=0.0)
        for t in (5.0, 80.0, 600.0):
            worst = max(worst, abs(fidelity(wait_evolution(singlet, t, noise), BellKind.PSI_MINUS) - 1.0))
    _check(failures, worst <= 1e-12, f"singlet moved by {worst:.2e} under common-mode noise")

    times = np.linspace(0.0, 400.0, 50)
    worst_rel = 0.0
    for tau in (204.0, 134.0, 90.0):
        fids = 0.5 + 0.44 * np.exp(-((times / tau) ** 2))
        got = gaussian_lifetime_fit(times, fids)
        worst_rel = max(worst_rel, abs(got - tau) / tau)
    _check(failures, worst_rel <= 0.02, f"synthetic tau recovery off by {worst_rel:.1%}")

    noise = NoiseModel(sigma_common_2pi_khz=5.0, sigma_diff_2pi_khz=0.25)
    taus = {}
    for kind in (BellKind.PSI_MINUS, BellKind.PSI_PLUS, BellKind.PHI_MINUS):
        st = bell_state(kind)
        fids = np.array([fidelity(wait_evolution(st, t, noise), kind) for t in np.linspace(0.0, 300.0, 40)])
        taus[kind] = gaussian_lifetime_fit(np.linspace(0.0, 300.0, 40), fids)
    _check(
        failures,
        taus[BellKind.PSI_MINUS] >= taus[BellKind.PSI_PLUS] - 1e-6,
        f"tau(psi-) = {taus[BellKind.PSI_MINUS]:.1f} < tau(psi+) = {taus[BellKind.PSI_PLUS]:.1f}",
    )
    _check(
        failures,
        taus[BellKind.PSI_PLUS] > taus[BellKind.PHI_MINUS],
        f"tau(psi+) = {taus[BellKind.PSI_PLUS]:.1f} <= tau(phi-) = {taus[BellKind.PHI_MINUS]:.1f}",
    )
    _verdict(
        8,
        "lifetimes and protected subspace",
        failures,
        note=f"tau fits to {worst_rel:.1e}, ordering "
        f"{taus[BellKind.PSI_MINUS]:.0f} >= {taus[BellKind.PSI_PLUS]:.0f} > {taus[BellKind.PHI_MINUS]:.0f} us",
    )


def test_criterion_09_monte_carlo_equivalence():
    failures: list[str] = []
    configs = [
        ("ideal double psi+", ProtocolSpec("double", BellKind.PSI_PLUS, prep=PERFECT_PREP), IDEAL_PULSE, IDEAL),
        ("ideal double psi-", ProtocolSpec("double", BellKind.PSI_MINUS, prep=PreparationSpec("antiparallel", 1.0)), IDEAL_PULSE, IDEAL),
        ("ideal single", ProtocolSpec("single", BellKind.PSI_PLUS, alpha=np.pi / 2, prep=PERFECT_PREP), IDEAL_PULSE, IDEAL),
        ("default double psi+", ProtocolSpec("double", BellKind.PSI_PLUS), PulseConfig(), None),
        ("default double phi-", ProtocolSpec("double", BellKind.PHI_MINUS), PulseConfig(), None),
        ("default single", ProtocolSpec("single", BellKind.PSI_PLUS, alpha=0.4 * np.pi), PulseConfig(), None),
    ]
    for i, (name, spec, pulse, cavity) in enumerate(configs):
        exact = run_protocol(spec, pulse, cavity)
        mc = monte_carlo_run(spec, MC_TRIALS, 9000 + i, pulse, cavity)
        f_exact = fidelity(exact.state, spec.target)
        tol = 3.0 * mc.fidelity_stderr + 1e-9
        _check(
            failures,
            abs(mc.mean_fidelity - f_exact) < tol,
            f"{name}: fidelity {mc.mean_fidelity:.5f} vs {f_exact:.5f} (tol {tol:.5f})",
        )
        # success rate compared through the per-step fractions it is built from
        rel_var = 0.0
        for k, step in enumerate(exact.steps):
            d = step.d_fraction
            n_any = mc.step_any_event[k]
            se_k = np.sqrt(d * (1.0 - d) / n_any)
            rel_var += (se_k / d) ** 2
            _check(
                failures,
                abs(mc.step_heralds[k] / n_any - d) < 3.0 * se_k,
                f"{name}: step {k + 1} d-fraction {mc.step_heralds[k] / n_any:.5f} vs {d:.5f}",
            )
        se_succ = exact.success_prob * np.sqrt(rel_var)
        _check(
            failures,
            abs(mc.success_rate - exact.success_prob) < 3.0 * se_succ + 1e-12,
            f"{name}: success {mc.success_rate:.5f} vs {exact.success_prob:.5f}",
        )
    _verdict(9, "Monte Carlo equivalence", failures, note="6 configs at 1e5 trials")


def test_criterion_10_state_detection():
    failures: list[str] = []
    rates = DetectionRates()
    mismatches = 0
    for t in range(10):
        for f in range(7):
            if t > rates.transmission_threshold:
                expect = "down_down" if f > rates.fluorescence_threshold else "inconsistent"
            else:
                expect = "antiparallel" if f > rates.fluorescence_threshold else "up_up"
            if classify(t, f, rates) != expect:
                mismatches += 1
    _check(failures, mismatches == 0, f"{mismatches} decision-tree mismatches")

    cm = confusion_matrix(rates, MC_TRIALS, 1000)
    diag = [cm[i, i] for i in range(3)]
    _check(failures, min(diag) >= 0.90, f"confusion diagonal {diag} dips below 0.90")
    _check(failures, cm[:, 3].max() < 0.01, f"inconsistent rate {cm[:, 3].max():.4f} >= 0.01")
    _verdict(
        10,
        "state detection",
        failures,
        note=f"diagonal {diag[0]:.3f}/{diag[1]:.3f}/{diag[2]:.3f}, inconsistent <= {cm[:, 3].max():.4f}",
    )

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from carvesim import (
    BellKind,
    CavityParams,
    NeverHeraldsError,
    NoiseModel,
    PreparationSpec,
    ProtocolSpec,
    PulseConfig,
    ReflectionModel,
    RotationSpec,
    TwoAtomState,
    bell_state,
    carve_step,
    fidelity,
    global_rotation,
    monte_carlo_run,
    prepare,
    project,
    renormalize,
    run_protocol,
    sigma_for_lifetime,
    single_carving_eta_ideal,
    single_carving_f_ideal,
    wait_evolution,
)
from carvesim.protocols import _build_ops, _default_model, _PulseTables
from carvesim.states import ATOM1_UP, ATOM2_UP, N_UP

IDEAL = ReflectionModel.ideal()
NOISELESS = PulseConfig(nbar=0.4, dark_prob=0.0, det_eff=1.0, mode_match=1.0)
PERFECT_PREP = PreparationSpec("down_down", 1.0)


# --- preparation -----------------------------------------------------------


def test_prepare_defaults_per_kind():
    assert PreparationSpec("down_down").prep_fidelity == 0.99
    assert PreparationSpec("antiparallel").prep_fidelity == 0.86
    assert PreparationSpec("pure_ud").prep_fidelity == 1.0


def test_prepare_mixes_in_white_noise():
    st = prepare(PreparationSpec("down_down", 0.8))
    diag = st.rho.diagonal().real
    np.testing.assert_allclose(diag, [0.05, 0.05, 0.05, 0.85], atol=1e-15)
    assert np.all(st.rho == np.diag(diag))


def test_prepare_antiparallel_is_incoherent_mixture():
    st = prepare(PreparationSpec("antiparallel", 1.0))
    np.testing.assert_allclose(
        st.rho, np.diag([0.0, 0.5, 0.5, 0.0]), atol=1e-15
    )


def test_prepare_rejects_unknown_kind():
    with pytest.raises(ValueError):
        PreparationSpec("sideways")
    with pytest.raises(ValueError):
        PreparationSpec("down_down", 1.5)


def test_pulse_config_validation():
    with pytest.raises(ValueError):
        PulseConfig(nbar=-0.1)
    with pytest.raises(ValueError):
        PulseConfig(dark_prob=1.0)
    with pytest.raises(ValueError):
        PulseConfig(det_eff=0.0)
    with pytest.raises(ValueError):
        PulseConfig(mode_match=0.0)


# --- one carving pulse -----------------------------------------------------


def test_first_pulse_carves_out_down_down():
    """Heralding on d removes the uncoupled |dd> component."""
    st = prepare(PERFECT_PREP)
    st = wait_evolution(st, 0.0, NoiseModel(0.0, 0.0))  # no-op, keeps type
    rot = RotationSpec("y", np.pi / 2)
    from carvesim import global_rotation

    out = carve_step(global_rotation(st, rot), NOISELESS, IDEAL)
    assert out.state.element("dd", "dd") == pytest.approx(0.0, abs=1e-12)
    assert out.d_fraction == pytest.approx(0.75, abs=1e-12)
    # uu keeps twice the weight of each antiparallel component
    assert out.state.element("uu", "uu") == pytest.approx(1 / 3, abs=1e-12)
    assert out.state.element("ud", "ud") == pytest.approx(1 / 3, abs=1e-12)


def test_carve_step_probability_accounting():
    st = prepare(PreparationSpec("down_down", 0.95))
    from carvesim import global_rotation

    out = carve_step(
        global_rotation(st, RotationSpec("y", np.pi / 2)), PulseConfig(), None
    )
    assert 0 < out.herald_prob < out.any_prob < 1
    assert out.d_fraction == pytest.approx(out.herald_prob / out.any_prob)
    # branch log covers the herald: dark-only weight plus detected-count tail
    assert sum(out.branch_log.values()) == pytest.approx(1.0, abs=1e-10)
    assert out.branch_log[0] == pytest.approx(
        PulseConfig().dark_prob * (1 - out.herald_prob) / ((1 - PulseConfig().dark_prob) * out.herald_prob),
        rel=1e-6,
    )


def test_count_table_agrees_with_the_per_n_expression():
    """count[n] agrees with overlap * quad * amp**n / n!, evaluated one n at a
    time, to 1e-12 relative wherever every factor of that expression is a
    normal float."""
    rng = np.random.default_rng(11)
    tiny = np.finfo(float).tiny
    compared = 0
    for _ in range(300):
        kappa = rng.uniform(0.5, 10.0)
        model = ReflectionModel.from_params(
            CavityParams(
                g_2pi_mhz=rng.uniform(0.0, 20.0),
                kappa_2pi_mhz=kappa,
                kappa_out_2pi_mhz=kappa * rng.uniform(0.05, 1.0),
                gamma_2pi_mhz=rng.uniform(0.5, 10.0),
            )
        )
        pulse = PulseConfig(
            nbar=300.0 * rng.random() ** 3,
            dark_prob=rng.uniform(0.0, 0.2),
            det_eff=rng.uniform(0.05, 1.0),
            mode_match=rng.uniform(0.05, 1.0),
        )
        delta = model.d_amp * np.sqrt(pulse.nbar * pulse.mode_match)
        amp = pulse.det_eff * np.outer(delta, delta)
        rate = float(np.max(pulse.det_eff * delta**2))
        n_max = max(8, int(np.ceil(rate + 12.0 * np.sqrt(rate + 1.0))))
        tables = _PulseTables(model, pulse)
        assert tables.n_max == n_max
        assert tables.count.shape == (n_max + 1, 4, 4)
        assert np.isfinite(tables.count).all()
        base = tables.count[0]  # overlap * quad, since amp**0 / 0! is exactly 1
        np.testing.assert_allclose(base.diagonal(), np.exp(-pulse.det_eff * delta**2), rtol=1e-15)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for n in range(min(n_max, 170) + 1):
                power = amp**n
                oracle = base * power / math.factorial(n)
                normal = (base >= tiny) & (power >= tiny) & (oracle >= tiny) & np.isfinite(oracle)
                np.testing.assert_allclose(tables.count[n][normal], oracle[normal], rtol=1e-12, atol=0)
                compared += int(normal.sum())
        np.testing.assert_array_equal(
            tables.pmf, tables.count[:, np.arange(4), np.arange(4)].T
        )
    assert compared > 50000


@pytest.mark.parametrize("nbar", [300.0, 305.0, 400.0, 800.0, 3500.0, 4000.0])
def test_count_table_sums_to_the_unconditional_multiplier(nbar):
    # past n = 170 (n!) or near it (amp**n) the per-n expression leaves the
    # float range, and from nbar of about 3 150 overlap * quad underflows;
    # the rows must stay finite and still sum over n to
    # overlap * no_click = herald_mult + (1 - dark) * count[0]
    pulse = PulseConfig(nbar=nbar)
    tables = _PulseTables(ReflectionModel.from_params(), pulse)
    assert np.isfinite(tables.count).all()
    np.testing.assert_allclose(
        tables.count.sum(axis=0),
        tables.herald_mult + (1.0 - pulse.dark_prob) * tables.count[0],
        rtol=0,
        atol=1e-12,
    )
    np.testing.assert_allclose(tables.pmf.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("nbar", [300.0, 305.0, 400.0, 3500.0, 4000.0])
def test_branch_log_covers_the_herald_at_large_nbar(nbar):
    pulse = PulseConfig(nbar=nbar)
    state = global_rotation(prepare(PreparationSpec("down_down")), RotationSpec("y", np.pi / 2))
    out = carve_step(state, pulse)
    weights = np.array(list(out.branch_log.values()))
    assert np.isfinite(weights).all()
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    n_max = _PulseTables(ReflectionModel.from_params(), pulse).n_max
    assert list(out.branch_log) == list(range(n_max + 1))


@pytest.mark.parametrize("nbar", [400.0, 800.0, 4000.0])
def test_monte_carlo_matches_the_exact_channel_past_the_float_range_of_n_factorial(nbar):
    # nbar = 400 needs photon counts up to n = 205, and nbar = 4 000 up to
    # n = 1 262, where overlap * quad underflows for the coupled branches
    spec = ProtocolSpec("double", BellKind.PSI_PLUS)
    pulse = PulseConfig(nbar=nbar)
    exact = run_protocol(spec, pulse)
    mc = monte_carlo_run(spec, 20000, 4000, pulse)
    eff_se = math.sqrt(exact.efficiency * (1.0 - exact.efficiency) / mc.trials)
    assert abs(mc.efficiency - exact.efficiency) < 4.0 * eff_se
    f_exact = fidelity(exact.state, BellKind.PSI_PLUS)
    assert abs(mc.mean_fidelity - f_exact) < 4.0 * mc.fidelity_stderr


def test_run_protocol_builds_the_reflection_model_once(monkeypatch):
    # the default cavity is built on first use and then shared by every run
    calls = []
    build = ReflectionModel.from_params.__func__

    def counted(cls, params=None):
        calls.append(params)
        return build(cls, params)

    monkeypatch.setattr(ReflectionModel, "from_params", classmethod(counted))
    _default_model.cache_clear()
    spec = ProtocolSpec("double", BellKind.PSI_PLUS)
    run_protocol(spec, PulseConfig())
    run_protocol(spec, PulseConfig(), None)
    run_protocol(spec, PulseConfig(), IDEAL)
    _default_model.cache_clear()
    assert len(calls) == 1


def test_run_protocol_builds_the_pulse_tables_once(monkeypatch):
    built = []

    class Counted(_PulseTables):
        __slots__ = ()

        def __init__(self, model, pulse):
            built.append(pulse)
            super().__init__(model, pulse)

    monkeypatch.setattr("carvesim.protocols._PulseTables", Counted)
    for scheme in ("double", "single"):
        built.clear()
        result = run_protocol(ProtocolSpec(scheme, BellKind.PSI_PLUS), PulseConfig())
        assert len(result.steps) == ProtocolSpec(scheme).n_pulses
        assert built == [PulseConfig()]


def test_carve_step_requires_normalized_state():
    sub = prepare(PERFECT_PREP)
    from carvesim import project

    with pytest.raises(ValueError):
        carve_step(project(sub, ("uu", "ud")), PulseConfig(), None)


def test_ideal_carve_step_is_the_dd_projection(make_state):
    # lossless cavity, perfect detector: a herald removes exactly the dd
    # component, with probability (1 - e^-nbar) times the coupled weight
    pulse = PulseConfig(nbar=0.7, dark_prob=0.0, det_eff=1.0, mode_match=1.0)
    for _ in range(5):
        st = make_state()
        out = carve_step(st, pulse, IDEAL)
        expect = renormalize(project(st, ("uu", "ud", "du")))
        np.testing.assert_allclose(out.state.rho, expect.rho, rtol=0, atol=1e-12)
        rho_dd = st.element("dd", "dd").real
        assert out.herald_prob == pytest.approx(
            (1 - np.exp(-pulse.nbar)) * (1 - rho_dd), abs=1e-12
        )


def test_never_heralds_without_photons_or_darks():
    st = prepare(PERFECT_PREP)
    with pytest.raises(NeverHeraldsError):
        carve_step(st, PulseConfig(nbar=0.0, dark_prob=0.0), None)


def test_dark_counts_alone_do_herald():
    st = prepare(PERFECT_PREP)
    out = carve_step(st, PulseConfig(nbar=0.0, dark_prob=0.05), None)
    assert out.herald_prob == pytest.approx(0.05)
    # a dark herald carries no information: state unchanged
    np.testing.assert_allclose(out.state.rho, st.rho, atol=1e-12)


# --- dephasing -------------------------------------------------------------


def test_wait_evolution_dephases_selected_coherences():
    noise = NoiseModel(sigma_common_2pi_khz=2.0, sigma_diff_2pi_khz=0.0)
    t = 40.0
    phi = wait_evolution(bell_state(BellKind.PHI_MINUS), t, noise)
    omega = 2 * np.pi * 2.0e-3
    expected = 0.5 * np.exp(-0.5 * t**2 * omega**2 * 4)  # uu-dd has delta_n = 2
    assert phi.element("uu", "dd").real == pytest.approx(-expected, abs=1e-12)
    # populations never move
    np.testing.assert_allclose(
        phi.rho.diagonal(), bell_state(BellKind.PHI_MINUS).rho.diagonal(), atol=1e-14
    )


def test_wait_evolution_is_bitwise_the_inline_formula():
    carved = run_protocol(ProtocolSpec()).state
    n = N_UP.astype(float)
    m = (ATOM1_UP - ATOM2_UP).astype(float)
    dn = n[:, None] - n[None, :]
    dm = m[:, None] - m[None, :]
    for noise in (NoiseModel(), NoiseModel(2.0, 0.7)):
        wc = 2.0 * np.pi * noise.sigma_common_2pi_khz * 1e-3
        wd = 2.0 * np.pi * noise.sigma_diff_2pi_khz * 1e-3
        for t in (0.0, 33.3, 300.0):
            decay = np.exp(-0.5 * (wc**2 * dn**2 + wd**2 * dm**2) * t**2)
            expected = TwoAtomState(carved.rho * decay).rho
            assert np.array_equal(wait_evolution(carved, t, noise).rho, expected)


def test_wait_evolution_keeps_each_noise_model_apart():
    # the decay rate is cached per model: alternating models must not share it
    phi, psi = bell_state(BellKind.PHI_MINUS), bell_state(BellKind.PSI_PLUS)
    t = 40.0
    for noise in (NoiseModel(2.0, 0.5), NoiseModel(0.5, 3.0)) * 2:
        wc = 2 * np.pi * noise.sigma_common_2pi_khz * 1e-3
        wd = 2 * np.pi * noise.sigma_diff_2pi_khz * 1e-3
        # uu-dd has delta_n = 2, ud-du has delta_m = 2
        outer = wait_evolution(phi, t, noise).element("uu", "dd").real
        inner = wait_evolution(psi, t, noise).element("ud", "du").real
        assert outer == pytest.approx(-0.5 * np.exp(-2.0 * wc**2 * t**2), rel=1e-12)
        assert inner == pytest.approx(0.5 * np.exp(-2.0 * wd**2 * t**2), rel=1e-12)


def test_sigma_for_lifetime_roundtrip():
    tau = 120.0
    noise = NoiseModel(sigma_common_2pi_khz=sigma_for_lifetime(tau), sigma_diff_2pi_khz=0.0)
    phi = wait_evolution(bell_state(BellKind.PHI_MINUS), tau, noise)
    # at t = tau the coherence has fallen by 1/e
    assert fidelity(phi, BellKind.PHI_MINUS) == pytest.approx(
        0.5 + 0.5 * np.exp(-1.0), abs=1e-12
    )


# --- full protocols --------------------------------------------------------


def test_ideal_double_carving_makes_triplet():
    res = run_protocol(ProtocolSpec("double", prep=PERFECT_PREP), NOISELESS, IDEAL)
    assert fidelity(res.state, BellKind.PSI_PLUS) == pytest.approx(1.0, abs=1e-12)
    assert res.steps[0].d_fraction == pytest.approx(0.75, abs=1e-12)
    assert res.steps[1].d_fraction == pytest.approx(2 / 3, abs=1e-12)
    assert res.success_prob == pytest.approx(0.5, abs=1e-12)


def test_ideal_antiparallel_makes_singlet():
    spec = ProtocolSpec("double", BellKind.PSI_MINUS, prep=PreparationSpec("antiparallel", 1.0))
    res = run_protocol(spec, NOISELESS, IDEAL)
    assert fidelity(res.state, BellKind.PSI_MINUS) == pytest.approx(1.0, abs=1e-12)


def test_final_rotation_reaches_phi_states():
    for target in (BellKind.PHI_MINUS, BellKind.PHI_PLUS):
        res = run_protocol(ProtocolSpec("double", target, prep=PERFECT_PREP), NOISELESS, IDEAL)
        assert fidelity(res.state, target) == pytest.approx(1.0, abs=1e-12)


def test_default_double_carving_reference_numbers():
    res = run_protocol(ProtocolSpec("double"))
    assert fidelity(res.state, BellKind.PSI_PLUS) == pytest.approx(
        0.774339020187153, abs=1e-9
    )
    assert res.success_prob == pytest.approx(0.42959679866958883, abs=1e-9)
    assert res.efficiency == pytest.approx(0.0032288599924228164, abs=1e-12)
    d1, d2 = (s.d_fraction for s in res.steps)
    assert d1 == pytest.approx(0.692867410006048, abs=1e-9)
    assert d2 == pytest.approx(0.620027428719499, abs=1e-9)


def test_single_carving_matches_closed_forms():
    for alpha in np.linspace(0.15, np.pi - 0.15, 9):
        res = run_protocol(ProtocolSpec("single", alpha=alpha), NOISELESS, IDEAL)
        # the click-conditioned efficiency, exact at any pulse strength
        assert res.success_prob == pytest.approx(
            single_carving_eta_ideal(alpha), abs=1e-12
        )
        assert fidelity(res.state, BellKind.PSI_PLUS) == pytest.approx(
            single_carving_f_ideal(alpha), abs=1e-12
        )
        assert res.eta_ideal == pytest.approx(1 - np.cos(alpha / 2) ** 4, abs=1e-12)
        assert res.f_ideal == pytest.approx(
            4 * np.cos(alpha / 2) ** 2 / (3 + np.cos(alpha)), abs=1e-12
        )


def test_single_carving_rejects_bad_angle():
    with pytest.raises(ValueError):
        ProtocolSpec("single", alpha=-0.1)
    with pytest.raises(ValueError):
        ProtocolSpec("single", alpha=np.pi + 0.1)


def test_protocol_spec_prep_defaults():
    assert ProtocolSpec("double", BellKind.PSI_PLUS).prep.kind == "down_down"
    assert ProtocolSpec("double", BellKind.PSI_MINUS).prep.kind == "antiparallel"
    assert ProtocolSpec("single", BellKind.PSI_PLUS).n_pulses == 1
    assert ProtocolSpec("double", BellKind.PSI_PLUS).n_pulses == 2
    with pytest.raises(ValueError):
        ProtocolSpec("single", BellKind.PSI_MINUS)
    with pytest.raises(ValueError):
        ProtocolSpec("triple", BellKind.PSI_PLUS)


# the seven protocol/target pairs, single carving at three excitation angles
WALK_SPECS = [ProtocolSpec("double", kind) for kind in BellKind] + [
    ProtocolSpec("single", kind, alpha=alpha)
    for kind in (BellKind.PSI_PLUS, BellKind.PHI_PLUS, BellKind.PHI_MINUS)
    for alpha in (np.pi / 2, 0.2, 3.0)
]


def _reference_walk(spec, pulse, cavity):
    """run_protocol as a loop of public calls: global_rotation and carve_step, op by op."""
    prep, ops = _build_ops(spec)
    state, steps = prepare(prep), []
    for op in ops:
        if op[0] == "rotate":
            state = global_rotation(state, op[1])
        else:
            steps.append(carve_step(state, pulse, cavity))
            state = steps[-1].state
    return state, steps


@pytest.mark.parametrize("cavity", [None, IDEAL], ids=["default", "ideal"])
@pytest.mark.parametrize(
    "spec", WALK_SPECS, ids=lambda s: f"{s.scheme}-{s.target.value}-{s.alpha:.3g}"
)
def test_run_protocol_is_bitwise_the_reference_walk(spec, cavity):
    for nbar in (0.02, 0.33, 2.0, 30.0, 300.0):
        pulse = PulseConfig(nbar=nbar)
        res = run_protocol(spec, pulse, cavity)
        state, steps = _reference_walk(spec, pulse, cavity)
        assert res.state.rho.tobytes() == state.rho.tobytes(), nbar
        assert res.efficiency == math.prod(s.herald_prob for s in steps)
        assert res.success_prob == math.prod(s.d_fraction for s in steps)
        assert len(res.steps) == len(steps)
        for got, want in zip(res.steps, steps):
            assert got.state.rho.tobytes() == want.state.rho.tobytes()
            fields = ("herald_prob", "d_fraction", "any_prob", "branch_log")
            assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]


def test_run_protocol_validates_only_the_states_it_returns(monkeypatch):
    # prepare, one state per step and the final state; the rotated states
    # between the ops stay raw arrays
    built = []
    init = TwoAtomState.__init__

    def counted(self, rho):
        built.append(1)
        init(self, rho)

    monkeypatch.setattr(TwoAtomState, "__init__", counted)
    for spec in WALK_SPECS:
        built.clear()
        run_protocol(spec, PulseConfig())
        assert len(built) == 2 + spec.n_pulses, spec


# --- Monte Carlo -----------------------------------------------------------


def test_monte_carlo_is_deterministic():
    spec = ProtocolSpec("double", BellKind.PSI_PLUS)
    a = monte_carlo_run(spec, 20000, 77, PulseConfig(), None)
    b = monte_carlo_run(spec, 20000, 77, PulseConfig(), None)
    for key in a.records:
        np.testing.assert_array_equal(a.records[key], b.records[key])
    assert a.mean_fidelity == b.mean_fidelity


# sha256 of each record array and the reprs of the summaries, computed with
# the per-trial engine that carried a density matrix for every trial; the
# fidelity digests and the summaries were pinned again once the prefix states
# were rotated with global_rotation's arithmetic and every count entry came
# from the log-form Poisson weight (the detection records kept their bits)
PINNED_RECORDS = [
    (
        ProtocolSpec("double", BellKind.PSI_PLUS), 77, 20000, PulseConfig(),
        {
            "herald": "20e3f11d328b9100b5f8fd341dcd7c7aed3f92ba317d0dc619a504ebf5ae60e4",
            "any_event": "e655610e376c60a5547f7d71faba05a081c06330bc8e51ed50c706077825a3c5",
            "n_d": "791a62626702610cc79bd89c400121bacc681dbc6a21077c27489a891ff642f3",
            "fidelity": "8b545effe962fec428e67942217a7dfb51d9f4fbcf55735f78bb1331550108be",
        },
        "0.7845020984751865", "0.020297754619088185",
    ),
    (
        ProtocolSpec("double", BellKind.PSI_MINUS), 9100, 20000, PulseConfig(),
        {
            "herald": "f3fe8fbe144ad8978cacb5c4d474f53c0a55f12d00609984183296ffc7243db6",
            "any_event": "899c3a8266e96050fb1554ccb6b863155fb5baae3c9448a4c33877488447e8b8",
            "n_d": "fb9b8230c9272ebd83144e20a9da650bdbb5d0dec391fcaba53cc90b56a89a92",
            "fidelity": "3905f78b894d9915ba5b787dda8d4f1ae517a9d0cd027654c8bd6af377c55251",
        },
        "0.701904957233355", "0.029286417745590626",
    ),
    (
        ProtocolSpec("single", BellKind.PHI_MINUS, alpha=np.pi / 2), 9, 20000, PulseConfig(),
        {
            "herald": "a359fadd605f787f5a516067e13c98eee462e0449f455ccf2395f30f2138c0fd",
            "any_event": "f75ba353f2a8f3065cfd23724550bae356c53c3d60e8f3fde67cbd279a5074c3",
            "n_d": "6d67cb227bed689c0fbb10ee1744d15e28e8d80ea68f1b67233ea4e16e9cea13",
            "fidelity": "034bc2a27ba3fe5f33d4f124801fcc93bb4f90d43005ceec32dc713497697021",
        },
        "0.5856911351219491", "0.001554768223369802",
    ),
    (
        ProtocolSpec("double", BellKind.PSI_PLUS), 2024, 20000, PulseConfig(nbar=30.0),
        {
            "herald": "2e5039db5edfd80127e3935433db80520a73bf328233de509bf96e2c0c9437f5",
            "any_event": "aee68be1fd21e43192d0c439736f0a7f6119b3fb8cae3dac522fcb3633b0621e",
            "n_d": "01caa8ff4fe50d987408318e1d29363b684c6ba31d10621e662cc9519e71f64d",
            "fidelity": "8983197837722a15c88d88a0bdd53137182962218cc911e1d4ee07e90f3b47ec",
        },
        "0.49524522896636997", "0.0004829822415825593",
    ),
    # computed with the record-prefix engine while it still compared each
    # count draw with its node's whole cdf row; at nbar = 250 most trials
    # draw a count and hundreds of prefix nodes are reached
    (
        ProtocolSpec("double", BellKind.PSI_PLUS), 250, 20000, PulseConfig(nbar=250.0),
        {
            "herald": "f49e5f7670e288516d82262a5465053281c288fa7ac683d45db56546d7005531",
            "any_event": "fb67091504b666f393f1530f351a3fa5ae5168228b9aa06dcce5835be0402356",
            "n_d": "278076f78f342d5bfc51b219b2ca04b3d61c9bfe546892d3a7ffc4ff7c194a55",
            "fidelity": "d09e51a3037eea91a8671e035acb6fbbb07da69d37a1af994a99f519468b63b3",
        },
        "0.49411066019994054", "0.0005367125321665498",
    ),
    # computed while the MC drew one row-major (trials, draws) matrix, before
    # it filled its draw columns 2 048 trials at a time; one block less one,
    # one block and one block plus one
    (
        ProtocolSpec("double", BellKind.PSI_PLUS), 77, 2047, PulseConfig(),
        {
            "herald": "878b8f09a1762759e01861c37637502ba4b1d2590fe530d817743402c5d6c1b1",
            "any_event": "abc0c9ede5c85ba068024a13fc775712ade5fc57ffaa1cd61b872823b5ceab12",
            "n_d": "3ca8b48d306e113b812cffded33c68b2eb509bfe1aca65fc2fe795f29546de78",
            "fidelity": "d80841ed8fd9ce3d654bb78b6a3e05bdfa66dd6ee7311287ed9e2b8832560040",
        },
        "0.6890246613345459", "0.0597611773131447",
    ),
    (
        ProtocolSpec("double", BellKind.PSI_PLUS), 77, 2048, PulseConfig(),
        {
            "herald": "fdb872906da7b6586eddbe03cf82c618d14b34f299ce43d7eb4969c8a2f2d1cb",
            "any_event": "fa6249a44a72ac7f76146a0e8e6b289baccba5b011104a223d4e9af413fda111",
            "n_d": "844657276c63df9865f4573730207895cb71051412a56effcf5462a353e123bd",
            "fidelity": "a2fdda1513590b57c1a997f13b9e93e3777380ba9010e5005e23061e47c28b90",
        },
        "0.6890246613345459", "0.0597611773131447",
    ),
    (
        ProtocolSpec("double", BellKind.PSI_PLUS), 77, 2049, PulseConfig(),
        {
            "herald": "7307169488ac218cc29f9f1adf9cc0a6c90c3495f120066c9439c6e14b399f5d",
            "any_event": "121043aa59cc27933a1811a8a81b712c11802bae1a10a43e1b6597d3cf25a285",
            "n_d": "11aa74bc06b623eeba540be2fe4907a75f912b49fbb7b317bb59d21fd064d28e",
            "fidelity": "705caff180e6c651f7964fc910d8ac48efc1d0455cc9fc92d638c6f455beeaa1",
        },
        "0.6890246613345459", "0.0597611773131447",
    ),
    (
        ProtocolSpec("single", BellKind.PHI_MINUS, alpha=np.pi / 2), 9, 2047, PulseConfig(),
        {
            "herald": "781148051c922e863dd8a7c6aece8793593129f199f09cb266cb44d86fe73feb",
            "any_event": "a8b131b051f677ec031a36643754ea0b32113957cbb5b8db0fe974b3ea91d61a",
            "n_d": "3f7eb28dc57747e4e6ec0e67c550a61b2df989494f23e475a861bc97f3b1dde6",
            "fidelity": "5f2ca18425eced7451bd69c87ca3091d179c6f05579368c400c269600d0eb1b6",
        },
        "0.5829480270847058", "0.005274269494780204",
    ),
    (
        ProtocolSpec("single", BellKind.PHI_MINUS, alpha=np.pi / 2), 9, 2048, PulseConfig(),
        {
            "herald": "f9b53a951728c4b2953d67685248089a0051ebcd1639e9c9029094e39833da4e",
            "any_event": "9ce09f7408b8ec9ae99455960a43d1e2362aa0cedd9b5bf231c0f4fa1dd3524d",
            "n_d": "66570211c639227b93ac2440603f34df5490c2de2ff70a388a3c8b489a2ac904",
            "fidelity": "1114cb5f453b057099cedbe86fecd6c3df325d5cc79133f9b581a6c60057f14f",
        },
        "0.5829480270847058", "0.005274269494780204",
    ),
    (
        ProtocolSpec("single", BellKind.PHI_MINUS, alpha=np.pi / 2), 9, 2049, PulseConfig(),
        {
            "herald": "8c5199125e54daa199a726db2a6163e587ab50edfd160a913058ec18ff05e32e",
            "any_event": "fcafe9d00c0cdfb6d603a30b5b4a4eaabc35ba6a976bd5ae097bf1323741fa5f",
            "n_d": "6f52f480324e820e5f5160d8c42a4c93489cda844dbee0aaf7e07e7f63716647",
            "fidelity": "bc5de1f45eb26eac2b57beff00191f5acc79ed20660bda1eb2a885c6cf227d60",
        },
        "0.5829480270847058", "0.005274269494780204",
    ),
]


@pytest.mark.parametrize(
    "spec, seed, trials, pulse, digests, mean, stderr",
    PINNED_RECORDS,
    ids=[
        "double-psi_plus-77",
        "double-psi_minus-9100",
        "single-phi_minus-9",
        "double-nbar30-2024",
        "double-nbar250-250",
        "double-psi_plus-77-2047",
        "double-psi_plus-77-2048",
        "double-psi_plus-77-2049",
        "single-phi_minus-9-2047",
        "single-phi_minus-9-2048",
        "single-phi_minus-9-2049",
    ],
)
def test_monte_carlo_records_are_pinned(spec, seed, trials, pulse, digests, mean, stderr):
    mc = monte_carlo_run(spec, trials, seed, pulse)
    got = {key: hashlib.sha256(mc.records[key].tobytes()).hexdigest() for key in digests}
    assert got == digests
    assert (repr(mc.mean_fidelity), repr(mc.fidelity_stderr)) == (mean, stderr)


def test_monte_carlo_different_seeds_differ():
    spec = ProtocolSpec("double", BellKind.PSI_PLUS)
    a = monte_carlo_run(spec, 5000, 1, PulseConfig(), None)
    b = monte_carlo_run(spec, 5000, 2, PulseConfig(), None)
    assert not np.array_equal(a.records["herald"], b.records["herald"])


def test_monte_carlo_matches_exact_channel():
    spec = ProtocolSpec("double", BellKind.PSI_PLUS, prep=PERFECT_PREP)
    pulse = PulseConfig()
    exact = run_protocol(spec, pulse, None)
    mc = monte_carlo_run(spec, 40000, 2024, pulse, None)
    f_exact = fidelity(exact.state, BellKind.PSI_PLUS)
    assert abs(mc.mean_fidelity - f_exact) < 3 * mc.fidelity_stderr + 1e-12
    # per-step d-fractions within 3 binomial sigma
    for k in range(2):
        d_exact = exact.steps[k].d_fraction
        n_any = mc.step_any_event[k]
        se = np.sqrt(d_exact * (1 - d_exact) / n_any)
        assert abs(mc.step_heralds[k] / n_any - d_exact) < 3 * se


def test_monte_carlo_ideal_single_is_exact_per_trial():
    spec = ProtocolSpec("single", BellKind.PSI_PLUS, alpha=np.pi / 2, prep=PERFECT_PREP)
    mc = monte_carlo_run(spec, 20000, 9, NOISELESS, IDEAL)
    # every heralded trajectory lands on the same pure state
    assert mc.mean_fidelity == pytest.approx(2 / 3, abs=1e-12)
    assert mc.fidelity_stderr == pytest.approx(0.0, abs=1e-12)
    eta = 1 - np.cos(np.pi / 4) ** 4
    se = np.sqrt(eta * (1 - eta) / mc.step_any_event[0])
    assert abs(mc.success_rate - eta) < 3 * se


def test_monte_carlo_records_shapes():
    spec = ProtocolSpec("double", BellKind.PSI_PLUS)
    mc = monte_carlo_run(spec, 1000, 3, PulseConfig(), None)
    assert mc.records["herald"].shape == (1000, 2)
    assert mc.records["n_d"].shape == (1000, 2)
    assert mc.records["fidelity"].shape == (1000,)
    assert mc.step_reached[0] == 1000
    assert mc.step_reached[1] == int(mc.records["herald"][:, 0].sum())
    assert mc.heralded == int(mc.records["herald"].all(axis=1).sum())


def test_monte_carlo_memory_does_not_grow_with_the_count_range():
    # a cdf row has n_max + 1 = 168 columns at nbar = 300, so gathering one
    # row per trial would take 27 MB; the call itself needs about 3 MiB
    spec = ProtocolSpec("double", BellKind.PSI_PLUS)
    pulse = PulseConfig(nbar=300.0)
    monte_carlo_run(spec, 20000, 5, pulse)
    tracemalloc.start()
    try:
        monte_carlo_run(spec, 20000, 5, pulse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20

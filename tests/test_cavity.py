import numpy as np
import pytest

from carvesim import CavityParams, ReflectionModel
from carvesim.cavity import DEFAULT_G, DEFAULT_GAMMA, DEFAULT_KAPPA, DEFAULT_KAPPA_OUT


def test_default_rates():
    p = CavityParams()
    assert (p.g_2pi_mhz, p.kappa_2pi_mhz) == (DEFAULT_G, DEFAULT_KAPPA)
    assert (p.kappa_out_2pi_mhz, p.gamma_2pi_mhz) == (DEFAULT_KAPPA_OUT, DEFAULT_GAMMA)
    assert (DEFAULT_G, DEFAULT_KAPPA, DEFAULT_KAPPA_OUT, DEFAULT_GAMMA) == (
        7.8,
        2.5,
        2.3,
        3.0,
    )


def test_cooperativity_scales_linearly_in_atom_number():
    p = CavityParams()
    c1 = p.cooperativity(1)
    assert c1 == pytest.approx(7.8**2 / (2 * 2.5 * 3.0))
    assert p.cooperativity(2) == pytest.approx(2 * c1)


def test_reflection_amplitude_signs():
    p = CavityParams()
    # empty cavity reflects near -1, coupled cavity flips the sign
    assert p.reflection_amplitude(0) == pytest.approx(-0.84)
    assert p.reflection_amplitude(1) > 0
    assert p.reflection_amplitude(2) > p.reflection_amplitude(1)
    # below g^2 = gamma (2 kappa_out - kappa) the coupled branch reflects with
    # the same sign as the empty cavity, so the pi phase is lost
    weak = CavityParams(g_2pi_mhz=0.5)
    assert weak.reflection_amplitude(1) < 0
    assert weak.reflection_amplitude(0) < 0


def test_reflection_amplitude_closed_form():
    p = CavityParams(g_2pi_mhz=5.0, kappa_2pi_mhz=2.0, kappa_out_2pi_mhz=1.5, gamma_2pi_mhz=4.0)
    for n in (0, 1, 2):
        expect = 1.0 - 2 * 1.5 * 4.0 / (n * 25.0 + 2.0 * 4.0)
        assert p.reflection_amplitude(n) == pytest.approx(expect, abs=1e-15)


def test_scattering_fraction_closed_form():
    p = CavityParams()
    g2, k, ko, gam = 7.8**2, 2.5, 2.3, 3.0
    for n in (1, 2):
        expect = 4 * ko * gam * n * g2 / (n * g2 + k * gam) ** 2
        assert p.scattering_fraction(n) == pytest.approx(expect, abs=1e-15)
    assert p.scattering_fraction(0) == 0.0


def test_flip_probability_two_routes_agree():
    """Interference of empty and coupled reflection equals the cooperativity form."""
    for params in (
        CavityParams(),
        CavityParams(g_2pi_mhz=3.0, kappa_2pi_mhz=1.0, kappa_out_2pi_mhz=0.9, gamma_2pi_mhz=6.0),
    ):
        for n in (1, 2):
            amp = 0.5 * (params.reflection_amplitude(0) - params.reflection_amplitude(n))
            c = params.cooperativity(n)
            via_c = (params.kappa_out_2pi_mhz / params.kappa_2pi_mhz * c / (c + 0.5)) ** 2
            assert params.flip_probability(n) == pytest.approx(amp**2, abs=1e-15)
            assert params.flip_probability(n) == pytest.approx(via_c, abs=1e-15)


def test_param_validation():
    with pytest.raises(ValueError):
        CavityParams(g_2pi_mhz=-1.0)
    with pytest.raises(ValueError):
        CavityParams(kappa_out_2pi_mhz=3.0)  # cannot outcouple more than kappa
    with pytest.raises(ValueError):
        CavityParams(gamma_2pi_mhz=0.0)


def test_model_tabulates_branch_amplitudes():
    m = ReflectionModel.from_params(CavityParams())
    r0 = CavityParams().reflection_amplitude(0)
    # dd couples zero atoms, ud/du couple one, uu couples two
    assert m.a_amp[3] == pytest.approx(r0)
    assert m.d_amp[3] == 0.0
    for b, n in ((0, 2), (1, 1), (2, 1)):
        rn = CavityParams().reflection_amplitude(n)
        assert m.a_amp[b] == pytest.approx(0.5 * (r0 + rn))
        assert m.d_amp[b] == pytest.approx(0.5 * (r0 - rn))


def test_model_loss_budget_nonnegative():
    m = ReflectionModel.from_params(CavityParams())
    assert np.all(m.loss >= -1e-12)
    np.testing.assert_allclose(m.a_amp**2 + m.d_amp**2 + m.loss, 1.0, atol=1e-12)


def test_ideal_model_flips_every_coupled_branch():
    m = ReflectionModel.ideal()
    np.testing.assert_allclose(np.abs(m.d_amp[:3]), 1.0, atol=1e-15)
    np.testing.assert_allclose(m.a_amp[:3], 0.0, atol=1e-15)
    assert m.a_amp[3] == pytest.approx(-1.0)
    np.testing.assert_allclose(m.scatter, 0.0, atol=1e-15)

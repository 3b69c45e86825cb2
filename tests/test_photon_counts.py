"""The photon-count table both engines read, against a photon-by-photon
oracle, the MC's sampler of it against the broadcast comparison it replaced,
and the MC's draw columns against the Generator draws they lay out."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carvesim import CavityParams, PulseConfig, ReflectionModel
from carvesim.protocols import (
    _DRAW_BLOCK,
    _draw_columns,
    _log_poisson,
    _photon_counts,
    _PulseTables,
)
from carvesim.states import ATOM1_UP, ATOM2_UP, N_UP

# r(N) and s(N) for N = 0, 1, 2 coupled atoms in the lossless strong-coupling
# limit: the empty cavity reflects with -1, a coupled one with +1
IDEAL_R_S = ((-1.0, 1.0, 1.0), (0.0, 0.0, 0.0))


def _photon_modes(r, s) -> np.ndarray:
    """(branch, mode) amplitudes by which one incident photon leaves each basis
    state: d, a, scattering by atom 1, by atom 2, and passive mirror loss.

    Built from the closed forms r(N) and s(N) alone: d and a are
    (r(0) -+ r(N)) / 2, s(N) is split evenly over the coupled atoms, and the
    passive part is what 1 - a**2 - d**2 leaves after s(N), clipped at 0. So a
    branch's photon budget, the sum of its squared amplitudes, exceeds 1
    where s(N) exceeds 1 - a**2 - d**2.
    """
    rows = []
    for n_up, up1, up2 in zip(N_UP, ATOM1_UP, ATOM2_UP):
        d, a = (r[0] - r[n_up]) / 2, (r[0] + r[n_up]) / 2
        atom = math.sqrt(s[n_up] / n_up) if n_up else 0.0
        passive = math.sqrt(max(1.0 - a * a - d * d - s[n_up], 0.0))
        rows.append([d, a, atom * up1, atom * up2, passive])
    return np.array(rows)


def _fock_mixture_counts(modes: np.ndarray, pulse: PulseConfig, n_max: int) -> np.ndarray:
    """count[k] of a phase-averaged coherent pulse, summed Fock state by Fock state.

    The mode-matched pulse holds n photons with Poisson probability P(n; nu),
    and each photon leaves by one mode, so the (b, b') coherence given k
    detected d photons is sum over n < 400 of P(n; nu) C(n, k) X**k T**(n - k):
    X = eta d d' for a detected photon and T, the sum of c c' over the other
    modes, for one that is not.
    """
    nu = pulse.nbar * pulse.mode_match
    d = modes[:, 0]
    x = pulse.det_eff * np.outer(d, d)
    t = (1.0 - pulse.det_eff) * np.outer(d, d) + modes[:, 1:] @ modes[:, 1:].T
    count = np.zeros((n_max + 1, 4, 4))
    p = math.exp(-nu)
    for n in range(400):
        if n:
            p *= nu / n
        for k in range(min(n, n_max) + 1):
            count[k] += p * math.comb(n, k) * x**k * t ** (n - k)
    return count


def _poisson_sum(nu: float, f: np.ndarray) -> np.ndarray:
    """sum over n < 400 of P(n; nu) f**n, elementwise: f**n is the chance that
    each of n photons has an outcome of per-photon probability f."""
    total, p = np.zeros_like(f), math.exp(-nu)
    for n in range(400):
        if n:
            p *= nu / n
        total += p * f**n
    return total


def _budget_one_case(cavity, noiseless, nbar):
    """(model, modes, pulse) where every branch's photon budget is 1: g = 20
    from CavityParams' closed forms, or the ideal cavity."""
    if cavity == "ideal":
        model, (r, s) = ReflectionModel.ideal(), IDEAL_R_S
    else:
        params = CavityParams(g_2pi_mhz=20.0)
        model = ReflectionModel.from_params(params)
        r = [params.reflection_amplitude(n) for n in range(3)]
        s = [params.scattering_fraction(n) for n in range(3)]
    pulse = PulseConfig(nbar=nbar)
    if noiseless:
        pulse = PulseConfig(nbar=nbar, dark_prob=0.0, det_eff=1.0, mode_match=1.0)
    modes = _photon_modes(r, s)
    np.testing.assert_allclose((modes**2).sum(axis=1), 1.0, rtol=0, atol=1e-15)
    return model, modes, pulse


BUDGET_ONE_CASES = pytest.mark.parametrize(
    "cavity, noiseless, nbar",
    [(c, q, n) for c in ("g20", "ideal") for q in (False, True) for n in (0.33, 3.0)],
)


@BUDGET_ONE_CASES
def test_count_table_is_the_fock_mixture_where_each_photon_budget_is_one(cavity, noiseless, nbar):
    model, modes, pulse = _budget_one_case(cavity, noiseless, nbar)
    tables = _PulseTables(model, pulse)
    oracle = _fock_mixture_counts(modes, pulse, tables.n_max)
    np.testing.assert_allclose(tables.count, oracle, rtol=1e-13, atol=0)
    # at the default cavity the ud and du budgets are 1.031, and the two
    # differ by 9e-3 relative at nbar 0.33 and 8e-2 at nbar 3: whether an a
    # photon scatters s(N) or s(N) / 2 is an open question of the model, so
    # that case is asserted neither way


@BUDGET_ONE_CASES
def test_herald_and_no_click_tables_are_the_fock_mixture_where_each_photon_budget_is_one(
    cavity, noiseless, nbar
):
    model, modes, pulse = _budget_one_case(cavity, noiseless, nbar)
    tables = _PulseTables(model, pulse)
    oracle = _fock_mixture_counts(modes, pulse, tables.n_max)
    dark, eta = pulse.dark_prob, pulse.det_eff
    # a herald is any count but a k = 0 without a dark count
    herald = oracle.sum(axis=0) - (1.0 - dark) * oracle[0]
    np.testing.assert_allclose(tables.herald_mult, herald, rtol=1e-13, atol=0)
    # no d click: no d photon detected out of the matched pulse, and no dark count
    no_d = (1.0 - dark) * np.diagonal(oracle[0])
    np.testing.assert_allclose(tables.p_no_d, no_d, rtol=1e-13, atol=0)
    # no a click: no a photon detected out of the matched pulse, nor out of
    # the unmatched part, which reaches the a detector whole
    nu = pulse.nbar * pulse.mode_match
    no_a = _poisson_sum(nu, 1.0 - eta * modes[:, 1] ** 2)
    no_a *= math.exp(-eta * pulse.nbar * (1.0 - pulse.mode_match))
    np.testing.assert_allclose(tables.p_no_a, no_a, rtol=1e-13, atol=0)
    # the default cavity stays asserted neither way, as for the count table


@st.composite
def count_draws(draw):
    """cdf rows with plateaus, a node per trial, and draws that tie, sit at 0
    or pass a row's last entry; sometimes no draw passes column 0.

    Hypothesis draws the sizes, the share of flat steps and a seed; numpy
    builds the arrays from the seed, which is far cheaper than drawing every
    entry through a strategy.
    """
    n_nodes = draw(st.integers(1, 6))
    width = draw(st.integers(1, 12))
    trials = draw(st.integers(1, 40))
    flat = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**64 - 1)))
    steps = rng.random((n_nodes, width))
    steps[rng.random((n_nodes, width)) < flat] = 0.0
    cdf = np.cumsum(steps, axis=1)
    node = rng.integers(0, n_nodes, trials)
    row = cdf[node]
    kind = rng.integers(0, 4, trials)
    col = rng.integers(0, width, trials)
    u = np.select(
        [kind == 0, kind == 1, kind == 2],
        [rng.random(trials), row[np.arange(trials), col], np.nextafter(row[:, -1], np.inf)],
        0.0,
    )
    if draw(st.booleans()):
        u = np.minimum(u, row[:, 0])
    return cdf, node, u


@settings(max_examples=400, deadline=None)
@given(count_draws())
def test_photon_counts_equal_the_broadcast_comparison(case):
    cdf, node, u = case
    n_max = cdf.shape[1] - 1
    want = np.sum(cdf[node] < u[:, None], axis=1).clip(0, n_max)
    assert np.array_equal(_photon_counts(cdf, node, u).clip(0, n_max), want)
    # as monte_carlo_run calls it: only the trials past column 0 are searched,
    # the rest keep a count of zero
    hit = np.flatnonzero(cdf[node, 0] < u)
    got = np.zeros(len(u), dtype=np.int64)
    got[hit] = np.minimum(_photon_counts(cdf, node[hit], u[hit]), n_max)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 2**63])
@pytest.mark.parametrize("width", [4, 7])
@pytest.mark.parametrize(
    "trials", [1, _DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1, 3 * _DRAW_BLOCK + 5]
)
def test_draw_columns_are_the_generator_draws_transposed(trials, width, seed):
    # pins (x >> 11) * 2**-53 of the raw Philox outputs to Generator.random
    want = np.random.Generator(np.random.Philox(key=seed)).random((trials, width)).T
    got = _draw_columns(seed, trials, width)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.flags.c_contiguous
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@st.composite
def cavities_and_pulses(draw):
    kappa = draw(st.floats(0.1, 100.0))
    cavity = CavityParams(
        g_2pi_mhz=draw(st.floats(0.0, 100.0)),
        kappa_2pi_mhz=kappa,
        kappa_out_2pi_mhz=draw(st.floats(0.0, kappa, exclude_min=True)),
        gamma_2pi_mhz=draw(st.floats(0.1, 100.0)),
    )
    pulse = PulseConfig(
        nbar=draw(st.floats(0.0, 5000.0)),
        dark_prob=draw(st.floats(0.0, 1.0, exclude_max=True)),
        det_eff=draw(st.floats(0.0, 1.0, exclude_min=True)),
        mode_match=draw(st.floats(0.0, 1.0, exclude_min=True)),
    )
    return ReflectionModel.from_params(cavity), pulse


@settings(max_examples=100, deadline=None)
@given(cavities_and_pulses())
def test_count_table_sums_to_the_unconditional_multiplier_at_any_nbar(case):
    model, pulse = case
    tables = _PulseTables(model, pulse)
    assert np.isfinite(tables.count).all()
    np.testing.assert_allclose(
        tables.count.sum(axis=0),
        tables.herald_mult + (1.0 - pulse.dark_prob) * tables.count[0],
        rtol=0,
        atol=1e-12,
    )
    np.testing.assert_allclose(tables.pmf.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("lam", [0.0, 0.3, 30.0, 1000.0, 3000.0, 4999.3, 5000.0])
def test_log_poisson_weights_sum_to_one(lam):
    # n log(lam) - lgamma(n + 1) - lam sums to 1 only within 3.9e-12 at
    # lam = 5 000; the table's log rows need the sum within 1e-12
    n_max = max(8, math.ceil(lam + 12.0 * math.sqrt(lam + 1.0)))
    pmf = np.exp(_log_poisson(n_max, np.array([[lam]])))[:, 0, 0]
    assert abs(pmf.sum() - 1.0) < 1e-13
    if lam <= 30.0:
        n = range(n_max + 1)
        direct = [math.exp(-lam) * lam**k / math.factorial(k) for k in n]
        np.testing.assert_allclose(pmf, direct, rtol=1e-13, atol=0)

"""The photon-count table both engines read, against a photon-by-photon
oracle, the MC's sampler of it against the broadcast comparison it replaced,
and the MC's draw columns against the Generator draws they lay out."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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


@pytest.mark.parametrize("nbar", [0.33, 3.0])
@pytest.mark.parametrize("noiseless", [False, True])
@pytest.mark.parametrize("cavity", ["g20", "ideal"])
def test_count_table_is_the_fock_mixture_where_each_photon_budget_is_one(cavity, noiseless, nbar):
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
    tables = _PulseTables(model, pulse)
    oracle = _fock_mixture_counts(modes, pulse, tables.n_max)
    np.testing.assert_allclose(tables.count, oracle, rtol=1e-13, atol=0)
    # at the default cavity the ud and du budgets are 1.031, and the two
    # differ by 9e-3 relative at nbar 0.33 and 8e-2 at nbar 3: whether an a
    # photon scatters s(N) or s(N) / 2 is an open question of the model, so
    # that case is asserted neither way


@st.composite
def count_draws(draw):
    """cdf rows with plateaus, a node per trial, and draws that tie, sit at 0
    or pass a row's last entry; sometimes no draw passes column 0."""
    n_nodes = draw(st.integers(1, 6))
    width = draw(st.integers(1, 12))
    entry = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    cdf = np.cumsum(draw(arrays(np.float64, (n_nodes, width), elements=entry)), axis=1)
    trials = draw(st.integers(1, 40))
    node = draw(arrays(np.int64, trials, elements=st.integers(0, n_nodes - 1)))
    row = cdf[node]
    kind = draw(arrays(np.int64, trials, elements=st.integers(0, 3)))
    free = draw(arrays(np.float64, trials, elements=st.floats(0.0, 1.0, exclude_max=True)))
    col = draw(arrays(np.int64, trials, elements=st.integers(0, width - 1)))
    u = np.select(
        [kind == 0, kind == 1, kind == 2],
        [free, row[np.arange(trials), col], np.nextafter(row[:, -1], np.inf)],
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

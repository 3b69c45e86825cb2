"""The photon-count table both engines read, the MC's sampler of it against
the broadcast comparison it replaced, and the MC's draw columns against the
Generator draws they lay out."""

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

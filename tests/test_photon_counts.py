"""The MC's photon-count sampler against the broadcast comparison it replaced."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from carvesim.protocols import _photon_counts


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

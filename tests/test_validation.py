"""TwoAtomState's one-pass validation against the checks it replaced, and the
per-value lookups of the tomography path."""

import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carvesim import BellKind, TwoAtomState, bell_vector, fidelity, parity_of
from carvesim import states
from carvesim.states import EIGENVALUE_FLOOR, HERMITICITY_TOL, _bell_pair, _pair_unitary_of


def reference_state(rho) -> tuple[np.ndarray, float]:
    """(rho, trace weight) as TwoAtomState validated them with one check per pass."""
    rho = np.array(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix contains non-finite entries")
    adjoint = rho.conj().T
    if np.abs(rho - adjoint).max() > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian within 1e-12")
    np.add(rho, adjoint, out=rho)
    np.multiply(0.5, rho, out=rho)
    eigs = np.linalg.eigvalsh(rho)
    if eigs[0] < EIGENVALUE_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {eigs[0]:.3e}")
    tr = rho.trace().real
    if tr > 1.0 + 1e-9:
        raise ValueError(f"trace weight {tr!r} exceeds 1")
    return rho, float(tr)


def validated(rho) -> tuple[np.ndarray, float]:
    state = TwoAtomState(rho)
    return state.rho, state.trace_weight


def outcome(validate, rho):
    try:
        return validate(rho)
    except ValueError as exc:
        return str(exc)


def unitary(rng) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return q


def with_spectrum(rng, eigs) -> np.ndarray:
    u = unitary(rng)
    return (u * np.asarray(eigs)) @ u.conj().T


def valid_rho(rng, rank: int, weight: float) -> np.ndarray:
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return weight * rho / rho.trace().real


def spectrum_rho(rng, kind: str) -> np.ndarray:
    """A Hermitian rho with its lowest eigenvalue at -2e-10, or its trace at 1 + 2e-9."""
    eigs = rng.dirichlet(np.ones(4))
    if kind == "negative eigenvalue":
        eigs[0] = -2e-10
    else:
        eigs *= 1.0 + 2e-9
    return with_spectrum(rng, eigs)


@st.composite
def inputs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(
        ["valid", "non-finite", "non-Hermitian", "negative eigenvalue", "trace above 1"]))
    if kind in ("negative eigenvalue", "trace above 1"):
        return kind, spectrum_rho(rng, kind)
    rho = valid_rho(rng, draw(st.integers(1, 4)), draw(st.floats(1e-6, 1.0)))
    if kind == "valid":
        return kind, rho
    if kind == "non-Hermitian" or draw(st.booleans()):
        # one entry off its mirror by 2e-12, in either part
        k, m = draw(st.sampled_from([(a, b) for a in range(4) for b in range(4) if a != b]))
        rho[k, m] += draw(st.sampled_from([2e-12, 2e-12j, -2e-12, -2e-12j]))
    if kind == "non-finite":
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        part = draw(st.sampled_from(["real", "imag"]))
        z = complex(bad, rho[i, j].imag) if part == "real" else complex(rho[i, j].real, bad)
        rho[i, j] = z
        if i != j and draw(st.booleans()):
            rho[j, i] = z.conjugate()  # the mirror too, so only the value is bad
    return kind, rho


@settings(max_examples=400, deadline=None)
@given(inputs())
def test_one_pass_validation_gives_the_reference_message_and_bits(case):
    kind, rho = case
    want = outcome(reference_state, rho)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = outcome(validated, rho)
    # the Hermiticity difference of two infinities of one sign is numpy's
    # "invalid value" warning; no other input warns
    assert all(kind == "non-finite" and "invalid value" in str(w.message) for w in caught)
    if isinstance(want, str):
        assert got == want, kind
        assert kind != "valid"
    else:
        assert not isinstance(got, str), (kind, got)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1]
        assert kind == "valid"


@pytest.mark.parametrize("rank", [1, 4])
def test_eigenvalue_kernel_is_bitwise_eigvalsh(rank):
    rng = np.random.default_rng(rank)
    for _ in range(200):
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = g @ g.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        got = states._umath_linalg.eigvalsh_lo(rho, signature="D->d")
        assert got.tobytes() == np.linalg.eigvalsh(rho).tobytes()


def test_an_eigenvalue_kernel_that_returns_nan_is_rejected(monkeypatch):
    # a result that did not converge comes back as nan without eigvalsh's wrapper
    nan_kernel = types.SimpleNamespace(eigvalsh_lo=lambda rho, signature: np.full(4, np.nan))
    monkeypatch.setattr(states, "_umath_linalg", nan_kernel)
    with pytest.raises(ValueError, match="negative eigenvalue nan"):
        TwoAtomState(np.eye(4) / 4)


@pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
def test_parity_of_a_non_finite_phase_raises_the_rotation_message(make_state, phi):
    state = make_state()
    before = _pair_unitary_of.cache_info().currsize
    with pytest.raises(ValueError, match="rotation axis azimuth must be finite"):
        parity_of(state, phi)
    assert _pair_unitary_of.cache_info().currsize == before


def test_fidelity_through_the_bell_table_is_bitwise_the_fresh_vector(make_state):
    for _ in range(20):
        state = make_state()
        for kind in BellKind:
            v = bell_vector(kind)
            assert fidelity(state, kind) == float(np.real(v.conj() @ state.rho @ v))


def test_bell_vector_stays_a_writable_copy_of_the_bell_table(make_state):
    # the table's arrays are read-only (tests/test_caches.py)
    state = make_state()
    for kind in BellKind:
        v, v_conj = _bell_pair(kind)
        assert v.tobytes() == bell_vector(kind).tobytes()
        assert v_conj.tobytes() == bell_vector(kind).conj().tobytes()
        before = fidelity(state, kind)
        fresh = bell_vector(kind)
        fresh[:] = 0.0
        assert not np.shares_memory(fresh, v)
        assert fidelity(state, kind) == before

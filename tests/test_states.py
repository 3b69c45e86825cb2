import numpy as np
import pytest

from carvesim import (
    BellKind,
    NullBranchError,
    RotationSpec,
    TwoAtomState,
    bell_state,
    bell_vector,
    fidelity,
    global_rotation,
    populations,
    project,
    renormalize,
)
from carvesim.states import (
    ATOM1_UP,
    ATOM2_UP,
    BASIS_LABELS,
    N_UP,
    _pair_unitary,
    _rotate,
    single_qubit_unitary,
)

SQ2 = np.sqrt(2.0)


def test_basis_bookkeeping():
    assert BASIS_LABELS == ("uu", "ud", "du", "dd")
    assert list(N_UP) == [2, 1, 1, 0]
    assert list(ATOM1_UP) == [1, 1, 0, 0]
    assert list(ATOM2_UP) == [1, 0, 1, 0]
    assert list(ATOM1_UP + ATOM2_UP) == list(N_UP)


def test_bell_vectors_orthonormal():
    vecs = np.array([bell_vector(k) for k in BellKind])
    np.testing.assert_allclose(vecs @ vecs.conj().T, np.eye(4), atol=1e-15)


def test_bell_vector_components():
    np.testing.assert_allclose(
        bell_vector(BellKind.PSI_PLUS), [0, 1 / SQ2, 1 / SQ2, 0], atol=1e-15
    )
    np.testing.assert_allclose(
        bell_vector(BellKind.PHI_MINUS), [1 / SQ2, 0, 0, -1 / SQ2], atol=1e-15
    )


def test_state_validation_rejects_bad_input():
    with pytest.raises(ValueError, match="4x4"):
        TwoAtomState(np.eye(3))
    with pytest.raises(ValueError, match="Hermitian"):
        TwoAtomState(np.eye(4) / 4 + 1e-6 * np.array([[0, 1j, 0, 0]] * 4))
    neg = np.diag([0.6, 0.5, 0.0, -0.1])
    with pytest.raises(ValueError, match="negative"):
        TwoAtomState(neg)
    with pytest.raises(ValueError, match="finite"):
        TwoAtomState(np.diag([np.nan, 1, 0, 0]))


@pytest.mark.parametrize(
    "bad", [complex(np.nan, 0), complex(0, np.nan), complex(np.inf, 0), complex(0, -np.inf)]
)
def test_state_rejects_a_non_finite_real_or_imaginary_part(bad):
    rho = np.eye(4, dtype=complex) / 4
    rho[1, 2] = rho[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        TwoAtomState(rho)


def test_state_accepts_subnormalized_but_not_overnormalized():
    TwoAtomState(np.diag([0.2, 0.1, 0.0, 0.0]))
    with pytest.raises(ValueError, match="trace"):
        TwoAtomState(np.diag([0.6, 0.6, 0.0, 0.0]))


def test_state_is_immutable():
    st = bell_state(BellKind.PSI_PLUS)
    with pytest.raises(ValueError):
        st.rho[0, 0] = 1.0


def test_element_lookup_by_label():
    st = bell_state(BellKind.PSI_PLUS)
    assert st.element("ud", "du") == pytest.approx(0.5)
    assert st.element("uu", "uu") == pytest.approx(0.0)


def test_rotation_spec_validation():
    with pytest.raises(ValueError):
        RotationSpec("q", np.pi)
    with pytest.raises(ValueError):
        RotationSpec("x", np.nan)


def test_named_axes_match_their_azimuths():
    # equatorial axes by azimuth measured from x: "x" is 0, "y" is pi/2
    for name, azimuth in (("x", 0.0), ("y", np.pi / 2)):
        u_name = single_qubit_unitary(RotationSpec(name, 0.8))
        u_az = single_qubit_unitary(RotationSpec(azimuth, 0.8))
        np.testing.assert_allclose(u_name, u_az, atol=1e-15)


@pytest.mark.parametrize("axis", ["x", "y", "z", 0.7])
def test_pair_unitary_is_bitwise_kron(axis, make_state):
    spec = RotationSpec(axis, 0.8)
    u2 = np.kron(single_qubit_unitary(spec), single_qubit_unitary(spec))
    assert np.array_equal(_pair_unitary(spec), u2)
    st = make_state()
    expected = TwoAtomState(u2 @ st.rho @ u2.conj().T).rho
    assert np.array_equal(global_rotation(st, spec).rho, expected)


# the rotations of the protocol op lists (y pi/2, y pi, x pi/2 and a single-
# carving alpha), then three random azimuth / angle pairs
OP_ROTATIONS = [("y", np.pi / 2), ("y", np.pi), ("x", np.pi / 2), ("y", 0.2)]
RANDOM_ROTATIONS = [
    (float(a), float(b)) for a, b in np.random.default_rng(5).uniform(0, 2 * np.pi, (3, 2))
]


@pytest.mark.parametrize("axis, angle", OP_ROTATIONS + RANDOM_ROTATIONS)
@pytest.mark.parametrize("n", [1, 7, 49])
def test_stacked_rotation_is_global_rotation_row_by_row(axis, angle, n, make_state):
    # the Monte Carlo rotates its prefix stack with _rotate, the exact channel
    # one state at a time with global_rotation: the bits must agree
    spec = RotationSpec(axis, angle)
    stack = np.stack([make_state(rank=1 + i % 4).rho for i in range(n)])
    got = _rotate(stack, spec)
    assert got.shape == (n, 4, 4)
    assert np.array_equal(got, np.swapaxes(got, 1, 2).conj())
    for rho, row in zip(stack, got):
        assert row.tobytes() == global_rotation(TwoAtomState(rho), spec).rho.tobytes()
    assert _rotate(stack[0], spec).tobytes() == got[0].tobytes()


def test_half_pulse_from_down_down():
    """R_y(pi/2) on |dd> puts half the weight on the coupled states."""
    st = global_rotation(bell_state_dd(), RotationSpec("y", np.pi / 2))
    diag = st.rho.diagonal().real
    np.testing.assert_allclose(diag, [0.25, 0.25, 0.25, 0.25], atol=1e-12)


def bell_state_dd() -> TwoAtomState:
    vec = np.zeros(4)
    vec[3] = 1.0
    return TwoAtomState.from_vector(vec)


def test_rotation_amplitudes_from_down_down():
    alpha = 0.7
    u = single_qubit_unitary(RotationSpec("y", alpha))
    # |d> -> -sin(a/2)|u> + cos(a/2)|d>
    np.testing.assert_allclose(
        u @ [0, 1], [-np.sin(alpha / 2), np.cos(alpha / 2)], atol=1e-14
    )
    st = global_rotation(bell_state_dd(), RotationSpec("y", alpha))
    vec = np.array(
        [
            np.sin(alpha / 2) ** 2,
            -0.5 * np.sin(alpha),
            -0.5 * np.sin(alpha),
            np.cos(alpha / 2) ** 2,
        ]
    )
    np.testing.assert_allclose(st.rho, np.outer(vec, vec), atol=1e-12)


def test_pi_pulse_swaps_levels():
    st = global_rotation(bell_state_dd(), RotationSpec("y", np.pi))
    assert st.element("uu", "uu") == pytest.approx(1.0)


def test_rotation_maps_between_bell_states():
    # a global pi/2 y-rotation takes the triplet to the phi- manifold
    rot = global_rotation(bell_state(BellKind.PSI_PLUS), RotationSpec("y", np.pi / 2))
    assert fidelity(rot, BellKind.PHI_MINUS) == pytest.approx(1.0, abs=1e-12)
    rot = global_rotation(bell_state(BellKind.PSI_PLUS), RotationSpec("x", np.pi / 2))
    assert fidelity(rot, BellKind.PHI_PLUS) == pytest.approx(1.0, abs=1e-12)


def test_singlet_rotation_invariant(rng):
    st = bell_state(BellKind.PSI_MINUS)
    for _ in range(10):
        spec = RotationSpec(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        rot = global_rotation(st, spec)
        np.testing.assert_allclose(rot.rho, st.rho, atol=1e-12)


def test_populations_sum_and_values():
    st = global_rotation(bell_state_dd(), RotationSpec("y", np.pi / 2))
    p_uu, p_dd, p_mixed = populations(st)
    assert p_uu == pytest.approx(0.25)
    assert p_dd == pytest.approx(0.25)
    assert p_mixed == pytest.approx(0.5)


def test_populations_requires_normalized_state():
    with pytest.raises(ValueError):
        populations(TwoAtomState(np.diag([0.25, 0.25, 0.0, 0.0])))


def test_fidelity_rejects_a_target_that_is_not_a_bell_kind(make_state):
    st = make_state()
    kind = BellKind.PSI_PLUS
    for target in (bell_vector(kind), bell_state(kind), make_state(rank=4), "psi_plus"):
        with pytest.raises(ValueError):
            fidelity(st, target)


def test_project_keeps_only_requested_labels():
    st = global_rotation(bell_state_dd(), RotationSpec("y", np.pi / 2))
    cut = project(st, ("ud", "du"))
    assert cut.trace_weight == pytest.approx(0.5)
    assert cut.element("uu", "uu") == 0.0
    assert cut.element("ud", "du") != 0.0


def test_renormalize_restores_unit_trace():
    st = project(global_rotation(bell_state_dd(), RotationSpec("y", np.pi / 2)), ("dd",))
    out = renormalize(st)
    assert out.trace_weight == pytest.approx(1.0)


def test_renormalize_empty_branch_raises():
    empty = project(bell_state_dd(), ("uu",))
    with pytest.raises(NullBranchError):
        renormalize(empty)

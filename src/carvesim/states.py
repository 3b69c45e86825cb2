"""Two-atom spin states, Bell states and collective single-qubit rotations.

Basis order is (uu, ud, du, dd), first letter = atom 1, with u/d the up/down
qubit states. Density matrices are 4x4 complex arrays wrapped in
``TwoAtomState``, which validates hermiticity and positivity on construction.

Rotation convention: R_y(a) maps ``d -> cos(a/2) d - sin(a/2) u`` and
``u -> cos(a/2) u + sin(a/2) d``, i.e. U_y(a) = exp(-i a sigma_y / 2) in the
(u, d) ordering. Equatorial axes are labelled by their azimuth from x.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

BASIS_LABELS = ("uu", "ud", "du", "dd")
BASIS_INDEX = {label: i for i, label in enumerate(BASIS_LABELS)}

# per basis state: number of atoms in u (the cavity-coupled level)
N_UP = np.array([2, 1, 1, 0])
ATOM1_UP = np.array([1, 1, 0, 0])
ATOM2_UP = np.array([1, 0, 1, 0])

HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

_SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class NullBranchError(ValueError):
    """Renormalization was requested for a branch of (near) zero weight."""


class BellKind(enum.Enum):
    PSI_PLUS = "psi_plus"
    PSI_MINUS = "psi_minus"
    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"


def bell_vector(kind: BellKind) -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    if kind is BellKind.PSI_PLUS:
        v[BASIS_INDEX["ud"]] = s
        v[BASIS_INDEX["du"]] = s
    elif kind is BellKind.PSI_MINUS:
        v[BASIS_INDEX["ud"]] = s
        v[BASIS_INDEX["du"]] = -s
    elif kind is BellKind.PHI_PLUS:
        v[BASIS_INDEX["uu"]] = s
        v[BASIS_INDEX["dd"]] = s
    elif kind is BellKind.PHI_MINUS:
        v[BASIS_INDEX["uu"]] = s
        v[BASIS_INDEX["dd"]] = -s
    else:
        raise ValueError(f"unknown Bell kind {kind!r}")
    return v


@functools.cache
def _bell_pair(kind: BellKind) -> tuple[np.ndarray, np.ndarray]:
    """bell_vector(kind) and its conjugate, read-only and built once per kind."""
    v, v_conj = bell_vector(kind), bell_vector(kind).conj()
    v.flags.writeable = v_conj.flags.writeable = False
    return v, v_conj


class TwoAtomState:
    """Density matrix of the atom pair, possibly sub-normalized.

    ``trace_weight`` < 1 represents an unnormalized conditional branch, e.g.
    the heralded part of a carving step before renormalization.
    """

    __slots__ = ("rho", "_weight")

    def __init__(self, rho):
        rho = np.array(rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
        adjoint = rho.conj().T
        # a non-finite entry fails this too: its difference is inf or nan
        if not np.abs(rho - adjoint).max() <= HERMITICITY_TOL:
            if not np.isfinite(rho).all():
                raise ValueError("density matrix contains non-finite entries")
            raise ValueError("density matrix is not Hermitian within 1e-12")
        # 0.5 * (rho + adjoint) in place: the same ufuncs on the same operands
        np.add(rho, adjoint, out=rho)
        np.multiply(0.5, rho, out=rho)
        # np.linalg.eigvalsh's kernel without its wrapper: no convergence reads as nan
        eigs = _umath_linalg.eigvalsh_lo(rho, signature="D->d")
        if not eigs[0] >= EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {eigs[0]:.3e}")
        tr = rho.trace().real
        if tr > 1.0 + 1e-9:
            raise ValueError(f"trace weight {tr!r} exceeds 1")
        rho.flags.writeable = False
        self.rho = rho
        self._weight = float(tr)  # rho is read-only, so its trace is read once

    @classmethod
    def from_vector(cls, vec) -> "TwoAtomState":
        """Pure state from a 4-component amplitude vector (normalized here)."""
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (4,):
            raise ValueError(f"expected a 4-component vector, got shape {vec.shape}")
        norm = np.linalg.norm(vec)
        if norm < 1e-15:
            raise NullBranchError("cannot build a state from a null vector")
        vec = vec / norm
        return cls(np.outer(vec, vec.conj()))

    @property
    def trace_weight(self) -> float:
        return self._weight

    def element(self, row: str, col: str) -> complex:
        return complex(self.rho[BASIS_INDEX[row], BASIS_INDEX[col]])

    def __repr__(self) -> str:
        diag = ", ".join(
            f"{lab}={p:.4f}" for lab, p in zip(BASIS_LABELS, self.rho.diagonal().real)
        )
        return f"TwoAtomState({diag}, w={self.trace_weight:.4f})"


def bell_state(kind: BellKind) -> TwoAtomState:
    return TwoAtomState.from_vector(bell_vector(kind))


@dataclass(frozen=True)
class RotationSpec:
    """Collective rotation by ``angle`` about an equatorial axis or z.

    ``axis`` is "x", "y", "z" or a float azimuth in radians measured from x
    in the equatorial plane ("x" == 0.0, "y" == pi/2).
    """

    axis: str | float
    angle: float

    def __post_init__(self):
        if isinstance(self.axis, str):
            if self.axis not in ("x", "y", "z"):
                raise ValueError(f"unknown rotation axis {self.axis!r}")
        else:
            if not np.isfinite(self.axis):
                raise ValueError("rotation axis azimuth must be finite")
        if not np.isfinite(self.angle):
            raise ValueError("rotation angle must be finite")


def single_qubit_unitary(spec: RotationSpec) -> np.ndarray:
    """2x2 unitary exp(-i angle (n.sigma)/2) for the axis of ``spec``."""
    if isinstance(spec.axis, str):
        n_sigma = _SIGMA[spec.axis]
    else:
        n_sigma = np.cos(spec.axis) * _SIGMA["x"] + np.sin(spec.axis) * _SIGMA["y"]
    half = 0.5 * spec.angle
    return np.cos(half) * np.eye(2, dtype=complex) - 1j * np.sin(half) * n_sigma


def _pair_unitary(spec: RotationSpec) -> np.ndarray:
    """U x U of the rotation of spec, read-only and built once per (axis, angle)."""
    return _pair_unitary_of(spec.axis, spec.angle)


@functools.lru_cache(maxsize=128, typed=True)
def _pair_unitary_of(axis, angle) -> np.ndarray:
    """The products of np.kron(u, u), without its overhead.

    typed keeps a float32 angle apart from the equal float. -0.0 shares the
    entry of 0.0: the zero's sign is lost where it is added to the identity,
    so both signs give the same bits (a test checks this).
    """
    u = single_qubit_unitary(RotationSpec(axis, angle))
    u2 = (u[:, None, :, None] * u[None, :, None, :]).reshape(4, 4)
    u2.flags.writeable = False
    return u2


def _rotate(rho: np.ndarray, spec: RotationSpec) -> np.ndarray:
    """(U x U) rho (U x U)^dag of a (4, 4) or (n, 4, 4) array, made exactly Hermitian
    by TwoAtomState's own ufuncs, so each matrix has global_rotation's bits."""
    u2 = _pair_unitary(spec)
    out = u2 @ rho @ u2.conj().T
    np.add(out, np.swapaxes(out, -1, -2).conj(), out=out)
    return np.multiply(0.5, out, out=out)


def global_rotation(state: TwoAtomState, spec: RotationSpec) -> TwoAtomState:
    """Apply the same rotation to both atoms: rho -> (U x U) rho (U x U)^dag."""
    return TwoAtomState(_rotate(state.rho, spec))


def populations(state: TwoAtomState) -> tuple[float, float, float]:
    """(P_uu, P_dd, P_mixed) of a normalized state.

    P_mixed is the total population of the antiparallel states ud and du.
    """
    if abs(state.trace_weight - 1.0) > 1e-9:
        raise ValueError(
            f"populations need a normalized state, trace weight is {state.trace_weight!r}"
        )
    d = state.rho.diagonal().real
    return float(d[0]), float(d[3]), float(d[1] + d[2])


def fidelity(state: TwoAtomState, target: BellKind) -> float:
    """Overlap <psi|rho|psi> with a Bell target; other targets raise ValueError."""
    if abs(state.trace_weight - 1.0) > 1e-9:
        raise ValueError("fidelity needs a normalized state; renormalize first")
    if not isinstance(target, BellKind):
        raise ValueError(f"unknown Bell kind {target!r}")
    v, v_conj = _bell_pair(target)
    return float((v_conj @ state.rho @ v).real)


def project(state: TwoAtomState, keep) -> TwoAtomState:
    """Project onto the span of the given basis labels; result is unnormalized.

    renormalize(project(rho, ("uu", "ud", "du"))) is the ideal-limit carve_step.
    """
    mask = np.zeros(4)
    for label in keep:
        if label not in BASIS_INDEX:
            raise ValueError(f"unknown basis label {label!r}")
        mask[BASIS_INDEX[label]] = 1.0
    proj = mask[:, None] * mask[None, :]
    return TwoAtomState(state.rho * proj)


def renormalize(state: TwoAtomState) -> TwoAtomState:
    w = state.trace_weight
    if w < 1e-15:
        raise NullBranchError("cannot renormalize a null branch (trace weight < 1e-15)")
    return TwoAtomState(state.rho / w)

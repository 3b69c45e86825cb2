"""Single-sided cavity reflection on the two-atom register.

All rates are linear frequencies in MHz (a value of 7.8 means 2pi x 7.8 MHz);
only ratios of rates enter the formulas below. The up level couples to the
cavity, so a register basis state with N atoms up reflects a resonant photon
with amplitude r(N); the empty-cavity amplitude r(0) applies when both atoms
are down.

Photons arrive in polarization a, of which only one circular component is
cavity-coupled. On reflection the branch-dependent phase converts part of the
light into the orthogonal polarization d with amplitude (r(0) - r(N)) / 2,
while (r(0) + r(N)) / 2 stays in a. A d-polarized click is therefore possible
only when coupled and uncoupled register components interfere, which is what
makes it usable as a herald.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import N_UP

DEFAULT_G = 7.8
DEFAULT_KAPPA = 2.5
DEFAULT_KAPPA_OUT = 2.3
DEFAULT_GAMMA = 3.0


@dataclass(frozen=True)
class CavityParams:
    """Atom-cavity rates: coupling g, total and outcoupling kappa, atomic gamma.

    kappa is the cavity field decay rate, kappa_out the part of it due to the
    coupling mirror (the rest is mirror scattering and absorption), gamma the
    atomic dipole decay rate.
    """

    g_2pi_mhz: float = DEFAULT_G
    kappa_2pi_mhz: float = DEFAULT_KAPPA
    kappa_out_2pi_mhz: float = DEFAULT_KAPPA_OUT
    gamma_2pi_mhz: float = DEFAULT_GAMMA

    def __post_init__(self):
        if not self.g_2pi_mhz >= 0:
            raise ValueError("g must be >= 0")
        if not self.kappa_2pi_mhz > 0:
            raise ValueError("kappa must be > 0")
        if not self.gamma_2pi_mhz > 0:
            raise ValueError("gamma must be > 0")
        if not 0 < self.kappa_out_2pi_mhz <= self.kappa_2pi_mhz:
            raise ValueError("kappa_out must satisfy 0 < kappa_out <= kappa")

    def cooperativity(self, n_coupled: int = 1) -> float:
        """Collective cooperativity C(N) = N g^2 / (2 kappa gamma)."""
        if n_coupled < 0:
            raise ValueError("n_coupled must be >= 0")
        return (
            n_coupled
            * self.g_2pi_mhz**2
            / (2.0 * self.kappa_2pi_mhz * self.gamma_2pi_mhz)
        )

    def reflection_amplitude(self, n_coupled: int) -> float:
        """On-resonance reflection amplitude r(N) for N coupled atoms.

        r(N) = 1 - 2 kappa_out gamma / (N g^2 + kappa gamma), real on
        resonance; r(0) < 0 for an overcoupled cavity, r(N > 0) > 0 once the
        coupling is strong enough.
        """
        if n_coupled < 0:
            raise ValueError("n_coupled must be >= 0")
        num = 2.0 * self.kappa_out_2pi_mhz * self.gamma_2pi_mhz
        den = n_coupled * self.g_2pi_mhz**2 + self.kappa_2pi_mhz * self.gamma_2pi_mhz
        return 1.0 - num / den

    def scattering_fraction(self, n_coupled: int) -> float:
        """Probability s(N) that an incident photon is scattered by the atoms.

        s(N) = 4 kappa_out gamma N g^2 / (N g^2 + kappa gamma)^2; zero for the
        empty cavity.
        """
        if n_coupled < 0:
            raise ValueError("n_coupled must be >= 0")
        ng2 = n_coupled * self.g_2pi_mhz**2
        den = ng2 + self.kappa_2pi_mhz * self.gamma_2pi_mhz
        return 4.0 * self.kappa_out_2pi_mhz * self.gamma_2pi_mhz * ng2 / den**2

    def flip_probability(self, n_coupled: int = 1) -> float:
        """Polarization-flip probability |(r(0) - r(N)) / 2|^2.

        Equals the closed form (kappa_out / kappa * C / (C + 1/2))^2 with
        C = cooperativity(N); the ratio to scattering_fraction(N) is
        (kappa_out / 2 kappa) * C, the figure of merit of the herald.
        """
        half_diff = 0.5 * (
            self.reflection_amplitude(0) - self.reflection_amplitude(n_coupled)
        )
        return half_diff**2


def _branch_table(r_by_n: np.ndarray, s_by_n: np.ndarray):
    a_amp = np.array([0.5 * (r_by_n[0] + r_by_n[n]) for n in N_UP])
    d_amp = np.array([0.5 * (r_by_n[0] - r_by_n[n]) for n in N_UP])
    scatter = np.array([s_by_n[n] for n in N_UP])
    loss = 1.0 - a_amp**2 - d_amp**2
    return a_amp, d_amp, scatter, loss


@dataclass(frozen=True, eq=False)
class ReflectionModel:
    """Per-branch reflection data, indexed by the register basis (uu..dd).

    ``a_amp`` and ``d_amp`` are the amplitudes to keep or flip the photon
    polarization, ``scatter`` the per-photon scattering fraction s(N) of the
    branch, and ``loss`` the total non-reflected weight 1 - a^2 - d^2, of
    which ``scatter`` is the atomic part.
    """

    a_amp: np.ndarray
    d_amp: np.ndarray
    scatter: np.ndarray
    loss: np.ndarray

    @classmethod
    def from_params(cls, params: CavityParams | None = None) -> "ReflectionModel":
        params = params or CavityParams()
        r_by_n = np.array([params.reflection_amplitude(n) for n in range(3)])
        s_by_n = np.array([params.scattering_fraction(n) for n in range(3)])
        return cls(*_branch_table(r_by_n, s_by_n))

    @classmethod
    def ideal(cls) -> "ReflectionModel":
        """Lossless strong-coupling limit: r(0) = -1, r(N > 0) = +1, s = 0."""
        r_by_n = np.array([-1.0, 1.0, 1.0])
        return cls(*_branch_table(r_by_n, np.zeros(3)))

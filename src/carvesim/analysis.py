"""Tomography and diagnostics for carved states.

Covers the parity-oscillation route to the Bell coherences, fidelity
reconstruction from populations plus coherences, Husimi Q distributions with
Mollweide map coordinates, Gaussian lifetime fits of dephasing curves, and
the two-window (transmission then fluorescence) state-detection classifier.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .states import BellKind, TwoAtomState, _pair_unitary_of, bell_vector

DETECTION_CLASSES = ("down_down", "antiparallel", "up_up")


class UnderdeterminedScanError(ValueError):
    """The parity scan does not constrain all three coherences."""


class FitFailedError(RuntimeError):
    """A least-squares fit did not converge."""


def parity_of(state: TwoAtomState, phi: float) -> float:
    """Parity after the analysis pulse with axis phase phi.

    Operational definition: rotate both atoms by pi/2 about the equatorial
    axis at azimuth pi/2 - phi (phi = 0 is the y axis), then measure
    P_uu + P_dd - P_ud - P_du. Equal to parity_closed_form by construction.
    Only the diagonal of the rotated matrix is read, so no state is built.
    """
    if abs(state.trace_weight - 1.0) > 1e-9:
        raise ValueError("parity needs a normalized state")
    # a non-finite phi never hits the cache; its miss builds a RotationSpec, which raises
    u2 = _pair_unitary_of(np.pi / 2 - phi, np.pi / 2)
    d = (u2 @ state.rho @ u2.conj().T).diagonal().real
    return float(d[0] + d[3] - d[1] - d[2])


def parity_closed_form(state: TwoAtomState, phi: float) -> float:
    """2 Re rho_ud,du + 2 Im rho_uu,dd sin(2 phi) + 2 Re rho_uu,dd cos(2 phi)."""
    inner = state.element("ud", "du")
    outer = state.element("uu", "dd")
    return float(
        2.0 * inner.real
        + 2.0 * outer.imag * np.sin(2.0 * phi)
        + 2.0 * outer.real * np.cos(2.0 * phi)
    )


@dataclass(frozen=True, eq=False)
class ParityScan:
    """Sampled parity curve: phases (radians, strictly increasing), values."""

    phases: np.ndarray
    parities: np.ndarray

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=float)
        parities = np.asarray(self.parities, dtype=float)
        if phases.ndim != 1 or phases.shape != parities.shape:
            raise ValueError("phases and parities must be 1d arrays of equal length")
        if np.any(np.diff(phases) <= 0):
            raise ValueError("phases must be strictly increasing")
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "parities", parities)

    @classmethod
    def of_state(cls, state: TwoAtomState, n_phases: int = 16) -> "ParityScan":
        phases = np.linspace(0.0, 2.0 * np.pi, n_phases, endpoint=False)
        values = np.array([parity_of(state, p) for p in phases])
        return cls(phases, values)


@dataclass(frozen=True)
class CoherenceFit:
    """Coherences extracted from a parity scan.

    re_updn_dnup is half the fitted offset, the other two are half the
    2-phi quadrature amplitudes; residual is the rms misfit.
    """

    re_updn_dnup: float
    im_upup_dndn: float
    re_upup_dndn: float
    residual: float

    def __post_init__(self):
        for value in (self.re_updn_dnup, self.im_upup_dndn, self.re_upup_dndn):
            if abs(value) > 0.5 + 0.05:
                raise ValueError(f"fitted coherence {value!r} is unphysically large")


def fit_parity(scan: ParityScan) -> CoherenceFit:
    """Linear least squares of the parity curve on {1, sin 2phi, cos 2phi}."""
    phases = scan.phases
    design = np.column_stack(
        [np.ones_like(phases), np.sin(2.0 * phases), np.cos(2.0 * phases)]
    )
    target = scan.parities
    if len(phases) < 3 or np.linalg.matrix_rank(design, tol=1e-10) < 3:
        raise UnderdeterminedScanError(
            "underdetermined scan: need at least 3 samples at 3 distinct phases mod pi"
        )
    coeffs, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    misfit = design @ coeffs - target
    residual = float(np.sqrt(np.mean(misfit**2)))
    return CoherenceFit(
        re_updn_dnup=float(coeffs[0] / 2.0),
        im_upup_dndn=float(coeffs[1] / 2.0),
        re_upup_dndn=float(coeffs[2] / 2.0),
        residual=residual,
    )


def bell_fidelity(
    populations: tuple[float, float, float], fit: CoherenceFit, target: BellKind
) -> float:
    """Bell fidelity from the measured population triple and fitted coherences.

    populations is (P_uu, P_dd, P_mixed) as returned by states.populations.
    The tomographic reference for states.fidelity, which it equals on exact states.
    """
    p_uu, p_dd, p_mixed = populations
    total = p_uu + p_dd + p_mixed
    if abs(total - 1.0) > 0.02:
        raise ValueError(f"populations sum to {total!r}, expected 1 within 0.02")
    if target is BellKind.PSI_PLUS:
        return 0.5 * p_mixed + fit.re_updn_dnup
    if target is BellKind.PSI_MINUS:
        return 0.5 * p_mixed - fit.re_updn_dnup
    if target is BellKind.PHI_PLUS:
        return 0.5 * (p_uu + p_dd) + fit.re_upup_dndn
    return 0.5 * (p_uu + p_dd) - fit.re_upup_dndn


def coherent_spin_vector(theta, phi) -> np.ndarray:
    """Product state of both atoms along (theta, phi); broadcasts, basis axis last."""
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta / 2.0)
    s = -np.exp(1j * np.asarray(phi, dtype=float)) * np.sin(theta / 2.0)
    cs = c * s
    return np.stack(np.broadcast_arrays(c**2, cs, cs, s**2), axis=-1)


def husimi_q(state: TwoAtomState, theta: float, phi: float) -> float:
    """Husimi Q value (3 / 4 pi) <theta,phi| rho |theta,phi>; husimi_grid's reference."""
    v = coherent_spin_vector(theta, phi)
    return float(3.0 / (4.0 * np.pi) * np.real(v.conj() @ state.rho @ v))


def symmetric_projector() -> np.ndarray:
    """Symmetric-subspace projector; Tr(P rho) is the exact HusimiGrid.integral."""
    singlet = bell_vector(BellKind.PSI_MINUS)
    return np.eye(4, dtype=complex) - np.outer(singlet, singlet.conj())


@dataclass(frozen=True, eq=False)
class HusimiGrid:
    """Husimi Q on a theta x phi grid with Mollweide map coordinates.

    theta holds cell-midpoint colatitudes, phi the azimuth samples; q, x and
    y are (n_theta, n_phi) arrays. integral is the quadrature sum of Q dOmega,
    which equals the symmetric-subspace weight of the state. husimi_grid hands
    every grid of one resolution the same read-only theta, phi, x and y.
    """

    theta: np.ndarray
    phi: np.ndarray
    q: np.ndarray
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    integral: float = 0.0

    def __post_init__(self):
        if np.min(self.q) < -1e-12:
            raise ValueError("Husimi Q must be nonnegative")
        # midpoint quadrature overshoots by O(dtheta^2) on coarse grids
        dtheta = np.pi / max(len(self.theta), 1)
        if not -1e-12 <= self.integral <= 1.0 + max(1e-3, 0.5 * dtheta**2):
            raise ValueError(f"Husimi integral {self.integral!r} out of range")


# columns uu, ud + du, dd: the unnormalised symmetric basis, in which the
# coherent state of coherent_spin_vector is (c^2, c s, s^2)
_SYMMETRIC_BASIS = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=float)


def husimi_grid(state: TwoAtomState, n_theta: int, n_phi: int) -> HusimiGrid:
    """Evaluate Q on midpoint colatitudes x uniform azimuths.

    Q reads rho only through its symmetric block rho_s = U^T rho U (plain sums
    of rho entries, so the singlet's block is exactly 0). With m(theta) =
    (c^2, c s, s^2), c = cos(theta/2), s = -sin(theta/2), Q is
    (3 / 4 pi) sum_jl m_j m_l Re(rho_s[j, l] exp(i (l - j) phi)): one real
    (n_theta, 9) @ (9, n_phi) product. Everything but rho_s depends on the
    resolution alone and is built once per resolution (_husimi_axes).
    """
    if n_theta < 2 or n_phi < 2:
        raise ValueError("grid resolution must be at least 2 x 2")
    theta, phi, mm, cos, sin, weights, x, y = _husimi_axes(n_theta, n_phi)
    rho_s = (_SYMMETRIC_BASIS.T @ state.rho @ _SYMMETRIC_BASIS).reshape(9)
    # Re(rho_s[j, l] exp(-i k phi)) with k = j - l
    terms = rho_s.real[:, None] * cos + rho_s.imag[:, None] * sin
    q = (mm @ terms) * (3.0 / (4.0 * np.pi))
    q = np.where(np.abs(q) < 1e-300, 0.0, q)
    integral = float(np.sum(q * weights))
    return HusimiGrid(theta=theta, phi=phi, q=q, x=x, y=y, integral=integral)


@functools.lru_cache(maxsize=4)
def _husimi_axes(n_theta: int, n_phi: int) -> tuple[np.ndarray, ...]:
    """The read-only arrays of husimi_grid that depend only on the resolution.

    theta, phi, the (n_theta, 9) products m_j m_l, cos and sin of k phi for
    k = j - l, the quadrature weights and the Mollweide x, y. Each entry holds
    two (n_theta, n_phi) maps, hence the small maxsize.
    """
    theta = (np.arange(n_theta) + 0.5) * np.pi / n_theta
    phi = np.arange(n_phi) * 2.0 * np.pi / n_phi
    c, s = np.cos(theta / 2.0), -np.sin(theta / 2.0)
    m = np.stack([c * c, c * s, s * s], axis=1)  # (n_theta, 3)
    mm = (m[:, :, None] * m[:, None, :]).reshape(n_theta, 9)
    k = np.subtract.outer(np.arange(3), np.arange(3)).reshape(9)  # j - l
    phase = np.outer(k, phi)
    weights = np.sin(theta)[:, None] * (np.pi / n_theta) * (2.0 * np.pi / n_phi)
    # a column and a row: the Newton solve runs once per latitude
    x, y = mollweide(theta[:, None], phi[None, :])
    axes = (theta, phi, mm, np.cos(phase), np.sin(phase), weights, x, y)
    for a in axes:
        a.flags.writeable = False
    return axes


def mollweide(theta, phi):
    """Mollweide map coordinates for colatitude theta and azimuth phi.

    Latitude is pi/2 - theta, longitude phi - pi, so the map is centered on
    (theta, phi) = (pi/2, pi). The auxiliary angle t solves
    2 t + sin 2 t = pi sin(latitude) by Newton iteration to 1e-10. theta and
    phi broadcast; t is solved at theta's shape, and x and y have the
    broadcast shape.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    lat = np.pi / 2.0 - theta
    lon = phi - np.pi
    t = lat.copy()
    polar = np.abs(lat) >= np.pi / 2.0 - 1e-9
    t = np.where(polar, np.sign(lat) * np.pi / 2.0, t)
    rhs = np.pi * np.sin(lat)
    for _ in range(50):
        f = 2.0 * t + np.sin(2.0 * t) - rhs
        step = np.where(polar, 0.0, f / np.maximum(2.0 + 2.0 * np.cos(2.0 * t), 1e-12))
        t = t - step
        if np.max(np.abs(step)) < 1e-10:
            break
    x = 2.0 * np.sqrt(2.0) / np.pi * lon * np.cos(t)
    y = np.broadcast_to(np.sqrt(2.0) * np.sin(t), x.shape).copy()
    if x.ndim == 0:
        return float(x), float(y)
    return x, y


def gaussian_lifetime_fit(times, fidelities, baseline: float = 0.5) -> float:
    """1/e time of F(t) = baseline + (F0 - baseline) exp(-t^2 / tau^2).

    The baseline is fixed at the fully dephased fidelity of the target state
    (1/2 for Bell states losing only coherence). Constant input data has no
    decay scale and returns an infinite tau sentinel, as does a tau run past
    the window. F0 is a linear fit at each tau, so only log tau is searched.
    """
    times = np.asarray(times, dtype=float)
    fids = np.asarray(fidelities, dtype=float)
    if times.ndim != 1 or times.shape != fids.shape or len(times) < 3:
        raise ValueError("need at least 3 (time, fidelity) samples")
    if len(np.unique(times)) != len(times):
        raise ValueError("times must be distinct")
    if not np.all(np.isfinite([times, fids])):
        raise ValueError("times and fidelities must be finite")
    if np.ptp(fids) < 1e-9 or abs(fids[np.argmax(times)] - fids[np.argmin(times)]) < 1e-12:
        return float("inf")

    y = fids - baseline
    amp0 = y[np.argmin(times)]
    rel = y / amp0 if amp0 != 0 else np.zeros_like(fids)
    # rel is exactly 1 at the earliest sample; when no later sample stands above
    # the baseline (on F0's side of it) by more than the one ulp that rounding
    # can leave, the decay is over before the second sample and the data
    # cannot fix tau
    above = (rel > 0) & (np.abs(y) > np.spacing(abs(baseline)))
    if amp0 != 0 and np.count_nonzero(above) <= 1:
        raise FitFailedError(
            "lifetime fit failed: no sample after the earliest stands above the "
            "baseline, so the time window is too coarse to resolve the decay"
        )
    usable = (rel > 1e-6) & (rel < 1.0) & (times > 0)
    slope = 0.0
    if np.count_nonzero(usable) > 1:
        slope = np.polyfit(times[usable] ** 2, np.log(rel[usable]), 1)[0]
    elif np.any(usable):
        # one usable sample: the line through it and the earliest sample, where
        # rel is 1 (a least-squares line through one point is rank-deficient)
        (t1,), (r1,) = times[usable], rel[usable]
        dx = t1**2 - times.min() ** 2
        slope = math.log(r1) / dx if dx > 0 else 0.0
    log_tau = -0.5 * math.log(-slope) if slope < 0 else math.log(np.max(np.abs(times)))

    def fit_at(log_tau):  # x = t^2 / tau^2, e = exp(-x), amplitude, residual, cost
        x = times**2 * math.exp(-2.0 * log_tau)
        e = np.exp(-x)
        amp = (e @ y) / (e @ e) if e @ e > 0 else 0.0
        r = y - amp * e
        return x, e, amp, r, r @ r

    x, e, amp, r, cost = fit_at(log_tau)
    last_grad = last_step = 0.0
    for _ in range(100):
        if abs(amp) * x.max() < 1e-9:
            break  # no amplitude, or tau ran past the window
        g = 2.0 * x * e  # d e / d log tau
        jac = -(g @ r - amp * (e @ g)) / (e @ e) * e - amp * g  # d r / d log tau
        grad = -amp * (g @ r)  # jac @ r, as r is orthogonal to e
        if not jac @ jac > 0:
            break  # the residual does not depend on tau: stationary
        # the secant's curvature where it is positive, else Gauss-Newton's
        curv = (grad - last_grad) / last_step if (grad - last_grad) * last_step > 0 else jac @ jac
        step = min(max(-grad / curv, -1.0), 1.0)
        # halve until the residual falls; below 1e-9 rounding hides the change
        while abs(step) > 1e-9 and fit_at(log_tau + step)[-1] >= cost:
            step /= 2.0
        if abs(step) < 1e-12 or abs(last_step) <= abs(step) <= 1e-9:
            break  # converged, or the gradient's steps stopped shrinking
        log_tau, last_step, last_grad = log_tau + step, step, grad
        x, e, amp, r, cost = fit_at(log_tau)
    else:
        raise FitFailedError("lifetime fit did not converge in 100 steps")
    # no amplitude, or a fitted drop over the window below the flat-data scale
    if abs(amp) < 1e-9 or abs(amp) * x.max() < 1e-9:
        return float("inf")
    return math.exp(log_tau)


@dataclass(frozen=True)
class DetectionRates:
    """Poisson count means per true class for the two detection windows.

    Class order is (down_down, antiparallel, up_up). The transmission window
    probes cavity transmission (high only for uncoupled down_down); the
    fluorescence window follows a global pi pulse, so down_down fluoresces
    brightly, antiparallel dimly and up_up not at all.
    """

    transmission_means: tuple[float, float, float] = (9.0, 1.0, 0.3)
    fluorescence_means: tuple[float, float, float] = (6.0, 3.0, 0.03)
    transmission_threshold: int = 3
    fluorescence_threshold: int = 0

    def __post_init__(self):
        for mean in (*self.transmission_means, *self.fluorescence_means):
            if mean < 0:
                raise ValueError("count means must be >= 0")
        for thr in (self.transmission_threshold, self.fluorescence_threshold):
            if not isinstance(thr, int) or thr < 0:
                raise ValueError("thresholds must be nonnegative integers")

    def means_for(self, true_class: str) -> tuple[float, float]:
        idx = DETECTION_CLASSES.index(true_class)
        return self.transmission_means[idx], self.fluorescence_means[idx]


# assigned-class index (into DETECTION_CLASSES + ("inconsistent",)) for
# 2 * transmission_high + fluorescence_high
_DECISION = np.array([2, 1, 3, 0])


def _assign(t_counts, f_counts, rates: DetectionRates):
    """Two-window decision for count pairs, as assigned-class indices.

    High transmission plus fluorescence is down_down; low transmission with
    no fluorescence is up_up (the pi pulse moved it to down_down, which stays
    dark); low transmission with fluorescence is antiparallel. High
    transmission with no fluorescence contradicts itself.
    """
    t_high = np.greater(t_counts, rates.transmission_threshold)
    f_high = np.greater(f_counts, rates.fluorescence_threshold)
    return _DECISION[2 * t_high + f_high]


def classify(t_count: int, f_count: int, rates: DetectionRates) -> str:
    """Assigned class of one (t, f) count pair; confusion_matrix's reference."""
    return (*DETECTION_CLASSES, "inconsistent")[_assign(t_count, f_count, rates)]


def confusion_matrix(rates: DetectionRates, trials: int, seed: int) -> np.ndarray:
    """(3, 4) matrix of P(assigned | true), last column = inconsistent.

    Rows follow DETECTION_CLASSES order; each row sums to exactly 1.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gen = np.random.Generator(np.random.Philox(key=seed))
    matrix = np.zeros((3, 4))
    for i, cls in enumerate(DETECTION_CLASSES):
        t_mean, f_mean = rates.means_for(cls)
        t = gen.poisson(t_mean, size=trials)
        f = gen.poisson(f_mean, size=trials)
        matrix[i] = np.bincount(_assign(t, f, rates), minlength=4) / trials
    return matrix

"""Carving protocols as exact quantum channels plus a trajectory Monte Carlo.

A carving pulse is a weak coherent state reflected off the cavity. Tracing
the reflected light, the scattered photons and the lost population out of the
joint state multiplies every register coherence (b, b') by a Gaussian overlap
of the environment records of the two branches, while a click on the
d-polarization detector (or a dark count) heralds. carve_step evaluates this
exactly by Schur-multiplying the density matrix with the herald multiplier;
monte_carlo_run samples the same statistics trajectory by trajectory.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityParams, ReflectionModel
from .states import (
    ATOM1_UP,
    ATOM2_UP,
    BASIS_INDEX,
    N_UP,
    BellKind,
    RotationSpec,
    TwoAtomState,
    _rotate,
    bell_vector,
)


class NeverHeraldsError(RuntimeError):
    """The requested pulse has zero probability of producing a herald."""


PREP_KINDS = ("down_down", "antiparallel", "pure_uu", "pure_ud", "pure_du", "pure_dd")

_PREP_DEFAULT_FIDELITY = {"down_down": 0.99, "antiparallel": 0.86}


@dataclass(frozen=True)
class PulseConfig:
    """Coherent carving pulse: photon number, detector and mode matching."""

    nbar: float = 0.33
    dark_prob: float = 0.011
    det_eff: float = 1.0 / 3.0
    mode_match: float = 0.9

    def __post_init__(self):
        if not self.nbar >= 0:
            raise ValueError("nbar must be >= 0")
        if not 0 <= self.dark_prob < 1:
            raise ValueError("dark_prob must be in [0, 1)")
        if not 0 < self.det_eff <= 1:
            raise ValueError("det_eff must be in (0, 1]")
        if not 0 < self.mode_match <= 1:
            raise ValueError("mode_match must be in (0, 1]")


@dataclass(frozen=True)
class PreparationSpec:
    """Initial register state: target kind plus a preparation fidelity.

    The default fidelity depends on the kind (0.99 for down_down, 0.86 for
    the antiparallel mixture, 1 for the pure_* diagnostics states); the
    infidelity is spread uniformly over the full two-atom space.
    """

    kind: str = "down_down"
    prep_fidelity: float | None = None

    def __post_init__(self):
        if self.kind not in PREP_KINDS:
            raise ValueError(f"unknown preparation kind {self.kind!r}")
        if self.prep_fidelity is None:
            object.__setattr__(self, "prep_fidelity", _PREP_DEFAULT_FIDELITY.get(self.kind, 1.0))
        if not 0 <= self.prep_fidelity <= 1:
            raise ValueError("prep_fidelity must be in [0, 1]")


def prepare(spec: PreparationSpec) -> TwoAtomState:
    """Initial density matrix for a preparation spec (always diagonal)."""
    base = np.zeros((4, 4))
    if spec.kind == "down_down":
        base[BASIS_INDEX["dd"], BASIS_INDEX["dd"]] = 1.0
    elif spec.kind == "antiparallel":
        base[BASIS_INDEX["ud"], BASIS_INDEX["ud"]] = 0.5
        base[BASIS_INDEX["du"], BASIS_INDEX["du"]] = 0.5
    else:
        label = spec.kind.removeprefix("pure_")
        base[BASIS_INDEX[label], BASIS_INDEX[label]] = 1.0
    f = spec.prep_fidelity
    return TwoAtomState(f * base + (1.0 - f) * np.eye(4) / 4.0)


def sigma_for_lifetime(tau_us: float) -> float:
    """Frequency spread (2pi kHz) whose Gaussian dephasing has 1/e time tau.

    A two-up-flip coherence under spread sigma decays as exp(-2 w^2 t^2) with
    w = 2pi sigma; solving exp(-t^2/tau^2) gives sigma = 1 / (2 pi sqrt(2) tau)
    in cycles, converted to kHz for tau in us.
    """
    if not tau_us > 0:
        raise ValueError("tau must be > 0")
    return 1.0e3 / (2.0 * np.pi * np.sqrt(2.0) * tau_us)


@dataclass(frozen=True)
class NoiseModel:
    """Quasi-static Gaussian qubit-frequency noise, common and differential.

    Sigmas are standard deviations in kHz (2pi x kHz angular); the common
    mode shifts both qubits together and dephases the uu-dd coherence, the
    differential mode dephases ud-du. Defaults are calibrated to coherence
    lifetimes of 90 us (common) and 134 us (differential).
    """

    sigma_common_2pi_khz: float = sigma_for_lifetime(90.0)
    sigma_diff_2pi_khz: float = sigma_for_lifetime(134.0)

    def __post_init__(self):
        if self.sigma_common_2pi_khz < 0 or self.sigma_diff_2pi_khz < 0:
            raise ValueError("noise sigmas must be >= 0")


def _sqdiff(x: np.ndarray) -> np.ndarray:
    """(x_b - x_b')^2 for every pair of basis states (b, b')."""
    return (x[:, None] - x[None, :]) ** 2


# dn^2 and dm^2 of wait_evolution for every coherence (b, b')
_DN2 = _sqdiff(N_UP.astype(float))
_DM2 = _sqdiff((ATOM1_UP - ATOM2_UP).astype(float))


def wait_evolution(
    state: TwoAtomState, t_us: float, noise: NoiseModel = NoiseModel()
) -> TwoAtomState:
    """Free evolution for t_us microseconds under the dephasing model.

    Averaging exp(-i phi) over the Gaussian detuning ensemble multiplies each
    coherence (b, b') by exp(-(wc^2 dn^2 + wd^2 dm^2) t^2 / 2), where dn is
    the difference in total up-count (common mode) and dm the difference in
    up-count imbalance between the atoms (differential mode). Populations are
    untouched; ud-du coherences see only the differential noise.
    """
    if t_us < 0:
        raise ValueError("t must be >= 0")
    return TwoAtomState(state.rho * np.exp(_decay_rate(noise) * t_us**2))


@functools.lru_cache(maxsize=16)
def _decay_rate(noise: NoiseModel) -> np.ndarray:
    """-(wc^2 dn^2 + wd^2 dm^2) / 2 per coherence, in 1 / us^2; read-only."""
    wc = 2.0 * np.pi * noise.sigma_common_2pi_khz * 1e-3  # rad / us
    wd = 2.0 * np.pi * noise.sigma_diff_2pi_khz * 1e-3
    rate = -0.5 * (wc**2 * _DN2 + wd**2 * _DM2)
    rate.flags.writeable = False
    return rate


@dataclass(frozen=True)
class HeraldOutcome:
    """Result of one carving pulse, conditioned on the herald.

    herald_prob is the unconditional probability of a d click (including dark
    counts); d_fraction is the probability that a detection event was a d
    event, i.e. herald_prob divided by the probability of any click at all.
    branch_log maps the number of detected d photons, 0 to the pulse's n_max
    (0 = dark count only), to its relative weight within the herald.
    """

    state: TwoAtomState
    herald_prob: float
    d_fraction: float
    branch_log: dict[int, float]
    any_prob: float

    def __post_init__(self):
        if not -1e-12 <= self.herald_prob <= 1 + 1e-12:
            raise ValueError("herald_prob out of [0, 1]")
        if not -1e-12 <= self.d_fraction <= 1 + 1e-12:
            raise ValueError("d_fraction out of [0, 1]")


_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)
# stirlerr(n) = log(n! / (sqrt(2 pi n) (n / e)**n)) for n = 1..15, below its series' range
_SMALL_STIRLERR = tuple(
    math.lgamma(k + 1) - (k + 0.5) * math.log(k) + k - _HALF_LOG_2PI for k in range(1, 16)
)


def _log_poisson(n_max: int, lam: np.ndarray) -> np.ndarray:
    """log(exp(-lam) lam**n / n!) for n = 0..n_max and each entry of a 2-d lam >= 0.

    Past n = 0 it is Loader's form -bd0 - stirlerr(n) - log(2 pi n) / 2, with
    bd0 = n log(n / lam) + lam - n through log1p (-inf at lam = 0 or -0.0).
    At lam in the thousands it sums over n to 1 within a few ulps, where the
    plain n log(lam) - lgamma(n + 1) - lam is off by up to 4e-12.
    """
    lam = np.abs(lam)
    n = np.arange(1, n_max + 1, dtype=float)[:, None, None]
    with np.errstate(divide="ignore", over="ignore"):
        bd0 = n * np.log1p((n - lam) / lam) - (n - lam)
    # stirlerr by its asymptotic series from n = 16 (the first omitted term is
    # below 2e-14), and from _SMALL_STIRLERR below that
    inv2 = 1.0 / n**2
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - inv2 / 1680) * inv2) * inv2) / n
    stirlerr[: len(_SMALL_STIRLERR), 0, 0] = _SMALL_STIRLERR[:n_max]
    return np.concatenate([-lam[None], -bd0 - stirlerr - _HALF_LOG_2PI - 0.5 * np.log(n)])


class _PulseTables:
    """Precomputed per-branch record amplitudes and Schur multipliers.

    count[n] is the multiplier conditioned on exactly n detected d photons,
    for n up to n_max, where the largest branch's Poisson tail is 12 sigma
    out; pmf[b, n] is its diagonal, the photon-count distribution of basis
    state b. At any nbar the rows are finite and sum to overlap * no_click.
    """

    __slots__ = ("count", "pmf", "n_max", "herald_mult", "p_no_d", "p_no_a", "dark")

    def __init__(self, model: ReflectionModel, pulse: PulseConfig):
        nu = pulse.nbar * pulse.mode_match
        nu_unmatched = pulse.nbar * (1.0 - pulse.mode_match)
        eta = pulse.det_eff
        dark = pulse.dark_prob
        root = np.sqrt(nu)

        delta = model.d_amp * root
        keep = model.a_amp * root
        # which-atom scattering records: the s(N) budget of a branch is split
        # evenly over its coupled atoms
        per_atom = np.where(N_UP > 0, model.scatter / np.maximum(N_UP, 1), 0.0) * nu
        u1 = np.sqrt(per_atom) * ATOM1_UP
        u2 = np.sqrt(per_atom) * ATOM2_UP
        # passive mirror loss; clamped because s(1) can slightly exceed the
        # single-up branch loss (second-mirror bookkeeping)
        passive = np.sqrt(np.clip(model.loss - model.scatter, 0.0, None) * nu)

        # coherent-state environment overlaps for all traced-out records: the
        # undetected d fraction, the a polarization, per-atom scattering and
        # passive loss
        log_g = -0.5 * (
            (1.0 - eta) * _sqdiff(delta)
            + _sqdiff(keep)
            + _sqdiff(u1)
            + _sqdiff(u2)
            + _sqdiff(passive)
        )
        overlap = np.exp(log_g)
        quad = np.exp(-0.5 * eta * (delta[:, None] ** 2 + delta[None, :] ** 2))
        log_no_click = -0.5 * eta * _sqdiff(delta)
        no_click = np.exp(log_no_click)

        max_rate = float(np.max(eta * delta**2))
        n_max = max(8, int(math.ceil(max_rate + 12.0 * math.sqrt(max_rate + 1.0))))
        # count[n] = overlap * quad * amp**n / n!, in logs: overlap * no_click times
        # the Poisson weight of n at mean amp, finite where n! or amp**n are not
        amp = eta * np.outer(delta, delta)
        self.count = np.exp(log_g + log_no_click + _log_poisson(n_max, amp))
        self.pmf = np.diagonal(self.count, axis1=1, axis2=2).T.copy()
        self.n_max = n_max
        self.herald_mult = overlap * (no_click - (1.0 - dark) * quad)
        self.p_no_d = (1.0 - dark) * np.exp(-eta * delta**2)
        self.p_no_a = np.exp(-eta * (keep**2 + nu_unmatched))
        self.dark = dark


def _as_model(cavity: ReflectionModel | None) -> ReflectionModel:
    if cavity is None:
        return _default_model()
    if isinstance(cavity, ReflectionModel):
        return cavity
    raise TypeError(f"expected a ReflectionModel or None, got {type(cavity)!r}")


@functools.lru_cache(maxsize=1)
def _default_model() -> ReflectionModel:
    """The ReflectionModel of CavityParams(), built on first use; its arrays are read-only."""
    model = ReflectionModel.from_params(CavityParams())
    for table in (model.a_amp, model.d_amp, model.scatter, model.loss):
        table.flags.writeable = False
    return model


def carve_step(
    state: TwoAtomState,
    pulse: PulseConfig | None = None,
    cavity: ReflectionModel | None = None,
) -> HeraldOutcome:
    """One carving pulse conditioned on a d-detector herald.

    The returned state is exact: the coherent pulse is treated photon by
    photon, all undetected records are traced out, and the state is
    conditioned on at least one detected d photon or a dark count. cavity is
    the ReflectionModel of the cavity, None for the default CavityParams().
    """
    return _carve(state.rho, _PulseTables(_as_model(cavity), pulse or PulseConfig()))


def _carve(rho: np.ndarray, tables: _PulseTables) -> HeraldOutcome:
    """carve_step on a raw (4, 4) rho with the pulse's tables built once per run."""
    if abs(rho.trace().real - 1.0) > 1e-9:
        raise ValueError("carve_step needs a normalized input state")
    diag = rho.diagonal().real
    herald_prob = float(diag @ tables.herald_mult.diagonal().real)
    if herald_prob < 1e-15:
        raise NeverHeraldsError(
            "this pulse never heralds on the given state "
            "(no d amplitude and no dark counts)"
        )
    heralded = TwoAtomState(rho * tables.herald_mult / herald_prob)
    any_prob = float(diag @ (1.0 - tables.p_no_d * tables.p_no_a))
    d_fraction = herald_prob / any_prob if any_prob > 0 else 1.0

    weights = diag @ tables.pmf
    weights[0] *= tables.dark
    return HeraldOutcome(
        state=heralded,
        herald_prob=herald_prob,
        d_fraction=d_fraction,
        branch_log=dict(enumerate((weights / herald_prob).tolist())),
        any_prob=any_prob,
    )


@dataclass(frozen=True)
class ProtocolResult:
    """Heralded protocol output with success bookkeeping.

    success_prob multiplies the per-step d_fractions (herald per detection
    event); efficiency multiplies the unconditional per-step herald
    probabilities (herald per attempt).
    """

    state: TwoAtomState
    success_prob: float
    efficiency: float
    steps: tuple[HeraldOutcome, ...]
    eta_ideal: float | None = None
    f_ideal: float | None = None


def single_carving_eta_ideal(alpha: float) -> float:
    """Ideal herald efficiency 1 - cos^4(alpha/2) of single carving."""
    return 1.0 - np.cos(alpha / 2.0) ** 4


def single_carving_f_ideal(alpha: float) -> float:
    """Ideal Psi+ fidelity 4 cos^2(alpha/2) / (3 + cos(alpha)) after carving."""
    return 4.0 * np.cos(alpha / 2.0) ** 2 / (3.0 + np.cos(alpha))


@dataclass(frozen=True)
class ProtocolSpec:
    """Descriptor of a carving protocol run.

    scheme is "double" (R_y(pi/2), carve, R_y(pi), carve: Psi+ from
    down-down, the singlet from the antiparallel mixture) or "single" (one
    pulse after a weak R_y(alpha) excitation of a perfect down-down state:
    near Psi+ at efficiency eta_ideal, never the antisymmetric singlet). A
    final rotation turns Psi+ into Phi- or Phi+. The preparation defaults
    to down_down except for the double-carving singlet target.
    """

    scheme: str = "double"
    target: BellKind = BellKind.PSI_PLUS
    alpha: float = np.pi / 2
    prep: PreparationSpec | None = None

    def __post_init__(self):
        if self.scheme not in ("double", "single"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "single" and self.target is BellKind.PSI_MINUS:
            raise ValueError(
                "single carving cannot target the singlet; the carved state "
                "lives in the symmetric subspace"
            )
        if not 0 <= self.alpha <= np.pi:
            raise ValueError("alpha must be in [0, pi]")
        if self.prep is None:
            kind = (
                "antiparallel"
                if self.scheme == "double" and self.target is BellKind.PSI_MINUS
                else "down_down"
            )
            object.__setattr__(self, "prep", PreparationSpec(kind))

    @property
    def n_pulses(self) -> int:
        return 2 if self.scheme == "double" else 1


def _build_ops(spec: ProtocolSpec) -> tuple:
    """The one description of a protocol: its preparation and its op list.

    Ops are ("rotate", RotationSpec) and ("pulse", k), k counting the pulses;
    a Phi target ends the list with the rotation that turns Psi+ into it. The
    exact channel and the Monte Carlo both walk this list with _walk.
    """
    if spec.scheme == "double":
        ops = [
            ("rotate", RotationSpec("y", np.pi / 2)),
            ("pulse", 0),
            ("rotate", RotationSpec("y", np.pi)),
            ("pulse", 1),
        ]
        prep = spec.prep
    else:
        ops = [("rotate", RotationSpec("y", spec.alpha)), ("pulse", 0)]
        prep = PreparationSpec("pure_dd")
    if spec.target is BellKind.PHI_MINUS:
        ops.append(("rotate", RotationSpec("y", np.pi / 2)))
    elif spec.target is BellKind.PHI_PLUS:
        ops.append(("rotate", RotationSpec("x", np.pi / 2)))
    return prep, ops


def _walk(ops, states: np.ndarray, pulse_rule) -> np.ndarray:
    """The one loop over an op list: rotate a raw (4, 4) or (n, 4, 4) array, or pulse it."""
    for op in ops:
        if op[0] == "rotate":
            states = _rotate(states, op[1])
        else:
            states = pulse_rule(states, op[1])
    return states


def run_protocol(
    spec: ProtocolSpec,
    pulse: PulseConfig | None = None,
    cavity: ReflectionModel | None = None,
) -> ProtocolResult:
    """Exact channel along the protocol's op list.

    The state is the last step's, rotated for a Phi target. cavity is a
    ReflectionModel, or None for the default CavityParams(); it and the pulse
    tables are built once per run. The states between ops stay raw arrays.
    """
    prep, ops = _build_ops(spec)
    tables = _PulseTables(_as_model(cavity), pulse or PulseConfig())
    steps = []

    def carve(rho, k):
        steps.append(_carve(rho, tables))
        return steps[-1].state.rho

    state = TwoAtomState(_walk(ops, prepare(prep).rho, carve))
    ideal = {}
    if spec.scheme == "single":
        ideal = {
            "eta_ideal": float(single_carving_eta_ideal(spec.alpha)),
            "f_ideal": float(single_carving_f_ideal(spec.alpha)),
        }
    return ProtocolResult(
        state=state,
        success_prob=math.prod(s.d_fraction for s in steps),
        efficiency=math.prod(s.herald_prob for s in steps),
        steps=tuple(steps),
        **ideal,
    )


@dataclass(frozen=True)
class MonteCarloResult:
    """Empirical protocol statistics from sampled trajectories.

    records holds per-trial arrays ("herald", "any_event", "n_d" with one
    column per pulse, and "fidelity", nan where the trial was not heralded);
    summaries are computed from them, so identical records mean identical
    summaries.
    """

    trials: int
    seed: int
    heralded: int
    success_rate: float
    efficiency: float
    mean_fidelity: float
    fidelity_stderr: float
    step_reached: tuple[int, ...]
    step_any_event: tuple[int, ...]
    step_heralds: tuple[int, ...]
    records: dict[str, np.ndarray]


_DRAW_BLOCK = 2048  # trials per block of draws: 2 048 rows of 7 doubles is about 115 KB


def _draw_columns(seed: int, trials: int, width: int) -> np.ndarray:
    """Generator(Philox(key=seed)).random((trials, width)).T, as a C-contiguous array.

    Generator.random makes each double from one 64-bit Philox output x as
    (x >> 11) * 2**-53, in row order. Here the raw outputs are drawn one block
    of trials at a time and written transposed, so every column is contiguous
    and no (trials, width) array of doubles forms.
    """
    bits = np.random.Philox(key=seed)
    cols = np.empty((width, trials))
    for start in range(0, trials, _DRAW_BLOCK):
        rows = min(_DRAW_BLOCK, trials - start)
        raw = bits.random_raw(rows * width).reshape(rows, width)
        np.multiply(raw.T >> 11, 2.0**-53, out=cols[:, start : start + rows])
    return cols


def _photon_counts(cdf: np.ndarray, node: np.ndarray, u: np.ndarray) -> np.ndarray:
    """How many entries of cdf[node[t]] lie below u[t], for each trial t.

    Each cdf row is a cumsum of nonnegative terms, so it never decreases, and
    the count is searchsorted(side="left") on the row: the same comparisons
    on the same floats as comparing u with the whole row. The trials are
    grouped by node with one argsort and searched one node at a time, so no
    (trials, row width) array forms; each count is one trial's own search, so
    the order within a group does not matter. monte_carlo_run passes only the
    trials whose draw is past column 0.
    """
    counts = np.empty(len(u), dtype=np.int64)
    order = np.argsort(node)
    for group in np.split(order, np.flatnonzero(np.diff(node[order])) + 1):
        if group.size:
            counts[group] = np.searchsorted(cdf[node[group[0]]], u[group])
    return counts


def monte_carlo_run(
    protocol: ProtocolSpec,
    trials: int,
    seed: int,
    pulse: PulseConfig | None = None,
    cavity: ReflectionModel | None = None,
) -> MonteCarloResult:
    """Trajectory simulation of a protocol, deterministic in (seed, trial).

    Every trial consumes a fixed row of counter-based uniform draws, kept as
    one contiguous column per draw (_draw_columns). A trial's state depends
    only on its record so far: the initial basis state, then n_d for each
    pulse. node indexes each trial into a stack of those prefix states, so
    each reached prefix is rotated and carved once for all trials that share
    it. A trial clicks when its count draw passes column 0 of its node's cdf
    row, and only the clicked trials are searched, one reached node at a
    time (_photon_counts). The counts come from carve_step's count table, so
    the MC covers the exact channel's nbar range.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pulse = pulse or PulseConfig()
    tables = _PulseTables(_as_model(cavity), pulse)
    prep, ops = _build_ops(protocol)
    n_pulses = protocol.n_pulses

    width = tables.n_max + 1
    target_vec = bell_vector(protocol.target)
    draws = _draw_columns(seed, trials, 1 + 3 * n_pulses)

    # the initial basis state: how many of the first three cumulative
    # populations lie below the trial's draw
    cum = np.cumsum(prepare(prep).rho.diagonal().real)
    node = (cum[0] < draws[0]).astype(np.int64)
    node += cum[1] < draws[0]
    node += cum[2] < draws[0]
    states = np.zeros((4, 4, 4), dtype=complex)
    states[np.arange(4), np.arange(4), np.arange(4)] = 1.0
    heralds = np.empty((n_pulses, trials), dtype=bool)
    any_event = np.empty((n_pulses, trials), dtype=bool)
    n_d = np.zeros((trials, n_pulses), dtype=np.int64)

    def pulse_rule(states, k):
        nonlocal node
        u_count, u_dark, u_a = draws[1 + 3 * k : 4 + 3 * k]
        diag = np.einsum("nii->ni", states).real.clip(min=0.0)
        cdf = np.cumsum(diag @ tables.pmf, axis=1)  # (nodes, n_max + 1)
        # a trial detects n_d >= 1 photons exactly when its draw passes column 0
        clicked = cdf[:, 0][node] < u_count
        np.less(u_dark, tables.dark, out=heralds[k])
        heralds[k] |= clicked
        hit = np.flatnonzero(clicked)
        nd = np.minimum(_photon_counts(cdf, node[hit], u_count[hit]), tables.n_max)
        n_d[hit, k] = nd
        # number the reached (node, nd) pairs with a presence mask, without
        # sorting; they become the next stack of prefix states
        pair = node * width
        pair[hit] += nd
        present = np.zeros(len(states) * width, dtype=bool)
        present[pair] = True
        node = (np.cumsum(present) - 1)[pair]
        parent, count = np.divmod(np.flatnonzero(present), width)
        w = diag[parent] * tables.pmf[:, count].T  # branch weights given the d count
        wsum = w.sum(axis=1)
        p_no_a = (w @ tables.p_no_a) / np.where(wsum > 0, wsum, 1.0)
        np.less(u_a, (1.0 - p_no_a)[node], out=any_event[k])
        any_event[k] |= heralds[k]
        states = states[parent] * tables.count[count]
        tr = np.einsum("nii->n", states).real
        return states / np.maximum(tr, 1e-300)[:, None, None]

    states = _walk(ops, states, pulse_rule)
    leaf_fid = np.einsum("a,nab,b->n", target_vec.conj(), states, target_vec).real

    alive = np.ones(trials, dtype=bool)
    step_reached, step_any, step_her = [], [], []
    for p in range(n_pulses):
        step_reached.append(int(np.count_nonzero(alive)))
        step_any.append(int(np.count_nonzero(any_event[p] & alive)))
        step_her.append(int(np.count_nonzero(heralds[p] & alive)))
        alive &= heralds[p]
    kept_at = np.flatnonzero(alive)
    heralded = len(kept_at)
    success = 1.0
    for a, h in zip(step_any, step_her):
        success *= h / a if a > 0 else np.nan
    kept = leaf_fid[node[kept_at]]
    fid = np.full(trials, np.nan)
    fid[kept_at] = kept
    mean_f = float(kept.mean()) if heralded else float("nan")
    stderr = float(kept.std(ddof=1) / math.sqrt(heralded)) if heralded > 1 else float("nan")
    return MonteCarloResult(
        trials=trials,
        seed=seed,
        heralded=heralded,
        success_rate=float(success),
        efficiency=heralded / trials,
        mean_fidelity=mean_f,
        fidelity_stderr=stderr,
        step_reached=tuple(step_reached),
        step_any_event=tuple(step_any),
        step_heralds=tuple(step_her),
        records={
            "herald": np.stack(heralds, axis=1),
            "any_event": np.stack(any_event, axis=1),
            "n_d": n_d,
            "fidelity": fid,
        },
    )

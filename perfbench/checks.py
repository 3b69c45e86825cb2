"""Output checks for the benchmark, each from outside the program.

Every check takes plain numbers (or text the CLI wrote) and returns a list of
problems, empty when the output is right. References come from closed forms
computed here with math, from properties the method must have, or from a
second path through the program that must agree with the first. No check
compares against a stored copy of earlier output.

Bounds are fixed here, before any run:
- counts against exact probabilities (heralds, d-fractions, detect entries):
  a count fails only when a Chernoff bound puts the binomial tail beyond it
  below ALPHA. For large expected counts this is about 6.5 sigma; unlike a
  normal approximation it stays valid when the expected count is below one.
- MC mean fidelity against the exact one: Z_BOUND standard errors, on the
  trials of all ops at one parameter point pooled, once they hold at least
  MIN_POOLED_HERALDS heralds. Per-trial fidelities are multimodal (at
  nbar = 1.07, 86% of heralded trials sit at 0.750 and 11% at 0.447), so a
  few dozen heralds can miss a mode, and their sample spread is then no
  error bar.
- closed forms of the ideal limit and the tomography identities: 1e-9.
"""

from __future__ import annotations

import math

ALPHA = 1e-9
Z_BOUND = 6.0
MIN_POOLED_HERALDS = 1000
CLOSED_FORM_TOL = 1e-9
# The lifetime curve is an exact Gaussian around 1/2, so the fit must return
# the 1/e times that NoiseModel's defaults are calibrated to.
LIFETIME_US = {"psi_plus": 134.0, "psi_minus": 134.0, "phi_plus": 90.0, "phi_minus": 90.0}
LIFETIME_TOL_US = 1e-9


def _kl(q: float, p: float) -> float:
    """Kullback-Leibler divergence of Bernoulli(q) from Bernoulli(p)."""
    total = 0.0
    for a, b in ((q, p), (1.0 - q, 1.0 - p)):
        if a > 0:
            total += math.inf if b <= 0 else a * math.log(a / b)
    return total


def binomial(count: int, n: int, p: float, what: str) -> list[str]:
    """count ~ Binomial(n, p), failing when the Chernoff tail bound exp(-n KL) < ALPHA / 2."""
    if n == 0:
        return [] if count == 0 else [f"{what}: {count} events out of 0"]
    if n * _kl(count / n, p) <= math.log(2.0 / ALPHA):
        return []
    return [f"{what}: {count}/{n}, expected {n * p:.3f} +- {math.sqrt(n * p * (1.0 - p)):.3f}"]


def mc_against_exact(mc: dict, exact: dict, tag: str) -> list[str]:
    """Counts of one Monte Carlo run against the exact channel for the same protocol.

    mc holds trials, heralded, step_reached, step_any_event and step_heralds;
    exact holds d_fractions and efficiency.
    """
    problems = []
    reached, anyev, her = mc["step_reached"], mc["step_any_event"], mc["step_heralds"]
    if reached[0] != mc["trials"]:
        problems.append(f"{tag}: step 1 reached by {reached[0]} of {mc['trials']} trials")
    for k in range(len(reached) - 1):
        if reached[k + 1] != her[k]:
            problems.append(f"{tag}: step {k + 2} reached {reached[k + 1]} != heralds {her[k]}")
    if mc["heralded"] != her[-1]:
        problems.append(f"{tag}: heralded {mc['heralded']} != last step heralds {her[-1]}")
    for k, (a, h) in enumerate(zip(anyev, her)):
        if not h <= a <= reached[k]:
            problems.append(f"{tag}: step {k + 1} heralds {h}, events {a}, reached {reached[k]}")
    if len(exact["d_fractions"]) != len(her):
        return problems + [f"{tag}: {len(her)} MC steps, {len(exact['d_fractions'])} exact"]
    problems += binomial(mc["heralded"], mc["trials"], exact["efficiency"], f"{tag} heralds")
    for k, d in enumerate(exact["d_fractions"]):
        problems += binomial(her[k], anyev[k], d, f"{tag} step {k + 1} d-fraction")
    return problems


def pooled_fidelity(runs, exact: float, tag: str) -> list[str]:
    """Independent MC runs at one point, pooled, against the exact fidelity.

    runs holds (heralded, mean_fidelity, fidelity_stderr) per run. The pooled
    mean is tested once the runs hold MIN_POOLED_HERALDS heralds together.
    """
    runs = [r for r in runs if r[0] > 0]
    n = sum(h for h, _, _ in runs)
    if n < MIN_POOLED_HERALDS:
        return []
    mean = sum(h * m for h, m, _ in runs) / n
    squares = sum(
        (h - 1) * (se * se * h if h > 1 else 0.0) + h * (m - mean) ** 2 for h, m, se in runs
    )
    stderr = math.sqrt(squares / (n - 1) / n)
    z = (mean - exact) / stderr if stderr > 0 else (0.0 if mean == exact else math.inf)
    if abs(z) <= Z_BOUND:
        return []
    return [f"{tag}: MC fidelity {mean:.6f} +- {stderr:.6f} over {n} heralds vs exact "
            f"{exact:.6f} (z = {z:.2f})"]


def ideal_double(d_fractions, success: float, fid: float, tag: str) -> list[str]:
    """Lossless double carving: d-fractions 3/4 and 2/3, success 1/2, F = 1."""
    want = ((d_fractions[0], 0.75), (d_fractions[1], 2.0 / 3.0), (success, 0.5), (fid, 1.0))
    return [
        f"{tag}: ideal double carving gave {got!r}, closed form {ref!r}"
        for got, ref in want
        if not abs(got - ref) <= CLOSED_FORM_TOL
    ]


def ideal_single(alpha: float, success: float, fid: float, tag: str) -> list[str]:
    """Lossless single carving: success 1 - cos^4(a/2), F = 4 cos^2(a/2) / (3 + cos a)."""
    c = math.cos(alpha / 2.0)
    want = ((success, 1.0 - c**4), (fid, 4.0 * c * c / (3.0 + math.cos(alpha))))
    return [
        f"{tag}: ideal single carving at alpha={alpha!r} gave {got!r}, closed form {ref!r}"
        for got, ref in want
        if not abs(got - ref) <= CLOSED_FORM_TOL
    ]


def singlet_weight(rho) -> float:
    """<Psi-|rho|Psi-> in the (uu, ud, du, dd) basis."""
    return 0.5 * (rho[1][1] + rho[2][2] - rho[1][2] - rho[2][1]).real


def husimi_quadrature_tol(n_theta: int) -> float:
    """Midpoint-rule error bound of the Husimi integral on n_theta colatitudes.

    The azimuth sum is exact for the trigonometric polynomials of a two-atom
    state; along theta the integrand is (3/2) sin(theta) P(cos theta) with P a
    quadratic in [0, 1] on [-1, 1]. Written as sines of theta, 2 theta and
    3 theta, its second derivative stays below 27/4 in magnitude, so the
    midpoint error is at most pi h^2 / 24 * 27/4 < h^2.
    """
    h = math.pi / n_theta
    return h * h


def tomography(op: dict, tag: str) -> list[str]:
    """Parity tomography, Husimi integral and lifetime fit of one state.

    op holds fidelity (direct overlap), bell_fidelity (from populations and the
    parity fit), husimi_integral, n_theta, rho, target and tau_us.
    """
    problems = []
    if not abs(op["bell_fidelity"] - op["fidelity"]) <= CLOSED_FORM_TOL:
        problems.append(
            f"{tag}: parity-tomography fidelity {op['bell_fidelity']!r} != overlap {op['fidelity']!r}"
        )
    symmetric = 1.0 - singlet_weight(op["rho"])
    tol = husimi_quadrature_tol(op["n_theta"])
    if not abs(op["husimi_integral"] - symmetric) <= tol:
        problems.append(
            f"{tag}: Husimi integral {op['husimi_integral']!r} vs 1 - <Psi-|rho|Psi-> "
            f"{symmetric!r} (tolerance {tol:.2e})"
        )
    problems += lifetime(op["tau_us"], op["target"], tag)
    return problems


def lifetime(tau_us: float, target: str, tag: str) -> list[str]:
    ref = LIFETIME_US[target]
    if abs(tau_us - ref) <= LIFETIME_TOL_US:
        return []
    return [f"{tag}: fitted lifetime {tau_us!r} us for {target}, calibrated {ref} us"]


def _poisson_above(mean: float, threshold: int) -> float:
    """P(N > threshold) for N ~ Poisson(mean)."""
    term = math.exp(-mean)
    below = term
    for k in range(1, threshold + 1):
        term *= mean / k
        below += term
    return 1.0 - below


def detect_reference(rates: dict) -> list[list[float]]:
    """Closed-form confusion matrix of the two-window classifier.

    rates holds transmission_means, fluorescence_means (true-class order
    down_down, antiparallel, up_up) and the two thresholds; columns are
    down_down, antiparallel, up_up, inconsistent.
    """
    rows = []
    for t_mean, f_mean in zip(rates["transmission_means"], rates["fluorescence_means"]):
        t = _poisson_above(t_mean, rates["transmission_threshold"])
        f = _poisson_above(f_mean, rates["fluorescence_threshold"])
        rows.append([t * f, (1 - t) * f, (1 - t) * (1 - f), t * (1 - f)])
    return rows


def detect_matrix(matrix, rates: dict, trials: int, tag: str) -> list[str]:
    """Rows sum to 1; each entry's count is Binomial(trials, closed form)."""
    if len(matrix) != 3 or any(len(row) != 4 for row in matrix):
        return [f"{tag}: matrix shape is not 3 x 4"]
    problems = []
    for i, (row, ref_row) in enumerate(zip(matrix, detect_reference(rates))):
        if not abs(sum(row) - 1.0) <= 1e-12:
            problems.append(f"{tag}: row {i} sums to {sum(row)!r}")
        for j, (got, p) in enumerate(zip(row, ref_row)):
            problems += binomial(round(got * trials), trials, p, f"{tag} entry ({i},{j})")
    return problems


def cli_exit(returncode: int, stderr: bytes, tag: str) -> list[str]:
    problems = []
    if returncode != 0:
        problems.append(f"{tag}: exit code {returncode}")
    if stderr:
        problems.append(f"{tag}: stderr {stderr[:200]!r}")
    return problems


def same_bytes(reference: dict, outputs: dict, tag: str) -> list[str]:
    """Outputs of one command with fixed inputs must repeat byte for byte."""
    if reference == outputs:
        return []
    changed = sorted(k for k in set(reference) | set(outputs) if reference.get(k) != outputs.get(k))
    return [f"{tag}: output bytes differ from the first round in {', '.join(changed)}"]


def parity_curve(phases, values, fit: dict, tag: str) -> list[str]:
    """An exact parity scan lies on offset + 2 Im sin 2phi + 2 Re cos 2phi."""
    problems = []
    if not fit["residual"] <= CLOSED_FORM_TOL:
        problems.append(f"{tag}: parity fit residual {fit['residual']!r} on exact data")
    if not abs(fit["offset"] - 2.0 * fit["re_updn_dnup"]) <= CLOSED_FORM_TOL:
        problems.append(f"{tag}: offset {fit['offset']!r} != 2 Re rho_ud,du")
    for phi, value in zip(phases, values):
        model = (
            2.0 * fit["re_updn_dnup"]
            + 2.0 * fit["im_upup_dndn"] * math.sin(2.0 * phi)
            + 2.0 * fit["re_upup_dndn"] * math.cos(2.0 * phi)
        )
        if not abs(model - value) <= CLOSED_FORM_TOL:
            problems.append(f"{tag}: parity {value!r} at phi={phi!r}, fitted curve {model!r}")
            break
    return problems


def husimi_rows(rows, n_theta: int, n_phi: int, integral: float, tag: str) -> list[str]:
    """A Husimi CSV: full grid, Q >= 0, header integral = quadrature of the rows."""
    problems = []
    if len(rows) != n_theta * n_phi:
        return [f"{tag}: {len(rows)} grid rows, expected {n_theta * n_phi}"]
    cell = (math.pi / n_theta) * (2.0 * math.pi / n_phi)
    total = 0.0
    for theta, _phi, q in rows:
        if q < 0:
            problems.append(f"{tag}: negative Q {q!r}")
            break
        total += q * math.sin(theta) * cell
    if not abs(total - integral) <= CLOSED_FORM_TOL:
        problems.append(f"{tag}: header integral {integral!r}, rows integrate to {total!r}")
    if not -CLOSED_FORM_TOL <= integral <= 1.0 + husimi_quadrature_tol(n_theta):
        problems.append(f"{tag}: integral {integral!r} outside [0, 1]")
    return problems

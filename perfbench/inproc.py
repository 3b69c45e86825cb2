"""The three in-process workloads: mc_bulk, sweep_points, exact_tomography.

Each workload holds one round of op inputs (`inputs`), runs one op
(`run`, the timed region), reduces its output to plain numbers
(`summarize`, untimed) and checks all summaries after the loop (`check`).
Every call into carvesim goes through the package namespace, so the spans
that tracer.Tracer installs there see it.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

import carvesim as cv
import checks
from seeds import input_rng, op_seed

DOUBLE_TARGETS = ("psi_plus", "psi_minus", "phi_plus", "phi_minus")
SINGLE_TARGETS = ("psi_plus", "phi_plus", "phi_minus")
PAIRS = [("double", t) for t in DOUBLE_TARGETS] + [("single", t) for t in SINGLE_TARGETS]


def _spec(scheme: str, target: str, alpha: float = math.pi / 2) -> cv.ProtocolSpec:
    return cv.ProtocolSpec(scheme, cv.BellKind(target), alpha=alpha)


def _nbar(rng) -> float:
    return 0.02 + 1.98 * rng.random()  # [0.02, 2]


def _alpha(rng) -> float:
    return math.pi * (1.0 - 0.98 * rng.random())  # (0.02 pi, pi]


def _points(rng, per_pair: int):
    """nbar points for double carving, alpha points for single carving."""
    points = []
    for scheme, target in PAIRS:
        for _ in range(per_pair):
            if scheme == "double":
                points.append((_spec(scheme, target), cv.PulseConfig(nbar=_nbar(rng))))
            else:
                points.append((_spec(scheme, target, _alpha(rng)), cv.PulseConfig()))
    return points


def _tag(spec, pulse=None) -> str:
    if spec.scheme == "single":
        return f"single {spec.target.value} alpha={spec.alpha:.6g}"
    nbar = "" if pulse is None else f" nbar={pulse.nbar:.6g}"
    return f"double {spec.target.value}{nbar}"


def exact_summary(result, target) -> dict:
    return {
        "fidelity": cv.fidelity(result.state, target),
        "d_fractions": [s.d_fraction for s in result.steps],
        "efficiency": result.efficiency,
    }


def mc_summary(mc) -> dict:
    return {
        "trials": mc.trials,
        "heralded": mc.heralded,
        "step_reached": mc.step_reached,
        "step_any_event": mc.step_any_event,
        "step_heralds": mc.step_heralds,
        "mean_fidelity": mc.mean_fidelity,
        "fidelity_stderr": mc.fidelity_stderr,
    }


def mc_fidelity_problems(rows) -> list[str]:
    """Pool the MC runs of each (spec, pulse) point and test the mean fidelity.

    rows yields ((spec, pulse), exact fidelity, mc summary); every op has its
    own seed, so runs at one point are independent.
    """
    pooled = {}
    for item, exact, mc in rows:
        entry = pooled.setdefault(item, (exact, []))
        entry[1].append((mc["heralded"], mc["mean_fidelity"], mc["fidelity_stderr"]))
    problems = []
    for (spec, pulse), (exact, runs) in pooled.items():
        problems += checks.pooled_fidelity(runs, exact, _tag(spec, pulse))
    return problems


def ideal_limit_problems(points) -> list[str]:
    """Each point's protocol, rerun lossless, against its closed forms."""
    model = cv.ReflectionModel.ideal()
    problems = []
    for spec, pulse in points:
        ideal_pulse = cv.PulseConfig(nbar=pulse.nbar, dark_prob=0.0, det_eff=1.0, mode_match=1.0)
        ideal_spec = replace(spec, prep=cv.PreparationSpec(spec.prep.kind, 1.0))
        res = cv.run_protocol(ideal_spec, ideal_pulse, model)
        fid = cv.fidelity(res.state, spec.target)
        tag = "ideal " + _tag(spec, pulse)
        if spec.scheme == "double":
            d = [s.d_fraction for s in res.steps]
            problems += checks.ideal_double(d, res.success_prob, fid, tag)
        else:
            problems += checks.ideal_single(spec.alpha, res.success_prob, fid, tag)
    return problems


class McBulk:
    """One large monte_carlo_run per op, cycling over the seven protocol/target pairs."""

    name = "mc_bulk"
    trials = 50_000

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = [(_spec(scheme, target), None) for scheme, target in PAIRS]

    def run(self, item, k):
        spec, pulse = item
        return cv.monte_carlo_run(spec, self.trials, op_seed(self.name, self.seed, k), pulse)

    def summarize(self, item, mc, k):
        return item, mc_summary(mc)

    def check(self, summaries) -> list[str]:
        exact = {spec: exact_summary(cv.run_protocol(spec, pulse), spec.target)
                 for spec, pulse in self.inputs}
        problems = []
        for (spec, _), mc in summaries:
            problems += checks.mc_against_exact(mc, exact[spec], _tag(spec))
        return problems + mc_fidelity_problems(
            ((item, exact[item[0]]["fidelity"], mc) for item, mc in summaries)
        )

    def mc_calls(self):
        return self.inputs


class SweepPoints:
    """One sweep point per op, computed as cli.cmd_sweep does: exact channel plus small MC."""

    name = "sweep_points"
    trials = 3000
    per_pair = 6

    def __init__(self, seed: int):
        self.seed = seed
        self.model = cv.ReflectionModel.from_params(cv.CavityParams())
        self.inputs = _points(input_rng(self.name, seed), self.per_pair)

    def run(self, item, k):
        spec, pulse = item
        exact = cv.run_protocol(spec, pulse, self.model)
        mc = cv.monte_carlo_run(spec, self.trials, op_seed(self.name, self.seed, k), pulse, self.model)
        return exact, mc

    def summarize(self, item, out, k):
        exact, mc = out
        return item, exact_summary(exact, item[0].target), mc_summary(mc)

    def check(self, summaries) -> list[str]:
        problems = []
        for (spec, pulse), exact, mc in summaries:
            problems += checks.mc_against_exact(mc, exact, _tag(spec, pulse))
        problems += mc_fidelity_problems(
            (item, exact["fidelity"], mc) for item, exact, mc in summaries
        )
        return problems + ideal_limit_problems(self.inputs)

    def mc_calls(self):
        return self.inputs


class ExactTomography:
    """No MC: the exact channel, then parity tomography, a Husimi grid and a lifetime fit."""

    name = "exact_tomography"
    per_pair = 4
    phases = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    n_theta, n_phi = 60, 120
    wait_us = np.linspace(0.0, 300.0, 40)

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = _points(input_rng(self.name, seed), self.per_pair)

    def run(self, item, k):
        spec, pulse = item
        state = cv.run_protocol(spec, pulse).state
        values = np.array([cv.parity_of(state, phi) for phi in self.phases])
        fit = cv.fit_parity(cv.ParityScan(self.phases, values))
        tomo = cv.bell_fidelity(cv.populations(state), fit, spec.target)
        grid = cv.husimi_grid(state, self.n_theta, self.n_phi)
        bell = cv.bell_state(spec.target)
        curve = np.array(
            [cv.fidelity(cv.wait_evolution(bell, float(t)), spec.target) for t in self.wait_us]
        )
        tau = cv.gaussian_lifetime_fit(self.wait_us, curve, baseline=0.5)
        return state, tomo, grid.integral, tau

    def summarize(self, item, out, k):
        spec, pulse = item
        state, tomo, integral, tau = out
        return _tag(spec, pulse), {
            "fidelity": cv.fidelity(state, spec.target),
            "bell_fidelity": tomo,
            "husimi_integral": integral,
            "n_theta": self.n_theta,
            "rho": state.rho,
            "target": spec.target.value,
            "tau_us": tau,
        }

    def check(self, summaries) -> list[str]:
        problems = []
        for tag, op in summaries:
            problems += checks.tomography(op, tag)
        return problems + ideal_limit_problems(self.inputs)

    def mc_calls(self):
        return []


WORKLOADS = {cls.name: cls for cls in (McBulk, SweepPoints, ExactTomography)}

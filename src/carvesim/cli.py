"""Command-line front end: config ingestion, presets, CSV/JSON emission.

Exit codes: 0 success, 1 config error, 2 runtime error (a protocol that never
heralds, a failed fit, invalid run parameters, a numeric overflow). Every CSV
starts with #-prefixed header lines naming the command, the config hash and
the columns; JSON reports use sorted keys. Identical config and seed give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .analysis import (
    DETECTION_CLASSES,
    DetectionRates,
    FitFailedError,
    ParityScan,
    confusion_matrix,
    fit_parity,
    gaussian_lifetime_fit,
    husimi_grid,
)
from .cavity import ReflectionModel
from .config import (
    ConfigError,
    RunConfig,
    config_hash,
    load_config,
    load_rates,
    with_overrides,
)
from .protocols import (
    NeverHeraldsError,
    NoiseModel,
    PreparationSpec,
    ProtocolSpec,
    PulseConfig,
    monte_carlo_run,
    prepare,
    run_protocol,
    wait_evolution,
)
from .states import BellKind, bell_state, fidelity

_TARGETS = {
    "psi_plus": BellKind.PSI_PLUS,
    "psi_minus": BellKind.PSI_MINUS,
    "phi_plus": BellKind.PHI_PLUS,
    "phi_minus": BellKind.PHI_MINUS,
}

_HUSIMI_STATES = ("psi_plus", "psi_minus", "phi_plus", "phi_minus", "down_down")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="flat key = value config file")
    common.add_argument("--seed", type=int, help="64-bit Monte Carlo seed")
    common.add_argument("--trials", type=int, help="Monte Carlo trial count")
    common.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    common.add_argument(
        "--ideal",
        action="store_true",
        help="noiseless limit: perfect cavity, detectors, preparation",
    )

    parser = argparse.ArgumentParser(
        prog="carvesim",
        description="Two-atom Bell-state carving in a single-sided cavity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("protocol", parents=[common], help="run one carving protocol")
    _add_protocol_args(p)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("sweep", parents=[common], help="sweep nbar or alpha")
    _add_protocol_args(p)
    p.add_argument("--variable", choices=("nbar", "alpha"), required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("parity", parents=[common], help="parity scan of a protocol output")
    _add_protocol_args(p)
    p.add_argument("--n-phases", type=int, default=24)
    p.set_defaults(func=cmd_parity)

    p = sub.add_parser("husimi", parents=[common], help="Husimi Q grid")
    _add_protocol_args(p)
    p.add_argument(
        "--state",
        choices=_HUSIMI_STATES,
        help="evaluate a named pure state instead of the protocol output",
    )
    p.add_argument("--resolution", default="60x120", help="grid as NTHETAxNPHI")
    p.set_defaults(func=cmd_husimi)

    p = sub.add_parser("lifetime", parents=[common], help="dephasing curve and tau fit")
    p.add_argument("--target", choices=sorted(_TARGETS), default="psi_plus")
    p.add_argument("--t-max", type=float, default=300.0, help="last wait time in us")
    p.add_argument("--points", type=int, default=40)
    p.set_defaults(func=cmd_lifetime)

    p = sub.add_parser("detect", parents=[common], help="state-detection confusion matrix")
    p.add_argument("--rates-file", metavar="PATH", help="override detection count means")
    p.set_defaults(func=cmd_detect)
    return parser


def _add_protocol_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", choices=("double", "single"), default="double")
    p.add_argument("--target", choices=sorted(_TARGETS), default="psi_plus")
    p.add_argument(
        "--alpha",
        type=float,
        default=math.pi / 2,
        help="single-carving rotation angle in radians",
    )


def _resolve_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    top = {"seed": args.seed, "trials": args.trials, "output_path": args.out}
    return with_overrides(config, **{k: v for k, v in top.items() if v is not None})


def _run_pieces(config: RunConfig, args):
    """(model, pulse, prep, noise) with the --ideal override applied."""
    target = _TARGETS[getattr(args, "target", "psi_plus")]
    scheme = getattr(args, "scheme", "double")
    prep = config.prep
    if scheme == "double" and target is BellKind.PSI_MINUS and prep.kind != "antiparallel":
        # the singlet needs the antiparallel mixture regardless of the
        # configured default preparation
        prep = PreparationSpec("antiparallel")
    if args.ideal:
        model = ReflectionModel.ideal()
        pulse = PulseConfig(
            nbar=config.pulse.nbar, dark_prob=0.0, det_eff=1.0, mode_match=1.0
        )
        prep = PreparationSpec(prep.kind, 1.0)
        noise = NoiseModel(0.0, 0.0)
    else:
        model = ReflectionModel.from_params(config.cavity)
        pulse = config.pulse
        noise = config.noise
    return model, pulse, prep, noise


def _protocol_spec(args, prep: PreparationSpec) -> ProtocolSpec:
    return ProtocolSpec(
        scheme=args.scheme,
        target=_TARGETS[args.target],
        alpha=args.alpha,
        prep=prep,
    )


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _write_csv(config, command, columns, rows, extra_header=(), path=None) -> None:
    lines = [f"# carvesim {command}", f"# config_hash: {config_hash(config)}"]
    lines += [f"# {line}" for line in extra_header]
    lines.append("# columns: " + ",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_text("\n".join(lines) + "\n", path)


def _write_text(text: str, path) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return None
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _emit_json(report, path=None) -> None:
    _write_text(json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n", path)


def _sibling(path: str, suffix: str) -> str:
    if path.endswith(suffix):
        raise ValueError(f"--out {path!r} ends in {suffix}, the suffix of its sibling file")
    other = ".json" if suffix == ".csv" else ".csv"
    return path.removesuffix(other) + suffix


def cmd_protocol(args, config: RunConfig) -> int:
    csv_path = _sibling(config.output_path, ".csv") if config.output_path else None
    model, pulse, prep, _ = _run_pieces(config, args)
    spec = _protocol_spec(args, prep)
    result = run_protocol(spec, pulse, model)
    mc = monte_carlo_run(spec, config.trials, config.seed, pulse, model)
    report = {
        "command": "protocol",
        "config_hash": config_hash(config),
        "scheme": spec.scheme,
        "target": args.target,
        "exact": {
            "fidelity": {
                name: fidelity(result.state, kind) for name, kind in _TARGETS.items()
            },
            "success_prob": result.success_prob,
            "efficiency": result.efficiency,
            "d_fractions": [s.d_fraction for s in result.steps],
            "herald_probs": [s.herald_prob for s in result.steps],
        },
        "monte_carlo": {
            "trials": mc.trials,
            "seed": mc.seed,
            "heralded": mc.heralded,
            "success_rate": mc.success_rate,
            "efficiency": mc.efficiency,
            "mean_fidelity": mc.mean_fidelity,
            "fidelity_stderr": mc.fidelity_stderr,
        },
    }
    if spec.scheme == "single":
        report["exact"]["eta_ideal"] = result.eta_ideal
        report["exact"]["f_ideal"] = result.f_ideal
    _emit_json(report, config.output_path)
    if csv_path:
        rows = [
            (i + 1, s.herald_prob, s.d_fraction, s.any_prob)
            for i, s in enumerate(result.steps)
        ]
        _write_csv(
            config,
            "protocol",
            ["step", "herald_prob", "d_fraction", "any_prob"],
            rows,
            path=csv_path,
        )
    return 0


def cmd_sweep(args, config: RunConfig) -> int:
    if args.steps < 2:
        raise ValueError("sweep needs at least 2 steps")
    if not args.stop > args.start:
        raise ValueError("sweep range must be increasing")
    if args.variable == "alpha" and args.scheme == "double":
        raise ValueError("double carving has no alpha; sweep alpha with --scheme single")
    model, pulse, prep, _ = _run_pieces(config, args)
    spec = _protocol_spec(args, prep)
    xs = np.linspace(args.start, args.stop, args.steps)
    rows = []
    for x in xs:
        if args.variable == "nbar":
            pulse_x, spec_x = replace(pulse, nbar=float(x)), spec
        else:
            pulse_x, spec_x = pulse, replace(spec, alpha=float(x))
        result = run_protocol(spec_x, pulse_x, model)
        mc = monte_carlo_run(spec_x, config.trials, config.seed, pulse_x, model)
        rows.append(
            (
                float(x),
                fidelity(result.state, spec.target),
                mc.mean_fidelity,
                mc.fidelity_stderr,
                result.success_prob,
            )
        )
    _write_csv(
        config,
        "sweep",
        ["x", "fidelity_exact", "fidelity_mc", "mc_stderr", "success_prob"],
        rows,
        extra_header=[f"variable: {args.variable}"],
        path=config.output_path,
    )
    return 0


def cmd_parity(args, config: RunConfig) -> int:
    if args.n_phases < 3:
        raise ValueError("parity scan needs at least 3 phases")
    json_path = _sibling(config.output_path, ".json") if config.output_path else None
    model, pulse, prep, _ = _run_pieces(config, args)
    state = run_protocol(_protocol_spec(args, prep), pulse, model).state
    scan = ParityScan.of_state(state, args.n_phases)
    fit = fit_parity(scan)
    _write_csv(
        config,
        "parity",
        ["phi", "parity"],
        zip(scan.phases, scan.parities),
        path=config.output_path,
    )
    _emit_json(
        {
            "command": "parity",
            "config_hash": config_hash(config),
            "re_updn_dnup": fit.re_updn_dnup,
            "im_upup_dndn": fit.im_upup_dndn,
            "re_upup_dndn": fit.re_upup_dndn,
            "residual": fit.residual,
            "offset": 2.0 * fit.re_updn_dnup,
        },
        json_path,
    )
    return 0


def cmd_husimi(args, config: RunConfig) -> int:
    try:
        n_theta, _, n_phi = args.resolution.partition("x")
        n_theta, n_phi = int(n_theta), int(n_phi)
    except ValueError as exc:
        raise ValueError(f"bad resolution {args.resolution!r}, expected NxM") from exc
    model, pulse, prep, _ = _run_pieces(config, args)
    if args.state == "down_down":
        state = prepare(PreparationSpec("pure_dd"))
    elif args.state:
        state = bell_state(_TARGETS[args.state])
    else:
        state = run_protocol(_protocol_spec(args, prep), pulse, model).state
    grid = husimi_grid(state, n_theta, n_phi)
    flat_idx = int(np.argmax(grid.q))
    ti, pi = np.unravel_index(flat_idx, grid.q.shape)
    rows = (
        (grid.theta[i], grid.phi[j], grid.q[i, j], grid.x[i, j], grid.y[i, j])
        for i in range(n_theta)
        for j in range(n_phi)
    )
    _write_csv(
        config,
        "husimi",
        ["theta", "phi", "q", "x", "y"],
        rows,
        extra_header=[
            f"integral: {grid.integral:.12g}",
            f"max_q: {grid.q[ti, pi]:.12g} at theta={grid.theta[ti]:.12g} phi={grid.phi[pi]:.12g}",
        ],
        path=config.output_path,
    )
    return 0


def cmd_lifetime(args, config: RunConfig) -> int:
    json_path = _sibling(config.output_path, ".json") if config.output_path else None
    noise = NoiseModel(0.0, 0.0) if args.ideal else config.noise
    target = _TARGETS[args.target]
    bell = bell_state(target)
    times = np.linspace(0.0, args.t_max, args.points)
    fids = np.array(
        [fidelity(wait_evolution(bell, float(t), noise), target) for t in times]
    )
    tau = gaussian_lifetime_fit(times, fids, baseline=0.5)
    _write_csv(
        config,
        "lifetime",
        ["t_us", "fidelity"],
        zip(times, fids),
        extra_header=[f"target: {args.target}"],
        path=config.output_path,
    )
    _emit_json(
        {
            "command": "lifetime",
            "config_hash": config_hash(config),
            "target": args.target,
            "tau_us": tau,
        },
        json_path,
    )
    return 0


def cmd_detect(args, config: RunConfig) -> int:
    rates = load_rates(args.rates_file) if args.rates_file else DetectionRates()
    matrix = confusion_matrix(rates, config.trials, config.seed)
    stderr = np.sqrt(matrix * (1.0 - matrix) / config.trials)
    _emit_json(
        {
            "command": "detect",
            "config_hash": config_hash(config),
            "true_classes": list(DETECTION_CLASSES),
            "assigned_classes": list(DETECTION_CLASSES) + ["inconsistent"],
            "matrix": matrix,
            "stderr": stderr,
            "trials": config.trials,
            "seed": config.seed,
        },
        config.output_path,
    )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _resolve_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (
        NeverHeraldsError,
        FitFailedError,
        ValueError,  # also UnderdeterminedScanError and NullBranchError
        ArithmeticError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

"""Command-line front end: config ingestion, presets, CSV/JSON emission.

Exit codes: 0 success, 1 config error, 2 runtime error (a protocol that never
heralds, a failed fit, invalid run parameters, a numeric overflow, an array too
large to allocate). Every CSV starts with #-prefixed header lines naming the
command, the config hash and the columns; JSON reports use sorted keys.
Identical config and seed give byte-identical outputs.

Each cmd_* only computes: it returns a JSON report and a CSV table, either
of which may be None. _inputs builds what a run simulates, and _run_command
stamps and routes what a command returns.
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

_HUSIMI_STATES = ("psi_plus", "psi_minus", "phi_plus", "phi_minus", "down_down")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="flat key = value config file")
    common.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    common.add_argument(
        "--ideal",
        action="store_true",
        help="noiseless limit: perfect cavity, detectors, preparation",
    )
    mc = argparse.ArgumentParser(add_help=False)
    mc.add_argument("--seed", type=int, help="64-bit Monte Carlo seed")
    mc.add_argument("--trials", type=int, help="Monte Carlo trial count")

    parser = argparse.ArgumentParser(
        prog="carvesim",
        description="Two-atom Bell-state carving in a single-sided cavity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("protocol", parents=[common, mc], help="run one carving protocol")
    _add_protocol_args(p)
    p.set_defaults(func=cmd_protocol, formats=("json", "csv"), sizes=("--trials",))

    p = sub.add_parser("sweep", parents=[common, mc], help="sweep nbar or alpha")
    _add_protocol_args(p)
    p.add_argument("--variable", choices=("nbar", "alpha"), required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_sweep, formats=("csv",), sizes=("--trials", "--steps"))

    p = sub.add_parser("parity", parents=[common], help="parity scan of a protocol output")
    _add_protocol_args(p)
    p.add_argument("--n-phases", type=int, default=24)
    p.set_defaults(func=cmd_parity, formats=("csv", "json"), sizes=("--n-phases",))

    p = sub.add_parser("husimi", parents=[common], help="Husimi Q grid")
    _add_protocol_args(p)
    p.add_argument(
        "--state",
        choices=_HUSIMI_STATES,
        help="evaluate a named pure state instead of the protocol output",
    )
    p.add_argument("--resolution", default="60x120", help="grid as NTHETAxNPHI")
    p.set_defaults(func=cmd_husimi, formats=("csv",), sizes=("--resolution",))

    p = sub.add_parser("lifetime", parents=[common], help="dephasing curve and tau fit")
    p.add_argument("--target", choices=sorted(k.value for k in BellKind), default="psi_plus")
    p.add_argument("--t-max", type=float, default=300.0, help="last wait time in us")
    p.add_argument("--points", type=int, default=40)
    p.set_defaults(func=cmd_lifetime, formats=("csv", "json"), sizes=("--points",))

    p = sub.add_parser("detect", parents=[common, mc], help="state-detection confusion matrix")
    p.add_argument("--rates-file", metavar="PATH", help="override detection count means")
    p.set_defaults(func=cmd_detect, formats=("json",), sizes=("--trials",))
    return parser


def _add_protocol_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", choices=("double", "single"), default="double")
    p.add_argument("--target", choices=sorted(k.value for k in BellKind), default="psi_plus")
    p.add_argument(
        "--alpha",
        type=float,
        default=math.pi / 2,
        help="single-carving rotation angle in radians",
    )


def _resolve_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    top = {"output_path": args.out, **{k: getattr(args, k, None) for k in ("seed", "trials")}}
    return with_overrides(config, **{k: v for k, v in top.items() if v is not None})


def _inputs(args, config: RunConfig):
    """(spec, pulse, model, noise) of a run, with the --ideal override applied."""
    target = BellKind(args.target)
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
        pulse, noise = config.pulse, config.noise
    spec = ProtocolSpec(scheme, target, getattr(args, "alpha", math.pi / 2), prep)
    return spec, pulse, model, noise


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


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


def _run_command(args, config: RunConfig) -> None:
    """Run the subcommand, stamp the report and table it returns, and write them.

    args.formats lists the subcommand's outputs, primary first. The primary
    goes to --out, or to stdout; an --out that ends in the suffix of the
    other format is refused before anything is computed. With --out, the
    other goes to the sibling file with its suffix; without --out, a JSON
    report follows the CSV on stdout and a CSV table that is not primary is
    not written.
    """
    out = config.output_path
    primary, *others = args.formats
    paths = {primary: out}
    if out:
        wrong = ".json" if primary == "csv" else ".csv"
        if out.endswith(wrong):
            raise ValueError(
                f"--out {out!r} ends in {wrong}, but {args.command} writes {primary} there"
            )
        stem = out.removesuffix("." + primary)
        paths.update({fmt: f"{stem}.{fmt}" for fmt in others})
    elif "json" in others:
        paths["json"] = None
    report, table = args.func(args, config)
    stamp = {"config_hash": config_hash(config)}
    if args.ideal:
        stamp["ideal"] = True
    texts = {}
    if report is not None:
        report = {**report, "command": args.command, **stamp}
        texts["json"] = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    if table is not None:
        columns, rows, extra_header = table
        header = [f"carvesim {args.command}"]
        header += [f"{k}: {v if isinstance(v, str) else json.dumps(v)}" for k, v in stamp.items()]
        header += [*extra_header, "columns: " + ",".join(columns)]
        lines = [f"# {line}" for line in header] + [",".join(map(_fmt, row)) for row in rows]
        texts["csv"] = "\n".join(lines) + "\n"
    for fmt, path in paths.items():
        _write_text(texts[fmt], path)


def cmd_protocol(args, config: RunConfig):
    spec, pulse, model, _ = _inputs(args, config)
    result = run_protocol(spec, pulse, model)
    mc = monte_carlo_run(spec, config.trials, config.seed, pulse, model)
    report = {
        "scheme": spec.scheme,
        "target": args.target,
        "exact": {
            "fidelity": {
                kind.value: fidelity(result.state, kind) for kind in BellKind
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
    rows = [
        (i + 1, s.herald_prob, s.d_fraction, s.any_prob)
        for i, s in enumerate(result.steps)
    ]
    return report, (["step", "herald_prob", "d_fraction", "any_prob"], rows, ())


def cmd_sweep(args, config: RunConfig):
    if args.steps < 2:
        raise ValueError("sweep needs at least 2 steps")
    if not math.isfinite(args.stop - args.start):
        raise ValueError(f"sweep range {args.start!r} to {args.stop!r} is not finite")
    if not args.stop > args.start:
        raise ValueError("sweep range must be increasing")
    if args.variable == "alpha" and args.scheme == "double":
        raise ValueError("double carving has no alpha; sweep alpha with --scheme single")
    spec, pulse, model, _ = _inputs(args, config)
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
    columns = ["x", "fidelity_exact", "fidelity_mc", "mc_stderr", "success_prob"]
    return None, (columns, rows, [f"variable: {args.variable}"])


def cmd_parity(args, config: RunConfig):
    if args.n_phases < 3:
        raise ValueError("parity scan needs at least 3 phases")
    spec, pulse, model, _ = _inputs(args, config)
    state = run_protocol(spec, pulse, model).state
    scan = ParityScan.of_state(state, args.n_phases)
    fit = fit_parity(scan)
    report = {
        "re_updn_dnup": fit.re_updn_dnup,
        "im_upup_dndn": fit.im_upup_dndn,
        "re_upup_dndn": fit.re_upup_dndn,
        "residual": fit.residual,
        "offset": 2.0 * fit.re_updn_dnup,
    }
    return report, (["phi", "parity"], zip(scan.phases, scan.parities), ())


def cmd_husimi(args, config: RunConfig):
    if args.state and args.ideal:
        raise ValueError(f"--ideal applies to the protocol output, not to --state {args.state}")
    try:
        n_theta, _, n_phi = args.resolution.partition("x")
        n_theta, n_phi = int(n_theta), int(n_phi)
    except ValueError as exc:
        raise ValueError(f"bad resolution {args.resolution!r}, expected NxM") from exc
    if args.state == "down_down":
        state = prepare(PreparationSpec("pure_dd"))
    elif args.state:
        state = bell_state(BellKind(args.state))
    else:
        spec, pulse, model, _ = _inputs(args, config)
        state = run_protocol(spec, pulse, model).state
    grid = husimi_grid(state, n_theta, n_phi)
    # the first grid point, in row-major order, within 1e-12 of the maximum:
    # exact ties (along phi or theta) then do not hang on rounding noise
    near_max = grid.q >= grid.q.max() * (1.0 - 1e-12)
    ti, pi = np.unravel_index(int(np.argmax(near_max)), grid.q.shape)
    rows = (
        (grid.theta[i], grid.phi[j], grid.q[i, j], grid.x[i, j], grid.y[i, j])
        for i in range(n_theta)
        for j in range(n_phi)
    )
    extra_header = [
        f"integral: {grid.integral:.12g}",
        f"max_q: {grid.q[ti, pi]:.12g} at theta={grid.theta[ti]:.12g} phi={grid.phi[pi]:.12g}",
    ]
    return None, (["theta", "phi", "q", "x", "y"], rows, extra_header)


def cmd_lifetime(args, config: RunConfig):
    if not 0.0 < args.t_max < math.inf:
        raise ValueError(f"--t-max must be a finite time > 0 us, got {args.t_max!r}")
    if not math.isfinite(args.t_max * args.t_max):
        # the dephasing exponent squares each wait time
        raise OverflowError(f"--t-max {args.t_max!r} overflows a float when squared")
    if args.points < 3:
        raise ValueError(f"--points must be at least 3, got {args.points}")
    spec, _, _, noise = _inputs(args, config)
    bell = bell_state(spec.target)
    times = np.linspace(0.0, args.t_max, args.points)
    fids = np.array(
        [fidelity(wait_evolution(bell, float(t), noise), spec.target) for t in times]
    )
    tau = gaussian_lifetime_fit(times, fids, baseline=0.5)
    report = {"target": args.target, "tau_us": tau}
    return report, (["t_us", "fidelity"], zip(times, fids), [f"target: {args.target}"])


def cmd_detect(args, config: RunConfig):
    if args.ideal:
        raise ValueError("detect has no ideal limit; --ideal applies to protocol runs")
    rates = load_rates(args.rates_file) if args.rates_file else DetectionRates()
    matrix = confusion_matrix(rates, config.trials, config.seed)
    stderr = np.sqrt(matrix * (1.0 - matrix) / config.trials)
    report = {
        "true_classes": list(DETECTION_CLASSES),
        "assigned_classes": list(DETECTION_CLASSES) + ["inconsistent"],
        "matrix": matrix,
        "stderr": stderr,
        "trials": config.trials,
        "seed": config.seed,
    }
    return report, None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _run_command(args, _resolve_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's text, then what sets the array sizes
        print(f"error: {exc} ({args.command}: check {', '.join(args.sizes)})", file=sys.stderr)
        return 2
    # ValueError also covers UnderdeterminedScanError and NullBranchError
    except (NeverHeraldsError, FitFailedError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

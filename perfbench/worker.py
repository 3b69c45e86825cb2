"""One benchmark process: set up a workload in a fresh interpreter and time it.

run.py starts this file; it is not meant to be run by hand. Modes:
- probe: set up (import, inputs, one untimed warm-up op) and report the
  set-up time only;
- run: set up, then the closed loop for --seconds, then check every output;
- trace: set up, then for --seconds rounds that alternate between plain and
  traced (span tracer installed), then the checks.
Set-up time runs from --t0, the parent's monotonic clock just before it
started this interpreter, to the moment the first timed op begins. The last
line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
TAIL_BEYOND = 10  # samples a tail percentile must have above it
TAIL_MIN_OPS = 40  # fewer ops than this give no tail; op_tail_ms repeats the median
# Above 100 ops the tail stays at p90: on a shared 2-CPU host the value with
# exactly ten samples beyond it (p99.4 at 1700 ops) tracked host stalls, not
# the program, and its run-to-run spread exceeded 25%.
TAIL_MAX_Q = 0.9
FIXED_COST_REPEATS = 3


class Loop:
    """Op times (s), output summaries and op failures of one closed loop."""

    def __init__(self):
        self.times: list[float] = []
        self.summaries: list = []
        self.errors: list[str] = []
        self.attempted = 0
        self.wall_s = 0.0
        self.next_k = 0

    def extend(self, other: "Loop") -> None:
        self.times += other.times
        self.summaries += other.summaries
        self.errors += other.errors
        self.attempted += other.attempted
        self.wall_s += other.wall_s
        self.next_k = other.next_k


def closed_loop(wl, seconds: float, k: int) -> Loop:
    """Whole rounds of wl.inputs, one op at a time, for about `seconds`.

    The loop stops after the round that ends nearest to `seconds`: it starts
    no new round once fewer than half a round's time is left.
    """
    loop = Loop()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for item in wl.inputs:
            t0 = time.perf_counter()
            try:
                out = wl.run(item, k)
            except Exception as exc:  # a failed op is counted, and the run goes on
                loop.errors.append(f"op {k}: {exc!r}")
            else:
                loop.times.append(time.perf_counter() - t0)
                loop.summaries.append(wl.summarize(item, out, k))
            loop.attempted += 1
            k += 1
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 >= seconds:
            break
    loop.wall_s = time.perf_counter() - start
    loop.next_k = k
    return loop


def alternating_loops(wl, seconds: float, k: int, tracing) -> tuple[Loop, Loop]:
    """Rounds that alternate plain and traced, for about `seconds` in all.

    tracing(on) switches the spans on or off between rounds. Plain and traced
    ops then share the host's drift, so the difference of their medians is
    the tracing overhead, not a change in the host between two halves.
    """
    plain, traced = Loop(), Loop()
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        for loop, on in ((plain, False), (traced, True)):
            tracing(on)
            loop.extend(closed_loop(wl, 0.0, k))  # seconds=0: exactly one round
            k = loop.next_k
        now = time.perf_counter()
        if now - start + (now - pair_start) / 2 >= seconds:
            break
    tracing(False)
    return plain, traced


def p50_ms(times) -> float:
    return statistics.median(times) * 1e3


def tail_ms(times) -> float:
    """Highest percentile up to p90 with TAIL_BEYOND samples above it, or the median."""
    n = len(times)
    if n < TAIL_MIN_OPS:
        return p50_ms(times)
    return sorted(times)[min(n - TAIL_BEYOND, int(TAIL_MAX_Q * n)) - 1] * 1e3


def peak_rss_mb(wl) -> float:
    """Peak RSS of the process that does the work: this one, or the CLI children."""
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_commands" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def mc_fixed_us(wl) -> float:
    """Median wall time of a one-trial monte_carlo_run over the workload's MC points."""
    calls = wl.mc_calls()
    if not calls:
        return 0.0
    import carvesim as cv

    samples = []
    for i in range(FIXED_COST_REPEATS):
        for spec, pulse in calls:
            t0 = time.perf_counter()
            cv.monte_carlo_run(spec, 1, i, pulse, getattr(wl, "model", None))
            samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e6


def layer_metrics(tracer, wl, n_ops: int, fixed_us: float) -> dict:
    """Per-layer numbers from the traced loop; 0 where the workload never calls the layer."""
    per_op = 1.0 / n_ops if n_ops else 0.0
    mc = tracer.stats.get("protocols.monte_carlo_run", [0, 0.0, 0.0, 0.0])
    trials = tracer.counts.get("protocols.mc.trials", 0)
    heralded = tracer.counts.get("protocols.mc.heralded", 0)
    carve_calls = tracer.calls("protocols.carve_step")
    m = {
        "protocols.mc.us_per_trial": (
            max(mc[1] - mc[0] * fixed_us * 1e-6, 0.0) / trials * 1e6 if trials else 0.0, "us"),
        "protocols.mc.us_per_herald": (mc[1] / heralded * 1e6 if heralded else 0.0, "us"),
        "protocols.mc.call_fixed_us": (fixed_us, "us"),
        "protocols.mc.herald_ratio": (heralded / trials if trials else 0.0, "ratio"),
        "protocols.mc.trials": (trials, "count"),
        "protocols.mc.heralded": (heralded, "count"),
        "protocols.mc.cpu_per_wall": (mc[3] / mc[1] if mc[1] else 0.0, "ratio"),
        "protocols.exact.run_protocol_us": (tracer.self_us("protocols.run_protocol"), "us"),
        "protocols.exact.run_protocol_total_us": (tracer.total_us("protocols.run_protocol"), "us"),
        "protocols.exact.carve_step_us": (tracer.self_us("protocols.carve_step"), "us"),
        "protocols.exact.carve_step_calls": (carve_calls * per_op, "count"),
        "protocols.exact.branch_terms": (
            tracer.counts.get("protocols.carve_step.branch_terms", 0) / carve_calls
            if carve_calls else 0.0, "count"),
        "protocols.wait_evolution_us": (tracer.self_us("protocols.wait_evolution"), "us"),
        "cavity.from_params_us": (tracer.self_us("cavity.from_params"), "us"),
        "cavity.from_params_calls": (tracer.calls("cavity.from_params") * per_op, "count"),
        "states.TwoAtomState_us": (tracer.self_us("states.TwoAtomState"), "us"),
        "states.TwoAtomState_calls": (tracer.calls("states.TwoAtomState") * per_op, "count"),
        "states.global_rotation_us": (tracer.self_us("states.global_rotation"), "us"),
        "states.global_rotation_calls": (tracer.calls("states.global_rotation") * per_op, "count"),
        "config.load_config_us": (tracer.self_us("config.load_config"), "us"),
    }
    for fn in ("parity_of", "fit_parity", "husimi_grid", "gaussian_lifetime_fit", "confusion_matrix"):
        m[f"analysis.{fn}_us"] = (tracer.self_us(f"analysis.{fn}"), "us")
    import cliwork

    main_ms = getattr(wl, "main_ms", {})
    output_bytes = getattr(wl, "output_bytes", {})
    for command in cliwork.COMMANDS:
        samples = main_ms.get(command)
        m[f"cli.main_ms.{command}"] = (statistics.median(samples) if samples else 0.0, "ms")
        m[f"cli.output_bytes.{command}"] = (output_bytes.get(command, 0), "count")
    return m


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def make_workload(name: str, seed: int, workdir: Path):
    if name == "cli_commands":
        import cliwork

        return cliwork.CliCommands(seed, workdir)
    import inproc

    return inproc.WORKLOADS[name](seed)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    parser.add_argument("--t0", type=int, required=True, help="parent monotonic_ns at spawn")
    args = parser.parse_args()

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=OUT) as tmp:
        wl = make_workload(args.workload, args.seed, Path(tmp))
        wl.run(wl.inputs[0], 0)  # warm-up op, untimed
        setup_s = (time.monotonic_ns() - args.t0) / 1e9
        result = {"setup_s": setup_s}
        if args.mode == "probe":
            print(json.dumps(result))
            return 0

        if args.mode == "run":
            loop = closed_loop(wl, args.seconds, 1)
            loops = [loop]
            metrics = {
                "op_p50_ms": (p50_ms(loop.times), "ms"),
                "op_tail_ms": (tail_ms(loop.times), "ms"),
                "ops_per_s": (len(loop.times) / loop.wall_s, "1/s"),
                "peak_rss_mb": (peak_rss_mb(wl), "MB"),
            }
        else:
            from tracer import Tracer

            fixed_us = mc_fixed_us(wl)
            tracer = Tracer()

            def tracing(on: bool) -> None:
                if args.workload == "cli_commands":
                    # traced ops run through launch.py, which traces the child
                    wl.tracer = tracer if on else None
                elif on:
                    tracer.install()
                else:
                    tracer.uninstall()

            plain, traced = alternating_loops(wl, args.seconds, 1, tracing)
            loops = [plain, traced]
            metrics = layer_metrics(tracer, wl, len(traced.times), fixed_us)
            base, overhead = p50_ms(plain.times), p50_ms(traced.times) - p50_ms(plain.times)
            metrics["trace.overhead_ms"] = (overhead, "ms")
            metrics["trace.overhead_frac"] = (overhead / base, "ratio")
            with open(OUT / f"trace-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as fh:
                json.dump(tracer.to_json(), fh, indent=1, sort_keys=True)

        summaries = [s for loop in loops for s in loop.summaries]
        errors = [e for loop in loops for e in loop.errors]
        result.update(
            attempted=sum(loop.attempted for loop in loops),
            failed=len(errors),
            errors=errors[:5],
            problems=wl.check(summaries),
            ops=[len(loop.times) for loop in loops],
            metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            environment=environment(),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

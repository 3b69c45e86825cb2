"""Record benchmark results as BENCH_<label>.json, and compare two such files.

Usage, from the root of a checkout:

    python3 tools/benchrec.py record LABEL
    python3 tools/benchrec.py compare A B
    python3 tools/benchrec.py pairs OTHER_CHECKOUT --workload W
    python3 tools/benchrec.py bytes OTHER_CHECKOUT

record runs `python3 perfbench/run.py --workload W --seed S --seconds 25
--trace 0` for every workload named in BENCHMARK.json and seeds 101-103, one
run at a time, and writes BENCH_<LABEL>.json at the root: per workload the
median [Q1, Q3] of each end-to-end metric, the seeds, the failed and
attempted op counts, whether every check passed, the src digest and the host
line (Python, numpy, nproc, BLAS threads, and scipy where the run reports
it). A run takes about 35 s, so a record takes about 7 minutes.

compare reads BENCH_<A>.json and BENCH_<B>.json (or the paths given) and
labels each workload/metric pair "changed" when the median moved by more
than the metric's bound in BENCHMARK.json, relative to A, and "within noise"
otherwise. The bounds are the run-to-run spread and set-to-set shift of
identical code (perfbench/README.md).

pairs runs one workload in OTHER_CHECKOUT (the parent) and in this checkout
in turn, ten pairs on seeds 101-110, the parent first on odd seeds, and
prints per end-to-end metric both medians [Q1, Q3], the ratio, a verdict and
in how many pairs this checkout was better. The verdict is "gain holds"
(better in at least 9 of 10 pairs, by more than the parent's Q3 - Q1),
"worse" (the median worse by more than the metric's bound), "unresolved"
(the parent's Q3 - Q1 wider than the bound) or "within bound". The commands
only read BENCHMARK.json and perfbench/.

bytes runs each CLI case of BYTE_CASES as `python3 -m carvesim ...` in a
fresh directory that holds only the INPUT_FILES the case names (a config or
rates file), with the src/ of OTHER_CHECKOUT (the parent) and then of
this checkout, and prints per case "same" or the first place the two runs
differ: the exit code, then stdout, stderr and each written file, as the
first differing line and the number of lines that differ. A change that
claims to keep the CLI bytes shows "same" on every case.

compare and pairs print each side's median op count per run after
peak_rss_mb: the worker holds a summary of every op, so the peak RSS also
grows with the op count, and a faster change reads a larger RSS without
the program growing. Records written before ops_per_run was kept hold only
the total, so compare shows their mean per run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (101, 102, 103)
SECONDS = 25
PAIRS = 10  # the fewest alternating pairs that can back a claimed gain
HOST_KEYS = ("python", "numpy", "scipy", "nproc", "blas_threads")
BYTE_CASES = {  # name -> carvesim arguments
    "protocol": ["protocol"],
    "sweep": ["sweep", "--variable", "nbar", "--start", "0.1", "--stop", "0.7", "--steps", "3"],
    "parity": ["parity"],
    "husimi": ["husimi"],
    "lifetime": ["lifetime"],
    "detect": ["detect"],
    # the other six scheme/target pairs; double psi_plus is protocol's default
    **{f"protocol {scheme} {target}": ["protocol", "--scheme", scheme, "--target", target]
       for scheme, target in [("double", "psi_minus"), ("double", "phi_plus"),
                              ("double", "phi_minus"), ("single", "psi_plus"),
                              ("single", "phi_plus"), ("single", "phi_minus")]},
    "protocol --ideal": ["protocol", "--ideal"],
    "protocol --out r.json": ["protocol", "--out", "r.json"],
    "parity --out p.csv": ["parity", "--out", "p.csv"],
    "lifetime --out l.csv": ["lifetime", "--out", "l.csv"],
    "sweep single alpha": ["sweep", "--scheme", "single", "--variable", "alpha",
                           "--start", "0.2", "--stop", "3.0", "--steps", "4"],
    # large nbar: the Monte Carlo walks stacks of many reached prefix states
    "sweep nbar to 300": ["sweep", "--variable", "nbar", "--start", "0.1", "--stop", "300",
                          "--steps", "3"],
    # few heralds, and the summaries printed in full digits
    "protocol single --alpha 0.2": ["protocol", "--scheme", "single", "--alpha", "0.2",
                                    "--trials", "200"],
    # the tomography path on targets the default cases miss: fidelity's Bell
    # table rows and parity_of's pulses
    "lifetime phi_minus": ["lifetime", "--target", "phi_minus", "--t-max", "150",
                           "--points", "25"],
    "parity psi_minus": ["parity", "--target", "psi_minus"],
    "husimi phi_plus": ["husimi", "--target", "phi_plus"],
    # the file readers: every config key off its default, the noise keys
    # alone, and every rates key
    "protocol --config": ["protocol", "--config", "every_key.cfg"],
    "sweep --config": ["sweep", "--config", "every_key.cfg", "--variable", "nbar",
                       "--start", "0.1", "--stop", "0.7", "--steps", "3"],
    "lifetime --config": ["lifetime", "--config", "noise.cfg"],
    "detect --rates-file": ["detect", "--rates-file", "rates.txt"],
}
# input files, each written into the directory of a case that names it
INPUT_FILES = {
    "every_key.cfg": """\
cavity.g_2pi_mhz = 7.123456789012345
cavity.kappa_2pi_mhz = 2.6
cavity.kappa_out_2pi_mhz = 2.2
cavity.gamma_2pi_mhz = 3.1
pulse.nbar = 0.45
pulse.dark_prob = 0.02
pulse.det_eff = 0.4
pulse.mode_match = 0.85
prep.kind = antiparallel
prep.fidelity = 0.9
noise.sigma_common_2pi_khz = 1.5
noise.sigma_diff_2pi_khz = 1.0
seed = 2024
trials = 3000
""",
    "noise.cfg": "noise.sigma_common_2pi_khz = 1.5\nnoise.sigma_diff_2pi_khz = 1.0\n",
    "rates.txt": """\
transmission.down_down = 8.5
transmission.antiparallel = 1.2
transmission.up_up = 0.25
fluorescence.down_down = 5.5
fluorescence.antiparallel = 2.5
fluorescence.up_up = 0.05
threshold.transmission = 4
threshold.fluorescence = 1
""",
}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, root: Path = ROOT) -> tuple[dict, dict]:
    """(info, result) lines of one benchmark run in the checkout at root; raises if it fails."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr[-300:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def record(label: str) -> Path:
    bench = load_benchmark()
    names = [m["name"] for m in bench["end_to_end"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    report = {"label": label, "seeds": list(SEEDS), "seconds": SECONDS, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        values = {name: [] for name in names}
        failed = 0
        ops_per_run = []
        correct = True
        for seed in SEEDS:
            info, result = run_once(workload, seed)
            print(f"{workload} seed {seed}: ops {result['attempted']}, failed "
                  f"{result['failed']}, correct {result['correct']}", file=sys.stderr)
            failed += result["failed"]
            correct = correct and result["correct"]
            for name in names:
                values[name].append(result["metrics"][name]["value"])
            ops_per_run.append(result["attempted"])
            report["src_sha256"] = info["src_sha256"]
            report["host"] = {key: info[key] for key in HOST_KEYS if key in info}
        report["workloads"][workload] = {
            "attempted": sum(ops_per_run),
            "ops_per_run": ops_per_run,
            "failed": failed,
            "correct": correct,
            "metrics": {name: dict(spread(values[name]), unit=units[name]) for name in names},
        }
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def bench_path(name: str) -> Path:
    path = Path(name)
    return path if path.suffix == ".json" else ROOT / f"BENCH_{name}.json"


def ops_note(name: str, ops_a: float, ops_b: float) -> str:
    """For peak_rss_mb, the op counts per run that it grows with; else nothing."""
    return f" (ops/run {ops_a:.6g} -> {ops_b:.6g})" if name == "peak_rss_mb" else ""


def ops_per_run(record: dict, workload: str) -> float:
    entry = record["workloads"][workload]
    if "ops_per_run" in entry:
        return statistics.median(entry["ops_per_run"])
    return entry["attempted"] / len(record["seeds"])


def compare(a_name: str, b_name: str) -> list[str]:
    bench = load_benchmark()
    a = json.loads(bench_path(a_name).read_text())
    b = json.loads(bench_path(b_name).read_text())
    lines = [f"{a['label']} (src {a['src_sha256']}) -> {b['label']} (src {b['src_sha256']})"]
    for workload in (w["name"] for w in bench["workloads"]):
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        lines.append(f"{workload}: failed {wa['failed']}/{wa['attempted']} -> "
                     f"{wb['failed']}/{wb['attempted']}, correct {wa['correct']} -> {wb['correct']}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            ma, mb = wa["metrics"][name], wb["metrics"][name]
            ratio = mb["median"] / ma["median"] if ma["median"] else float("inf")
            changed = abs(ratio - 1.0) > metric["bound"]
            better = (ratio < 1.0) == (metric["better"] == "lower")
            verdict = ("better" if better else "worse") + ", changed" if changed else "within noise"
            note = ops_note(name, ops_per_run(a, workload), ops_per_run(b, workload))
            lines.append(
                f"  {name:12s} {ma['median']:.4g} [{ma['q1']:.4g}, {ma['q3']:.4g}] -> "
                f"{mb['median']:.4g} [{mb['q1']:.4g}, {mb['q3']:.4g}] {metric['unit']}{note}"
                f"  x{ratio:.3g}  {verdict} (bound {metric['bound']})"
            )
    return lines


def pairs(other: Path, workload: str) -> list[str]:
    """Alternating runs of the parent at other and of this checkout, tallied per metric."""
    bench = load_benchmark()
    names = [m["name"] for m in bench["end_to_end"]]
    sides = {"parent": other, "change": ROOT}
    values = {side: {name: [] for name in names} for side in sides}
    ops = {side: [0, True] for side in sides}  # failed, correct
    runs = {side: [] for side in sides}  # attempted per run
    for seed in range(101, 101 + PAIRS):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            _, result = run_once(workload, seed, sides[side])
            print(f"{workload} seed {seed} {side}: ops {result['attempted']}, failed "
                  f"{result['failed']}, correct {result['correct']}", file=sys.stderr)
            ops[side][0] += result["failed"]
            ops[side][1] = ops[side][1] and result["correct"]
            runs[side].append(result["attempted"])
            for name in names:
                values[side][name].append(result["metrics"][name]["value"])
    lines = [f"{workload}: {PAIRS} pairs, seeds 101-{100 + PAIRS}, parent {other}"]
    lines += [f"  {side}: failed {f}/{sum(runs[side])}, correct {c}" for side, (f, c) in ops.items()]
    for metric in bench["end_to_end"]:
        name = metric["name"]
        a, b = values["parent"][name], values["change"][name]
        sa, sb = spread(a), spread(b)
        ratio = sb["median"] / sa["median"] if sa["median"] else float("inf")
        lower = metric["better"] == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        note = ops_note(name, *(statistics.median(runs[side]) for side in sides))
        lines.append(
            f"  {name:12s} {sa['median']:.4g} [{sa['q1']:.4g}, {sa['q3']:.4g}] -> "
            f"{sb['median']:.4g} [{sb['q1']:.4g}, {sb['q3']:.4g}] {metric['unit']}{note}  "
            f"x{ratio:.3g}  {verdict(metric, sa, sb, wins)}: change better in {wins} of {PAIRS}"
        )
    return lines


def verdict(metric: dict, parent: dict, change: dict, wins: int) -> str:
    """What PAIRS alternating pairs show for one metric, given both sides' spreads.

    "gain holds": the change is better in at least nine tenths of the pairs
    and its median is better by more than the parent's quartile spread.
    "worse": its median is worse by more than the metric's bound. "unresolved":
    the parent's quartile spread is wider than the bound, so no smaller shift
    can be told apart. Otherwise "within bound".
    """
    base = parent["median"]
    gain = change["median"] - base if metric["better"] == "higher" else base - change["median"]
    if 10 * wins >= 9 * PAIRS and gain > parent["q3"] - parent["q1"]:
        return "gain holds"
    if base and -gain / abs(base) > metric["bound"]:
        return "worse"
    if base and (parent["q3"] - parent["q1"]) / abs(base) > metric["bound"]:
        return "unresolved"
    return "within bound"


def run_case(args: list[str], root: Path) -> dict[str, str]:
    """Exit code, stdout, stderr and the files written, of carvesim ARGS run
    with the src/ of the checkout at root in a directory that holds only the
    INPUT_FILES named in ARGS."""
    def text(raw: bytes) -> str:  # every byte kept, line ends included
        return raw.decode("utf-8", "backslashreplace")

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    inputs = {name: INPUT_FILES[name] for name in args if name in INPUT_FILES}
    with tempfile.TemporaryDirectory() as cwd:
        for name, content in inputs.items():
            (Path(cwd) / name).write_text(content, encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "carvesim", *args], cwd=cwd, env=env,
                              capture_output=True)
        files = {f"file {p.name}": text(p.read_bytes()) for p in sorted(Path(cwd).iterdir())
                 if p.name not in inputs}
    return {"exit code": str(proc.returncode), "stdout": text(proc.stdout),
            "stderr": text(proc.stderr), **files}


def first_difference(parent: dict[str, str], change: dict[str, str]) -> str:
    """The text "same", or where two run_case results first differ."""
    for key in dict.fromkeys([*parent, *change]):
        if key not in parent or key not in change:
            return f"{key} only in the {'change' if key in change else 'parent'}"
        if parent[key] == change[key]:
            continue
        if key == "exit code":
            return f"exit code {parent[key]} -> {change[key]}"
        a, b = parent[key].splitlines(keepends=True), change[key].splitlines(keepends=True)
        diff = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
        diff += range(min(len(a), len(b)), max(len(a), len(b)))
        i = diff[0]
        line = f"{a[i]!r} -> {b[i]!r}" if i < min(len(a), len(b)) else "missing on one side"
        return f"{key} line {i + 1}: {line} ({len(diff)} of {max(len(a), len(b))} lines differ)"
    return "same"


def compare_bytes(other: Path) -> list[str]:
    """Per case of BYTE_CASES, "same" or where the parent at other and this checkout differ."""
    return [f"{name}: {first_difference(run_case(args, other), run_case(args, ROOT))}"
            for name, args in BYTE_CASES.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("record", help="run every workload and write BENCH_<LABEL>.json")
    p.add_argument("label")
    p = sub.add_parser("compare", help="label each metric changed or within noise")
    p.add_argument("a")
    p.add_argument("b")
    p = sub.add_parser("pairs", help="alternate runs of another checkout and this one")
    p.add_argument("other", type=Path, help="root of the parent's checkout")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in load_benchmark()["workloads"]])
    p = sub.add_parser("bytes", help="run the CLI cases in another checkout and this one")
    p.add_argument("other", type=Path, help="root of the parent's checkout")
    args = parser.parse_args(argv)
    if args.command == "record":
        print(record(args.label))
    elif args.command == "compare":
        print("\n".join(compare(args.a, args.b)))
    elif args.command == "bytes":
        print("\n".join(compare_bytes(args.other.resolve())))
    else:
        print("\n".join(pairs(args.other.resolve(), args.workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

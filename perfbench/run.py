"""carvesim benchmark: four closed-loop workloads, one op at a time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: mc_bulk, sweep_points, exact_tomography, cli_commands (see
perfbench/README.md). With --trace 0 the last line of stdout holds the
end-to-end metrics: setup_s, op_p50_ms, op_tail_ms, ops_per_s and
peak_rss_mb. With --trace 1 it holds the per-layer metrics from a traced
run, including interpreter start and import times and the tracing overhead.
The line before it records the versions and settings of the run.

This process only starts others: SETUP_PROBES fresh interpreters that set
the workload up and stop, then the worker that sets up again and runs the
loop. setup_s is the median of all their set-up times. Every child gets
OPENBLAS_NUM_THREADS=1 (and the OpenMP and MKL equivalents) and src/ on
PYTHONPATH, so carvesim is used from this checkout's source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("mc_bulk", "sweep_points", "exact_tomography", "cli_commands")
SETUP_PROBES = 2
IMPORT_PROBES = 3
PYTHON_PROBES = 5
DEADLINE_S = 170  # the whole command must end within 180 s


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: with two, a (1e5 x 4) @ (4 x 14) matmul ranged over
    # 1.1-5.0 ms on a shared 2-CPU host; with one it held at 2.0 ms.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd, deadline: float, capture_stderr: bool = False) -> tuple[str, str]:
    """Run cmd in its own process group; kill the whole group if the deadline passes."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE if capture_stderr else None, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{' '.join(cmd[:4])} ... ran past the deadline")
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(cmd[:4])} ... exited {proc.returncode}")
    return out, err or ""


def worker(args, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
        "--t0", str(time.monotonic_ns()),
    ]
    out, _ = run_child(cmd, deadline)
    return json.loads(out.strip().splitlines()[-1])


def timed_child(code: str, deadline: float, *flags) -> tuple[float, str, str]:
    t0 = time.perf_counter()
    out, err = run_child([sys.executable, *flags, "-c", code], deadline, capture_stderr=True)
    return time.perf_counter() - t0, out, err


def scipy_import_s(importtime: str) -> float:
    """Cumulative -X importtime seconds of the outermost scipy modules."""
    lines = [l for l in importtime.splitlines() if l.startswith("import time:") and "|" in l]
    total_us = 0
    stack: list[tuple[int, str]] = []
    for line in reversed(lines[1:] if lines and "cumulative" in lines[0] else lines):
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(n == "scipy" or n.startswith("scipy.") for _, n in stack):
            total_us += int(cumulative)
        stack.append((depth, name))
    return total_us / 1e6


def import_metrics(deadline: float) -> dict:
    python_s = statistics.median(timed_child("pass", deadline)[0] for _ in range(PYTHON_PROBES))
    code = "import time; t = time.perf_counter(); import carvesim; print(time.perf_counter() - t)"
    carvesim_s = statistics.median(
        float(timed_child(code, deadline)[1]) for _ in range(IMPORT_PROBES)
    )
    scipy_s = statistics.median(
        scipy_import_s(timed_child("import carvesim", deadline, "-X", "importtime")[2])
        for _ in range(IMPORT_PROBES)
    )
    return {
        "import.python_s": {"value": python_s, "unit": "s"},
        "import.carvesim_s": {"value": carvesim_s, "unit": "s"},
        "import.scipy_s": {"value": scipy_s, "unit": "s"},
    }


def code_version() -> dict:
    """Git commit when the checkout has one, and a digest of src/ either way."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "carvesim" / "__init__.py").is_file():
        print(f"no carvesim source under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics = import_metrics(deadline)
            result = worker(args, "trace", deadline)
            metrics.update(result["metrics"])
        else:
            setups = [worker(args, "probe", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
            result = worker(args, "run", deadline)
            setups.append(result["setup_s"])
            metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
            metrics.update(result["metrics"])
    except (ChildFailed, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for line in (result["errors"] + result["problems"])[:20]:
        print(line, file=sys.stderr)
    info = dict(result["environment"], **code_version())
    info.update(workload=args.workload, seed=args.seed, trace=args.trace, ops=result["ops"])
    if not args.trace:
        info["setup_samples_s"] = setups
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The cli_commands workload: each op is one fresh `python -m carvesim` process.

Six commands run in a fixed rotation at modest sizes. protocol, sweep, parity
and husimi read a --config file, detect reads a --rates-file; all write with
--out into a scratch directory under the checkout. Inputs are fixed for the
whole run, so every round must write the same bytes. This module imports
no carvesim: the worker only starts processes and reads what they wrote.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import checks
from seeds import input_rng, op_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COMMANDS = ("protocol", "sweep", "parity", "husimi", "lifetime", "detect")
OP_TIMEOUT_S = 100
HUSIMI_GRID = (30, 60)
SWEEP = {"start": 0.5, "stop": 2.0, "steps": 4}
TARGETS = ("psi_plus", "psi_minus", "phi_plus", "phi_minus")


class CliFailed(RuntimeError):
    """A CLI process exited with a non-zero code."""


def _rates(rng) -> dict:
    """Detection count means scaled by up to +-10% around the documented defaults."""
    def scale(values):
        return [round(v * (0.9 + 0.2 * rng.random()), 6) for v in values]

    return {
        "transmission_means": scale((9.0, 1.0, 0.3)),
        "fluorescence_means": scale((6.0, 3.0, 0.03)),
        "transmission_threshold": 3,
        "fluorescence_threshold": 0,
    }


class CliCommands:
    name = "cli_commands"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.tracer = None
        self.main_ms = {c: [] for c in COMMANDS}
        self.output_bytes = {}
        self.reference = {}
        rng = input_rng(self.name, seed)
        nbar = round(0.2 + 0.4 * rng.random(), 6)
        self.alpha = round(0.6 + 1.4 * rng.random(), 6)
        self.husimi_target = rng.choice(TARGETS)
        self.lifetime_target = rng.choice(TARGETS)
        self.rates = _rates(rng)
        mc_seed = str(op_seed(self.name, seed, 0))
        config = self.dir / "run.cfg"
        config.write_text(
            "# carvesim benchmark config\n"
            f"pulse.nbar = {nbar}\n"
            "pulse.dark_prob = 0.011\n"
            "prep.kind = down_down\n"
        )
        rates = self.dir / "rates.cfg"
        lines = [f"transmission.{c} = {m}" for c, m in zip(_CLASSES, self.rates["transmission_means"])]
        lines += [f"fluorescence.{c} = {m}" for c, m in zip(_CLASSES, self.rates["fluorescence_means"])]
        lines += [
            f"threshold.transmission = {self.rates['transmission_threshold']}",
            f"threshold.fluorescence = {self.rates['fluorescence_threshold']}",
        ]
        rates.write_text("\n".join(lines) + "\n")
        cfg = ["--config", str(config)]
        out = self.dir
        self.inputs = [
            ("protocol", ["protocol", *cfg, "--scheme", "single", "--alpha", str(self.alpha),
                          "--trials", "4000", "--seed", mc_seed, "--out", str(out / "protocol.json")]),
            ("sweep", ["sweep", *cfg, "--variable", "nbar", "--start", str(SWEEP["start"]),
                       "--stop", str(SWEEP["stop"]), "--steps", str(SWEEP["steps"]),
                       "--trials", "2000", "--seed", mc_seed, "--out", str(out / "sweep.csv")]),
            ("parity", ["parity", *cfg, "--n-phases", "24", "--out", str(out / "parity.csv")]),
            ("husimi", ["husimi", *cfg, "--target", self.husimi_target,
                        "--resolution", "%dx%d" % HUSIMI_GRID, "--out", str(out / "husimi.csv")]),
            ("lifetime", ["lifetime", "--target", self.lifetime_target, "--points", "40",
                          "--out", str(out / "lifetime.csv")]),
            ("detect", ["detect", "--rates-file", str(rates), "--trials", "20000",
                        "--seed", mc_seed, "--out", str(out / "detect.json")]),
        ]
        self.outputs = {
            "protocol": ("protocol.json", "protocol.csv"),
            "sweep": ("sweep.csv",),
            "parity": ("parity.csv", "parity.json"),
            "husimi": ("husimi.csv",),
            "lifetime": ("lifetime.csv", "lifetime.json"),
            "detect": ("detect.json",),
        }

    def run(self, item, k):
        command, argv = item
        for name in self.outputs[command]:
            (self.dir / name).unlink(missing_ok=True)
        env = dict(os.environ)
        if self.tracer is None:
            launch = [sys.executable, "-m", "carvesim"]
        else:
            launch = [sys.executable, str(HERE / "launch.py")]
            env["PERFBENCH_TRACE_FILE"] = str(self.dir / "trace.json")
        proc = subprocess.run(
            launch + argv, cwd=ROOT, env=env, capture_output=True, timeout=OP_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise CliFailed(f"{command} exited {proc.returncode}: {proc.stderr[-300:]!r}")
        return proc

    def summarize(self, item, proc, k):
        command, _ = item
        files = {name: (self.dir / name).read_bytes() for name in self.outputs[command]}
        self.output_bytes[command] = sum(len(b) for b in files.values())
        digests = {name: hashlib.sha256(b).hexdigest() for name, b in files.items()}
        tag = f"cli {command} (op {k})"
        problems = checks.cli_exit(proc.returncode, proc.stderr, tag)
        problems += getattr(self, "_check_" + command)(files, tag)
        if self.tracer is not None:
            trace_file = self.dir / "trace.json"
            record = json.loads(trace_file.read_text())
            trace_file.unlink()
            self.tracer.merge(record)
            self.main_ms[command].append(record["main_ms"])
        return command, digests, problems

    def check(self, summaries) -> list[str]:
        problems = []
        for command, digests, op_problems in summaries:
            problems += op_problems
            reference = self.reference.setdefault(command, digests)
            problems += checks.same_bytes(reference, digests, f"cli {command}")
        return problems

    def mc_calls(self):
        return []

    # per-command content checks on the bytes the command wrote

    def _check_protocol(self, files, tag):
        report = json.loads(files["protocol.json"])
        exact, mc = report["exact"], report["monte_carlo"]
        c = math.cos(self.alpha / 2.0)
        problems = []
        if not abs(exact["eta_ideal"] - (1.0 - c**4)) <= checks.CLOSED_FORM_TOL:
            problems.append(f"{tag}: eta_ideal {exact['eta_ideal']!r} at alpha={self.alpha}")
        # one run with a fixed seed: its ~200 heralds are too few for a
        # fidelity test (see checks.pooled_fidelity), the herald count is not
        problems += checks.binomial(mc["heralded"], mc["trials"], exact["efficiency"], f"{tag} heralds")
        return problems

    def _check_sweep(self, files, tag):
        rows = _csv_rows(files["sweep.csv"])
        steps = SWEEP["steps"]
        if len(rows) != steps:
            return [f"{tag}: {len(rows)} rows, expected {steps}"]
        problems = []
        for i, (x, f_exact, _f_mc, _err, success) in enumerate(rows):
            want = SWEEP["start"] + i * (SWEEP["stop"] - SWEEP["start"]) / (steps - 1)
            if not abs(x - want) <= 1e-12:
                problems.append(f"{tag}: row {i} x = {x!r}, expected {want!r}")
            if not (0.0 <= f_exact <= 1.0 and 0.0 <= success <= 1.0):
                problems.append(f"{tag}: row {i} fidelity {f_exact!r}, success {success!r}")
        return problems

    def _check_parity(self, files, tag):
        rows = _csv_rows(files["parity.csv"])
        fit = json.loads(files["parity.json"])
        return checks.parity_curve([r[0] for r in rows], [r[1] for r in rows], fit, tag)

    def _check_husimi(self, files, tag):
        text = files["husimi.csv"].decode()
        integral = float(text.split("# integral: ", 1)[1].split("\n", 1)[0])
        rows = [r[:3] for r in _csv_rows(files["husimi.csv"])]
        return checks.husimi_rows(rows, *HUSIMI_GRID, integral, tag)

    def _check_lifetime(self, files, tag):
        report = json.loads(files["lifetime.json"])
        return checks.lifetime(report["tau_us"], self.lifetime_target, tag)

    def _check_detect(self, files, tag):
        report = json.loads(files["detect.json"])
        return checks.detect_matrix(report["matrix"], self.rates, report["trials"], tag)


_CLASSES = ("down_down", "antiparallel", "up_up")


def _csv_rows(data: bytes):
    return [
        [float(v) for v in line.split(",")]
        for line in data.decode().splitlines()
        if line and not line.startswith("#")
    ]

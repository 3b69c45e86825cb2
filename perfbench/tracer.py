"""In-memory spans around carvesim's public functions, installed from outside.

The tracer wraps each function listed in SPANS and rebinds the wrapper under
the same name in every carvesim module that holds the original, so calls made
inside the package (double_carving -> carve_step, cli -> run_protocol) are
caught as well as calls from the benchmark. Nothing is written while the
program runs: per span name the tracer keeps the call count, the total time
and the self time (total minus the time of child spans), plus a few counts
read off the results. to_json() gives them once, at the end of a run.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path, span name). A "Class.method" path wraps the method
# on the class, which catches every construction or call however it is named.
SPANS = (
    ("carvesim.states", "TwoAtomState.__init__", "states.TwoAtomState"),
    ("carvesim.states", "global_rotation", "states.global_rotation"),
    ("carvesim.cavity", "ReflectionModel.from_params", "cavity.from_params"),
    ("carvesim.protocols", "run_protocol", "protocols.run_protocol"),
    ("carvesim.protocols", "carve_step", "protocols.carve_step"),
    ("carvesim.protocols", "monte_carlo_run", "protocols.monte_carlo_run"),
    ("carvesim.protocols", "wait_evolution", "protocols.wait_evolution"),
    ("carvesim.analysis", "parity_of", "analysis.parity_of"),
    ("carvesim.analysis", "fit_parity", "analysis.fit_parity"),
    ("carvesim.analysis", "bell_fidelity", "analysis.bell_fidelity"),
    ("carvesim.analysis", "husimi_grid", "analysis.husimi_grid"),
    ("carvesim.analysis", "gaussian_lifetime_fit", "analysis.gaussian_lifetime_fit"),
    ("carvesim.analysis", "confusion_matrix", "analysis.confusion_matrix"),
    ("carvesim.config", "load_config", "config.load_config"),
)

# spans that also record process CPU time, for the CPU-per-wall ratio
CPU_SPANS = {"protocols.monte_carlo_run"}


def _count_branch_terms(counts, outcome):
    counts["protocols.carve_step.branch_terms"] = (
        counts.get("protocols.carve_step.branch_terms", 0) + len(outcome.branch_log)
    )


def _count_mc(counts, result):
    counts["protocols.mc.trials"] = counts.get("protocols.mc.trials", 0) + result.trials
    counts["protocols.mc.heralded"] = counts.get("protocols.mc.heralded", 0) + result.heralded


COUNTERS = {
    "protocols.carve_step": _count_branch_terms,
    "protocols.monte_carlo_run": _count_mc,
}


class Tracer:
    """Span aggregates for one process: name -> [calls, total_s, self_s, cpu_s]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self._children: list[list[float]] = []
        self._patches: list[tuple] = []

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0])
        counter = COUNTERS.get(name)
        cpu = name in CPU_SPANS
        children = self._children
        counts = self.counts
        clock = time.perf_counter
        cpu_clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = [0.0]
            children.append(inner)
            c0 = cpu_clock() if cpu else 0.0
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children.pop()
                if children:
                    children[-1][0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - inner[0]
                if cpu:
                    stats[3] += cpu_clock() - c0
            if counter is not None:
                counter(counts, out)
            return out

        return traced

    def install(self) -> None:
        """Put the wrappers in place; carvesim and its modules must be imported."""
        if not self._patches:
            self._patches = self._build_patches()
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put the original functions back; the aggregates are kept."""
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _build_patches(self):
        """(owner, attribute, original, wrapper) for every place that holds a SPANS function."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "carvesim" or key.startswith("carvesim."))
        ]
        patches = []
        for module_name, path, name in SPANS:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__))
                else:
                    wrapped = self.wrap(name, raw)
                patches.append((cls, attr, raw, wrapped))
                continue
            original = getattr(owner, path)
            wrapped = self.wrap(name, original)
            patches += [(m, path, original, wrapped) for m in modules
                        if getattr(m, path, None) is original]
        return patches

    def merge(self, other: dict) -> None:
        """Add the to_json() output of another process's tracer."""
        for name, row in other["stats"].items():
            mine = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0])
            for i, value in enumerate(row):
                mine[i] += value
        for name, value in other["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + value

    def to_json(self) -> dict:
        return {"stats": self.stats, "counts": self.counts}

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_us(self, name: str) -> float:
        """Mean self time per call in microseconds; 0 when never called."""
        row = self.stats.get(name)
        return row[2] / row[0] * 1e6 if row and row[0] else 0.0

    def total_us(self, name: str) -> float:
        """Mean total (inclusive) time per call in microseconds; 0 when never called."""
        row = self.stats.get(name)
        return row[1] / row[0] * 1e6 if row and row[0] else 0.0

"""Traced stand-in for `python -m carvesim`, used by the traced cli_commands run.

Usage: python perfbench/launch.py <carvesim arguments>, with
PERFBENCH_TRACE_FILE naming where to write the trace. It imports carvesim,
installs the span tracer, runs carvesim.cli.main on the arguments and exits
with its code, as `python -m carvesim` does. The import time, the wall time
of cli.main and the span aggregates go to the trace file, never to stdout or
stderr, so the command's own output is unchanged.
"""

from __future__ import annotations

import json
import os
import sys
import time

from tracer import Tracer


def main() -> int:
    t0 = time.perf_counter()
    import carvesim.cli

    t1 = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    t2 = time.perf_counter()
    code = carvesim.cli.main(sys.argv[1:])
    t3 = time.perf_counter()
    record = tracer.to_json()
    record["import_s"] = t1 - t0
    record["main_ms"] = (t3 - t2) * 1e3
    with open(os.environ["PERFBENCH_TRACE_FILE"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

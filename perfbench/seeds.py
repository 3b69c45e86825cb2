"""Seeds of the benchmark inputs, derived from the workload seed alone.

Input parameters come from random.Random("<workload>:<seed>"); the Monte
Carlo seed of op k (k = 0 is the warm-up op) is the first eight bytes,
big-endian, of sha256("<workload>:<seed>:<k>"). Neither depends on time,
process or platform, so a seed names the same inputs everywhere.
"""

from __future__ import annotations

import hashlib
import random


def input_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def op_seed(workload: str, seed: int, k: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:8], "big")

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("benchrec", ROOT / "tools" / "benchrec.py")
benchrec = importlib.util.module_from_spec(spec)
spec.loader.exec_module(benchrec)

METRICS = {  # name -> (parent value, change value); op_p50_ms loses on seed 104
    "setup_s": (0.30, 0.30),
    "op_p50_ms": (5.0, 4.0),
    "op_tail_ms": (7.0, 5.0),
    "ops_per_s": (180.0, 250.0),
    "peak_rss_mb": (45.0, 46.0),
}


def test_pairs_alternate_the_checkouts_and_tally_each_metric(monkeypatch, tmp_path):
    calls = []

    def fake_run_once(workload, seed, root):
        calls.append((workload, seed, root))
        side = 0 if root == tmp_path else 1
        values = {name: pair[side] for name, pair in METRICS.items()}
        if side and seed == 104:
            values["op_p50_ms"] = 6.0
        metrics = {name: {"value": v, "unit": "x"} for name, v in values.items()}
        return {}, {"attempted": 10 + side, "failed": side, "correct": True, "metrics": metrics}

    monkeypatch.setattr(benchrec, "run_once", fake_run_once)
    lines = benchrec.pairs(tmp_path, "exact_tomography")

    # ten pairs; the parent runs first on odd seeds, this checkout first on even ones
    expected = []
    for seed in range(101, 111):
        order = (tmp_path, benchrec.ROOT) if seed % 2 else (benchrec.ROOT, tmp_path)
        expected += [("exact_tomography", seed, root) for root in order]
    assert calls == expected
    assert lines[0] == f"exact_tomography: 10 pairs, seeds 101-110, parent {tmp_path}"
    rows = {line.split()[0]: line for line in lines[3:]}
    assert lines[1] == "  parent: failed 0/100, correct True"
    assert lines[2] == "  change: failed 10/110, correct True"
    assert rows["setup_s"].endswith("change better in 0 of 10")  # ties count for neither
    assert rows["op_p50_ms"].endswith("change better in 9 of 10")
    assert "5 [5, 5] -> 4 [4, 4] ms  x0.8 " in rows["op_p50_ms"]
    assert rows["op_tail_ms"].endswith("change better in 10 of 10")
    assert rows["ops_per_s"].endswith("change better in 10 of 10")  # higher is better
    assert rows["peak_rss_mb"].endswith("change better in 0 of 10")
    assert set(rows) == set(METRICS)

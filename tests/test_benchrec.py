import importlib.util
import json
from pathlib import Path

from carvesim import DetectionRates, RunConfig, config_hash
from carvesim.config import _KEYS, _RATE_KEYS, config_from_values, load_rates, parse_config_text

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
    # the op counts that the harness's RSS grows with, per run, beside peak_rss_mb
    assert "45 [45, 45] -> 46 [46, 46] MB (ops/run 10 -> 11)  x1.02 " in rows["peak_rss_mb"]
    assert all("ops/run" not in row for name, row in rows.items() if name != "peak_rss_mb")
    assert set(rows) == set(METRICS)


def test_record_keeps_ops_per_run_and_compare_shows_its_median_beside_peak_rss(
    monkeypatch, tmp_path
):
    bench = benchrec.load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ops = {101: 90, 102: 140, 103: 120}

    def fake_run_once(workload, seed):
        metrics = {name: {"value": pair[1], "unit": "x"} for name, pair in METRICS.items()}
        result = {"attempted": ops[seed], "failed": 0, "correct": True, "metrics": metrics}
        return {"src_sha256": "b"}, result

    monkeypatch.setattr(benchrec, "run_once", fake_run_once)
    monkeypatch.setattr(benchrec, "load_benchmark", lambda: bench)
    monkeypatch.setattr(benchrec, "ROOT", tmp_path)
    new = benchrec.record("b")
    entry = json.loads(new.read_text())["workloads"][names[0]]
    assert entry["ops_per_run"] == [90, 140, 120] and entry["attempted"] == 350

    # an older record holds only the total op count; its mean per run stands in
    metrics = {name: {"median": pair[0], "q1": pair[0], "q3": pair[0], "unit": "x"}
               for name, pair in METRICS.items()}
    entry = {"attempted": 300, "failed": 0, "correct": True, "metrics": metrics}
    old = tmp_path / "BENCH_a.json"
    old.write_text(json.dumps({"label": "a", "src_sha256": "a", "seeds": [101, 102, 103],
                               "workloads": {name: entry for name in names}}))
    lines = benchrec.compare("a", "b")
    rss = [line for line in lines if line.split()[0] == "peak_rss_mb"]
    assert len(rss) == len(names)
    assert all("MB (ops/run 100 -> 120)  x1.02" in line for line in rss)
    assert sum("ops/run" in line for line in lines) == len(rss)


def test_pairs_give_each_metric_a_verdict(monkeypatch, tmp_path):
    def fake_run_once(workload, seed, root):
        side = 0 if root == tmp_path else 1
        i = seed - 101
        values = {
            # the median 33% worse, against a 0.25 bound
            "setup_s": (0.30, 0.40)[side],
            # better in 10 of 10, but by 1 ms against parent quartiles 20 ms apart
            "op_p50_ms": 100.0 + 4 * i - side,
            # the parent alternates 4 and 8 ms: its quartile spread is 67% of its median
            "op_tail_ms": (4.0 + 4 * (i % 2), 6.0)[side],
            # better in 10 of 10 by 70 against a parent spread of 0
            "ops_per_s": (180.0, 250.0)[side],
            "peak_rss_mb": (45.0, 46.0)[side],
        }
        metrics = {name: {"value": v, "unit": "x"} for name, v in values.items()}
        return {}, {"attempted": 10, "failed": 0, "correct": True, "metrics": metrics}

    monkeypatch.setattr(benchrec, "run_once", fake_run_once)
    rows = {line.split()[0]: line for line in benchrec.pairs(tmp_path, "mc_bulk")[3:]}
    assert rows["setup_s"].endswith("  worse: change better in 0 of 10")
    assert rows["op_p50_ms"].endswith("  within bound: change better in 10 of 10")
    assert rows["op_tail_ms"].endswith("  unresolved: change better in 5 of 10")
    assert rows["ops_per_s"].endswith("  gain holds: change better in 10 of 10")
    assert rows["peak_rss_mb"].endswith("  within bound: change better in 0 of 10")


def test_bytes_runs_each_case_in_both_checkouts_and_names_the_first_difference(
    monkeypatch, tmp_path
):
    same = {"exit code": "0", "stdout": "a\nb\nc\n", "stderr": ""}
    parent = {name: same for name in benchrec.BYTE_CASES}
    parent["protocol --out r.json"] = {**same, "file r.csv": "y\n", "file r.json": "x\n"}
    parent["parity --out p.csv"] = {**same, "file p.csv": "z\n", "file p.json": "w\n"}
    change = {
        **parent,
        "protocol": {**same, "stdout": "a\nB\nC\n"},
        "husimi": {**same, "exit code": "2", "stdout": ""},
        "detect": {**same, "stdout": "a\nb\n"},
        "sweep": {**same, "stdout": "a\nb\nc"},
        "protocol --out r.json": {**same, "file r.csv": "Y\n", "file r.json": "x\n"},
        "parity --out p.csv": {**same, "file p.csv": "z\n"},
    }
    names = {tuple(args): name for name, args in benchrec.BYTE_CASES.items()}
    calls = []

    def fake_run_case(args, root):
        calls.append((names[tuple(args)], root))
        return (change if root == benchrec.ROOT else parent)[names[tuple(args)]]

    monkeypatch.setattr(benchrec, "run_case", fake_run_case)
    lines = benchrec.compare_bytes(tmp_path)
    # the parent first, then this checkout, case by case
    assert calls == [(name, root) for name in benchrec.BYTE_CASES
                     for root in (tmp_path, benchrec.ROOT)]
    rows = dict(line.split(": ", 1) for line in lines)
    assert list(rows) == list(benchrec.BYTE_CASES)
    assert rows["protocol"] == "stdout line 2: 'b\\n' -> 'B\\n' (2 of 3 lines differ)"
    assert rows["husimi"] == "exit code 0 -> 2"
    assert rows["detect"] == "stdout line 3: missing on one side (1 of 3 lines differ)"
    assert rows["sweep"] == "stdout line 3: 'c\\n' -> 'c' (1 of 3 lines differ)"
    assert rows["protocol --out r.json"] == "file r.csv line 1: 'y\\n' -> 'Y\\n' (1 of 1 lines differ)"
    assert rows["parity --out p.csv"] == "file p.json only in the parent"
    assert all(rows[name] == "same" for name in rows if change[name] is parent[name])


def test_byte_cases_cover_every_command_and_protocol_pair():
    cases = benchrec.BYTE_CASES
    assert {args[0] for args in cases.values()} == {
        "protocol", "sweep", "parity", "husimi", "lifetime", "detect"}
    pairs = {("double", "psi_plus")} | {
        (args[2], args[4]) for args in cases.values()
        if args[0] == "protocol" and "--target" in args}
    assert len(pairs) == 7
    assert sum("--out" in args for args in cases.values()) == 3
    assert ["protocol", "--ideal"] in cases.values()
    # the single-carving alpha sweep, an nbar sweep to 300, and a protocol
    # run with few heralds, whose summaries print in full digits
    sweeps = [args for args in cases.values() if args[0] == "sweep"]
    assert any("alpha" in args and "single" in args for args in sweeps)
    assert any(args[args.index("--stop") + 1] == "300" for args in sweeps)
    assert ["protocol", "--scheme", "single", "--alpha", "0.2", "--trials", "200"] in cases.values()
    # the tomography commands on a target other than psi_plus
    assert ["lifetime", "--target", "phi_minus", "--t-max", "150", "--points", "25"] in (
        cases.values())
    assert ["parity", "--target", "psi_minus"] in cases.values()
    assert ["husimi", "--target", "phi_plus"] in cases.values()


def test_byte_cases_read_every_config_and_rates_key(tmp_path):
    files = benchrec.INPUT_FILES
    named = {name: [args[0] for args in benchrec.BYTE_CASES.values() if name in args]
             for name in files}
    assert named == {"every_key.cfg": ["protocol", "sweep"], "noise.cfg": ["lifetime"],
                     "rates.txt": ["detect"]}
    # every run-config key, each off its default
    values = parse_config_text(files["every_key.cfg"])
    assert set(values) == set(_KEYS)
    default = RunConfig()
    for key, value in values.items():
        section, attr, _ = _KEYS[key]
        owner = default if section is None else getattr(default, section)
        assert getattr(owner, attr) != value, key
    assert set(parse_config_text(files["noise.cfg"])) == {
        "noise.sigma_common_2pi_khz", "noise.sigma_diff_2pi_khz"}
    # every rates key, and a set of rates other than the default
    assert set(parse_config_text(files["rates.txt"], _RATE_KEYS)) == set(_RATE_KEYS)
    (tmp_path / "rates.txt").write_text(files["rates.txt"])
    assert load_rates(tmp_path / "rates.txt") != DetectionRates()


def test_run_case_captures_exit_code_streams_and_written_files():
    got = benchrec.run_case(["lifetime", "--points", "5", "--out", "l.csv"], benchrec.ROOT)
    assert set(got) == {"exit code", "stdout", "stderr", "file l.csv", "file l.json"}
    assert (got["exit code"], got["stdout"], got["stderr"]) == ("0", "", "")
    assert got["file l.csv"].startswith("# carvesim lifetime\n")
    assert json.loads(got["file l.json"])["command"] == "lifetime"


def test_run_case_writes_the_input_files_it_names_and_reports_only_outputs():
    got = benchrec.run_case(["lifetime", "--config", "noise.cfg", "--points", "5",
                             "--out", "l.csv"], benchrec.ROOT)
    assert set(got) == {"exit code", "stdout", "stderr", "file l.csv", "file l.json"}
    assert (got["exit code"], got["stderr"]) == ("0", "")
    # the config was read: its noise is hashed into the report
    noise = config_from_values(parse_config_text(benchrec.INPUT_FILES["noise.cfg"]))
    assert json.loads(got["file l.json"])["config_hash"] == config_hash(noise) != config_hash(
        RunConfig())

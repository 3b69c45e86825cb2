import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import carvesim
from carvesim.cli import main


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_protocol_stdout_json(capsys):
    report = run_json(
        capsys, ["protocol", "--scheme", "double", "--target", "psi_plus", "--trials", "500", "--seed", "7"]
    )
    assert report["command"] == "protocol"
    assert 0.7 < report["exact"]["fidelity"]["psi_plus"] < 0.8
    assert report["monte_carlo"]["trials"] == 500
    assert len(report["config_hash"]) == 16


def test_protocol_files(tmp_path, capsys):
    out = tmp_path / "run.json"
    code = main(
        ["protocol", "--scheme", "single", "--target", "psi_plus", "--alpha", "1.0",
         "--trials", "300", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert "eta_ideal" in report["exact"]
    csv_text = (tmp_path / "run.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0] == "# carvesim protocol"
    assert lines[1].startswith("# config_hash: ")
    assert lines[2] == "# columns: step,herald_prob,d_fraction,any_prob"
    assert len(lines) == 4  # single scheme: one pulse row


def test_ideal_flag_gives_lossless_limit(capsys):
    report = run_json(
        capsys,
        ["protocol", "--scheme", "double", "--target", "psi_plus", "--ideal", "--trials", "200"],
    )
    assert report["exact"]["fidelity"]["psi_plus"] == pytest.approx(1.0, abs=1e-9)
    assert report["exact"]["success_prob"] == pytest.approx(0.5, abs=1e-9)


def test_singlet_target_switches_preparation(capsys):
    report = run_json(
        capsys,
        ["protocol", "--scheme", "double", "--target", "psi_minus", "--ideal", "--trials", "200"],
    )
    assert report["exact"]["fidelity"]["psi_minus"] == pytest.approx(1.0, abs=1e-9)


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--scheme", "double", "--target", "psi_plus", "--variable", "nbar",
         "--start", "0.1", "--stop", "0.7", "--steps", "3", "--trials", "200", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# carvesim sweep"
    assert "# columns: x,fidelity_exact,fidelity_mc,mc_stderr,success_prob" in lines
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 3
    assert data[0].split(",")[0] == "0.1"


def test_sweep_rejects_bad_range(capsys, recwarn):
    assert main(["sweep", "--variable", "nbar", "--start", "0.5", "--stop", "0.1", "--steps", "3"]) == 2
    # double carving ignores alpha, so an alpha sweep of it would repeat one row
    assert main(["sweep", "--scheme", "double", "--variable", "alpha", "--start", "0.5",
                 "--stop", "2.5", "--steps", "3", "--trials", "100"]) == 2
    capsys.readouterr()
    # an infinite end would make linspace put NaN in the range
    assert main(["sweep", "--variable", "nbar", "--start", "0.1", "--stop", "inf", "--steps", "3"]) == 2
    assert capsys.readouterr().err == "error: sweep range 0.1 to inf is not finite\n"
    assert not recwarn.list


@pytest.mark.parametrize(
    "argv",
    [
        ["lifetime", "--points", "100000000000000"],
        ["protocol", "--trials", "100000000000000"],
        ["sweep", "--variable", "nbar", "--start", "0.1", "--stop", "0.7",
         "--steps", "100000000000000"],
    ],
    ids=["lifetime", "protocol", "sweep"],
)
def test_an_array_too_large_to_allocate_is_exit_2(argv, capsys):
    # each size is past the 128 TiB of a 64-bit address space, so the first
    # large array fails to allocate before any memory is taken
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
    # numpy's text does not say where the size came from, so the message
    # ends with the command and its size options, the one given among them
    command, option = argv[0], argv[-2]
    assert err.endswith(")\n") and option in err.split(f" ({command}: check ")[1]


def _run_module(argv):
    src = str(Path(carvesim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "carvesim", *argv], env=env, capture_output=True, text=True
    )


def test_sweep_runs_the_monte_carlo_past_the_float_range_of_n_factorial():
    # nbar = 800 needs photon counts up to n = 342
    proc = _run_module(["sweep", "--variable", "nbar", "--start", "0.1", "--stop", "800", "--steps", "2"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    rows = [line.split(",") for line in proc.stdout.splitlines() if not line.startswith("#")]
    assert len(rows) == 2
    assert all(np.isfinite(float(value)) for row in rows for value in row)


def test_arithmetic_error_is_exit_2_without_traceback():
    # wait_evolution squares t = 1e200, which raises OverflowError; that is a
    # runtime error of the run, not a crash
    proc = _run_module(["lifetime", "--t-max", "1e200"])
    assert proc.returncode == 2
    assert any(line.startswith("error: ") for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr
    assert "--t-max" in proc.stderr


def test_parity_outputs(tmp_path, capsys):
    out = tmp_path / "parity.csv"
    code = main(
        ["parity", "--scheme", "double", "--target", "psi_plus", "--ideal",
         "--n-phases", "12", "--out", str(out)]
    )
    assert code == 0
    fit = json.loads((tmp_path / "parity.json").read_text())
    # ideal triplet: offset 2 * re<ud|rho|du> = 1
    assert fit["offset"] == pytest.approx(1.0, abs=1e-9)
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(data) == 12


@pytest.mark.parametrize("command", ["parity", "husimi"])
def test_exact_only_commands_run_past_the_float_range_of_n_factorial(command, tmp_path, capsys):
    # nbar = 400 needs photon counts up to n = 205; the exact channel has no
    # limit there, only the Monte Carlo does
    cfg = tmp_path / "big.cfg"
    cfg.write_text("pulse.nbar = 400\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "out.csv").read_text()


def test_husimi_named_state(tmp_path):
    out = tmp_path / "q.csv"
    code = main(["husimi", "--state", "phi_minus", "--resolution", "10x20", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 200
    header = "\n".join(lines[:6])
    assert "integral:" in header
    qcol = np.array([float(l.split(",")[2]) for l in data])
    assert qcol.max() <= 3 / (4 * np.pi) + 1e-9


def test_husimi_bad_resolution():
    assert main(["husimi", "--state", "psi_plus", "--resolution", "axb"]) == 2


def test_lifetime_fit_output(tmp_path):
    out = tmp_path / "life.csv"
    code = main(["lifetime", "--target", "phi_minus", "--t-max", "250", "--points", "25", "--out", str(out)])
    assert code == 0
    report = json.loads((tmp_path / "life.json").read_text())
    assert report["tau_us"] == pytest.approx(90.0, rel=1e-3)


@pytest.mark.parametrize(
    "argv",
    [["protocol", "--trials", "100", "--out", "run.csv"], ["parity", "--out", "scan.json"]],
    ids=["protocol", "parity"],
)
def test_out_with_the_sibling_suffix_is_exit_2(argv, tmp_path, capsys, monkeypatch):
    # run.csv would hold the JSON report next to run.csv.csv; nothing is written
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, wrong, right",
    [
        (["sweep", "--variable", "nbar", "--start", "0.1", "--stop", "0.3", "--steps", "2",
          "--trials", "50"], "s.json", "sweep.csv"),
        (["husimi", "--state", "psi_plus", "--resolution", "4x6"], "q.json", "husimi.csv"),
        (["detect", "--trials", "100"], "d.csv", "detect.json"),
    ],
    ids=["sweep", "husimi", "detect"],
)
def test_out_with_the_other_format_suffix_is_exit_2(
    argv, wrong, right, tmp_path, capsys, monkeypatch
):
    # s.json would hold CSV, d.csv would hold JSON; nothing is written
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", wrong]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []
    assert main(argv + ["--out", right]) == 0
    assert [p.name for p in tmp_path.iterdir()] == [right]


@pytest.mark.parametrize(
    "argv",
    [["detect", "--trials", "100"], ["husimi", "--state", "psi_plus", "--resolution", "4x6"]],
    ids=["detect", "husimi-state"],
)
def test_ideal_is_rejected_where_it_changes_nothing(argv, tmp_path, capsys, monkeypatch):
    # these runs never simulate a protocol, so "ideal": true would be false
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--ideal", "--out", "x"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []
    assert main(argv) == 0


def test_husimi_of_the_protocol_output_takes_ideal(capsys):
    assert main(["husimi", "--resolution", "4x6", "--ideal"]) == 0
    assert "# ideal: true" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("points", ["-1", "0", "1", "2"])
def test_lifetime_too_few_points_is_exit_2(points, capsys):
    assert main(["lifetime", "--points", points]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert "--points" in err


@pytest.mark.parametrize("t_max", ["nan", "inf", "-inf", "0", "-5", "1e200"])
def test_lifetime_bad_t_max_is_exit_2_naming_the_option(t_max, capsys, recwarn):
    assert main(["lifetime", f"--t-max={t_max}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --t-max ") and captured.err.count("\n") == 1
    assert not recwarn.list


def test_lifetime_on_a_too_coarse_window_is_exit_2_saying_so(tmp_path, capsys, recwarn):
    # every wait after t = 0 is fully dephased: nothing in the data fixes tau
    assert main(["lifetime", "--t-max", "20000", "--points", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: lifetime fit failed: ")
    assert "too coarse to resolve the decay" in captured.err
    assert not recwarn.list
    out = tmp_path / "life.csv"
    assert main(["lifetime", "--t-max", "5000", "--points", "10", "--out", str(out)]) == 0
    report = json.loads((tmp_path / "life.json").read_text())
    assert report["tau_us"] == pytest.approx(134.0, rel=1e-9)


@pytest.mark.parametrize("target", ["psi_plus", "psi_minus"])
def test_lifetime_one_ulp_above_the_baseline_is_too_coarse(target, capsys, recwarn):
    # the second of 40 samples is one ulp above 0.5, the rest sit at it
    argv = ["lifetime", "--target", target, "--t-max", "31622.776601683792", "--points", "40"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: lifetime fit failed: ")
    assert "too coarse to resolve the decay" in captured.err
    assert not recwarn.list


@pytest.mark.parametrize("t_max, points", [("800", "3"), ("1200", "5")])
def test_lifetime_from_one_usable_sample_warns_nothing(t_max, points, tmp_path, capsys):
    # one sample lies between the earliest and the baseline: no rank-deficient
    # polyfit, so nothing reaches stderr
    out = tmp_path / "life.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["lifetime", "--t-max", t_max, "--points", points, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "life.json").read_text())
    assert report["tau_us"] == pytest.approx(134.0, abs=1e-9)


def test_detect_matrix(capsys):
    report = run_json(capsys, ["detect", "--trials", "20000", "--seed", "5"])
    matrix = np.array(report["matrix"])
    assert matrix.shape == (3, 4)
    np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)
    assert all(matrix[i, i] > 0.9 for i in range(3))


def test_detect_rates_file_changes_matrix(tmp_path, capsys):
    base = run_json(capsys, ["detect", "--trials", "5000", "--seed", "5"])
    rates = tmp_path / "rates.cfg"
    rates.write_text(
        "# dimmer transmission, stricter threshold\n"
        "transmission.down_down = 2.0\n"
        "threshold.transmission = 5\n"
    )
    report = run_json(capsys, ["detect", "--rates-file", str(rates), "--trials", "5000", "--seed", "5"])
    matrix = np.array(report["matrix"])
    np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)
    # down_down now rarely clears the transmission threshold
    assert matrix[0, 0] < 0.1 < base["matrix"][0][0]


@pytest.mark.parametrize(
    "text",
    [
        "transmission.down_down = 8.0\ntransmission.sideways = 1.0\n",
        "transmission.down_down = 8.0\ntransmission.up_up 0.4\n",
        "transmission.down_down = 8.0\ntransmission.down_down = 7.0\n",
        "transmission.down_down = 8.0\nfluorescence.up_up = nan\n",
        "transmission.down_down = 8.0\nfluorescence.up_up = inf\n",
    ],
    ids=["unknown_key", "missing_equals", "duplicate_key", "nan_mean", "inf_mean"],
)
def test_bad_rates_file_is_exit_1(tmp_path, capsys, text):
    rates = tmp_path / "rates.cfg"
    rates.write_text(text)
    assert main(["detect", "--rates-file", str(rates), "--trials", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: line 2:")


def test_config_file_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pulse.nbar = 0.5\nseed = 4\ntrials = 300\n")
    report = run_json(capsys, ["protocol", "--config", str(cfg)])
    assert report["monte_carlo"]["seed"] == 4
    report2 = run_json(capsys, ["protocol", "--config", str(cfg), "--seed", "5"])
    assert report2["monte_carlo"]["seed"] == 5
    assert report2["config_hash"] != report["config_hash"]


@pytest.mark.parametrize("command", ["parity", "husimi", "lifetime"])
@pytest.mark.parametrize("option", ["--seed", "--trials"])
def test_commands_without_a_monte_carlo_take_no_seed_or_trials(command, option, capsys):
    # these runs ignore both, so neither may enter the config hash or be validated
    with pytest.raises(SystemExit) as exit_info:
        main([command, option, "5"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {option} 5" in capsys.readouterr().err


def test_bad_config_is_exit_1(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("pulse.sparkle = 1\n")
    assert main(["protocol", "--config", str(cfg)]) == 1
    assert main(["protocol", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert main(["protocol", "--trials", "0"]) == 1
    for line in ("pulse.nbar = inf\n", "noise.sigma_common_2pi_khz = nan\n"):
        cfg.write_text(line)
        assert main(["protocol", "--config", str(cfg)]) == 1
        assert main(["lifetime", "--config", str(cfg)]) == 1
    cfg.write_bytes(b"\xffpulse.nbar = 0.3\n")  # not UTF-8
    assert main(["protocol", "--config", str(cfg)]) == 1
    assert main(["detect", "--rates-file", str(cfg)]) == 1


def test_physics_errors_are_exit_2():
    assert main(["protocol", "--scheme", "single", "--target", "psi_minus"]) == 2


def test_cli_is_deterministic(tmp_path):
    args = ["protocol", "--scheme", "double", "--target", "psi_plus", "--trials", "400", "--seed", "21"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# Small runs of each command, and the sha256 of what they write: stdout
# without --out (parity and lifetime print their CSV, then their JSON), and
# both files with --out. Any changed byte is a behaviour change.
PINNED_ARGV = {
    "protocol": ["protocol", "--trials", "300", "--seed", "3"],
    "sweep": ["sweep", "--variable", "nbar", "--start", "0.1", "--stop", "0.7", "--steps", "3",
              "--trials", "200", "--seed", "3"],
    "parity": ["parity", "--n-phases", "8"],
    "husimi": ["husimi", "--resolution", "6x12"],
    "lifetime": ["lifetime", "--points", "10"],
    "detect": ["detect", "--trials", "2000", "--seed", "3"],
}
PINNED_STDOUT = {
    "protocol": "8a3972149517f5d0f31214d0276f759ad33cd658f603bf6b221a7d26bc14aa04",
    "sweep": "929710da9ab3725f8ab4585fc9e085a73015b287795335854c7906a2b80b362f",
    "parity": "fef515189033d2a2f9bfff8dff3e7f926d5b940f6f80a0be17ad112b0ab5299b",
    "husimi": "aa6bb94131dbbf1b8c74763995b3ef51fdf623f66487b9a9b3865a099a6446d6",
    "lifetime": "0c4aef27fe873e1174980d5042245422189a67bdeab547b0d8ac1daea35ef021",
    "detect": "f6b9ce50f41b2bed96f665f20029ca9f0e73319cf4b41f5d8151068a82d6ae7b",
}
PINNED_FILES = {
    "protocol": ("run.json", {
        "run.json": "8a3972149517f5d0f31214d0276f759ad33cd658f603bf6b221a7d26bc14aa04",
        "run.csv": "a4effdb9376934bdb0c224d49e13bd744c4044fe10e84969db7143a0c4955b55",
    }),
    "parity": ("scan.csv", {
        "scan.csv": "94bc2d0cb04930239681d0715295b0e4af456343dc10ce4265eada499f724216",
        "scan.json": "d9ec4739d7f6ae71dbd979fec8930b3aea0b7d77e4fd5283a24a668e0590b625",
    }),
    "lifetime": ("life.csv", {
        "life.csv": "1554849b1fd5be2ba6e7e8ba4d28d1a1103515d6701689744b610c00f32d7b61",
        "life.json": "f8c34310639946ff9102762fd1b6fa5625c9a9a361b44566e4ab35b64fbb8438",
    }),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_stdout_bytes_are_pinned(command, capsys):
    assert main(PINNED_ARGV[command]) == 0
    assert sha256(capsys.readouterr().out.encode()) == PINNED_STDOUT[command]


@pytest.mark.parametrize("command", sorted(PINNED_FILES))
def test_output_file_bytes_are_pinned(command, tmp_path, capsys, monkeypatch):
    out, digests = PINNED_FILES[command]
    monkeypatch.chdir(tmp_path)
    assert main(PINNED_ARGV[command] + ["--out", out]) == 0
    assert capsys.readouterr().out == ""
    assert {p.name: sha256(p.read_bytes()) for p in tmp_path.iterdir()} == digests


def test_ideal_flag_is_marked_in_both_files(tmp_path, monkeypatch):
    # --ideal changes the numbers but not the config hash, so the outputs say so
    monkeypatch.chdir(tmp_path)
    argv = ["protocol", "--trials", "200", "--out", "x.json"]
    for flags, marked in (([], False), (["--ideal"], True)):
        assert main(argv + flags) == 0
        report = json.loads((tmp_path / "x.json").read_text())
        header = (tmp_path / "x.csv").read_text().splitlines()
        assert ("ideal" in report) is marked
        assert ("# ideal: true" in header) is marked
    assert report["ideal"] is True
    assert header[1].startswith("# config_hash: ")
    assert header[2] == "# ideal: true"

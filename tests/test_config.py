import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carvesim import (
    CavityParams,
    ConfigError,
    NoiseModel,
    PreparationSpec,
    PulseConfig,
    RunConfig,
    config_hash,
    load_config,
)
from carvesim.config import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    config_from_values,
    config_text,
    parse_config_text,
    with_overrides,
)
from carvesim.protocols import PREP_KINDS


def build(text: str) -> RunConfig:
    return config_from_values(parse_config_text(text))

FULL = """\
# cavity rates in MHz
cavity.g_2pi_mhz = 7.8
cavity.kappa_2pi_mhz = 2.5
cavity.kappa_out_2pi_mhz = 2.3
cavity.gamma_2pi_mhz = 3.0
pulse.nbar = 0.5
pulse.dark_prob = 0.02
pulse.det_eff = 0.333
pulse.mode_match = 0.9
prep.kind = antiparallel
prep.fidelity = 0.86
noise.sigma_common_2pi_khz = 1.3
noise.sigma_diff_2pi_khz = 0.8
seed = 99
trials = 1234
"""


def test_defaults():
    cfg = RunConfig()
    assert cfg.seed == DEFAULT_SEED == 123456789
    assert cfg.trials == DEFAULT_TRIALS == 20000
    assert cfg.pulse.nbar == pytest.approx(0.33)
    assert cfg.output_path is None


def test_parse_full_config():
    cfg = build(FULL)
    assert cfg.cavity.g_2pi_mhz == 7.8
    assert cfg.pulse.dark_prob == 0.02
    assert cfg.prep.kind == "antiparallel"
    assert cfg.noise.sigma_diff_2pi_khz == 0.8
    assert (cfg.seed, cfg.trials) == (99, 1234)


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("seed = 1\npulse.brightness = 2\n")


def test_duplicate_key_reports_line():
    with pytest.raises(ConfigError, match="line 3.*duplicate"):
        parse_config_text("seed = 1\ntrials = 10\nseed = 2\n")


def test_bad_value_is_config_error():
    for text in (
        "pulse.nbar = fast\n",
        "pulse.nbar = inf\n",
        "pulse.nbar = 1e400\n",
        "noise.sigma_common_2pi_khz = nan\n",
        "cavity.g_2pi_mhz = -inf\n",
    ):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text(text)
    # range invariants surface when the components are built
    with pytest.raises(ConfigError):
        build("pulse.mode_match = 0\n")
    with pytest.raises(ConfigError):
        build("seed = -5\n")


def test_missing_equals_is_config_error():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just words\n")


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FULL)
    cfg = load_config(path)
    assert cfg.trials == 1234
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


def test_config_text_roundtrip():
    cfg = build(FULL)
    again = build(config_text(cfg))
    assert again == cfg
    assert config_text(again) == config_text(cfg)


def test_hash_is_stable_and_sensitive():
    cfg = build(FULL)
    h = config_hash(cfg)
    assert len(h) == 16
    # the dump is derived from the key table; pin the default digest so it cannot drift
    assert config_hash(RunConfig()) == "d544dc06a5643a8a"
    assert h == config_hash(build(FULL))
    assert config_hash(with_overrides(cfg, seed=100)) != h
    # where the output lands is routing, not an input
    assert config_hash(with_overrides(cfg, output_path="elsewhere.json")) == h


def test_overrides_leave_base_untouched():
    cfg = RunConfig()
    other = with_overrides(cfg, trials=5)
    assert other.trials == 5 and cfg.trials == DEFAULT_TRIALS
    with pytest.raises(ConfigError):
        with_overrides(cfg, trials=0)


@st.composite
def run_configs(draw):
    """Valid RunConfigs: every range validated by its component, and values
    that sit on or next to those bounds."""
    kappa = draw(st.floats(1e-3, 1e3))
    cavity = CavityParams(
        g_2pi_mhz=draw(st.floats(0.0, 1e3)),
        kappa_2pi_mhz=kappa,
        kappa_out_2pi_mhz=draw(st.floats(0.0, kappa, exclude_min=True)),
        gamma_2pi_mhz=draw(st.floats(0.0, 1e3, exclude_min=True)),
    )
    pulse = PulseConfig(
        nbar=draw(st.floats(0.0, 5e3)),
        dark_prob=draw(st.floats(0.0, 1.0, exclude_max=True)),
        det_eff=draw(st.floats(0.0, 1.0, exclude_min=True)),
        mode_match=draw(st.floats(0.0, 1.0, exclude_min=True)),
    )
    prep = PreparationSpec(
        draw(st.sampled_from(PREP_KINDS)), draw(st.none() | st.floats(0.0, 1.0))
    )
    noise = NoiseModel(draw(st.floats(0.0, 1e3)), draw(st.floats(0.0, 1e3)))
    return RunConfig(
        cavity,
        pulse,
        prep,
        noise,
        seed=draw(st.integers(0, 2**64 - 1)),
        trials=draw(st.integers(1, 10**9)),
    )


@settings(max_examples=100, deadline=None)
@given(run_configs())
# 12 digits would write this dark_prob as 1, outside its range [0, 1)
@example(RunConfig(pulse=PulseConfig(dark_prob=0.99999999999999)))
def test_config_text_round_trips_any_valid_config(cfg):
    assert config_hash(build(config_text(cfg))) == config_hash(cfg)

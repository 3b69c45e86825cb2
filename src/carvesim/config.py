"""Run configuration: documented defaults, flat-key config files, hashing.

Config files are plain text with one dotted key per line, e.g.::

    cavity.g_2pi_mhz = 7.8
    pulse.nbar = 1.2
    prep.kind = antiparallel

Blank lines and #-comments are ignored; unknown and duplicate keys are
errors, float values must be finite, and every value is validated by the
component it configures. Detection rates files use the same syntax with
their own key table (_RATE_KEYS). The canonical text form of a config
(config_text) is hashed into CSV/JSON headers so outputs are traceable to
their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .analysis import DetectionRates
from .cavity import CavityParams
from .protocols import NoiseModel, PreparationSpec, PulseConfig

DEFAULT_SEED = 123456789
DEFAULT_TRIALS = 20000


class ConfigError(ValueError):
    """A config file could not be parsed or violates an invariant."""


@dataclass(frozen=True)
class RunConfig:
    cavity: CavityParams = field(default_factory=CavityParams)
    pulse: PulseConfig = field(default_factory=PulseConfig)
    prep: PreparationSpec = field(default_factory=PreparationSpec)
    noise: NoiseModel = field(default_factory=NoiseModel)
    seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


# key -> (component attribute on RunConfig or None for top level, field, type)
_KEYS = {
    "cavity.g_2pi_mhz": ("cavity", "g_2pi_mhz", float),
    "cavity.kappa_2pi_mhz": ("cavity", "kappa_2pi_mhz", float),
    "cavity.kappa_out_2pi_mhz": ("cavity", "kappa_out_2pi_mhz", float),
    "cavity.gamma_2pi_mhz": ("cavity", "gamma_2pi_mhz", float),
    "pulse.nbar": ("pulse", "nbar", float),
    "pulse.dark_prob": ("pulse", "dark_prob", float),
    "pulse.det_eff": ("pulse", "det_eff", float),
    "pulse.mode_match": ("pulse", "mode_match", float),
    "prep.kind": ("prep", "kind", str),
    "prep.fidelity": ("prep", "prep_fidelity", float),
    "noise.sigma_common_2pi_khz": ("noise", "sigma_common_2pi_khz", float),
    "noise.sigma_diff_2pi_khz": ("noise", "sigma_diff_2pi_khz", float),
    "seed": (None, "seed", int),
    "trials": (None, "trials", int),
}

# rates-file key -> (DetectionRates field, index into its class triple or None, type)
_RATE_KEYS = {
    "transmission.down_down": ("transmission_means", 0, float),
    "transmission.antiparallel": ("transmission_means", 1, float),
    "transmission.up_up": ("transmission_means", 2, float),
    "fluorescence.down_down": ("fluorescence_means", 0, float),
    "fluorescence.antiparallel": ("fluorescence_means", 1, float),
    "fluorescence.up_up": ("fluorescence_means", 2, float),
    "threshold.transmission": ("transmission_threshold", None, int),
    "threshold.fluorescence": ("fluorescence_threshold", None, int),
}


def parse_config_text(text: str, keys=_KEYS) -> dict[str, object]:
    """Parse flat-key text into typed values, or raise ConfigError.

    keys maps each allowed key to a tuple whose last item is the value type:
    the run-config table by default, _RATE_KEYS for a rates file.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key not in keys:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            value = keys[key][-1](rhs)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: bad value {rhs!r} for {key}: {exc}"
            ) from exc
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"line {lineno}: {key} must be finite, got {rhs!r}")
        values[key] = value
    return values


def config_from_values(values: dict[str, object]) -> RunConfig:
    """Build a RunConfig from flat key overrides on top of the defaults."""
    groups: dict[str, dict[str, object]] = {}
    top: dict[str, object] = {}
    for key, value in values.items():
        section, attr, _ = _KEYS[key]
        if section is None:
            top[attr] = value
        else:
            groups.setdefault(section, {})[attr] = value
    try:
        cavity = CavityParams(**groups.get("cavity", {}))
        pulse = PulseConfig(**groups.get("pulse", {}))
        prep = PreparationSpec(**groups.get("prep", {}))
        noise = NoiseModel(**groups.get("noise", {}))
        return RunConfig(cavity=cavity, pulse=pulse, prep=prep, noise=noise, **top)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _read_text(path, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def load_config(path) -> RunConfig:
    return config_from_values(parse_config_text(_read_text(path, "config")))


def load_rates(path) -> DetectionRates:
    """DetectionRates from a rates file: listed keys replace the defaults."""
    base = DetectionRates()
    means = {
        "transmission_means": list(base.transmission_means),
        "fluorescence_means": list(base.fluorescence_means),
    }
    thresholds = {}
    text = _read_text(path, "rates file")
    for key, value in parse_config_text(text, _RATE_KEYS).items():
        attr, idx, _ = _RATE_KEYS[key]
        if idx is None:
            thresholds[attr] = value
        else:
            means[attr][idx] = value
    try:
        return DetectionRates(**{a: tuple(m) for a, m in means.items()}, **thresholds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _format_value(value) -> str:
    if isinstance(value, float):
        text = f"{value:.12g}"
        # 12 digits round a value next to 1 onto it, the open upper bound of
        # dark_prob; such a value keeps all its digits
        return repr(value) if text == "1" and value != 1.0 else text
    return str(value)


def config_text(config: RunConfig) -> str:
    """Canonical flat-key dump of the run inputs."""
    lines = []
    for key in sorted(_KEYS):
        section, attr, _ = _KEYS[key]
        owner = config if section is None else getattr(config, section)
        lines.append(f"{key} = {_format_value(getattr(owner, attr))}")
    return "\n".join(lines) + "\n"


def config_hash(config: RunConfig) -> str:
    """Short stable digest of the canonical config text."""
    import hashlib  # OpenSSL loads only where a config is hashed

    return hashlib.sha256(config_text(config).encode("utf-8")).hexdigest()[:16]


def with_overrides(config: RunConfig, **top_level) -> RunConfig:
    """Replace top-level fields (seed, trials) on a config."""
    try:
        return replace(config, **top_level)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

"""Textual key-value run configuration.

Format: one ``key = value`` pair per line; blank lines and ``#`` comments
are ignored. Unknown and duplicate keys are rejected. ``trials`` and
``seed`` are required; everything else has defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, ValidationError
from .protocol import ProtocolConfig
from .readout import IQPoint, NoiseParams

_INT_KEYS = {"trials", "seed", "bucket_size", "ss_limit", "ss_witnesses"}
_BOOL_KEYS = {"ideal"}
_FLOAT_KEYS = {
    "p_thermal_1",
    "p_thermal_2",
    "gate_amp_error",
    "p_decay_10",
    "p_decay_21",
    "iq_sigma",
}
_CENTER_KEYS = {"iq_center_0", "iq_center_1", "iq_center_2"}
KNOWN_KEYS = _INT_KEYS | _BOOL_KEYS | _FLOAT_KEYS | _CENTER_KEYS

DEFAULT_BUCKET_SIZE = 999302
DEFAULT_SS_LIMIT = 100000
DEFAULT_SS_WITNESSES = 64


@dataclass(frozen=True)
class RunConfig:
    trials: int
    seed: int
    ideal: bool = False
    noise: NoiseParams = NoiseParams()
    bucket_size: int = DEFAULT_BUCKET_SIZE
    ss_limit: int = DEFAULT_SS_LIMIT
    ss_witnesses: int = DEFAULT_SS_WITNESSES

    def __post_init__(self):
        try:
            self.protocol()
        except ValidationError as exc:
            raise ConfigError(str(exc)) from None
        if self.bucket_size < 1:
            raise ConfigError(f"bucket_size must be >= 1, got {self.bucket_size}")
        if self.ss_limit < 3:
            raise ConfigError(f"ss_limit must be >= 3, got {self.ss_limit}")
        if self.ss_witnesses < 1:
            raise ConfigError(f"ss_witnesses must be >= 1, got {self.ss_witnesses}")

    def protocol(self, ideal_override: bool | None = None) -> ProtocolConfig:
        ideal = self.ideal if ideal_override is None else ideal_override
        return ProtocolConfig(
            n_trials=self.trials, seed=self.seed, noise=self.noise, ideal=ideal
        )


def _parse_bool(key: str, raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ConfigError(f"{key} must be 'true' or 'false', got {raw!r}")


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None


def _parse_center(key: str, raw: str) -> IQPoint:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"{key} must be 'i,q', got {raw!r}")
    try:
        return IQPoint(float(parts[0]), float(parts[1]))
    except (ValueError, ValidationError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def parse_config(text: str) -> RunConfig:
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate configuration key {key!r}")
        if key in _INT_KEYS:
            values[key] = _parse_int(key, raw)
        elif key in _BOOL_KEYS:
            values[key] = _parse_bool(key, raw)
        elif key in _FLOAT_KEYS:
            values[key] = _parse_float(key, raw)
        else:
            values[key] = _parse_center(key, raw)

    for required in ("trials", "seed"):
        if required not in values:
            raise ConfigError(f"missing required configuration key {required!r}")

    noise_kwargs = {k: values.pop(k) for k in list(values) if k in _FLOAT_KEYS}
    centers = [values.pop(k, None) for k in ("iq_center_0", "iq_center_1", "iq_center_2")]
    if any(c is not None for c in centers):
        defaults = NoiseParams().iq_centers
        noise_kwargs["iq_centers"] = tuple(
            c if c is not None else d for c, d in zip(centers, defaults)
        )
    try:
        noise = NoiseParams(**noise_kwargs)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None

    return RunConfig(noise=noise, **values)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())

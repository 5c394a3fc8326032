"""Textual key-value run configuration.

Format: one ``key = value`` pair per line; blank lines and ``#`` comments
are ignored. Unknown and duplicate keys are rejected. ``trials`` and
``seed`` are required; everything else has defaults. ``bucket_size``,
``ss_limit`` and ``ss_witnesses`` are range-checked but not read: ``stats
--bucket`` and ``consume-ss --limit/--witnesses`` set those values.
"""

from __future__ import annotations

from dataclasses import fields

from .errors import ConfigError, ValidationError
from .protocol import ProtocolConfig
from .readout import IQPoint, NoiseParams


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


_DEFAULT_NOISE = NoiseParams()
_NOISE_KEYS = tuple(f.name for f in fields(NoiseParams) if f.name != "iq_centers")
_CENTER_KEYS = tuple(f"iq_center_{i}" for i in range(len(_DEFAULT_NOISE.iq_centers)))
_ANALYSIS_MINIMUMS = {"bucket_size": 1, "ss_limit": 3, "ss_witnesses": 1}

_PARSERS = {
    "trials": _parse_int,
    "seed": _parse_int,
    "ideal": _parse_bool,
    **{key: _parse_float for key in _NOISE_KEYS},
    **{key: _parse_center for key in _CENTER_KEYS},
    **{key: _parse_int for key in _ANALYSIS_MINIMUMS},
}


def parse_config(text: str) -> ProtocolConfig:
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate configuration key {key!r}")
        values[key] = _PARSERS[key](key, raw.strip())

    for required in ("trials", "seed"):
        if required not in values:
            raise ConfigError(f"missing required configuration key {required!r}")

    noise_kwargs = {k: values[k] for k in _NOISE_KEYS if k in values}
    centers = [values.get(k) for k in _CENTER_KEYS]
    if any(c is not None for c in centers):
        noise_kwargs["iq_centers"] = tuple(
            c if c is not None else d for c, d in zip(centers, _DEFAULT_NOISE.iq_centers)
        )
    try:
        config = ProtocolConfig(
            n_trials=values["trials"],
            seed=values["seed"],
            noise=NoiseParams(**noise_kwargs),
            ideal=values.get("ideal", False),
        )
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None
    for key, minimum in _ANALYSIS_MINIMUMS.items():
        if values.get(key, minimum) < minimum:
            raise ConfigError(f"{key} must be >= {minimum}, got {values[key]}")
    return config


def load_config(path) -> ProtocolConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())

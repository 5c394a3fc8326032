"""Textual key-value run configuration.

Format: one ``key = value`` pair per line; blank lines and ``#`` comments
are ignored. Unknown and duplicate keys are rejected. ``trials`` and
``seed`` are required; everything else has defaults. ``bucket_size``,
``ss_limit`` and ``ss_witnesses`` are range-checked but not read: ``stats
--bucket`` and ``consume-ss --limit/--witnesses`` set those values.

Numbers are ASCII. An integer is an optional ``-`` and one or more digits
``0-9``. A number, and each coordinate of an ``iq_center_*`` pair, is an
optional ``-``, one or more digits, an optional fraction (``.`` and one or
more digits) and an optional exponent (``e`` or ``E``, an optional ``+`` or
``-``, one or more digits): ``5``, ``-0.25``, ``1e-6``. A leading ``+``,
``_`` separators, digits of other scripts, ``inf`` and ``nan`` are rejected.
"""

from __future__ import annotations

import math
import re
from dataclasses import fields

from .errors import ConfigError, ValidationError
from .protocol import ProtocolConfig
from .readout import NoiseParams


def _parse_bool(key: str, raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ConfigError(f"{key} must be 'true' or 'false', got {raw!r}")


_INT = re.compile(r"-?[0-9]+")
_FLOAT = re.compile(r"-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?")


def _parse_int(key: str, raw: str) -> int:
    if not _INT.fullmatch(raw):
        raise ConfigError(f"{key} must be an integer, got {raw!r}")
    return int(raw)


def _parse_float(key: str, raw: str) -> float:
    if not _FLOAT.fullmatch(raw):
        raise ConfigError(f"{key} must be a number, got {raw!r}")
    value = float(raw)
    if not math.isfinite(value):  # a literal past the float64 range reads as inf
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return value


def _parse_center(key: str, raw: str) -> tuple[float, float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"{key} must be 'i,q', got {raw!r}")
    return tuple(_parse_float(key, part) for part in parts)


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
    noise_kwargs["iq_centers"] = tuple(values.get(k, d) for k, d in zip(_CENTER_KEYS, _DEFAULT_NOISE.iq_centers))
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
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_config(text)

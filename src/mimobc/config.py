"""Experiment configuration: JSON file plus flag overrides.

Precedence is flags > file > defaults.  Unknown keys are rejected so typos
fail loudly instead of silently running with defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from math import isfinite

import numpy as np

from ._linalg import integer, number, positive_finite, power_from_db
from .channel import CorrelationModel, SystemProfile, make_profile
from .errors import ConfigurationError, ValidationError

SCHEMA_VERSION = "4"

_KINDS = ("table1", "rate-loss", "curves", "validate")

_KNOWN_KEYS = {
    "experiment",
    "N",
    "antennas",
    "weights",
    "correlation",
    "ptx_grid_db",
    "ptx_db",
    "trials",
    "seed",
    "out",
    "format",
    "tolerance",
    "max_iterations",
    "extra_profiles",
}

_DEFAULT_TRIALS = {"table1": 0, "rate-loss": 1000, "curves": 200, "validate": 2000}

#: Largest master seed: seeds are unsigned 64-bit integers.
_MAX_SEED = (1 << 64) - 1

#: Most points a 'start:step:stop' power grid may have; the power domain of
#: -90 to +140 dB in 0.01 dB steps is 23,001 points.
MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    base_antennas: int | None = None
    antennas: tuple[int, ...] | None = None
    weights: tuple[float, ...] | None = None
    correlation: object = "identity"
    ptx_grid_db: tuple[float, ...] = field(default_factory=tuple)
    ptx_db: float = 30.0
    trials: int = 0
    seed: int = 1
    out: str | None = None
    format: str = "csv"
    tolerance: float = 1e-8
    max_iterations: int = 500
    extra_profiles: tuple[tuple[tuple[int, ...], int], ...] = ()


def _require_finite(name: str, *values: float) -> None:
    if not all(map(isfinite, values)):
        raise ConfigurationError(f"{name} must be finite, got {list(values)}")


def _configured(check, name: str, value):
    """``check(value, name)``, with its ValidationError raised as a ConfigurationError."""
    try:
        return check(value, name)
    except ValidationError as exc:
        raise ConfigurationError(str(exc)) from exc


#: ``_integer(name, value)`` and ``_number(name, value)``: the library's ``integer`` and
#: ``number`` rules, failing with ConfigurationError.
_integer = partial(_configured, integer)
_number = partial(_configured, number)


def _require_power_db(name: str, *values: float) -> None:
    """ConfigurationError unless every dB value is a positive finite linear power."""
    for db in values:
        _configured(positive_finite, f"{name} {db} dB as a linear power", power_from_db(db))


def parse_grid(spec) -> tuple[float, ...]:
    """Parse a power grid: 'start:step:stop' in dB, or an explicit list."""
    if isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigurationError(f"grid spec must be start:step:stop, got {spec!r}")
        try:
            start, step, stop = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigurationError(f"non-numeric grid spec {spec!r}") from exc
        _require_finite("grid spec", start, step, stop)
        _require_power_db("grid point", start, stop)
        if step <= 0:
            raise ConfigurationError(f"grid step must be positive, got {step}")
        if stop < start:
            raise ConfigurationError(f"grid stop {stop} below start {start}")
        intervals = (stop - start) / step + 1e-9
        if intervals >= MAX_GRID_POINTS:
            raise ConfigurationError(
                f"grid spec {spec!r} has more than {MAX_GRID_POINTS} points"
            )
        count = int(np.floor(intervals)) + 1
        grid = tuple(start + i * step for i in range(count))
    else:
        try:
            grid = tuple(_number("grid point", p) for p in spec)
        except TypeError as exc:
            raise ConfigurationError(
                f"grid must be a list of dB values or a string, got {spec!r}"
            ) from exc
        if not grid:
            raise ConfigurationError("power grid must not be empty")
    _require_power_db("grid point", *grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigurationError(f"power grid must be strictly ascending, got {list(grid)}")
    return grid


def _parse_extra_profiles(raw) -> tuple[tuple[tuple[int, ...], int], ...]:
    profiles = []
    for entry in _list("extra_profiles", raw):
        if not isinstance(entry, dict) or set(entry) - {"N", "antennas"}:
            raise ConfigurationError(
                f"extra profile entries need exactly 'N' and 'antennas': {entry!r}"
            )
        try:
            antennas = tuple(_integer("antennas", r) for r in _list("antennas", entry["antennas"]))
            profiles.append((antennas, _integer("N", entry["N"])))
        except KeyError as exc:
            raise ConfigurationError(f"malformed extra profile {entry!r}") from exc
    return tuple(profiles)


def load_config(kind: str, path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Merge defaults, an optional JSON file, and flag overrides for one run."""
    if kind not in _KINDS:
        raise ConfigurationError(f"unknown experiment kind {kind!r}; expected one of {_KINDS}")
    merged: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError(f"config file {path} must hold a JSON object")
        unknown = set(data) - _KNOWN_KEYS
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        merged.update(data)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value

    declared = merged.pop("experiment", None)
    if declared is not None and declared != kind:
        raise ConfigurationError(
            f"config file declares experiment {declared!r} but the {kind!r} subcommand was invoked"
        )

    trials = _integer("trials", merged.pop("trials", _DEFAULT_TRIALS[kind]))
    seed = _integer("seed", merged.pop("seed", 1))
    max_iterations = _integer("max_iterations", merged.pop("max_iterations", 500))
    ptx_db = _number("ptx_db", merged.pop("ptx_db", 30.0))
    tolerance = _number("tolerance", merged.pop("tolerance", 1e-8))
    if trials < 0:
        raise ConfigurationError(f"trials must be nonnegative, got {trials}")
    if not 0 <= seed <= _MAX_SEED:
        raise ConfigurationError(f"seed must be in [0, 2**64 - 1], got {seed}")
    _require_power_db("ptx_db", ptx_db)
    _require_finite("tolerance", tolerance)
    if tolerance <= 0:
        raise ConfigurationError(f"tolerance must be positive, got {tolerance}")
    if max_iterations < 1:
        raise ConfigurationError(f"max_iterations must be positive, got {max_iterations}")

    fmt = merged.pop("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigurationError(f"format must be 'csv' or 'json', got {fmt!r}")

    base = merged.pop("N", None)
    antennas = merged.pop("antennas", None)
    weights = merged.pop("weights", None)
    base = None if base is None else _integer("N", base)
    if antennas is not None:
        antennas = tuple(_integer("antennas", r) for r in _list("antennas", antennas))
    if weights is not None:
        weights = tuple(_number("weight", w) for w in _list("weights", weights))

    grid_spec = merged.pop("ptx_grid_db", None)
    grid = parse_grid(grid_spec) if grid_spec is not None else parse_grid("-10:5:40")

    correlation = merged.pop("correlation", "identity")
    extra = _parse_extra_profiles(merged.pop("extra_profiles", ()))
    out = merged.pop("out", None)

    if merged:
        raise ConfigurationError(f"unknown config keys: {sorted(merged)}")

    return ExperimentConfig(
        kind=kind,
        base_antennas=base,
        antennas=antennas,
        weights=weights,
        correlation=correlation,
        ptx_grid_db=grid,
        ptx_db=ptx_db,
        trials=trials,
        seed=seed,
        out=out,
        format=fmt,
        tolerance=tolerance,
        max_iterations=max_iterations,
        extra_profiles=extra,
    )


def build_profile(config: ExperimentConfig) -> SystemProfile:
    if config.base_antennas is None or config.antennas is None:
        raise ConfigurationError(
            f"the {config.kind!r} experiment needs 'N' and 'antennas' in the config"
        )
    return make_profile(config.base_antennas, config.antennas, config.weights)


def _list(name: str, value) -> list:
    """``value`` itself; ConfigurationError unless it is a list."""
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{name} must be a list, got {value!r}")
    return value


def _correlation_entry(entry) -> complex:
    """A correlation matrix entry: a real number or an [re, im] pair of numbers."""
    if not isinstance(entry, (list, tuple)):
        return _number("correlation entry", entry)
    if len(entry) != 2:
        raise ConfigurationError(f"a correlation entry pair must be [re, im], got {entry!r}")
    return complex(_number("correlation entry", entry[0]), _number("correlation entry", entry[1]))


def build_correlation(config: ExperimentConfig, profile: SystemProfile) -> CorrelationModel | None:
    """Instantiate the configured correlation model for a profile.

    Accepts 'identity', {'scalars': [c_1, ..., c_K]}, or
    {'matrices': [...]} with entries either real numbers or [re, im] pairs.
    """
    spec = config.correlation
    if spec == "identity" or spec is None:
        return None
    if isinstance(spec, dict) and set(spec) == {"scalars"}:
        scalars = _list("correlation scalars", spec["scalars"])
        return CorrelationModel.scalar(profile, [_number("correlation scalar", c) for c in scalars])
    if isinstance(spec, dict) and set(spec) == {"matrices"}:
        blocks = []
        for k, raw in enumerate(_list("correlation matrices", spec["matrices"])):
            name = f"correlation matrix {k}"
            rows = [_list(f"a row of {name}", row) for row in _list(name, raw)]
            if len({len(row) for row in rows}) > 1:
                raise ConfigurationError(f"the rows of {name} differ in length")
            blocks.append(np.array([[_correlation_entry(entry) for entry in row] for row in rows]))
        return CorrelationModel.from_blocks(blocks)
    raise ConfigurationError(
        "correlation must be 'identity', {'scalars': [...]}, or {'matrices': [...]}, "
        f"got {spec!r}"
    )

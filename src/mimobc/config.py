"""Experiment configuration: JSON file plus flag overrides.

Precedence is flags > file > defaults.  Unknown keys are rejected so typos
fail loudly instead of silently running with defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._linalg import integer, linear_power, number, positive_finite, power_grid
from .baseline import DEFAULT_TOLERANCE
from .channel import CorrelationModel, SystemProfile, make_profile
from .errors import ValidationError

SCHEMA_VERSION = "4"

#: The experiment kinds, each with its default trial count.
_DEFAULT_TRIALS = {"table1": 0, "rate-loss": 1000, "curves": 200, "validate": 2000}

#: Largest master seed: seeds are unsigned 64-bit integers.
_MAX_SEED = (1 << 64) - 1

#: Most points a 'start:step:stop' power grid may have; the power domain of
#: -90 to +140 dB in 0.01 dB steps is 23,001 points.
MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's resolved settings; ``load_config`` alone builds it and holds every default."""

    kind: str
    base_antennas: int | None
    antennas: tuple[int, ...] | None
    weights: tuple[float, ...] | None
    correlation: object
    ptx_grid_db: tuple[float, ...]
    ptx_db: float
    trials: int
    seed: int
    out: str | None
    format: str
    tolerance: float


def parse_grid(spec) -> tuple[float, ...]:
    """Parse a power grid: 'start:step:stop' in dB, or an explicit list."""
    if isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValidationError(f"grid spec must be start:step:stop, got {spec!r}")
        try:
            start, step, stop = (float(p) for p in parts)
        except ValueError as exc:
            raise ValidationError(f"non-numeric grid spec {spec!r}") from exc
        positive_finite(step, "grid step")
        for db in (start, stop):
            linear_power(db, "grid point")
        if stop < start:
            raise ValidationError(f"grid stop {stop} below start {start}")
        intervals = (stop - start) / step + 1e-9
        if intervals >= MAX_GRID_POINTS:
            raise ValidationError(
                f"grid spec {spec!r} has more than {MAX_GRID_POINTS} points"
            )
        count = int(np.floor(intervals)) + 1
        spec = tuple(start + i * step for i in range(count))
    return power_grid(spec, "power grid")


def load_config(kind: str, path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Merge defaults, an optional JSON file, and flag overrides for one run."""
    if kind not in _DEFAULT_TRIALS:
        raise ValidationError(
            f"unknown experiment kind {kind!r}; expected one of {tuple(_DEFAULT_TRIALS)}"
        )
    merged: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ValidationError(f"cannot read config file {path}: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
            raise ValidationError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError(f"config file {path} must hold a JSON object")
        merged.update(data)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value

    declared = merged.pop("experiment", None)
    if declared is not None and declared != kind:
        raise ValidationError(
            f"config file declares experiment {declared!r} but the {kind!r} subcommand was invoked"
        )

    trials = integer(merged.pop("trials", _DEFAULT_TRIALS[kind]), "trials")
    seed = integer(merged.pop("seed", 1), "seed")
    ptx_db = number(merged.pop("ptx_db", 30.0), "ptx_db")
    tolerance = positive_finite(merged.pop("tolerance", DEFAULT_TOLERANCE), "tolerance")
    if trials < 0:
        raise ValidationError(f"trials must be nonnegative, got {trials}")
    if not 0 <= seed <= _MAX_SEED:
        raise ValidationError(f"seed must be in [0, 2**64 - 1], got {seed}")
    linear_power(ptx_db, "ptx_db")

    fmt = merged.pop("format", "csv")
    if fmt not in ("csv", "json"):
        raise ValidationError(f"format must be 'csv' or 'json', got {fmt!r}")

    base = merged.pop("N", None)
    antennas = merged.pop("antennas", None)
    weights = merged.pop("weights", None)
    base = None if base is None else integer(base, "N")
    if antennas is not None:
        antennas = tuple(integer(r, "antennas") for r in _list("antennas", antennas))
    if weights is not None:
        weights = tuple(number(w, "weight") for w in _list("weights", weights))

    grid_spec = merged.pop("ptx_grid_db", None)
    grid = parse_grid(grid_spec) if grid_spec is not None else parse_grid("-10:5:40")

    correlation = merged.pop("correlation", "identity")
    out = merged.pop("out", None)

    if merged:
        raise ValidationError(f"unknown config keys: {sorted(merged)}")

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
    )


def build_profile(config: ExperimentConfig) -> SystemProfile:
    if config.base_antennas is None or config.antennas is None:
        raise ValidationError(
            f"the {config.kind!r} experiment needs 'N' and 'antennas' in the config"
        )
    return make_profile(config.base_antennas, config.antennas, config.weights)


def _list(name: str, value) -> list:
    """``value`` itself; ValidationError unless it is a list."""
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{name} must be a list, got {value!r}")
    return value


def _correlation_entry(entry) -> complex:
    """A correlation matrix entry: a real number or an [re, im] pair of numbers."""
    if not isinstance(entry, (list, tuple)):
        return number(entry, "correlation entry")
    if len(entry) != 2:
        raise ValidationError(f"a correlation entry pair must be [re, im], got {entry!r}")
    return complex(number(entry[0], "correlation entry"), number(entry[1], "correlation entry"))


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
        return CorrelationModel.scalar(profile, [number(c, "correlation scalar") for c in scalars])
    if isinstance(spec, dict) and set(spec) == {"matrices"}:
        blocks = []
        for k, raw in enumerate(_list("correlation matrices", spec["matrices"])):
            name = f"correlation matrix {k}"
            rows = [_list(f"a row of {name}", row) for row in _list(name, raw)]
            if len({len(row) for row in rows}) > 1:
                raise ValidationError(f"the rows of {name} differ in length")
            blocks.append(np.array([[_correlation_entry(entry) for entry in row] for row in rows]))
        return CorrelationModel(blocks)
    raise ValidationError(
        "correlation must be 'identity', {'scalars': [...]}, or {'matrices': [...]}, "
        f"got {spec!r}"
    )

"""Command-line front end.

Subcommands: ``table1`` (ergodic rate-loss grid), ``rate-loss`` (per-seed
instantaneous values), ``curves`` (rate-versus-power data), ``validate``
(invariant suite).  Outputs are CSV or JSON files that are byte-identical
across runs with the same configuration.  Exit codes: 0 success, 1 property
validation failure, 2 configuration error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import astuple, fields
from math import isfinite

import numpy as np

from ._linalg import power_from_db
from .baseline import CurvePoint, generate_curves
from .channel import _sample_blocks, derive_seed, make_profile
from .config import (
    SCHEMA_VERSION,
    ExperimentConfig,
    build_correlation,
    build_profile,
    load_config,
)
from .ergodic import monte_carlo_rate_loss, rate_loss_grid
from .errors import NumericalRankError, ValidationError
from .mac import _asymptotes, _batch_rate_loss, optimal_power_split
from .validation import MIN_VALIDATE_TRIALS, run_all_checks

_EXIT_OK = 0
_EXIT_VALIDATION_FAILED = 1
_EXIT_CONFIG_ERROR = 2
_EXIT_NUMERICAL_ERROR = 3


def _fmt(value) -> str:
    """Serialize one cell: 12 significant digits, locale-independent."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _round12(value):
    """One JSON cell: floats to 12 significant digits, NaN and infinities (not JSON) as null."""
    if isinstance(value, float):
        return float(f"{value:.12g}") if isfinite(value) else None
    return value


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    buffer = io.StringIO()
    buffer.write(f"# schema_version={SCHEMA_VERSION}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(buffer.getvalue())


def _write_json(path: str, config: ExperimentConfig, header, rows) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "experiment": config.kind,
        "seed": config.seed,
        "trials": config.trials,
        "rows": [
            {key: _round12(cell) for key, cell in zip(header, row)} for row in rows
        ],
    }
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _write(config: ExperimentConfig, default_name: str, header, rows) -> str:
    path = config.out or f"{default_name}.{config.format}"
    if config.format == "csv":
        _write_csv(path, header, rows)
    else:
        _write_json(path, config, header, rows)
    return path


def _run_table1(config: ExperimentConfig) -> int:
    header = ["profile", "N", "closed_form_bits", "mc_mean_bits", "mc_stderr", "mc_discarded"]
    rows = []
    for index, cell in enumerate(rate_loss_grid()):
        mc_mean = mc_stderr = mc_discarded = None
        if cell.rate_loss_bits is not None and config.trials > 0:
            profile = make_profile(cell.base_antennas, cell.user_antennas)
            estimate = monte_carlo_rate_loss(
                profile, None, trials=config.trials, seed=derive_seed(config.seed, index)
            )
            mc_mean, mc_stderr, mc_discarded = estimate.mean, estimate.stderr, estimate.discarded
        rows.append(
            [cell.label, cell.base_antennas, cell.rate_loss_bits, mc_mean, mc_stderr, mc_discarded]
        )
    path = _write(config, "table1", header, rows)
    print(f"wrote {len(rows)} grid cells to {path}")
    return _EXIT_OK


def _run_rate_loss(config: ExperimentConfig) -> int:
    """One row per trial t, from the channel ``sample_channel`` draws for seed derive_seed(s, t)."""
    profile = build_profile(config)
    correlation = build_correlation(config, profile)
    power = power_from_db(config.ptx_db)
    levels = optimal_power_split(profile, power)
    header = ["trial", "seed", "status", "rate_loss_bits"]
    header += [f"asym_rate_user{k + 1}" for k in range(profile.num_users)]
    header += ["dpc_asymptote_bits"]
    rows = []
    deficient = 0
    for trial in range(config.trials):
        trial_seed = derive_seed(config.seed, trial)
        channel = _sample_blocks(profile, correlation, trial_seed)
        factors = _batch_rate_loss(channel[None], profile)
        if factors.full_rank[0]:
            rates, dpc = _asymptotes(
                profile, levels, power, float(factors.logdet2[0]), factors.block_logdet2[0].tolist()
            )
            rows.append([trial, trial_seed, "ok", float(factors.rate_loss[0]), *rates, dpc])
        else:
            # flagged, not dropped: the row stays with empty numeric fields
            deficient += 1
            rows.append([trial, trial_seed, "rank_deficient"] + [None] * (profile.num_users + 2))
    path = _write(config, "rate_loss", header, rows)
    print(f"wrote {len(rows)} realizations to {path} ({deficient} rank-deficient)")
    return _EXIT_OK


def _run_curves(config: ExperimentConfig) -> int:
    profile = build_profile(config)
    correlation = build_correlation(config, profile)
    points = generate_curves(
        profile,
        correlation,
        config.ptx_grid_db,
        trials=config.trials,
        seed=config.seed,
        tolerance=config.tolerance,
    )
    header = [f.name for f in fields(CurvePoint)]
    rows = [list(astuple(p)) for p in points]
    path = _write(config, "curves", header, rows)
    print(f"wrote {len(rows)} grid points to {path}")
    return _EXIT_OK


def _run_validate(config: ExperimentConfig) -> int:
    if config.trials < MIN_VALIDATE_TRIALS:
        raise ValidationError(
            f"validate needs at least {MIN_VALIDATE_TRIALS} trials, got {config.trials}"
        )
    results = run_all_checks(trials=config.trials, seed=config.seed)
    header = ["property", "passed", "margin", "detail"]
    rows = [[r.name, r.passed, r.margin, r.detail] for r in results]
    path = _write(config, "validate", header, rows)
    failures = [r for r in results if not r.passed]
    for result in results:
        status = "pass" if result.passed else "FAIL"
        print(f"{status:4s}  {result.name}  margin={result.margin:+.3f}")
    print(f"wrote {len(rows)} property results to {path}")
    if failures:
        print(f"{len(failures)} properties failed", file=sys.stderr)
        return _EXIT_VALIDATION_FAILED
    return _EXIT_OK


#: Each subcommand's runner and help text, in the order ``--help`` lists them.
_SUBCOMMANDS = {
    "table1": (_run_table1, "ergodic rate-loss grid over the built-in antenna profiles"),
    "rate-loss": (_run_rate_loss, "per-realization instantaneous rate loss and asymptotic rates"),
    "curves": (_run_curves, "ergodic DPC and linear sum rates versus transmit power"),
    "validate": (_run_validate, "run the library invariant suite and report pass/fail"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="mimobc",
        description="Broadcast-channel rate experiments: closed forms and Monte Carlo",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind, (_, help_text) in _SUBCOMMANDS.items():
        cmd = sub.add_parser(kind, help=help_text)
        cmd.add_argument("--config", help="JSON config file")
        cmd.add_argument("--seed", type=int, help="master seed")
        cmd.add_argument("--trials", type=int, help="Monte Carlo trial count")
        cmd.add_argument("--out", help="output file path")
        cmd.add_argument("--format", choices=["csv", "json"], help="output format")
        if kind == "curves":
            cmd.add_argument("--ptx-grid-db", help="transmit power grid start:step:stop in dB")
    return parser


def main(argv=None) -> int:
    # every flag but the subcommand and the config path is the config key of its name
    overrides = vars(_build_parser().parse_args(argv))
    kind, path = overrides.pop("kind"), overrides.pop("config")
    try:
        config = load_config(kind, path, overrides)
        runner, _ = _SUBCOMMANDS[kind]
        return runner(config)
    except ValidationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG_ERROR
    except (NumericalRankError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG_ERROR


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

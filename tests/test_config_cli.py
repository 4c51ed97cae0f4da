import csv
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mimobc.channel
from mimobc import derive_seed, instantaneous_rate_loss, sample_channel
from mimobc._linalg import power_from_db
from mimobc.baseline import DEFAULT_TOLERANCE
from mimobc.cli import _build_parser, main
from mimobc.config import (
    MAX_GRID_POINTS,
    SCHEMA_VERSION,
    build_correlation,
    build_profile,
    load_config,
    parse_grid,
)
from mimobc.ergodic import MonteCarloEstimate
from mimobc.errors import ValidationError
from mimobc.mac import asymptotic_rate_report, dpc_asymptotic_sum_rate
from mimobc.validation import CheckResult

from checkout import checkout_env


def read_csv(path):
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if not line.startswith("#")]
    rows = list(csv.reader(lines))
    header, body = rows[0], rows[1:]
    return header, body


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


README = Path(__file__).resolve().parent.parent / "README.md"

KINDS = ("table1", "rate-loss", "curves", "validate")

#: A valid value, other than the default, of every config key but ``experiment``.
CONFIG_EXAMPLES = {
    "trials": 3, "seed": 2, "out": "x.csv", "format": "json", "N": 5, "antennas": [2, 2],
    "correlation": {"scalars": [1.0, 2.0]}, "weights": [1, 2], "ptx_db": 20.0,
    "ptx_grid_db": "0:5:10", "tolerance": 1e-9,
}


def readme_config_keys() -> list[str]:
    """The keys in the first column of the README's table of config keys."""
    table = README.read_text(encoding="utf-8").split("The config accepts these", 1)[1]
    rows = table.split("\n\n", 2)[1].splitlines()[2:]
    return [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])]


README_KEYS = readme_config_keys()


class TestConfig:
    def test_grid_string_parsing(self):
        assert parse_grid("0:5:20") == (0.0, 5.0, 10.0, 15.0, 20.0)
        assert parse_grid([1, 2, 7.5]) == (1.0, 2.0, 7.5)

    def test_grid_spec_is_bounded_before_its_points_are_built(self):
        assert len(parse_grid("-90:0.01:140")) == 23001
        assert len(parse_grid(f"0:0.01:{MAX_GRID_POINTS / 100 - 0.01:g}")) == MAX_GRID_POINTS
        for spec in ("0:1e-300:40", "0:5e-324:40", f"0:0.01:{MAX_GRID_POINTS / 100:g}"):
            started = time.perf_counter()
            with pytest.raises(ValidationError, match=f"more than {MAX_GRID_POINTS} points"):
                parse_grid(spec)
            assert time.perf_counter() - started < 0.5
        with pytest.raises(ValidationError, match="positive and finite"):
            parse_grid("-1e308:1:1e308")

    def test_grid_rejections(self):
        with pytest.raises(ValidationError):
            parse_grid("0:0:20")
        with pytest.raises(ValidationError):
            parse_grid("20:5:0")
        with pytest.raises(ValidationError):
            parse_grid([3.0, 2.0])
        with pytest.raises(ValidationError):
            parse_grid([])

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", {"trails": 5})
        with pytest.raises(ValidationError, match="trails"):
            load_config("table1", path)

    @pytest.mark.parametrize(
        "key, value",
        [("max_iterations", 7), ("extra_profiles", [{"N": 8, "antennas": [2, 2, 2]}])],
        ids=["max-iterations", "extra-profiles"],
    )
    @pytest.mark.parametrize("kind", KINDS)
    def test_retired_keys_are_unknown(self, tmp_path, capsys, kind, key, value):
        config = write_config(tmp_path / "c.json", {"N": 5, "antennas": [2, 2], key: value})
        out = tmp_path / "x.csv"
        argv = [kind, "--config", config, "--trials", "2", "--out", str(out)]
        assert main(argv) == 2
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["max_iterations", "extra_profiles", "trails"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_unknown_override_is_rejected(self, kind, key):
        # overrides pass the same end-of-parse check as the file's keys
        with pytest.raises(ValidationError, match=re.escape(f"unknown config keys: ['{key}']")):
            load_config(kind, overrides={key: 7})

    def test_readme_lists_every_config_key(self):
        assert sorted(README_KEYS) == sorted(["experiment", *CONFIG_EXAMPLES])
        assert f"accepts these {len(README_KEYS)} keys" in README.read_text(encoding="utf-8")

    @pytest.mark.parametrize("key", README_KEYS)
    def test_readme_config_key_is_accepted(self, key):
        for kind in KINDS:
            if key == "experiment":
                assert load_config(kind, overrides={key: kind}) == load_config(kind)
            else:
                assert load_config(kind, overrides={key: CONFIG_EXAMPLES[key]}) != load_config(kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_tolerance_defaults_to_the_solver_default(self, kind):
        assert load_config(kind).tolerance == DEFAULT_TOLERANCE

    def test_kind_mismatch_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", {"experiment": "curves"})
        with pytest.raises(ValidationError, match="curves"):
            load_config("table1", path)

    def test_flag_overrides_file(self, tmp_path):
        path = write_config(tmp_path / "c.json", {"seed": 3, "trials": 7})
        config = load_config("rate-loss", path, {"seed": 9, "trials": None})
        assert config.seed == 9
        assert config.trials == 7

    def test_negative_tolerance_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", {"tolerance": -1e-8})
        with pytest.raises(ValidationError, match="tolerance"):
            load_config("curves", path)

    @pytest.mark.parametrize(
        "payload",
        [
            {"seed": 1.5}, {"seed": True}, {"seed": 2**64}, {"seed": -1},
            {"trials": 2.9}, {"trials": False}, {"seed": float("inf")}, {"N": 5.5},
            {"antennas": "22"}, {"weights": "11"}, {"seed": "7"}, {"ptx_db": "30"},
        ],
        ids=[
            "seed-fraction", "seed-bool", "seed-2-64", "seed-negative", "trials-fraction",
            "trials-bool", "seed-inf",
            "N-fraction", "antennas-string", "weights-string", "seed-string", "ptx-db-string",
        ],
    )
    def test_integer_values_are_not_coerced(self, tmp_path, payload):
        config = write_config(
            tmp_path / "c.json", {"N": 5, "antennas": [2, 2], "trials": 1, **payload}
        )
        with pytest.raises(ValidationError, match=next(iter(payload))):
            load_config("rate-loss", config)
        out = tmp_path / "x.csv"
        assert main(["rate-loss", "--config", config, "--out", str(out)]) == 2
        assert not out.exists()

    def test_integral_values_and_the_largest_seed_are_accepted(self, tmp_path):
        config = write_config(tmp_path / "c.json", {"seed": 2**64 - 1, "trials": 3.0})
        loaded = load_config("curves", config)
        assert (loaded.seed, loaded.trials) == (2**64 - 1, 3)
        assert type(loaded.trials) is int

    def test_seed_flag_beyond_64_bits_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["table1", "--seed", str(2**64), "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()
        assert main(["table1", "--seed", str(2**64 - 1), "--out", str(out)]) == 0
        with pytest.raises(SystemExit) as exited:
            main(["table1", "--seed", "1.5", "--out", str(out)])
        assert exited.value.code == 2  # argparse rejects a non-integer flag itself

    def test_defaults_per_kind(self):
        assert load_config("table1").trials == 0
        assert load_config("rate-loss").trials == 1000
        assert load_config("curves").trials == 200


class TestTable1Command:
    def test_reference_cells_and_empty_cells(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["table1", "--out", str(out)]) == 0
        header, body = read_csv(out)
        assert header == [
            "profile", "N", "closed_form_bits", "mc_mean_bits", "mc_stderr", "mc_discarded"
        ]
        assert all(row[3:] == ["", "", ""] for row in body)  # no Monte Carlo without trials
        values = {(row[0], row[1]): row[2] for row in body}
        assert float(values[("1,1,1,1,1", "5")]) == pytest.approx(9.257, abs=5e-4)
        assert float(values[("2,2", "4")]) == pytest.approx(3.366, abs=5e-4)
        # infeasible cells are present but empty
        assert values[("1,1,1", "2")] == ""
        assert len(body) == 65

    def test_monte_carlo_columns(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["table1", "--out", str(out), "--trials", "400", "--seed", "2"]) == 0
        _, body = read_csv(out)
        checked = 0
        for row in body:
            if row[2] == "":
                assert row[3] == "" and row[4] == "" and row[5] == ""
                continue
            mean, stderr = float(row[3]), float(row[4])
            assert abs(mean - float(row[2])) < 4 * stderr
            assert int(row[5]) >= 0
            checked += 1
        assert checked == 32

    def test_discarded_draws_are_reported_per_cell(self, tmp_path, monkeypatch):
        def estimate(profile, correlation, trials, seed):
            return MonteCarloEstimate(1.0, 0.1, trials, discarded=profile.num_users)

        monkeypatch.setattr("mimobc.cli.monte_carlo_rate_loss", estimate)
        out = tmp_path / "table.csv"
        assert main(["table1", "--out", str(out), "--trials", "10"]) == 0
        _, body = read_csv(out)
        for row in body:
            expected = str(len(row[0].split(","))) if row[2] else ""
            assert row[5] == expected

    def test_json_format(self, tmp_path):
        out = tmp_path / "table.json"
        assert main(["table1", "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["experiment"] == "table1"
        assert len(payload["rows"]) == 65


class TestRateLossCommand:
    def test_single_user_has_zero_loss(self, tmp_path):
        config = write_config(tmp_path / "c.json", {"N": 4, "antennas": [3]})
        out = tmp_path / "loss.csv"
        assert main(["rate-loss", "--config", config, "--out", str(out), "--trials", "50"]) == 0
        header, body = read_csv(out)
        assert header[:4] == ["trial", "seed", "status", "rate_loss_bits"]
        assert len(body) == 50
        for row in body:
            assert row[2] == "ok"
            assert abs(float(row[3])) < 1e-10

    def test_mean_matches_closed_form(self, tmp_path):
        config = write_config(tmp_path / "c.json", {"N": 5, "antennas": [2, 2]})
        out = tmp_path / "loss.csv"
        assert main(["rate-loss", "--config", config, "--out", str(out), "--trials", "600"]) == 0
        _, body = read_csv(out)
        losses = np.array([float(row[3]) for row in body])
        stderr = losses.std(ddof=1) / np.sqrt(len(losses))
        assert abs(losses.mean() - 2.0438179745) < 3 * stderr

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(
            tmp_path / "c.json", {"N": 5, "antennas": [2, 2], "correlation": {"scalars": [1, 2]}}
        )
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for out in (first, second):
            assert main(
                ["rate-loss", "--config", config, "--out", str(out), "--trials", "20"]
            ) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_rows_are_the_library_values_on_the_channel_of_their_seed(self, tmp_path):
        # the seed contract: row t reports derive_seed(s, t), and its values are the
        # library's on sample_channel(profile, correlation, that seed)
        matrices = [[[1.5]], [[2, [0.3, 0.2]], [[0.3, -0.2], 1]], [[1, 0.4], [0.4, 0.5]]]
        config = write_config(
            tmp_path / "c.json",
            {"N": 6, "antennas": [1, 2, 2], "weights": [0, 1, 2], "ptx_db": 25,
             "correlation": {"matrices": matrices}, "seed": 4},
        )
        loaded = load_config("rate-loss", config)
        profile = build_profile(loaded)
        correlation = build_correlation(loaded, profile)
        power = power_from_db(25)
        for fmt in ("csv", "json"):
            argv = ["rate-loss", "--config", config, "--trials", "30", "--format", fmt]
            assert main(argv + ["--out", str(tmp_path / f"loss.{fmt}")]) == 0
        header, body = read_csv(tmp_path / "loss.csv")
        records = json.loads((tmp_path / "loss.json").read_text())["rows"]
        assert len(body) == len(records) == 30
        for trial, (row, record) in enumerate(zip(body, records)):
            seed = derive_seed(4, trial)
            assert row[:3] == [str(trial), str(seed), "ok"]
            assert [record[k] for k in header[:3]] == [trial, seed, "ok"]
            channel = sample_channel(profile, correlation, seed)
            expected = [
                instantaneous_rate_loss(channel),
                *asymptotic_rate_report(channel, power).rates,
                dpc_asymptotic_sum_rate(channel, power),
            ]
            assert expected[1] == float("-inf")
            assert row[3:] == [f"{value:.12g}" for value in expected]
            # JSON has no infinities: the -inf asymptote is written as null
            assert [record[k] for k in header[3:]] == [
                float(f"{v:.12g}") if np.isfinite(v) else None for v in expected
            ]

    def test_missing_profile_is_a_config_error(self, tmp_path):
        out = tmp_path / "loss.csv"
        assert main(["rate-loss", "--out", str(out), "--trials", "5"]) == 2

    def test_summary_counts_rank_deficient_rows(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", {"N": 5, "antennas": [2, 2]})
        out = tmp_path / "loss.csv"
        assert main(["rate-loss", "--config", config, "--out", str(out), "--trials", "3"]) == 0
        assert capsys.readouterr().out == f"wrote 3 realizations to {out} (0 rank-deficient)\n"


class TestParser:
    def test_main_runs_twice_in_one_process(self, tmp_path, capsys):
        # the parser is built once; a second call must not inherit the first call's options
        config = write_config(tmp_path / "c.json", {"N": 4, "antennas": [1, 1]})
        loss = tmp_path / "loss.csv"
        table = tmp_path / "table.csv"
        assert main(["rate-loss", "--config", config, "--trials", "4", "--out", str(loss)]) == 0
        assert main(["table1", "--out", str(table)]) == 0
        assert _build_parser() is _build_parser()
        assert len(read_csv(loss)[1]) == 4
        _, body = read_csv(table)
        assert len(body) == 65 and all(row[3] == "" for row in body)
        with pytest.raises(SystemExit) as exited:
            main(["curves", "--format", "xml"])
        assert exited.value.code == 2
        assert "invalid choice: 'xml'" in capsys.readouterr().err
        assert main(["table1", "--config", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("kind", ["table1", "rate-loss", "validate"])
    def test_only_curves_takes_a_power_grid(self, tmp_path, capsys, kind):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exited:
            main([kind, "--trials", "0", "--out", str(out), "--ptx-grid-db", "0:5:10"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --ptx-grid-db" in capsys.readouterr().err
        assert not out.exists()


class TestCurvesCommand:
    def test_reference_setup_columns_and_monotonicity(self, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            {"N": 5, "antennas": [2, 2], "correlation": {"scalars": [1.0, 2.0]}},
        )
        out = tmp_path / "curves.csv"
        assert main(
            ["curves", "--config", config, "--out", str(out),
             "--trials", "25", "--ptx-grid-db", "0:10:40", "--seed", "4"]
        ) == 0
        header, body = read_csv(out)
        assert header == [
            "P_dB", "dpc_exact", "linear_exact", "dpc_affine", "linear_affine",
            "dpc_stderr", "linear_stderr", "nonconverged", "max_iterations", "max_gap_bits",
        ]
        table = np.array([[float(cell) for cell in row] for row in body])
        for column in range(1, 5):
            assert np.all(np.diff(table[:, column]) > 0)
        # affine columns are exact affine functions of the dB grid
        slope = 4 * np.log2(10.0) / 10.0
        for column in (3, 4):
            np.testing.assert_allclose(np.diff(table[:, column]), 10.0 * slope, atol=1e-9)
        assert np.all(table[:, 1] >= table[:, 2] - 1e-9)

    def test_gap_near_reference_value(self, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            {"N": 5, "antennas": [2, 2], "correlation": {"scalars": [1.0, 2.0]}},
        )
        out = tmp_path / "curves.csv"
        assert main(
            ["curves", "--config", config, "--out", str(out),
             "--trials", "60", "--ptx-grid-db", "40:5:40", "--seed", "16"]
        ) == 0
        _, body = read_csv(out)
        gap = float(body[0][1]) - float(body[0][2])
        assert gap == pytest.approx(2.04, abs=0.4)


class TestValidateCommand:
    @pytest.fixture(autouse=True)
    def reuse_check_results(self, monkeypatch, check_results):
        # validate --trials 300 --seed 1 reports the results the fixture already computed
        def run_all_checks(trials, seed):
            assert (trials, seed) == (300, 1)
            return check_results

        monkeypatch.setattr("mimobc.cli.run_all_checks", run_all_checks)

    def test_default_properties_pass(self, tmp_path):
        out = tmp_path / "validate.csv"
        code = main(["validate", "--out", str(out), "--trials", "300", "--seed", "1"])
        header, body = read_csv(out)
        assert header == ["property", "passed", "margin", "detail"]
        failed = [row for row in body if row[1] != "true"]
        assert code == 0, failed
        assert len(body) >= 20

    def test_validate_json_report(self, tmp_path):
        out = tmp_path / "validate.json"
        code = main(
            ["validate", "--out", str(out), "--trials", "300", "--seed", "1",
             "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert all(row["passed"] for row in payload["rows"])


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestJsonOutput:
    """NaN and infinities are not JSON: the JSON writer emits null, the CSV writer keeps them."""

    def test_rate_loss_minus_infinity_is_null(self, tmp_path):
        config = write_config(tmp_path / "c.json", {"N": 5, "antennas": [2, 2], "weights": [1, 0]})
        for fmt in ("csv", "json"):
            out = tmp_path / f"loss.{fmt}"
            assert main(["rate-loss", "--config", config, "--trials", "3",
                         "--format", fmt, "--out", str(out)]) == 0
        header, body = read_csv(tmp_path / "loss.csv")
        assert [row[header.index("asym_rate_user2")] for row in body] == ["-inf"] * 3
        payload = json.loads((tmp_path / "loss.json").read_text(), parse_constant=_reject_constant)
        assert [record["asym_rate_user2"] for record in payload["rows"]] == [None] * 3

    def test_validate_non_finite_margins_are_null(self, tmp_path, monkeypatch):
        results = [CheckResult("a", float("-inf"), ""), CheckResult("b", float("nan"), ""),
                   CheckResult("c", 0.5, "")]
        assert [r.passed for r in results] == [False, False, True]
        monkeypatch.setattr("mimobc.cli.run_all_checks", lambda trials, seed: results)
        out = tmp_path / "validate.json"
        assert main(["validate", "--out", str(out), "--trials", "300", "--format", "json"]) == 1
        payload = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert [row["margin"] for row in payload["rows"]] == [None, None, 0.5]
        assert payload["schema_version"] == SCHEMA_VERSION == "4"


class TestExitCodes:
    def test_config_error_exit_code(self, tmp_path):
        bad = write_config(tmp_path / "c.json", {"format": "xml"})
        assert main(["table1", "--config", bad]) == 2

    def test_negative_tolerance_exit_code(self, tmp_path):
        bad = write_config(tmp_path / "c.json", {"tolerance": -1.0})
        assert main(["curves", "--config", bad]) == 2

    def test_unreadable_config(self, tmp_path):
        assert main(["table1", "--config", str(tmp_path / "missing.json")]) == 2

    def test_integer_literal_too_long_to_convert(self, tmp_path, capsys):
        # json.load raises a plain ValueError beyond 4,300 digits, not a JSONDecodeError
        config = tmp_path / "big.json"
        config.write_text('{"N": 1' + "0" * 5000 + ', "antennas": [1]}', encoding="utf-8")
        out = tmp_path / "x.csv"
        argv = ["curves", "--config", str(config), "--trials", "2", "--out", str(out)]
        assert main(argv) == 2
        assert "is not valid JSON" in capsys.readouterr().err
        assert not out.exists()

    def test_curves_at_300_db(self, tmp_path):
        config = write_config(tmp_path / "c.json", {"N": 5, "antennas": [2, 2]})
        out = tmp_path / "x.csv"
        argv = ["curves", "--config", config, "--trials", "2", "--out", str(out),
                "--ptx-grid-db", "300:1:300"]
        assert main(argv) == 0
        header, (row,) = read_csv(out)
        values = dict(zip(header, row))
        assert float(values["linear_exact"]) <= float(values["dpc_exact"])

    def test_curves_power_past_the_overflow_rule(self, tmp_path, capsys):
        # accepted by the config, whose dB rule is only a finite positive power;
        # 2 P (1 + ||H||_F^2) overflows at 1e308 W on every channel
        config = write_config(tmp_path / "c.json", {"N": 5, "antennas": [2, 2]})
        out = tmp_path / "x.csv"
        argv = ["curves", "--config", config, "--trials", "2", "--out", str(out),
                "--ptx-grid-db", "3080:1:3080"]
        assert main(argv) == 2
        assert "is too large for the channel squared norm" in capsys.readouterr().err
        assert not out.exists()

    def test_infeasible_profile(self, tmp_path):
        config = write_config(tmp_path / "c.json", {"N": 3, "antennas": [2, 2]})
        assert main(["rate-loss", "--config", config, "--trials", "2",
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize(
        "kind, payload, message",
        [
            (
                "rate-loss", {"N": 3, "antennas": [2, 2]},
                "base station has 3 antennas but terminals have 4 in sum; "
                "the base must have at least as many",
            ),
            ("curves", {"N": 5, "antennas": [2, 2], "seed": 1.5}, "seed must be an integer, got 1.5"),
        ],
        ids=["structural-rule", "value"],
    )
    def test_rejected_input_is_one_configuration_error_line(
        self, tmp_path, capsys, kind, payload, message
    ):
        # a broken structural rule and a bad value are one error type with one report
        config = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "x.csv"
        assert main([kind, "--config", config, "--trials", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    def test_non_finite_weight(self, tmp_path):
        config = write_config(
            tmp_path / "c.json", {"N": 5, "antennas": [2, 2], "weights": [1, float("nan")]}
        )
        out = tmp_path / "x.csv"
        assert main(["rate-loss", "--config", config, "--trials", "2", "--out", str(out)]) == 2
        assert not out.exists()

    def test_weights_that_overflow_the_power_levels(self, tmp_path, capsys):
        # w P overflows, so every level would be nan and every asymptotic rate -inf
        config = write_config(
            tmp_path / "c.json", {"N": 4, "antennas": [2, 2], "weights": [1e308, 1e308]}
        )
        out = tmp_path / "x.csv"
        assert main(["rate-loss", "--config", config, "--trials", "2", "--out", str(out)]) == 2
        assert "non-finite power levels" in capsys.readouterr().err
        assert not out.exists()

    def test_base_antenna_count_beyond_two_to_the_53(self, tmp_path, capsys):
        # rejected where the profile is built, before any closed form runs
        config = write_config(tmp_path / "c.json", {"N": 10**400, "antennas": [1]})
        out = tmp_path / "x.csv"
        assert main(["curves", "--config", config, "--trials", "2", "--out", str(out)]) == 2
        assert "in [1, 2**53]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, payload, flags",
        [
            ("curves", {"N": 5, "antennas": [2, 2]}, ["--ptx-grid-db", "nan:5:40"]),
            ("curves", {"N": 5, "antennas": [2, 2]}, ["--ptx-grid-db", "0:inf:40"]),
            ("curves", {"N": 5, "antennas": [2, 2], "ptx_grid_db": [0, float("nan")]}, []),
            ("curves", {"N": 5, "antennas": [2, 2], "ptx_grid_db": [0, float("inf")]}, []),
            ("curves", {"N": 5, "antennas": [2, 2], "tolerance": float("nan")}, []),
            ("rate-loss", {"N": 5, "antennas": [2, 2], "ptx_db": float("nan")}, []),
            ("rate-loss", {"N": 5, "antennas": [2, 2], "ptx_db": float("inf")}, []),
            ("rate-loss", {"N": 5, "antennas": [2, 2], "ptx_db": float("-inf")}, []),
        ],
        ids=[
            "grid-spec-nan", "grid-step-inf", "grid-list-nan", "grid-list-inf",
            "tolerance-nan", "ptx-db-nan", "ptx-db-inf", "ptx-db-minus-inf",
        ],
    )
    def test_non_finite_config_value(self, tmp_path, kind, payload, flags):
        config = write_config(tmp_path / "c.json", payload)
        with pytest.raises(ValidationError, match="finite"):
            load_config(kind, config, {"ptx_grid_db": flags[1] if flags else None})
        out = tmp_path / "x.csv"
        argv = [kind, "--config", config, "--trials", "2", "--out", str(out), *flags]
        assert main(argv) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, payload, grid",
        [
            ("curves", {"N": 5, "antennas": [2, 2]}, "4000:1:4000"),
            ("curves", {"N": 5, "antennas": [2, 2]}, "-4000:1:-4000"),
            ("curves", {"N": 5, "antennas": [2, 2], "ptx_grid_db": [0, 4000]}, None),
            ("curves", {"N": 5, "antennas": [2, 2], "ptx_grid_db": [-4000, 0]}, None),
            ("rate-loss", {"N": 5, "antennas": [2, 2], "ptx_db": 4000}, None),
            ("rate-loss", {"N": 5, "antennas": [2, 2], "ptx_db": -4000}, None),
        ],
        ids=[
            "grid-spec-4000-db", "grid-spec-minus-4000-db", "grid-list-4000-db",
            "grid-list-minus-4000-db", "ptx-db-4000", "ptx-db-minus-4000",
        ],
    )
    def test_db_value_without_a_finite_positive_power(self, tmp_path, kind, payload, grid):
        # 10^(dB/10) overflows above about 3,083 dB and underflows to 0 below about -3,240 dB
        config = write_config(tmp_path / "c.json", payload)
        with pytest.raises(ValidationError, match="positive and finite"):
            load_config(kind, config, {"ptx_grid_db": grid})
        out = tmp_path / "x.csv"
        flags = [f"--ptx-grid-db={grid}"] if grid else []
        argv = [kind, "--config", config, "--trials", "2", "--out", str(out), *flags]
        assert main(argv) == 2
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["-1e308:1:1e308", "0:1e-300:40"], ids=["overflow", "too-many"])
    def test_grid_spec_out_of_bounds(self, tmp_path, capsys, grid):
        config = write_config(tmp_path / "c.json", {"N": 5, "antennas": [2, 2]})
        out = tmp_path / "x.csv"
        argv = ["curves", "--config", config, "--trials", "2", "--out", str(out), f"--ptx-grid-db={grid}"]
        assert main(argv) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, payload",
        [
            ("rate-loss", {"weights": [True, 1]}),
            ("rate-loss", {"ptx_db": True}),
            ("curves", {"tolerance": True}),
            ("curves", {"ptx_grid_db": [True, 5]}),
            ("rate-loss", {"correlation": {"scalars": [True, 2]}}),
            ("rate-loss", {"correlation": {"matrices": [[[True, 0], [0, 1]], [[1, 0], [0, 1]]]}}),
            ("rate-loss", {"correlation": {"matrices": [[[[1, False], 0], [0, 1]], [[1, 0], [0, 1]]]}}),
        ],
        ids=["weights", "ptx-db", "tolerance", "grid-list", "scalars", "matrix-entry", "matrix-pair"],
    )
    def test_boolean_in_a_float_field(self, tmp_path, capsys, kind, payload):
        config = write_config(tmp_path / "c.json", {"N": 5, "antennas": [2, 2], **payload})
        out = tmp_path / "x.csv"
        argv = [kind, "--config", config, "--trials", "2", "--out", str(out)]
        assert main(argv) == 2
        assert "must be a number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "correlation",
        [
            {"scalars": 5},
            {"matrices": 3},
            {"matrices": [[1], [[1]]]},
            {"matrices": [[[1, [1]], [0, 1]], [[1, 0], [0, 1]]]},
            {"matrices": [[[[1, 0, 7], 0], [0, 1]], [[1, 0], [0, 1]]]},
            {"matrices": [[[1, 0], [0]], [[1, 0], [0, 1]]]},
        ],
        ids=["scalars-number", "matrices-number", "matrix-row-number", "one-number-pair",
             "three-number-pair", "ragged-rows"],
    )
    def test_malformed_correlation(self, tmp_path, correlation):
        config = write_config(
            tmp_path / "c.json", {"N": 5, "antennas": [2, 2], "correlation": correlation}
        )
        loaded = load_config("rate-loss", config)
        with pytest.raises(ValidationError):
            build_correlation(loaded, build_profile(loaded))
        out = tmp_path / "x.csv"
        assert main(["rate-loss", "--config", config, "--trials", "2", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["curves", "rate-loss"])
    def test_correlation_that_does_not_fit_the_profile(self, tmp_path, capsys, kind):
        # one correlation block for two users
        config = write_config(
            tmp_path / "c.json",
            {"N": 5, "antennas": [2, 2], "correlation": {"matrices": [[[1, 0], [0, 1]]]}},
        )
        out = tmp_path / "x.csv"
        assert main([kind, "--config", config, "--trials", "2", "--out", str(out)]) == 2
        assert "do not match" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["0", "2", "99"])
    def test_validate_with_too_few_trials(self, tmp_path, capsys, trials):
        # the Monte Carlo agreement property needs 100 trials to hold on working code
        out = tmp_path / "x.csv"
        assert main(["validate", "--trials", trials, "--out", str(out)]) == 2
        assert "at least 100 trials" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload, flags, message",
        [
            ({"N": 5, "antennas": [2, 2]}, ["--ptx-grid-db", "1:2"],
             "grid spec must be start:step:stop, got '1:2'"),
            ({"N": 5, "antennas": [2, 2]}, ["--ptx-grid-db", "a:1:2"],
             "non-numeric grid spec 'a:1:2'"),
            ({"N": 5, "antennas": [2, 2], "trials": -1}, [], "trials must be nonnegative, got -1"),
            ([{"N": 5, "antennas": [2, 2]}], [], "must hold a JSON object"),
            ({"N": 5, "antennas": [2, 2], "correlation": "x"}, [],
             "correlation must be 'identity', {'scalars': [...]}, or {'matrices': [...]}, got 'x'"),
        ],
        ids=["grid-spec-two-parts", "grid-spec-non-numeric", "negative-trials", "json-list",
             "unknown-correlation"],
    )
    def test_rejected_config(self, tmp_path, capsys, payload, flags, message):
        config = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "x.csv"
        assert main(["curves", "--config", config, "--out", str(out), *flags]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_experiment_kind(self, capsys):
        with pytest.raises(ValidationError, match="^unknown experiment kind 'nope'"):
            load_config("nope")
        # the parser refuses the subcommand before any config is loaded
        with pytest.raises(SystemExit) as exit_info:
            main(["nope"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_rank_deficient_curves_trial_is_a_numerical_error(self, tmp_path, monkeypatch, capsys):
        def duplicate_a_column(profile, correlation, seed):
            h = draw(profile, correlation, seed)
            if seed == derive_seed(1, 1):
                h[:, 2] = h[:, 0]
            return h

        draw = mimobc.channel._sample_blocks
        monkeypatch.setattr("mimobc.channel._sample_blocks", duplicate_a_column)
        config = write_config(tmp_path / "c.json", {"N": 5, "antennas": [2, 2]})
        out = tmp_path / "x.csv"
        assert main(["curves", "--config", config, "--trials", "3", "--seed", "1",
                     "--out", str(out)]) == 3
        assert "trial 1: Gram matrix condition number" in capsys.readouterr().err
        assert not out.exists()

    def test_linear_algebra_failure_is_a_numerical_error(self, tmp_path, monkeypatch):
        def fail(channels, profile):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr("mimobc.cli._batch_rate_loss", fail)
        config = write_config(tmp_path / "c.json", {"N": 5, "antennas": [2, 2]})
        assert main(["rate-loss", "--config", config, "--trials", "2",
                     "--out", str(tmp_path / "x.csv")]) == 3


class TestModuleEntryPoint:
    def test_runs_as_a_module(self, tmp_path):
        out = tmp_path / "table.csv"
        completed = subprocess.run(
            [sys.executable, "-m", "mimobc", "table1", "--out", str(out)],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert completed.returncode == 0, completed.stderr
        assert out.exists()
        assert out.read_text().startswith(f"# schema_version={SCHEMA_VERSION}\n")

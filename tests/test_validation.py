"""Every invariant check of ``mimobc.validation``, one test case per check.

The session fixture ``checks`` runs them once with the settings of
``mimobc validate --trials 300 --seed 1``, so the tests and the CLI run the
same checks on the same data.
"""

import ast
import dataclasses
import json
import re
import subprocess
import sys
from math import inf
from pathlib import Path

import pytest

from mimobc import validation

from checkout import checkout_env

CHECK_NAMES = sorted(
    name.removeprefix("check_") for name in vars(validation) if name.startswith("check_")
)


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_check_passes(checks, name):
    assert checks[name].passed


def test_run_all_checks_runs_every_check(checks):
    assert sorted(checks) == CHECK_NAMES


@pytest.mark.parametrize("order", [1, -1], ids=["nan-last", "nan-first"])
def test_a_nan_facet_fails_its_check(order):
    facets = [("a", 1e-9, 0.0, "w"), ("b", 1e-9, float("nan"), "w")][::order]
    assert validation._worst_facet(facets) == (-inf, "b error nan at tolerance 1.0e-09 (w)")


def _nan(result):
    return float("nan")


def _nan_rates(result):
    return dataclasses.replace(result, rates=(float("nan"),) * len(result.rates))


def _nan_second_linear_affine(points):
    return [p if i != 1 else dataclasses.replace(p, linear_affine=float("nan"))
            for i, p in enumerate(points)]


@pytest.mark.parametrize(
    "name, function, call, poison",
    [
        ("mac_rate_loss_nonnegative", "instantaneous_rate_loss", 5, _nan),
        ("mac_correlation_invariance", "instantaneous_rate_loss", 7, _nan),
        ("mac_gram_form_equivalence", "exact_rate_report", 3, _nan_rates),
        ("baseline_monotone_and_bounds", "solve_bc", 5, _nan_rates),
        ("baseline_affine_parallel", "generate_curves", 1, _nan_second_linear_affine),
    ],
)
def test_a_nan_after_the_first_call_fails_its_check(monkeypatch, name, function, call, poison):
    # the check's worst error must keep a NaN wherever it arrives
    original = getattr(validation, function)
    calls = []

    def poisoned(*args, **kwargs):
        calls.append(None)
        result = original(*args, **kwargs)
        return poison(result) if len(calls) == call else result

    monkeypatch.setattr(validation, function, poisoned)
    margin, _ = getattr(validation, f"check_{name}")(1)
    assert len(calls) >= call
    assert margin == -inf


def test_import_loads_no_test_framework():
    code = "import sys, mimobc; print(sorted({'pytest', 'hypothesis'} & set(sys.modules)))"
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=checkout_env(),
    )
    assert completed.stdout.strip() == "[]"


#: The curves config of the README, at 3 trials.
README_CURVES = {
    "N": 5,
    "antennas": [2, 2],
    "weights": [1, 1],
    "correlation": {"scalars": [1.0, 2.0]},
    "ptx_grid_db": "0:5:40",
    "trials": 3,
    "seed": 1,
    "ptx_db": 30,
    "format": "csv",
}

#: Ten terminal antennas: every curves trial inverts one 10 x 10 factor by blocks.
R10_CURVES = dict(
    README_CURVES, N=12, antennas=[4, 3, 3], weights=[1, 1, 1],
    correlation={"scalars": [1.0, 2.0, 0.5]},
)

#: 16 users of 4 antennas: each rate-loss row inverts one 64 x 64 factor by blocks.
WIDE_RATE_LOSS = {"N": 80, "antennas": [4] * 16, "trials": 2, "seed": 1, "ptx_db": 30}


@pytest.mark.parametrize(
    "command, config, exit_code",
    [
        (None, None, 0),
        (["table1", "--trials", "20"], None, 0),
        (["curves"], README_CURVES, 0),
        (["curves"], R10_CURVES, 0),
        (["rate-loss"], WIDE_RATE_LOSS, 0),
        # the fewest trials validate accepts; every property passes at seed 1
        (["validate", "--trials", "100"], None, 0),
        ("mimobc.solve_bc(mimobc.sample_channel(mimobc.make_profile(5, [2, 2]), seed=3), 10.0)",
         None, 0),
    ],
    ids=["import", "table1", "curves", "curves-r10", "rate-loss", "validate", "solve_bc"],
)
def test_no_command_loads_scipy(tmp_path, command, config, exit_code):
    # numpy is the only runtime dependency
    code = "import sys, mimobc, mimobc.cli\n"
    if isinstance(command, str):
        code += command + "\n"
    elif command is not None:
        argv = [*command, "--out", str(tmp_path / "out.csv")]
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "config.json")]
        code += f"assert mimobc.cli.main({argv!r}) == {exit_code}\n"
    code += "print('scipy' in sys.modules)"
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=checkout_env(),
    )
    assert completed.stdout.split()[-1] == "False"


def test_numpy_is_the_only_runtime_dependency():
    # every import of the package, lazy ones included, is relative, stdlib or numpy
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    third_party = set()
    for path in sorted((root / "src" / "mimobc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            third_party |= {n.partition(".")[0] for n in names} - sys.stdlib_module_names
    assert third_party == {"numpy"}
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [re.split(r"[^\w.-]", d)[0] for d in project["dependencies"]] == ["numpy"]
    # channel._draw reshapes with copy=False, an argument that numpy added in 2.1.0
    floor = re.fullmatch(r"numpy>=(\d+)\.(\d+)(\.\d+)*", project["dependencies"][0])
    assert floor and (int(floor[1]), int(floor[2])) >= (2, 1)

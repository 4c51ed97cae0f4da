"""Every invariant check of ``mimobc.validation``, one test case per check.

The session fixture ``checks`` runs them once with the settings of
``mimobc validate --trials 300 --seed 1``, so the tests and the CLI run the
same checks on the same data.
"""

import subprocess
import sys

import pytest

from mimobc import validation

CHECK_NAMES = sorted(
    name.removeprefix("check_") for name in vars(validation) if name.startswith("check_")
)


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_check_passes(checks, name):
    assert checks[name].passed


def test_run_all_checks_runs_every_check(checks):
    assert sorted(checks) == CHECK_NAMES


def test_import_loads_no_test_framework():
    code = "import sys, mimobc; print(sorted({'pytest', 'hypothesis'} & set(sys.modules)))"
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert completed.stdout.strip() == "[]"

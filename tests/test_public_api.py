"""The package's public surface: exactly the names the CLI, the benchmark and the README use."""

import functools
import importlib
import importlib.util
import re
from pathlib import Path

import mimobc

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
TRACER = ROOT / "bench" / "tracer.py"

PUBLIC_NAMES = {
    # used by the benchmark as mimobc.<name>
    "CorrelationModel", "derive_seed", "digamma_int", "dual_mac_sum_capacity",
    "ergodic_block_logdet", "ergodic_dpc_logdet", "ergodic_rate_loss",
    "instantaneous_rate_loss", "make_profile", "sample_channel",
    # named in the README example and prose
    "COND_LIMIT", "ChannelRealization", "monte_carlo_rate_loss", "power_offset_db",
    "run_all_checks", "solve_bc",
    # the error types
    "ConfigurationError", "DegeneracyError", "DomainError", "MimoBcError",
    "NumericalRankError", "ValidationError",
}


def test_all_lists_exactly_the_public_names():
    assert len(mimobc.__all__) == len(PUBLIC_NAMES) == 22
    assert set(mimobc.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in mimobc.__all__:
        assert getattr(mimobc, name) is not None, name


def test_readme_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_every_benchmark_tracer_hook_exists():
    # the tracer reports a vanished boundary as absent and its metrics read 0
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, attr, _ in tracer.HOOKS:
        module = importlib.import_module(module_name)
        owner_name, _, prop = attr.rpartition(".")
        if owner_name:
            descriptor = vars(getattr(module, owner_name)).get(prop)
            assert isinstance(descriptor, functools.cached_property), f"{module_name}.{attr}"
        else:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"

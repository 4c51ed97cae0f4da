"""The package's public surface: exactly the names the CLI, the benchmark and the README use."""

import ast
import builtins
import dataclasses
import functools
import importlib
import importlib.util
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mimobc
from mimobc.config import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
TRACER = ROOT / "bench" / "tracer.py"
SOURCE = ROOT / "src" / "mimobc"

PUBLIC_NAMES = {
    # used by the benchmark as mimobc.<name>
    "CorrelationModel", "derive_seed", "digamma_int", "dual_mac_sum_capacity",
    "ergodic_block_logdet", "ergodic_dpc_logdet", "ergodic_rate_loss",
    "instantaneous_rate_loss", "make_profile", "sample_channel",
    # named in the README example and prose
    "COND_LIMIT", "ChannelRealization", "monte_carlo_rate_loss", "power_offset_db",
    "run_all_checks", "solve_bc",
    # the error types
    "MimoBcError", "NumericalRankError", "ValidationError",
}


def test_all_lists_exactly_the_public_names():
    assert len(mimobc.__all__) == len(PUBLIC_NAMES) == 19
    assert set(mimobc.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in mimobc.__all__:
        assert getattr(mimobc, name) is not None, name


def test_readme_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_benchmark_tracer_hook_exists():
    # the tracer reports a vanished boundary as absent and its metrics read 0
    tracer = load_tracer()
    for module_name, attr, _ in tracer.HOOKS:
        module = importlib.import_module(module_name)
        owner_name, _, prop = attr.rpartition(".")
        if owner_name:
            descriptor = vars(getattr(module, owner_name)).get(prop)
            assert isinstance(descriptor, functools.cached_property), f"{module_name}.{attr}"
        else:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def definitions(tree):
    """(qualified name, name) of each module-level function and class and of each class member."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    yield f"{node.name}.{member.name}", member.name


def test_every_private_helper_is_used():
    # a private module-level function or class, or a private method or (cached)
    # property of a package class, that no other line of the package names is
    # dead, unless the benchmark tracer hooks it; dunders are exempt
    hooked = {(module_name, attr) for module_name, attr, _ in load_tracer().HOOKS}
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(SOURCE.glob("*.py"))}
    words = Counter(word for text in sources.values() for word in re.findall(r"\w+", text))
    private = [
        (path, qualified, name)
        for path, text in sources.items()
        for qualified, name in definitions(ast.parse(text))
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    ]
    defined = Counter(name for _, _, name in private)
    unused = [
        f"{path.name}:{qualified}"
        for path, qualified, name in private
        if words[name] <= defined[name] and (f"mimobc.{path.stem}", qualified) not in hooked
    ]
    assert not unused, unused


@functools.cache
def config_fields_read() -> frozenset:
    """Every ``config.<attr>`` that ``cli.py`` or a ``config.build_*`` function reads."""
    readers = [ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))]
    readers += [
        node
        for node in ast.parse((SOURCE / "config.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("build_")
    ]
    return frozenset(
        node.attr
        for reader in readers
        for node in ast.walk(reader)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "config"
    )


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ExperimentConfig)])
def test_config_field_is_read(field):
    # a setting that no subcommand of the CLI and no builder of the config reads
    # changes no run; it is the config's version of a dead private helper
    assert field in config_fields_read()


def source_nodes():
    """(file name, node) of every AST node of the package's modules."""
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def package_errors() -> dict:
    """The error types that ``mimobc.errors`` defines, by name."""
    return {
        name: value
        for name, value in vars(mimobc.errors).items()
        if isinstance(value, type) and value.__module__ == mimobc.errors.__name__
    }


def test_errors_are_the_base_one_for_rejected_input_and_one_for_rank():
    assert set(package_errors()) == {"MimoBcError", "ValidationError", "NumericalRankError"}


def test_every_raise_is_a_package_error_or_an_index_error():
    # callers tell failures apart by type: a package error names the broken
    # rule, and only a user index out of range is an IndexError, as for a
    # sequence; an error type that nothing raises is dead
    errors = set(package_errors())
    raised = [
        (f"{name}:{node.lineno}", ast.unparse(getattr(node.exc, "func", node.exc)))
        for name, node in source_nodes()
        if isinstance(node, ast.Raise) and node.exc is not None
    ]
    assert len(raised) > 50
    assert [(where, name) for where, name in raised if name not in errors | {"IndexError"}] == []
    assert errors - {name for _, name in raised} == {"MimoBcError"}


def caught_types():
    """(where, type) of each type an ``except`` clause of the package names.

    The type is what the clause's expression resolves to in its module, or
    None for a bare ``except`` or a name the module does not bind.
    """
    for path in sorted(SOURCE.glob("*.py")):
        handlers = [
            node
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ExceptHandler)
        ]
        namespace = {**vars(builtins), **vars(importlib.import_module(f"mimobc.{path.stem}"))}
        for node in handlers:
            if node.type is None:
                yield f"{path.name}:{node.lineno}: except:", None
                continue
            exprs = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for expr in exprs:
                where = f"{path.name}:{node.lineno}: {ast.unparse(expr)}"
                try:
                    kind = eval(compile(ast.Expression(expr), path.name, "eval"), namespace)
                except (NameError, AttributeError):
                    kind = None
                yield where, kind


def test_importing_the_main_module_does_not_run_the_cli(monkeypatch):
    # the entry point would parse these arguments and exit
    monkeypatch.setattr("sys.argv", ["mimobc", "--no-such-flag"])
    monkeypatch.delitem(sys.modules, "mimobc.__main__", raising=False)
    module = importlib.import_module("mimobc.__main__")
    assert callable(module.entry_point)


def test_every_except_names_a_builtin_a_package_error_or_a_linalg_error():
    # a handler resolves its type only when an exception reaches it, so a
    # retired or unimported type would fail on a path no test may take
    allowed = {
        value
        for value in vars(builtins).values()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    allowed |= {*package_errors().values(), np.linalg.LinAlgError}
    caught = list(caught_types())
    assert len(caught) > 5
    assert [where for where, kind in caught if kind not in allowed] == []


def test_every_value_is_built_by_its_checked_constructor():
    # object.__new__ skips __post_init__, and a write to an instance's __dict__
    # plants a cached property that no check has seen
    bypasses = [
        f"{name}:{node.lineno}: {ast.unparse(node)}"
        for name, node in source_nodes()
        if (isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__new__")
        or (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "__dict__"
        )
    ]
    assert bypasses == []


def test_the_cli_names_no_curves_column():
    # CurvePoint's fields are the curves columns; a column name spelled out in
    # the CLI would be a second declaration that can drift from the first
    columns = {f.name for f in dataclasses.fields(mimobc.baseline.CurvePoint)}
    strings = [
        f"cli.py:{node.lineno}: {node.value!r}"
        for node in ast.walk(ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value in columns
    ]
    assert len(columns) == 10
    assert strings == []


def test_validation_names_no_check():
    # check_<name> is the one declaration of the check reported as <name>; the
    # name spelled out in the module would be a second one that can drift
    checks = {
        name.removeprefix("check_")
        for name, value in vars(mimobc.validation).items()
        if name.startswith("check_") and value.__module__ == "mimobc.validation"
    }
    strings = [
        f"validation.py:{node.lineno}: {node.value!r}"
        for node in ast.walk(ast.parse((SOURCE / "validation.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value in checks
    ]
    assert len(checks) >= 22
    assert strings == []


def extremum_calls(node) -> list:
    """Every call of the builtin ``max`` or ``min`` under ``node``."""
    return [
        call for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id in ("max", "min")
    ]


def test_no_check_reduces_or_clamps_its_own_errors():
    # _margin takes the worst error with np.max, which keeps a NaN; a check's own
    # running worst = max(worst, err) or max(0.0, err) clamp would drop one
    checks = [
        node for node in ast.parse((SOURCE / "validation.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")
    ]
    found = []
    for check in checks:
        running = [
            call
            for assign in ast.walk(check) if isinstance(assign, ast.Assign)
            for call in extremum_calls(assign.value)
            if {a.id for a in call.args if isinstance(a, ast.Name)}
            & {t.id for target in assign.targets for t in ast.walk(target) if isinstance(t, ast.Name)}
        ]
        clamps = [
            call for call in extremum_calls(check)
            if any(isinstance(a, ast.Constant) and type(a.value) in (int, float) and a.value == 0
                   for a in call.args)
        ]
        found += [f"{check.name}:{call.lineno}: {ast.unparse(call)}" for call in running + clamps]
    assert len(checks) >= 22
    assert found == []

"""The package's public surface: exactly the names the CLI, the benchmark and the README use."""

import ast
import functools
import importlib
import importlib.util
import re
from collections import Counter
from pathlib import Path

import mimobc

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
    "ConfigurationError", "DegeneracyError", "MimoBcError", "NumericalRankError",
    "ValidationError",
}


def test_all_lists_exactly_the_public_names():
    assert len(mimobc.__all__) == len(PUBLIC_NAMES) == 21
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


def test_every_raise_is_a_package_error_or_an_index_error():
    # callers tell failures apart by type: a package error names the broken
    # rule, and only a user index out of range is an IndexError, as for a sequence
    allowed = {
        name
        for name, value in vars(mimobc.errors).items()
        if isinstance(value, type) and value.__module__ == mimobc.errors.__name__
    } | {"IndexError"}
    raised = [
        (f"{path.name}:{node.lineno}", ast.unparse(getattr(node.exc, "func", node.exc)))
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and node.exc is not None
    ]
    assert len(raised) > 50
    assert [(where, name) for where, name in raised if name not in allowed] == []

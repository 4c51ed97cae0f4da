"""Quick tests of the benchmark's references, checks, tracer and determinism rule.

Run from the root of a checkout:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import mpmath
import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import mimobc  # noqa: E402
import mimobc.cli  # noqa: E402
import references  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

PROFILES = [(2, (1, 1)), (5, (2, 2)), (6, (2, 2, 2)), (6, (1, 4)), (80, (4,) * 16)]


@pytest.fixture
def run_dir():
    path = os.path.join(BENCH_DIR, "_runs", "test")
    os.makedirs(path, exist_ok=True)
    return path


def test_digamma_at_one_is_minus_euler_gamma():
    assert references.digamma(1) == pytest.approx(-float(mpmath.euler), abs=1e-16)
    assert mimobc.digamma_int(1) == pytest.approx(references.digamma(1), abs=1e-15)


@pytest.mark.parametrize("n", [2, 5, 17, 80])
def test_digamma_matches_program(n):
    assert mimobc.digamma_int(n) == pytest.approx(references.digamma(n), abs=1e-13)


@pytest.mark.parametrize("n, antennas", PROFILES)
def test_closed_forms_match_program(n, antennas):
    profile = mimobc.make_profile(n, antennas)
    gains = [1.0 + 0.5 * k for k in range(len(antennas))]
    correlation = mimobc.CorrelationModel.scalar(profile, gains)
    dpc, linear = references.affine_offsets(n, antennas, gains)
    assert mimobc.ergodic_rate_loss(profile) == pytest.approx(
        references.rate_loss_closed_form(n, antennas), rel=1e-12, abs=1e-12
    )
    assert mimobc.ergodic_dpc_logdet(profile, correlation) == pytest.approx(dpc, rel=1e-12)
    program_linear = -sum(
        mimobc.ergodic_block_logdet(profile, correlation, k) for k in range(len(antennas))
    )
    assert program_linear == pytest.approx(linear, rel=1e-12)
    assert dpc - linear == pytest.approx(references.rate_loss_closed_form(n, antennas), abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_slogdet_rate_loss_matches_program(seed):
    antennas = (2, 1, 2)
    channel = mimobc.sample_channel(mimobc.make_profile(6, antennas), seed=seed)
    h = np.concatenate(channel.blocks, axis=1)
    reference = references.rate_loss_bits(h, antennas)
    assert reference >= 0
    assert reference == pytest.approx(mimobc.instantaneous_rate_loss(channel), abs=1e-10)


@pytest.mark.parametrize("power", [1.0, 100.0, 1e4])
def test_dpc_bounds_bracket_the_solver(power):
    profile = mimobc.make_profile(5, (2, 2))
    for seed in range(3):
        channel = mimobc.sample_channel(profile, seed=seed)
        lower, upper = references.dpc_bounds(np.concatenate(channel.blocks, axis=1), power)
        capacity = mimobc.dual_mac_sum_capacity(channel, power).sum_rate_bits
        assert lower - 1e-9 <= capacity <= upper


@pytest.mark.parametrize("name, size", [("mc_table1", 20), ("curves_small", 3), ("rate_loss_wide", 4)])
def test_workload_command_is_deterministic(name, size, run_dir):
    outputs = []
    for tag in ("-a", "-b"):
        workload = workloads.WORKLOADS[name](7, run_dir, size=size, tag=tag)
        workload.prepare()
        assert mimobc.cli.main(workload.argv()) == 0
        with open(workload.out, "rb") as handle:
            outputs.append(handle.read())
    assert outputs[0] == outputs[1]


def test_curves_check_passes_and_catches_a_wrong_value(run_dir):
    workload = workloads.CurvesSmall(3, run_dir, size=3)
    workload.prepare()
    assert mimobc.cli.main(workload.argv()) == 0
    rows = workloads.read_csv(workload.out)
    assert workload.check(rows) == []
    rows[-1]["dpc_exact"] = str(float(rows[-1]["dpc_exact"]) - 1e-3)
    assert any("40.0 dB" in problem for problem in workload.check(rows))


def test_table1_check_catches_a_wrong_closed_form(run_dir):
    workload = workloads.McTable1(3, run_dir, size=30)
    assert mimobc.cli.main(workload.argv()) == 0
    rows = workloads.read_csv(workload.out)
    row = next(r for r in rows if r["closed_form_bits"])
    row["closed_form_bits"] = str(float(row["closed_form_bits"]) + 1e-7)
    assert any("Digamma reference" in problem for problem in workload.check(rows))


def test_tracer_self_times_partition_each_pass(run_dir):
    workload = workloads.CurvesSmall(5, run_dir, size=2)
    workload.prepare()
    original = mimobc.baseline.dual_mac_sum_capacity
    tracer = Tracer()
    tracer.install()
    try:
        assert mimobc.baseline.dual_mac_sum_capacity is not original
        for _ in range(2):
            tracer.begin_pass()
            assert mimobc.cli.main(workload.argv()) == 0
            tracer.end_pass()
    finally:
        tracer.uninstall()
    assert mimobc.baseline.dual_mac_sum_capacity is original
    assert tracer.absent == []
    first, second = tracer.per_pass()
    for p in (first, second):
        assert sum(p["self_s"].values()) == pytest.approx(p["wall_s"], rel=0.05)
        assert p["counts"]["solves"] == workload.items
    assert first["calls"] == second["calls"]
    assert first["counts"] == second["counts"]


def _bench_command(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_declared_metric(trace, section):
    root = os.path.dirname(BENCH_DIR)
    done = _bench_command(root, "--workload", "rate_loss_wide", "--seed", "2", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 300
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)[section]
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in declared
    ]


def test_command_fails_without_the_program(run_dir):
    bare = os.path.join(run_dir, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), bare)
    try:
        done = _bench_command(bare, "--workload", "mc_table1", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert "correct" not in done.stdout

"""Benchmark of the ``mimobc`` CLI, end to end (``--trace 0``) or by layer (``--trace 1``).

Usage, from the root of a checkout:

    python3 bench/run.py --workload mc_table1 --seed 1 --seconds 40 --trace 0

One run measures set-up time in fresh interpreters, runs the workload's
command once and checks its output, then repeats the identical command for
``--seconds`` seconds in this process.  Each time is the median over the
run's passes (or set-ups): on a shared machine the host's load slows passes
down in phases of seconds, and the median over the whole run averages those
phases, where the fastest few passes hang on whether a quiet moment happened
to fall into the run.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
check passed, 1 when one failed and 2 when the program cannot be run.
"""

from __future__ import annotations

import os
import sys

# One BLAS / OpenMP thread, fixed before numpy loads: on a small shared
# machine a threaded BLAS makes the timings follow the neighbours' load.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(BENCH_DIR, "_runs")

#: Fresh interpreters timed per run for ``setup_s``, spread evenly over the
#: timed passes so that they sample the machine's quiet and busy phases alike.
SETUP_REPEATS = 9

#: Fewest timed passes a run makes, however short ``--seconds`` is.
MIN_PASSES = 3

SETUP_CHILD = r"""
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mimobc.cli
from mimobc.config import build_correlation, build_profile, load_config
t1 = time.perf_counter()
config = sys.argv[3] or None
resolved = load_config(sys.argv[2], config, {"seed": int(sys.argv[4]), "trials": int(sys.argv[5])})
if config:
    build_correlation(resolved, build_profile(resolved))
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def _openblas_threads() -> dict:
    """Threads each loaded OpenBLAS will use, asked of the library itself."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                found[os.path.basename(path)] = func()
                break
    return found


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure_setup(workload) -> tuple[float, float]:
    """Seconds a fresh interpreter spends importing ``mimobc`` and resolving the config."""
    result = subprocess.run(
        [
            sys.executable, "-c", SETUP_CHILD, SRC, workload.kind, workload.config or "",
            str(workload.seed), str(workload.size),
        ],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    imports, config = (float(x) for x in result.stdout.split())
    return imports, config


def run_pass(cli, argv, tracer=None) -> tuple[int, float, float]:
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer:
            tracer.begin_pass()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        code = cli.main(argv)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer:
            tracer.end_pass()
    return code, wall, cpu


def median(values) -> float:
    return float(statistics.median(values))


def layer_metrics(per_pass: list[dict], items: int, walls, sizes, import_s) -> dict:
    """Per-layer metrics, each the median over the traced passes."""

    def per(p: dict) -> dict:
        s, calls, counts = p["self_s"], p["calls"], p["counts"]
        draws = calls.get("channel._sample_blocks", 0)
        draw_s = s.get("channel.draw", 0.0)
        return {
            "channel.draw_s": draw_s,
            "channel.us_per_draw": draw_s / draws * 1e6 if draws else 0.0,
            "channel.draws": draws,
            "channel.gram_s": s.get("channel.gram", 0.0),
            "ergodic.mc_self_s": s.get("ergodic.mc", 0.0),
            "ergodic.discarded": counts["discarded"],
            "ergodic.closed_form_s": s.get("ergodic.closed_form", 0.0),
            "mac.logdet_s": s.get("mac.logdet", 0.0),
            "baseline.solve_s": s.get("baseline.solve", 0.0),
            "baseline.objective_s": s.get("baseline.objective", 0.0),
            "baseline.waterfill_s": s.get("baseline.waterfill", 0.0),
            "baseline.gap_s": s.get("baseline.gap", 0.0),
            "baseline.curves_self_s": s.get("baseline.curves", 0.0),
            "baseline.solves": counts["solves"],
            "baseline.iterations": counts["iterations"],
            "baseline.iterations_max": counts["iterations_max"],
            "baseline.objective_evals": calls.get("baseline._objective", 0),
            "baseline.max_gap_bits": counts["max_gap_bits"],
            "baseline.uncertified_solves": counts["uncertified"],
            "bc.solve_bc_s": s.get("bc.solve_bc", 0.0),
            "bc.exact_rate_s": s.get("bc.exact_rate", 0.0),
            "cli.config_s": s.get("cli.config", 0.0),
            "cli.driver_self_s": s.get("cli.driver", 0.0),
            "cli.write_s": s.get("cli.write", 0.0),
        }

    rows = [per(p) for p in per_pass]
    values = {name: median([row[name] for row in rows]) for name in rows[0]}
    values["trace.items_per_s"] = items / median(walls)
    values["cli.bytes_written"] = median(sizes)
    values["setup.import_s"] = median(import_s)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mimobc", "cli.py")):
        print(f"no program at {os.path.join(SRC, 'mimobc')}: run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import mimobc.cli as cli  # first import compiles the bytecode the set-up runs reuse

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"imported mimobc from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import workloads
    from tracer import Tracer

    os.makedirs(RUN_DIR, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, RUN_DIR)
    workload.prepare()
    machine = machine_info()
    print("machine: " + json.dumps(machine, sort_keys=True))

    argv_cli = workload.argv()
    problems: list[str] = []

    # the first pass is the warm-up and the one whose output is checked in full
    code, _, _ = run_pass(cli, argv_cli)
    if code != 0:
        problems.append(f"mimobc {' '.join(argv_cli)} exited with {code}")
        reference_bytes, failed_per_pass = b"", 0
    else:
        with open(workload.out, "rb") as handle:
            reference_bytes = handle.read()
        try:
            rows = workloads.read_csv(workload.out)
            failed_per_pass = workload.failed(rows)
            problems += workload.check(rows)
        except (KeyError, ValueError, IndexError) as exc:
            failed_per_pass = 0
            problems.append(f"output of {workload.name} could not be checked: {exc!r}")

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    walls, cpus, sizes = [], [], []
    setups = []
    begin = time.perf_counter()
    while not problems and (len(walls) < MIN_PASSES or time.perf_counter() < begin + args.seconds):
        if time.perf_counter() - begin >= len(setups) * args.seconds / SETUP_REPEATS:
            setups.append(measure_setup(workload))
        code, wall, cpu = run_pass(cli, argv_cli, tracer)
        with open(workload.out, "rb") as handle:
            data = handle.read()
        if code != 0 or data != reference_bytes:
            problems.append(f"pass {len(walls) + 1} exited with {code} or wrote other bytes")
        walls.append(wall)
        cpus.append(cpu)
        sizes.append(len(data))
    if tracer:
        tracer.uninstall()
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(workload))

    passes = len(walls)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        per_pass = tracer.per_pass()
        values = (
            layer_metrics(per_pass, workload.items, walls, sizes, [s[0] for s in setups])
            if per_pass
            else {m["name"]: 0.0 for m in declared}
        )
        discarded = sum(p["counts"]["discarded"] for p in per_pass)
        if discarded > 1e-3 * workload.items * passes:
            problems.append(f"{discarded} rank-deficient redraws exceed 0.1% of the trials")
        tracer.save(os.path.join(RUN_DIR, f"trace-{workload.name}-seed{workload.seed}.npz"))
        if tracer.absent:
            print("absent layer boundaries: " + ", ".join(tracer.absent))
    else:
        items = workload.items
        totals = [sum(s) for s in setups]
        values = {
            "setup_s": median(totals),
            "items_per_s": items / median(walls) if walls else 0.0,
            "cpu_per_item_us": median(cpus) / items * 1e6 if cpus else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    record = {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": args.trace,
        "item": workload.item,
        "items_per_pass": workload.items,
        "argv": argv_cli,
        "machine": machine,
        "setup_s": setups,
        "pass_wall_s": walls,
        "pass_cpu_s": cpus,
        "problems": problems,
        "metrics": values,
    }
    with open(os.path.join(RUN_DIR, f"{workload.name}-seed{workload.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": max(1, workload.items * passes),
        "failed": failed_per_pass * passes,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

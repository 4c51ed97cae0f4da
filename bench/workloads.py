"""The three benchmark workloads: the CLI command of one pass, its items and its checks.

Every pass of a workload runs the same ``mimobc`` command on the same inputs,
so a run's passes differ only in machine noise and each pass's output file
must equal the first, checked one, byte for byte.  Inputs depend on the
benchmark seed only through the program seed and the drawn channels.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

import references

#: Standard errors a Monte Carlo mean may lie from its closed form.
Z_LIMIT = 4.0

#: The same limit for each of the 32 table1 cells.  At 200 trials the cells'
#: rate losses are skewed enough that 4 standard errors flag a correct program
#: on 2 of 200 seeds.  At 5 the family of 32 cells raises false alarms about as
#: rarely as one 4-SE test, and the sum of the 32 z-scores, which any bias
#: common to the cells moves, is held to ``Z_LIMIT`` of its own spread.
CELL_Z_LIMIT = 5.0

#: Closed forms and identities must hold to this many bits (the CSV keeps 12 digits).
EXACT_BITS = 1e-9


def read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or not lines[0].startswith("# schema_version="):
        raise ValueError(f"{path} does not start with a schema_version comment")
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def _num(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _close(value: float, reference: float, tol: float = EXACT_BITS) -> bool:
    return abs(value - reference) <= tol * max(1.0, abs(reference))


class Workload:
    """One workload at one seed; ``size`` is its trials (per cell for table1) or rows."""

    name = ""
    kind = ""
    item = ""
    default_size = 0

    def __init__(self, seed: int, run_dir: str, size: int | None = None, tag: str = ""):
        self.seed = int(seed)
        self.size = self.default_size if size is None else int(size)
        stem = os.path.join(run_dir, f"{self.name}-seed{self.seed}{tag}")
        self.out = stem + ".csv"
        self.config = stem + ".config.json" if self.config_data() is not None else None

    def config_data(self) -> dict | None:
        return None

    def prepare(self) -> None:
        """Write the config file the command reads, if the workload has one."""
        data = self.config_data()
        if data is not None:
            with open(self.config, "w", encoding="utf-8") as handle:
                json.dump(data, handle, indent=1)

    def argv(self) -> list[str]:
        argv = [self.kind, "--seed", str(self.seed), "--trials", str(self.size), "--out", self.out]
        return argv + (["--config", self.config] if self.config else [])

    @property
    def items(self) -> int:
        raise NotImplementedError

    def failed(self, rows: list[dict]) -> int:
        return 0

    def check(self, rows: list[dict]) -> list[str]:
        raise NotImplementedError


class McTable1(Workload):
    """``table1`` with a fixed trial count on each of the 32 feasible grid cells."""

    name = "mc_table1"
    kind = "table1"
    item = "one Monte Carlo trial"
    default_size = 200
    feasible_cells = 32

    @property
    def items(self) -> int:
        return self.feasible_cells * self.size

    def check(self, rows):
        problems = []
        feasible = 0
        z_scores = []
        for row in rows:
            antennas = [int(a) for a in row["profile"].split(",")]
            n = int(row["N"])
            closed, mean, stderr = (
                _num(row[k]) for k in ("closed_form_bits", "mc_mean_bits", "mc_stderr")
            )
            where = f"cell ({row['profile']}) N={n}"
            if sum(antennas) > n:
                if closed is not None or mean is not None:
                    problems.append(f"{where}: infeasible cell carries values")
                continue
            feasible += 1
            if closed is None or mean is None or stderr is None:
                problems.append(f"{where}: missing closed form or Monte Carlo value")
                continue
            reference = references.rate_loss_closed_form(n, antennas)
            if not _close(closed, reference):
                problems.append(f"{where}: closed form {closed!r} != Digamma reference {reference!r}")
            if not stderr > 0:
                problems.append(f"{where}: standard error {stderr} is not positive")
                continue
            z_scores.append((mean - reference) / stderr)
            if abs(z_scores[-1]) > CELL_Z_LIMIT:
                problems.append(
                    f"{where}: MC mean {mean} is {z_scores[-1]:+.2f} standard errors "
                    f"({stderr}) from {reference}"
                )
        if feasible != self.feasible_cells:
            problems.append(f"{feasible} feasible cells, expected {self.feasible_cells}")
        pooled = sum(z_scores) / math.sqrt(max(1, len(z_scores)))
        if abs(pooled) > Z_LIMIT:
            problems.append(f"the cells' z-scores sum to {pooled:+.2f} standard deviations")
        return problems


class _ChannelWorkload(Workload):
    """Workloads whose config names a profile with per-user path gains."""

    base_antennas = 0
    antennas: tuple[int, ...] = ()
    gains: tuple[float, ...] = ()

    def channels(self, seeds) -> list[np.ndarray]:
        """Composite N x r channels the program draws for the given stream seeds.

        Uses the program's documented per-trial stream contract: trial t of a
        run with seed s draws ``sample_channel(profile, correlation, seed)``
        with the seed it reports (rate-loss) or ``derive_seed(s, t)`` (curves).
        """
        import mimobc

        profile = mimobc.make_profile(self.base_antennas, self.antennas)
        correlation = mimobc.CorrelationModel.scalar(profile, self.gains)
        return [
            np.concatenate(mimobc.sample_channel(profile, correlation, s).blocks, axis=1)
            for s in seeds
        ]


class CurvesSmall(_ChannelWorkload):
    """``curves`` on the README configuration: one cold solve and one BD rate per item."""

    name = "curves_small"
    kind = "curves"
    item = "one (trial, power) pair"
    default_size = 40
    base_antennas = 5
    antennas = (2, 2)
    gains = (1.0, 2.0)
    grid_db = tuple(float(p) for p in range(0, 41, 5))
    #: Grid points from here up are the 'top of the grid' where the gaps must shrink.
    top_db = 20.0

    def config_data(self):
        return {
            "N": self.base_antennas,
            "antennas": list(self.antennas),
            "weights": [1, 1],
            "correlation": {"scalars": list(self.gains)},
            "ptx_grid_db": "0:5:40",
            "trials": self.size,
            "seed": self.seed,
            "ptx_db": 30,
            "format": "csv",
        }

    @property
    def items(self) -> int:
        return self.size * len(self.grid_db)

    def failed(self, rows):
        return sum(int(row["nonconverged"]) for row in rows)

    def check(self, rows):
        import mimobc

        problems = []
        grid = [float(row["P_dB"]) for row in rows]
        if grid != list(self.grid_db):
            return [f"power grid {grid} != {list(self.grid_db)}"]
        cols = {k: np.array([float(row[k]) for row in rows]) for k in rows[0] if k != "P_dB"}
        dpc, lin = cols["dpc_exact"], cols["linear_exact"]
        r = sum(self.antennas)
        slope = np.array([references.affine_slope_term(r, p) for p in grid])
        dpc_offset, lin_offset = references.affine_offsets(
            self.base_antennas, self.antennas, self.gains
        )
        loss = references.rate_loss_closed_form(self.base_antennas, self.antennas)
        for i, p in enumerate(grid):
            if not dpc[i] > lin[i]:
                problems.append(f"{p} dB: DPC {dpc[i]} not above BD {lin[i]}")
            if not _close(cols["dpc_affine"][i], slope[i] + dpc_offset):
                problems.append(f"{p} dB: dpc_affine {cols['dpc_affine'][i]} != reference")
            if not _close(cols["linear_affine"][i], slope[i] + lin_offset):
                problems.append(f"{p} dB: linear_affine {cols['linear_affine'][i]} != reference")
            if abs(cols["dpc_affine"][i] - cols["linear_affine"][i] - loss) > EXACT_BITS:
                problems.append(f"{p} dB: affine difference != closed-form rate loss {loss}")
        for label, curve in (("DPC", dpc), ("BD", lin)):
            if not np.all(np.diff(curve) > 0):
                problems.append(f"{label} curve does not rise with power: {curve.tolist()}")

        # the same channels the program averaged over
        seeds = [mimobc.derive_seed(self.seed, t) for t in range(self.size)]
        channels = self.channels(seeds)
        powers = [10.0 ** (p / 10.0) for p in grid]
        bounds = np.array([[references.dpc_bounds(h, P) for P in powers] for h in channels])
        lower, upper = bounds.mean(axis=0).T
        gram_bits = np.mean([references.gram_logdet_bits(h) for h in channels])
        block_bits = np.mean(
            [sum(references.inverse_block_logdets(h, self.antennas)) for h in channels]
        )
        for i, p in enumerate(grid):
            if not lower[i] - EXACT_BITS <= dpc[i] <= upper[i] + EXACT_BITS:
                problems.append(
                    f"{p} dB: DPC mean {dpc[i]} outside same-channel bounds "
                    f"[{lower[i]}, {upper[i]}]"
                )
        # exact - affine, with the affine curve taken at the same channels, is
        # >= 0 and falls with power for each realization, so it must shrink
        top = np.array(grid) >= self.top_db
        for label, curve, affine, sample_offset in (
            ("DPC", dpc, cols["dpc_affine"], gram_bits),
            ("BD", lin, cols["linear_affine"], -block_bits),
        ):
            gap = curve - affine
            excess = curve - slope - sample_offset
            if not np.all(np.diff(gap[top]) < 0):
                problems.append(f"{label} gap to its affine curve does not shrink: {gap[top].tolist()}")
            if np.any(excess[top] < -EXACT_BITS):
                problems.append(f"{label} falls below its same-channel asymptote: {excess[top].tolist()}")
        return problems


class RateLossWide(_ChannelWorkload):
    """``rate-loss`` on a large array with spare base antennas: 16 users of 4 antennas at N = 80."""

    name = "rate_loss_wide"
    kind = "rate-loss"
    item = "one realization row"
    default_size = 100
    base_antennas = 80
    antennas = (4,) * 16
    #: Unequal path gains, geometric from 1/2 to 2.
    gains = tuple(2.0 ** (-1.0 + 2.0 * k / 15.0) for k in range(16))
    ptx_db = 30.0
    #: Rows recomputed from their channels.
    sampled_rows = 8

    def config_data(self):
        return {
            "N": self.base_antennas,
            "antennas": list(self.antennas),
            "correlation": {"scalars": list(self.gains)},
            "trials": self.size,
            "seed": self.seed,
            "ptx_db": self.ptx_db,
        }

    @property
    def items(self) -> int:
        return self.size

    def failed(self, rows):
        return sum(row["status"] != "ok" for row in rows)

    def check(self, rows):
        problems = []
        if [int(row["trial"]) for row in rows] != list(range(self.size)):
            return [f"expected rows for trials 0..{self.size - 1}"]
        users = [f"asym_rate_user{k + 1}" for k in range(len(self.antennas))]
        ok = [row for row in rows if row["status"] == "ok"]
        losses = np.array([float(row["rate_loss_bits"]) for row in ok])
        if np.any(losses < 0):
            problems.append(f"{int(np.sum(losses < 0))} negative rate losses")
        for row in ok:
            identity = float(row["dpc_asymptote_bits"]) - sum(float(row[u]) for u in users)
            if abs(identity - float(row["rate_loss_bits"])) > 1e-8:
                problems.append(
                    f"trial {row['trial']}: dpc_asymptote - sum of user rates = {identity} "
                    f"!= rate_loss {row['rate_loss_bits']}"
                )
                break

        r = sum(self.antennas)
        power = 10.0 ** (self.ptx_db / 10.0)
        step = max(1, len(ok) // self.sampled_rows)
        sample = ok[::step][: self.sampled_rows]
        for row, h in zip(sample, self.channels([int(row["seed"]) for row in sample])):
            blocks = references.inverse_block_logdets(h, self.antennas)
            expected = {
                "rate_loss_bits": references.rate_loss_bits(h, self.antennas),
                "dpc_asymptote_bits": r * math.log2(power / r) + references.gram_logdet_bits(h),
            }
            expected.update(
                (u, r_k * math.log2(power / r) - b)
                for u, r_k, b in zip(users, self.antennas, blocks)
            )
            for key, value in expected.items():
                if not _close(float(row[key]), value):
                    problems.append(f"trial {row['trial']}: {key} {row[key]} != recomputed {value!r}")

        reference = references.rate_loss_closed_form(self.base_antennas, self.antennas)
        if len(losses) >= 2:
            stderr = float(np.std(losses, ddof=1) / np.sqrt(len(losses)))
            if abs(float(np.mean(losses)) - reference) > Z_LIMIT * stderr:
                problems.append(
                    f"row mean {np.mean(losses)} is more than {Z_LIMIT} standard errors "
                    f"({stderr}) from the closed form {reference}"
                )
        return problems


WORKLOADS = {w.name: w for w in (McTable1, CurvesSmall, RateLossWide)}

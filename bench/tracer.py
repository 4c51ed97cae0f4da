"""Spans at the program's layer boundaries, recorded from outside the program.

``Tracer.install`` replaces module-level functions of ``mimobc`` (and the
lazily cached properties of ``ChannelRealization``) with wrappers that record
a span per call: name, start, end, parent and pass.  Spans stay in memory and
are written when the run ends.  A boundary that no longer exists is reported
as absent; its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

#: (module, attribute, layer bucket).  A bucket's time is the self time of its spans.
HOOKS = (
    ("mimobc.cli", "main", "cli.driver"),
    ("mimobc.cli", "_run_table1", "cli.driver"),
    ("mimobc.cli", "_run_rate_loss", "cli.driver"),
    ("mimobc.cli", "_run_curves", "cli.driver"),
    ("mimobc.cli", "_write_csv", "cli.write"),
    ("mimobc.cli", "_write_json", "cli.write"),
    ("mimobc.config", "load_config", "cli.config"),
    ("mimobc.config", "build_profile", "cli.config"),
    ("mimobc.config", "build_correlation", "cli.config"),
    ("mimobc.channel", "sample_channel", "channel.draw"),
    ("mimobc.channel", "_sample_blocks", "channel.draw"),
    ("mimobc.channel", "ChannelRealization.composite", "channel.gram"),
    ("mimobc.channel", "ChannelRealization.gram", "channel.gram"),
    ("mimobc.channel", "ChannelRealization.gram_condition", "channel.gram"),
    ("mimobc.ergodic", "monte_carlo_rate_loss", "ergodic.mc"),
    ("mimobc.ergodic", "rate_loss_grid", "ergodic.closed_form"),
    ("mimobc.ergodic", "ergodic_dpc_logdet", "ergodic.closed_form"),
    ("mimobc.ergodic", "ergodic_block_logdet", "ergodic.closed_form"),
    ("mimobc.mac", "_batch_rate_loss", "mac.logdet"),
    ("mimobc.mac", "instantaneous_rate_loss", "mac.logdet"),
    ("mimobc.mac", "asymptotic_rate_report", "mac.logdet"),
    ("mimobc.mac", "dpc_asymptotic_sum_rate", "mac.logdet"),
    ("mimobc.baseline", "generate_curves", "baseline.curves"),
    ("mimobc.baseline", "dual_mac_sum_capacity", "baseline.solve"),
    ("mimobc.baseline", "_objective", "baseline.objective"),
    ("mimobc.baseline", "waterfill", "baseline.waterfill"),
    ("mimobc.baseline", "_certified_gap", "baseline.gap"),
    ("mimobc.bc", "solve_bc", "bc.solve_bc"),
    ("mimobc.bc", "bc_exact_user_rate", "bc.exact_rate"),
)

#: A solve reported converged with a larger certified gap is uncertified.
CERTIFIED_GAP_BITS = 1e-6

PASS = "pass"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [PASS]
        self.buckets: list[str | None] = [None]
        self.name_id = array("i")
        self.parent = array("i")
        self.pass_index = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._pass = -1
        self.counts: list[dict] = []
        self.absent: list[str] = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.pass_index.append(self._pass)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def begin_pass(self) -> None:
        self._pass += 1
        self.counts.append(
            {"discarded": 0, "solves": 0, "iterations": 0, "iterations_max": 0,
             "max_gap_bits": 0.0, "uncertified": 0}
        )
        self._pass_span = self._open(0)

    def end_pass(self) -> None:
        self._close(self._pass_span)

    def _on_result(self, name: str, result) -> None:
        if self._pass < 0:
            return
        counts = self.counts[self._pass]
        if name == "monte_carlo_rate_loss":
            counts["discarded"] += int(getattr(result, "discarded", 0))
        elif name == "dual_mac_sum_capacity":
            gap = float(result.optimality_gap_bits)
            counts["solves"] += 1
            counts["iterations"] += int(result.iterations)
            counts["iterations_max"] = max(counts["iterations_max"], int(result.iterations))
            counts["max_gap_bits"] = max(counts["max_gap_bits"], gap)
            counts["uncertified"] += bool(result.converged) and gap > CERTIFIED_GAP_BITS

    def _wrap(self, name: str, bucket: str, func):
        nid = len(self.names)
        self.names.append(name)
        self.buckets.append(bucket)
        short = name.rsplit(".", 1)[-1]
        watched = short in ("monte_carlo_rate_loss", "dual_mac_sum_capacity")

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self._open(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(index)
            if watched:
                self._on_result(short, result)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every hook in every ``mimobc`` module namespace that holds it."""
        for module_name, attr, bucket in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            name = f"{module_name.split('.')[-1]}.{attr}"
            owner_name, _, prop = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                descriptor = vars(owner).get(prop) if owner is not None else None
                if not isinstance(descriptor, functools.cached_property):
                    self.absent.append(name)
                    continue
                self._restore.append((descriptor, "func", descriptor.func))
                descriptor.func = self._wrap(name, bucket, descriptor.func)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, bucket, original)
            for holder in [m for k, m in sys.modules.items() if k.split(".")[0] == "mimobc"]:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    # -- reading -----------------------------------------------------------

    def arrays(self) -> dict:
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=len(start))
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": parent,
            "pass_index": np.frombuffer(self.pass_index, dtype=np.int32),
            "start": start,
            "end": end,
            "self": duration - covered,
        }

    def per_pass(self) -> list[dict]:
        """Self seconds per bucket, call counts per span name and counters, per pass."""
        a = self.arrays()
        passes = self._pass + 1
        n_names = len(self.names)
        key = a["pass_index"] * n_names + a["name_id"]
        self_s = np.bincount(key, weights=a["self"], minlength=passes * n_names)
        calls = np.bincount(key, minlength=passes * n_names)
        is_pass = a["name_id"] == 0
        walls = a["end"][is_pass] - a["start"][is_pass]
        out = []
        for p in range(passes):
            row = self_s[p * n_names : (p + 1) * n_names]
            bucket_s: dict[str, float] = {}
            for nid, bucket in enumerate(self.buckets):
                if bucket is not None:
                    bucket_s[bucket] = bucket_s.get(bucket, 0.0) + float(row[nid])
            out.append(
                {
                    "wall_s": float(walls[p]),
                    "self_s": bucket_s,
                    "calls": dict(zip(self.names, calls[p * n_names : (p + 1) * n_names].tolist())),
                    "counts": self.counts[p],
                }
            )
        return out

    def save(self, path: str) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a)

"""Outside-in layer tracing of hhw_pir, from the benchmark's own files.

The tracer rebinds each public function in TARGETS to a timing wrapper:
module functions under every name a hhw_pir module bound them to (so
``scheme.rank_ext`` and ``linalg.rank_ext`` both count), methods on their
class.  ``restore`` puts every original back.  A target the library no
longer has is listed in ``absent`` and its metrics read 0.

Each wrapper keeps, per recording window, the calls, the total time and
the self time (span minus the child spans it covers) of its function,
and counts calls per (caller span, callee) edge.  The edges measure the
scheme's rejection-sampling retries where they happen, at the
scheme -> linalg boundary.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

TARGETS = (
    "fields.build_tower",
    "fields.sample_basis_split",
    "fields.Fq.vmul",
    "fields.Fq.matmul",
    "fields.FieldTower.matmul",
    "fields.FieldTower.scalar_matmul",
    "linalg.fq_echelon",
    "linalg.fq_inv_matrix",
    "linalg.rank_fq",
    "linalg.rank_ext",
    "linalg.is_information_set",
    "linalg.ext_inv_matrix",
    "linalg.solve_on_columns",
    "scheme.sample_code",
    "scheme.generate_query",
    "scheme.respond",
    "scheme.decode",
    "attack.recover_index",
    "serialization.save_query",
    "serialization.load_query",
    "serialization.save_response",
    "serialization.load_response",
    "analysis.failure_bound",
    "experiment.run_trial",
    "experiment.canonical_json",
)

# A try of a rejection loop is useful when the sampled matrix has full rank.
USEFUL = {
    "linalg.rank_ext": lambda args, result: result == args[0].rows,
    "linalg.rank_fq": lambda args, result: result == args[0].rows,
    "linalg.is_information_set": lambda args, result: bool(result),
}


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    cells: int = 0


class Window:
    """Aggregated spans of one recording window (setup or timed)."""

    def __init__(self):
        self.stats: defaultdict[str, Stat] = defaultdict(Stat)
        self.edges: Counter = Counter()
        self.useful: Counter = Counter()
        self.root_time = 0.0


class Tracer:
    """Install with ``with Tracer() as t:``; record between ``t.record(label)`` and ``t.pause()``."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.on = False
        self.absent: list[str] = []
        self.windows: dict[str, Window] = {}
        self.window = Window()
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def record(self, label: str):
        self.window = self.windows.setdefault(label, Window())
        self.on = True

    def pause(self):
        self.on = False

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "hhw_pir" or n.startswith("hhw_pir.")]
        for target in self.targets:
            module_name, _, path = target.partition(".")
            try:
                owner = importlib.import_module(f"hhw_pir.{module_name}")
            except ImportError:
                self.absent.append(target)
                continue
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original)
            if classes:
                self._rebind(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, wrapper)

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _rebind(self, owner, name, wrapper):
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, name: str, fn):
        stack = self._stack
        useful = USEFUL.get(name)
        count_cells = name == "linalg.fq_echelon"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                window = self.window
                stat = window.stats[name]
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[1]
                if parent is None:
                    window.root_time += elapsed
                else:
                    parent[1] += elapsed
            edge = (parent[0] if parent else None, name)
            window.edges[edge] += 1
            if useful is not None and useful(args, result):
                window.useful[edge] += 1
            if count_cells:
                rows, cols = np.shape(args[0])
                stat.cells += rows * cols
            return result

        return wrapper


# -- per-layer metrics ------------------------------------------------------------

# (target, statistic): calls per op, inclusive ms per op, self ms per op, or
# rows x cols of every matrix passed in, per op.
STAT_METRICS = (
    ("fields.build_tower", "ms"),
    ("fields.Fq.vmul", "calls"),
    ("fields.Fq.vmul", "self_ms"),
    ("fields.Fq.matmul", "self_ms"),
    ("fields.FieldTower.matmul", "calls"),
    ("fields.FieldTower.matmul", "self_ms"),
    ("fields.FieldTower.scalar_matmul", "self_ms"),
    ("fields.sample_basis_split", "self_ms"),
    ("linalg.fq_echelon", "calls"),
    ("linalg.fq_echelon", "self_ms"),
    ("linalg.fq_echelon", "cells"),
    ("linalg.rank_fq", "calls"),
    ("linalg.rank_fq", "self_ms"),
    ("linalg.rank_ext", "calls"),
    ("linalg.rank_ext", "self_ms"),
    ("linalg.is_information_set", "calls"),
    ("linalg.is_information_set", "self_ms"),
    ("linalg.ext_inv_matrix", "self_ms"),
    ("linalg.solve_on_columns", "self_ms"),
    ("linalg.fq_inv_matrix", "self_ms"),
    ("scheme.generate_query", "ms"),
    ("scheme.sample_code", "ms"),
    ("scheme.respond", "ms"),
    ("scheme.decode", "ms"),
    ("attack.recover_index", "ms"),
    ("serialization.save_query", "ms"),
    ("serialization.load_query", "ms"),
    ("serialization.save_response", "ms"),
    ("serialization.load_response", "ms"),
    ("analysis.failure_bound", "ms"),
    ("experiment.canonical_json", "ms"),
    ("experiment.run_trial", "self_ms"),
)
STAT_UNITS = {"calls": "1/op", "ms": "ms/op", "self_ms": "ms/op", "cells": "cells/op"}

# (metric, caller, callee, report the useful share): calls of callee made
# directly by caller, per op.
EDGE_METRICS = (
    ("scheme.generator_tries", "scheme.sample_code", "linalg.rank_ext", True),
    ("scheme.info_set_tries", "scheme.sample_code", "linalg.is_information_set", True),
    ("scheme.selector_tries", "scheme.generate_query", "linalg.rank_fq", True),
    ("attack.rank_calls", "attack.recover_index", "linalg.rank_fq", False),
)


def _useful_name(metric: str) -> str:
    return metric.replace("_tries", "_useful_ratio")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [("fields.build_tower.setup_ms", "ms", "lower")]
    spec += [(f"{t}.{stat}", STAT_UNITS[stat], "lower") for t, stat in STAT_METRICS]
    for metric, _, _, ratio in EDGE_METRICS:
        spec.append((metric, "1/op", "lower"))
        if ratio:
            spec.append((_useful_name(metric), "fraction", "higher"))
    spec += [
        ("serialization.query_bytes", "B/op", "lower"),
        ("serialization.response_bytes", "B/op", "lower"),
        ("trace.ops_per_s", "1/s", "higher"),
        ("trace.coverage", "fraction", "higher"),
    ]
    return spec


def per_layer_metrics(tracer: Tracer, result) -> dict[str, float]:
    """Per-layer values of one traced run, per op (per trial) or per set-up.

    Times are rescaled to the reference speed, as the end-to-end ones are.
    """
    timed, setup = tracer.windows["timed"], tracer.windows["setup"]
    ops = result.attempted
    scale = result.scale
    values = {"fields.build_tower.setup_ms": setup.stats["fields.build_tower"].total / len(result.setup_s) * 1e3 * scale}
    for target, stat in STAT_METRICS:
        s = timed.stats[target]
        raw = {"calls": s.calls, "ms": s.total * 1e3 * scale, "self_ms": s.self_time * 1e3 * scale, "cells": s.cells}[stat]
        values[f"{target}.{stat}"] = raw / ops
    for metric, caller, callee, ratio in EDGE_METRICS:
        tries = timed.edges[(caller, callee)]
        values[metric] = tries / ops
        if ratio:
            values[_useful_name(metric)] = timed.useful[(caller, callee)] / tries if tries else 0.0
    values["serialization.query_bytes"] = result.query_bytes / ops
    values["serialization.response_bytes"] = result.response_bytes / ops
    values["trace.ops_per_s"] = ops / result.timed_s
    values["trace.coverage"] = timed.root_time / result.wall_s
    return values


def layer_table(tracer: Tracer, result) -> str:
    """Calls, wall ms per op inclusive and self, and self share of op time, per function."""
    timed = tracer.windows["timed"]
    ops = result.attempted
    lines = [f"{'layer function':<34} {'calls/op':>10} {'ms/op':>9} {'self ms/op':>11} {'self share':>10}"]
    order = sorted(tracer.targets, key=lambda t: -timed.stats[t].self_time if t in timed.stats else 0.0)
    for target in order:
        if target in tracer.absent:
            lines.append(f"{target:<34} {'absent':>10}")
            continue
        s = timed.stats.get(target)
        if s is None or not s.calls:
            continue
        lines.append(
            f"{target:<34} {s.calls / ops:>10.2f} {s.total / ops * 1e3:>9.3f}"
            f" {s.self_time / ops * 1e3:>11.3f} {s.self_time / result.wall_s:>10.1%}"
        )
    lines.append(f"{'covered by layer spans':<34} {'':>10} {'':>9} {'':>11} {timed.root_time / result.wall_s:>10.1%}")
    return "\n".join(lines)

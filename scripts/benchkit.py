"""The harness under the scripts/bench_*.py benches: sides, timing, summaries and the JSON record.

A bench compares two or more sides of the same rows: a "before" path of
the package (patched in for the run, see ``patched``) against the path it
runs today.  The harness keeps the rules every bench follows:

  - each side runs once untimed, and its output is compared with every
    other side's (``same``); a row whose sides differ is not identical,
    and a bench with any such row exits 1 after writing its record;
  - each side is then timed ``repeats`` times, alternating which side
    goes first, so slow drift on the host hits every side equally;
  - timings are summarised as median, quartiles and interquartile range;
  - the record names the machine it ran on, with the BLAS build and the
    thread settings that products over float64 depend on.

Importing this module puts the package source and the repository root
(for tests/oracles.py) on sys.path.  Uses only the standard library and
numpy.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


def machine() -> dict:
    """The host, Python, numpy and BLAS build of a run, with the BLAS thread settings."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 prints its configuration instead
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "blas": blas and {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


@contextmanager
def patched(**names):
    """Rebind each name wherever a loaded module of the package binds it, until the block exits.

    That is every module global of that name (a kernel imported by name
    into other modules, or a constant such as experiment.ROUND_SIZE) and
    every attribute a class of the package defines under it (such as
    Fq.to_digits), so no importing module keeps the old binding.  A key
    "Class.name", passed as **{"FieldTower.blow_up": ...}, rebinds only the
    attribute of the package's classes of that name.  A name bound nowhere
    raises KeyError.
    """
    modules = [module for key, module in list(sys.modules.items()) if key.split(".")[0] == "hhw_pir"]
    classes = [cls for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == module.__name__]
    saved = []
    for key, value in names.items():
        cls_name, _, name = key.rpartition(".")
        owners = [cls for cls in classes if cls.__name__ == cls_name] if cls_name else modules + classes
        saved += [(owner, name, vars(owner)[name], key) for owner in owners if name in vars(owner)]
    unbound = set(names).difference(key for *_, key in saved)
    if unbound:
        raise KeyError(f"no module or class of hhw_pir binds {sorted(unbound)}")
    for owner, name, _, key in saved:
        setattr(owner, name, names[key])
    try:
        yield
    finally:
        for owner, name, value, _ in saved:
            setattr(owner, name, value)


def same(x, y) -> bool:
    """Identical outputs: lists item by item, arrays in dtype and entries, anything else by ==."""
    if isinstance(x, list):
        return isinstance(y, list) and len(x) == len(y) and all(same(a, b) for a, b in zip(x, y))
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.dtype == y.dtype and np.array_equal(x, y)
    return bool(x == y)


def timed_sides(sides: dict, repeats: int, calls: int = 1) -> tuple[bool, dict[str, list[float]]]:
    """Whether every side gives the same output, and each side's seconds per call.

    ``sides`` maps a side's name to (context, call): ``call`` takes no
    argument and runs inside ``context()``, which is entered outside the
    timing.  Each side runs once untimed for its output, then ``repeats``
    timings of ``calls`` calls each, the first side first on even repeats
    and last on odd ones.
    """
    outputs = []
    for context, call in sides.values():
        with context():
            outputs.append(call())
    seconds = {side: [] for side in sides}
    for rep in range(repeats):
        for side in (list(sides) if rep % 2 == 0 else list(reversed(sides))):
            context, call = sides[side]
            with context():
                start = time.perf_counter()
                for _ in range(calls):
                    call()
                seconds[side].append((time.perf_counter() - start) / calls)
    return all(same(outputs[0], output) for output in outputs[1:]), seconds


def summary(values: list[float], unit: str, digits: int = 1, count: str = "repeats") -> dict:
    """Median, quartiles and interquartile range of ``values``, keyed ``<unit>_median`` and so on."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {f"{unit}_median": round(float(median), digits), f"{unit}_q1": round(float(q1), digits),
            f"{unit}_q3": round(float(q3), digits), f"{unit}_iqr": round(float(q3 - q1), digits), count: len(values)}


def bench_row(name: str, call, before, calls: int, repeats: int, per: int = 1) -> dict:
    """A row in microseconds per call: ``call`` inside the ``before`` context against ``call`` as it is.

    ``per`` divides the time of one call into per-item units, such as
    the queries a stage row runs per call.
    """
    identical, seconds = timed_sides({"before": (before, call), "after": (nullcontext, call)}, repeats, calls)
    row = {"name": name, "calls_per_timing": calls, "identical": identical,
           **{side: summary([s / per * 1e6 for s in seconds[side]], "us") for side in seconds}}
    row["speedup_median"] = round(row["before"]["us_median"] / row["after"]["us_median"], 2)
    return row


def write(doc: dict, out: str, identical: bool) -> int:
    """Write ``doc`` as JSON to ``out`` and return the exit status: 0 if ``identical``, else 1."""
    Path(out).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if identical else 1

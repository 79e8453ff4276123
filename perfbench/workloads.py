"""The three benchmark workloads and the closed loop that times them.

Every workload is driven from one thread as a closed loop with a single
client: the next operation starts only after the previous one returned.
Inputs are made from the workload seed outside the timed window, and the
library receives only those generated inputs.  Each workload class has

    setup(seed, rep)     build the fixture and run one untimed warm-up op,
    inputs(seed)         an endless stream of distinct op inputs, timed
                         in batches of ``batch`` ops,
    op(inp)              one timed operation, returning an Outcome,
    oracle_check(first)  an independent check of ops of the first batch.

The library is called through module attributes (``scheme.decode``, not a
name imported into this file), so the layer tracer and the tests see and
replace exactly the functions the library itself calls.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from hhw_pir import attack, experiment, fields, scheme, serialization  # noqa: E402
from hhw_pir.params import SchemeParams  # noqa: E402

# The seed whose output digests are pinned below.  Any other seed is checked
# against the plain-Python rank oracle in tests/oracles.py instead.
DEFAULT_SEED = 1
# Output digests of the first batch of timed ops of a workload at DEFAULT_SEED.
PINNED_DIGESTS = {
    "attack_scan": "abe9020cbbd42e87b89162b3453da09bc7e8b7bdb1ae9feff461bd3943815cf5",
    "tight_sweep": "4e9b5367fc9c73a8320467a50951392b2c99fe7f18424ec240240d3273d5b2b4",
}

# The yardstick of machine speed: a fixed pure-Python loop, timed REFERENCE_REPS
# times before every batch.  Its median time over the run, against
# REFERENCE_SECONDS, rescales the run's wall times (see perfbench/README.md,
# "Noise").
REFERENCE_LOOP = 20_000
REFERENCE_REPS = 5
REFERENCE_SECONDS = 1.3e-3

# Largest baseline fixture of the attack (q=3).
ATTACK_PARAMS = SchemeParams(p=3, e=1, s=4, v=2, n=10, k=5, m=16, L=256)
# q=4 = 2^2, so F_q arithmetic goes through log/exp tables.
RETRIEVAL_PARAMS = SchemeParams(p=2, e=2, s=3, v=1, n=6, k=3, m=10, L=512)
# The tight base of scripts/success_vs_m.py, swept over m = 2..10.
SWEEP_BASE = dict(p=2, e=1, s=2, v=1, n=4, k=2, L=1)
SWEEP_M = tuple(range(2, 11))
SWEEP_TRIALS = 25


def _oracles():
    """tests/oracles.py of the checkout, loaded by path."""
    spec = importlib.util.spec_from_file_location("hhw_pir_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def naive_profile(data: np.ndarray, delta: int, fq) -> list[int]:
    """Subfield rank of every block deletion, by the test suite's oracle."""
    naive_rank_fq = _oracles().naive_rank_fq
    profile = []
    for lo in range(0, data.shape[0], delta):
        kept = np.delete(data, slice(lo, lo + delta), axis=0)
        profile.append(naive_rank_fq(kept.reshape(kept.shape[0], -1).tolist(), fq))
    return profile


@dataclass
class Outcome:
    """What one timed op did: trials attempted and failed, digest input."""

    trials: int = 1
    failed: int = 0
    record: object = None
    mismatch: bool = False
    sample: object = None
    query_bytes: int = 0
    response_bytes: int = 0


class AttackScan:
    """Server-side index recovery from serialised public queries."""

    name = "attack_scan"
    params = ATTACK_PARAMS
    trials_per_op = 1
    batch = 8

    def setup(self, seed: int, rep: int):
        p = self.params
        self.tower = fields.build_tower(p.p, p.e, p.s)
        self.op(self._make_input(np.random.default_rng([seed, 0, rep])))

    def _make_input(self, rng):
        target = int(rng.integers(1, self.params.m + 1))
        query, _ = scheme.generate_query(self.params, self.tower, target, rng)
        buf = io.BytesIO()
        serialization.save_query(buf, query, self.params)
        return target, buf.getvalue()

    def inputs(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        while True:
            yield self._make_input(rng)

    def op(self, inp) -> Outcome:
        target, blob = inp
        query = serialization.load_query(io.BytesIO(blob), self.params, self.tower)
        report = attack.recover_index(query, self.params, self.tower)
        return Outcome(record=(target, tuple(report.rank_profile), report.recovered_index), query_bytes=len(blob))

    def oracle_check(self, first) -> list[str]:
        problems = []
        for (_, blob), out in first[:2]:
            data = serialization.load_matrix(io.BytesIO(blob)).data
            profile = list(out.record[1])
            if naive_profile(data, self.params.delta, self.tower.fq) != profile:
                problems.append(f"attack_scan: rank profile {profile} disagrees with the oracle")
        return problems


class Retrieval:
    """The honest round trip: query, server answer, decode, compare."""

    name = "retrieval"
    params = RETRIEVAL_PARAMS
    trials_per_op = 1
    batch = 8

    def setup(self, seed: int, rep: int):
        p = self.params
        self.tower = fields.build_tower(p.p, p.e, p.s)
        buf = io.BytesIO()
        serialization.save_database(buf, scheme.Database.random(p, np.random.default_rng([seed, 2])), p)
        self.db = serialization.load_database(io.BytesIO(buf.getvalue()), p)
        self.op(self._make_input(np.random.default_rng([seed, 0, rep])))

    def _make_input(self, rng):
        return int(rng.integers(1, self.params.m + 1)), int(rng.integers(0, 2**63))

    def inputs(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        while True:
            yield self._make_input(rng)

    def op(self, inp) -> Outcome:
        target, query_seed = inp
        p, tower = self.params, self.tower
        query, secrets = scheme.generate_query(p, tower, target, np.random.default_rng(query_seed))
        buf = io.BytesIO()
        serialization.save_query(buf, query, p)
        query_blob = buf.getvalue()
        query = serialization.load_query(io.BytesIO(query_blob), p, tower)
        response = scheme.respond(self.db, query, p, tower)
        buf = io.BytesIO()
        serialization.save_response(buf, response, p)
        response_blob = buf.getvalue()
        response = serialization.load_response(io.BytesIO(response_blob), p, tower)
        decoded = scheme.decode(response, secrets, p, tower)
        stored = self.db.files[target - 1]
        exact = decoded.dtype == stored.dtype and np.array_equal(decoded, stored)
        return Outcome(
            failed=0 if exact else 1,
            record=(target, exact),
            mismatch=not exact,
            query_bytes=len(query_blob),
            response_bytes=len(response_blob),
        )

    def oracle_check(self, first) -> list[str]:
        return []  # every op already compares its decoded file bit for bit


class TightSweep:
    """The paper's measurement: one run_experiment call per m at the tight base."""

    name = "tight_sweep"
    params = SchemeParams(m=SWEEP_M[-1], **SWEEP_BASE)
    trials_per_op = SWEEP_TRIALS
    batch = len(SWEEP_M)  # whole rounds keep the mix of m fixed

    def setup(self, seed: int, rep: int):
        self.tower = fields.build_tower(SWEEP_BASE["p"], SWEEP_BASE["e"], SWEEP_BASE["s"])
        self.op((SWEEP_M[0], int(np.random.default_rng([seed, 0, rep]).integers(0, 2**63))))

    def inputs(self, seed: int):
        # one master seed per (round, m), so no trial repeats within a run
        rng = np.random.default_rng([seed, 1])
        while True:
            for m in SWEEP_M:
                yield m, int(rng.integers(0, 2**63))

    def op(self, inp) -> Outcome:
        m, master = inp
        cfg = experiment.ExperimentConfig(params=SchemeParams(m=m, **SWEEP_BASE), trials=SWEEP_TRIALS, master_seed=master)
        report = experiment.run_experiment(cfg)
        errors = sum(1 for r in report.records if (r.failure_reason or "").startswith("error:"))
        return Outcome(trials=cfg.trials, failed=errors, record=report.digest, sample=report.records[0])

    def oracle_check(self, first) -> list[str]:
        """Replay the first trial of the m = 2, 6 and 10 calls and re-rank its query."""
        problems = []
        for (m, master), out in first:
            if m not in (2, 6, 10):
                continue
            rec = out.sample
            params = SchemeParams(m=m, **SWEEP_BASE)
            rng = np.random.default_rng(experiment.trial_seed(master, rec.trial))
            target = int(rng.integers(1, m + 1))
            query, _ = scheme.generate_query(params, self.tower, target, rng)
            naive = naive_profile(query.matrix.data, params.delta, self.tower.fq)
            if target != rec.target or naive != rec.rank_profile:
                problems.append(f"tight_sweep: m={m} profile {rec.rank_profile} disagrees with the oracle {naive}")
        return problems


WORKLOADS = {cls.name: cls for cls in (AttackScan, Retrieval, TightSweep)}


def reference_times() -> list[float]:
    """Wall times of REFERENCE_REPS runs of the reference loop."""
    times = []
    for _ in range(REFERENCE_REPS):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return times


@dataclass
class RunResult:
    """Everything one run measured, before it is turned into metrics.

    setup_s, op_s and timed_s are at the reference speed: wall times
    multiplied by scale, which is above 1 when the machine ran slower than
    the reference speed.  wall_s is the plain wall time of the timed ops.
    """

    setup_s: list[float]
    op_s: list[float]  # time of each op; per trial for tight_sweep
    timed_s: float
    wall_s: float
    scale: float
    ops: int
    attempted: int
    failed: int
    digest: str
    prefix_digest: str
    query_bytes: int
    response_bytes: int
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def run(name: str, seed: int, seconds: float, tracer=None) -> RunResult:
    """Time batches of ops until ``seconds`` of wall time have passed, check outputs.

    The fixture is set up again before every batch, and the reference
    loop is timed before every batch, so that the set-up times and the
    machine speed sample the whole run, as the op times do.  A tracer
    records the set-ups and the timed ops, each in its own window, and
    never the making of inputs or the reference loop.
    """
    wl = WORKLOADS[name]()
    setup_s = []
    reference_s = []

    def set_up():
        if tracer:
            tracer.record("setup")
        start = time.perf_counter()
        wl.setup(seed, len(setup_s))
        setup_s.append(time.perf_counter() - start)
        if tracer:
            tracer.pause()

    digest = hashlib.sha256()
    seen = set()
    problems = []
    first_batch = None
    op_s = []
    wall_s = 0.0
    attempted = failed = query_bytes = response_bytes = 0
    inputs = wl.inputs(seed)
    deadline = time.perf_counter() + seconds
    while first_batch is None or time.perf_counter() < deadline:
        reference_s.extend(reference_times())
        set_up()
        batch = [next(inputs) for _ in range(wl.batch)]
        outcomes = []
        for inp in batch:
            key = hashlib.sha256(repr(inp).encode()).digest()
            if key in seen:
                problems.append(f"{name}: a timed input repeated")
            seen.add(key)
            if tracer:
                tracer.record("timed")
            start = time.perf_counter()
            try:
                out = wl.op(inp)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                out = Outcome(trials=wl.trials_per_op, failed=wl.trials_per_op, record=f"error:{type(exc).__name__}")
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.pause()
            outcomes.append(out)
            wall_s += elapsed
            op_s.append(elapsed / out.trials)
            attempted += out.trials
            failed += out.failed
            query_bytes += out.query_bytes
            response_bytes += out.response_bytes
            digest.update(repr(out.record).encode())
            if out.mismatch:
                problems.append(f"{name}: op {len(op_s)} decoded a file that differs from the stored one")
        if first_batch is None:
            first_batch = list(zip(batch, outcomes))
            prefix_digest = digest.hexdigest()

    pinned = PINNED_DIGESTS.get(name)
    if seed == DEFAULT_SEED and pinned is not None:
        if prefix_digest != pinned:
            problems.append(f"{name}: output digest {prefix_digest} differs from the pinned {pinned}")
    else:
        problems.extend(wl.oracle_check(first_batch))
    scale = REFERENCE_SECONDS / statistics.median(reference_s)
    return RunResult(
        setup_s=[t * scale for t in setup_s],
        op_s=[t * scale for t in op_s],
        timed_s=wall_s * scale,
        wall_s=wall_s,
        scale=scale,
        ops=len(op_s),
        attempted=attempted,
        failed=failed,
        digest=digest.hexdigest(),
        prefix_digest=prefix_digest,
        query_bytes=query_bytes,
        response_bytes=response_bytes,
        problems=problems,
    )

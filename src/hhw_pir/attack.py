"""Index recovery from the public query matrix alone.

Deleting the query's row block j leaves (m-1)*delta rows.  If j is the
target block, the deleted rows are the only ones carrying the W layer, so
what remains lives in the span of the codeword and mask layers, whose
subfield dimension is at most k*s + v*(n-k) = s*n - delta.  Deleting any
other block keeps the full-rank selector rows and pushes the subfield
rank delta above that threshold unless the surviving codeword and mask
rows conspire to a large rank drop, which happens with probability
vanishing in q.  Scanning all m deletions therefore reveals the target as
the unique block whose deletion stays at or below the threshold.

The scan needs no knowledge of the secret code, information set or basis
split: subfield rank is invariant under the basis used to expand entries.

Cost: the m deletions share their work.  Reduced echelon bases of every
prefix B_1..B_i and every suffix B_i..B_m of the row blocks are built one
block at a time, and each deletion merges the prefix before it with the
suffix after it: about 3m merges of bases with at most n*s rows each,
instead of m eliminations of ((m-1)*delta) x (n*s) subfield matrices.
"""

from __future__ import annotations

import json
import time

import numpy as np

from dataclasses import dataclass

from .errors import DimensionMismatch
from .fields import FieldTower
from .linalg import fq_deletion_ranks
from .params import SchemeParams
from .scheme import Query


@dataclass
class AttackReport:
    """Outcome of one rank scan over a query matrix.

    recovered_index is set only when exactly one block falls at or below
    the threshold; otherwise failure_reason says whether the scan saw
    none ("no_candidate") or several ("ambiguous").
    """

    recovered_index: int | None
    rank_profile: list[int]
    threshold: int
    below_threshold: list[int]
    elapsed: float
    fallback_used: bool = False

    @property
    def failure_reason(self) -> str | None:
        if self.recovered_index is not None:
            return None
        return "no_candidate" if not self.below_threshold else "ambiguous"

    def to_dict(self) -> dict:
        return {
            "recovered_index": self.recovered_index,
            "rank_profile": list(self.rank_profile),
            "threshold": self.threshold,
            "candidates": list(self.below_threshold),
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def rank_profile(queries: np.ndarray, params: SchemeParams, tower: FieldTower) -> list[int] | np.ndarray:
    """Subfield rank of every block-deleted submatrix, in block order.

    An (m*delta, n, s) query matrix gives the list of its m ranks; a
    (count, m*delta, n, s) stack of them is scanned together and gives a
    (count, m) array.
    """
    queries = np.asarray(queries, dtype=np.int64)
    if queries.ndim not in (3, 4) or queries.shape[-3:] != (params.block_rows, params.n, tower.s):
        raise DimensionMismatch(f"query is {queries.shape}, expected [count,] ({params.block_rows}, {params.n}, {tower.s})")
    *lead, rows, cols, s = queries.shape
    return fq_deletion_ranks(queries.reshape(*lead, rows, cols * s), params.delta, tower.fq)


def _verdict(profile: list[int], params: SchemeParams, elapsed: float, fallback_argmin: bool) -> AttackReport:
    threshold = params.rank_threshold
    candidates = [j + 1 for j, r in enumerate(profile) if r <= threshold]
    recovered = candidates[0] if len(candidates) == 1 else None
    fallback_used = False
    if recovered is None and fallback_argmin:
        recovered = int(np.argmin(profile)) + 1
        fallback_used = True
    return AttackReport(
        recovered_index=recovered,
        rank_profile=profile,
        threshold=threshold,
        below_threshold=candidates,
        elapsed=elapsed,
        fallback_used=fallback_used,
    )


def recover_index(
    query: Query | np.ndarray,
    params: SchemeParams,
    tower: FieldTower,
    fallback_argmin: bool = False,
) -> AttackReport | list[AttackReport]:
    """Scan all block deletions and name the target if it is unambiguous.

    Only public information goes in: the query matrix and the parameters.
    With ``fallback_argmin`` an ambiguous or empty threshold scan falls
    back to the block of smallest deleted rank (lowest block index on
    ties), the natural heuristic for experiments, with no guarantee.

    The query is a Query or its (m*delta, n, s) coordinate array.  A
    (count, m*delta, n, s) array is a stack of query matrices, scanned
    together; the result is then a list of count reports, each timed at
    its share of the scan.
    """
    start = time.perf_counter()
    data = query.matrix.data if isinstance(query, Query) else np.asarray(query)
    profile = rank_profile(data, params, tower)
    if data.ndim == 4:
        profiles = profile.tolist()
        share = (time.perf_counter() - start) / max(len(profiles), 1)
        return [_verdict(p, params, share, fallback_argmin) for p in profiles]
    return _verdict(profile, params, time.perf_counter() - start, fallback_argmin)

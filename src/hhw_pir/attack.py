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

Cost: the m deletions share one basis.  Deleting block j of the query's
rows deletes block j of the columns of its transpose, so every deletion
rank is read off one echelon basis of the row space of the transposed
subfield matrix, at most n*s rows packed into Python ints: a block that
holds none of the basis's leading columns keeps the full rank, and for
each of the few that do, the basis rows leading in it (at most one per
row of the block) are masked, inserted into the basis, which reduces
them against the basis rows leading after the block, and popped again.
That replaces m eliminations of ((m-1)*delta) x (n*s) subfield matrices,
for every p (see fields.fq_deletion_ranks).
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

from dataclasses import dataclass

from .errors import DimensionMismatch
from .fields import FieldTower, fq_deletion_ranks
from .params import SchemeParams
from .scheme import Query


@dataclass(frozen=True)
class AttackReport:
    """What one rank scan over a query matrix measured, and the verdict read from it.

    The scan measures rank_profile, the subfield rank of each block
    deletion in block order, against threshold, the rank k0 at or below
    which a deletion names its block, and takes elapsed seconds.
    below_threshold lists the 1-based blocks that name themselves.  The
    verdict is the paper's threshold rule alone: recovered_index is the
    block when exactly one does, otherwise None, and failure_reason says
    whether the scan saw none ("no_candidate") or several ("ambiguous").
    The verdict is computed from the scan on first read.
    """

    rank_profile: list[int]
    threshold: int
    elapsed: float

    @functools.cached_property
    def below_threshold(self) -> list[int]:
        return [j + 1 for j, r in enumerate(self.rank_profile) if r <= self.threshold]

    @functools.cached_property
    def recovered_index(self) -> int | None:
        return self.below_threshold[0] if len(self.below_threshold) == 1 else None

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
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)


def rank_profile(queries: np.ndarray, params: SchemeParams, tower: FieldTower) -> list[int] | np.ndarray:
    """Subfield rank of every block-deleted submatrix, in block order.

    An (m*delta, n, s) query matrix gives the list of its m ranks; a
    (count, m*delta, n, s) stack of them is scanned together and gives a
    (count, m) array.  A coordinate outside [0, q), or an array that is
    not of an integer dtype, raises CoordinateOutOfRange
    (fields.fq_deletion_ranks checks it): the scan packs each coordinate
    into a field of bits that it would overflow without a trace.
    """
    queries = np.asarray(queries)
    if queries.ndim not in (3, 4) or queries.shape[-3:] != (params.block_rows, params.n, tower.s):
        raise DimensionMismatch(f"query is {queries.shape}, expected [count,] ({params.block_rows}, {params.n}, {tower.s})")
    *lead, rows, cols, s = queries.shape
    return fq_deletion_ranks(queries.reshape(*lead, rows, cols * s), params.delta, tower.fq)


def recover_index(
    query: Query | np.ndarray, params: SchemeParams, tower: FieldTower
) -> AttackReport | list[AttackReport]:
    """Scan all block deletions and name the target if it is unambiguous.

    Only public information goes in: the query matrix and the parameters.
    A scan that leaves no block, or several, at or below the threshold
    names none; its report keeps the full rank profile.

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
        return [AttackReport(p, params.rank_threshold, share) for p in profiles]
    return AttackReport(profile, params.rank_threshold, time.perf_counter() - start)

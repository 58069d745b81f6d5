"""Conseil — the hybrid lineage baseline ([19]) for the crime comparison (§6.4).

Unlike Why-Not, Conseil does not stop at the first picky operator: it keeps
relaxing frontier picky operators and accumulates them until the missing
answer becomes producible, returning the accumulated *combination* as one
explanation. It still reasons under the original schema only (no SAs) and
only ever adds tuple-filtering operators (selections, joins, flattens).
"""
from __future__ import annotations

from ..core import algebra as A
from ..core.alternatives import SchemaAlternative
from ..core.backtrace import backtrace
from ..core.msr import CandidateEval, collect_stats
from ..core.tracing import trace
from .wnpp import _maybe_blame_join_partner, _path_steps, _successors


def conseil(query: A.Op, db, whynot) -> list[frozenset[int]]:
    """Iteratively relax frontier-picky operators until the answer appears.

    If relaxing every reachable picky operator still fails to produce the
    answer, the accumulated set is returned anyway — Conseil reports the
    picky operators it found (its behaviour in C3, where the join cannot be
    meaningfully fixed).
    """
    bt = backtrace(query, whynot, A.SchemaCache(db))
    traced = trace(SchemaAlternative(1, query, frozenset(), bt, "original"), db, bt)
    stats = collect_stats(traced, extra_cols=tuple(traced.compat_tables.values()))
    ev = CandidateEval(stats, traced)

    flagged = set(traced.flags)
    if traced.compat_tables:
        sources = [(t, traced.compat_tables[t]) for t in traced.compat_tables]
    else:
        sources = [(t, None) for t in traced.table_order]

    relaxed: set[int] = set()
    for _ in range(len(flagged) + 1):
        if relaxed and ev.success(frozenset(relaxed)):
            return [frozenset(relaxed)]
        # find the next frontier picky operator under the current relaxation
        frontier = None
        for table, compat_col in sources:
            prev = _successors(stats, traced, compat_col, [])
            if prev == 0:
                continue
            for op_id, subtree in _path_steps(query, table, flagged):
                if op_id in relaxed:
                    continue
                cur = _successors(
                    stats, traced, compat_col, [o for o in subtree if o not in relaxed]
                )
                if cur == 0 and prev > 0:
                    frontier = _maybe_blame_join_partner(
                        query, op_id, table, stats, traced
                    )
                    break
                prev = cur
            if frontier is not None:
                break
        if frontier is None or frontier in relaxed:
            return [frozenset(relaxed)] if relaxed else []
        relaxed.add(frontier)
    return [frozenset(relaxed)] if relaxed else []

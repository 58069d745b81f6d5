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
from ..core.msr import CandidateEval, collect_stats, per_sa
from ..core.tracing import trace
from .wnpp import _frontier, _maybe_blame_join_partner


def conseil(query: A.Op, db, whynot) -> list[frozenset[int]]:
    """Iteratively relax frontier-picky operators until the answer appears.

    If relaxing every reachable picky operator still fails to produce the
    answer, the accumulated set is returned anyway — Conseil reports the
    picky operators it found (its behaviour in C3, where the join cannot be
    meaningfully fixed).
    """
    schemas = A.SchemaCache(db)
    bt = backtrace(query, whynot, schemas)
    traced = trace(SchemaAlternative(1, query, frozenset(), bt, "original"), bt)
    (stats,) = per_sa(collect_stats([traced], schemas), [traced])
    ev = CandidateEval(stats, traced)

    tables = traced.compat_tables or traced.tables
    relaxed: frozenset[int] = frozenset()
    # each round adds a new flagged operator, so this ends within |flags| rounds
    while not (relaxed and ev.success(relaxed)):
        frontier = None
        for table in tables:
            frontier, _ = _frontier(ev, query, table, relaxed)
            if frontier is not None:
                frontier = _maybe_blame_join_partner(query, frontier, table, ev)
                break
        if frontier is None or frontier in relaxed:
            break
        relaxed |= {frontier}
    return [relaxed] if relaxed else []

"""WN++ — the lineage-based Why-Not baseline ([9] extended to nested data).

Faithful to the lineage-based formulation the paper compares against:

- *compatibles* are input tuples matching the backtraced table NIPs under the
  **original schema only** (no schema alternatives, no re-validation — the
  documented source of false positives/negatives);
- compatibles are traced forward; for every operator on the path from the
  compatible's table to the root, WN++ counts the surviving successors;
- the *frontier picky* operator is the first operator that eliminates **all**
  remaining successors; if no operator eliminates all of them but the answer
  is still missing (typical for aggregation queries, where every input tuple
  is compatible), WN++ blames the most-downstream operator that filtered any
  successors;
- each frontier picky operator yields a singleton explanation — WN++ never
  returns operator combinations, never returns schema-changing operators
  (projections, nesting, aggregation), and never checks that relaxing the
  blamed operator actually produces the missing answer. These are exactly
  the failure modes Tables 7/8 attribute to WN++.

Tables with a trivial table NIP contribute no compatibles; if *no* table is
constrained, every input tuple is compatible (the paper's Q1/Q6 behaviour:
"it marks all input tuples as compatibles").
"""
from __future__ import annotations

from ..core import algebra as A
from ..core.alternatives import SchemaAlternative
from ..core.backtrace import backtrace
from ..core.msr import CandidateEval, collect_stats, per_sa
from ..core.tracing import trace


def _tables_under(op: A.Op) -> set[str]:
    return {n.table for n in A.walk(op) if isinstance(n, A.TableAccess)}


def _path_steps(query: A.Op, table: str, flagged: set[int]) -> list[tuple[int, list[int]]]:
    """Flagged operators on the path from ``table``'s access to the root.

    Each step carries the set of flagged operators in its *subtree*: by the
    time an operator executes, everything below it (including the other side
    of a join) has already filtered in the original execution.
    """
    out = []
    for node in A.walk(query):
        if node.op_id in flagged and table in _tables_under(node):
            subtree = sorted(o.op_id for o in A.walk(node) if o.op_id in flagged)
            out.append((node.op_id, subtree))
    return sorted(out)


def _frontier(ev: CandidateEval, query: A.Op, table: str, relaxed=frozenset()):
    """Walk ``table``'s path to the root with the operators in ``relaxed``
    lifted, counting the successors of its compatibles (of every tuple if no
    table is constrained) at each step.

    Returns ``(frontier, last_decreasing)``: the first operator that removes
    every remaining successor, and the last operator before it that removed
    any (each ``None`` if there is none).
    """
    compat = table if ev.tr.compat_tables else None
    prev = ev.survivors((), compat)
    if prev == 0:
        return None, None  # no compatibles from this table at all
    last_decreasing = None
    for op_id, subtree in _path_steps(query, table, set(ev.tr.flags)):
        if op_id in relaxed:
            continue
        cur = ev.survivors(set(subtree) - relaxed, compat)
        if cur == 0:
            return op_id, last_decreasing
        if cur < prev:
            last_decreasing = op_id
        prev = cur
    return None, last_decreasing


def wnpp(query: A.Op, db, whynot) -> list[frozenset[int]]:
    """Return WN++'s explanations (each a singleton operator set)."""
    schemas = A.SchemaCache(db)
    bt = backtrace(query, whynot, schemas)
    traced = trace(SchemaAlternative(1, query, frozenset(), bt, "original"), bt)
    (stats,) = per_sa(collect_stats([traced], schemas), [traced])
    ev = CandidateEval(stats, traced)

    explanations: list[frozenset[int]] = []
    # no constrained table: every tuple of every table is compatible
    for table in traced.compat_tables or traced.tables:
        frontier, last_decreasing = _frontier(ev, query, table)
        picked = frontier if frontier is not None else last_decreasing
        if picked is None:
            continue
        exp = frozenset({_maybe_blame_join_partner(query, picked, table, ev)})
        if exp not in explanations:
            explanations.append(exp)
    return explanations


def _maybe_blame_join_partner(query, picked, table, ev: CandidateEval):
    """Why-Not's partner analysis: when the frontier is a join, check whether
    an operator on the *other* side emptied the potential join partners
    entirely (e.g. C2's σ⁴ removing every witness); blame that operator
    instead of the join. If the other side still produces rows (Q10), the
    join itself stays blamed."""
    node = A.find_op(query, picked)
    if not isinstance(node, A.Join):
        return picked
    other = node.right if table in _tables_under(node.left) else node.left
    other_flags = sorted(n.op_id for n in A.walk(other) if n.op_id in ev.tr.flags)
    # the walk that picked the join saw successors, so some row survives ()
    for i, op_id in enumerate(other_flags):
        if ev.survivors(other_flags[: i + 1]) == 0:
            return op_id
    return picked

"""Definition 8 by execution, independent of the candidate evaluator.

For every RP explanation of the benchmark's reference questions, the query
is reparameterized as far as the explanation allows: its schema
alternative's rewrite, and the full relaxation of every other operator in
it (a selection keeps every row, a join becomes a full outer join, an inner
relation flatten an outer one). Running that query with ``algebra.run``
must produce a tuple that matches the why-not question.

Full relaxation is one reparameterization, not all of them (Definition 7),
so an explanation that needs a particular constant is not witnessed by it:
Q6 asks for *less* revenue, and relaxing its selections only adds rows.
Those explanations are listed in ``WAITING`` until a constant-witness search
exists, and the test checks that full relaxation indeed misses them.
Set-minimality is not checked: some explanations of the paper's Table 8
still produce the answer with one operator dropped.
"""
import json
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest

from repro.core import algebra as A
from repro.core import nip as N
from repro.core.alternatives import enumerate_sas
from repro.core.exprs import TRUE
from repro.core.msr import approximate_msrs
from repro.workloads.registry import all_scenarios

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "wnbench" / "reference.json").read_text())
SF = REFERENCE["sf"]

_Q6_SELECTIONS = ("σ32", "σ33", "σ34")
WAITING = {
    "Q6": {
        frozenset(sels) | extra
        for k in (1, 2, 3)
        for sels in combinations(_Q6_SELECTIONS, k)
        for extra in (frozenset(), frozenset({"π31"}))
    },
}


def relax(op: A.Op, ops: frozenset[int]) -> A.Op:
    """``op`` with every operator in ``ops`` fully relaxed."""
    op = A.replace_children(op, tuple(relax(c, ops) for c in op.children()))
    if op.op_id not in ops:
        return op
    if isinstance(op, A.Select):
        return replace(op, theta=TRUE)
    if isinstance(op, A.Join):
        return replace(op, kind="full")
    if isinstance(op, A.FlattenRel):
        return replace(op, outer=True)
    raise AssertionError(f"{op.label} has no full relaxation")


@pytest.fixture(scope="module")
def dbs():
    return {}


@pytest.mark.parametrize("key", list(REFERENCE["questions"]))
def test_full_relaxation_produces_the_missing_answer(spark, dbs, key):
    scn = all_scenarios()[key]
    if scn.group not in dbs:
        dbs[scn.group] = scn.build_db(spark, SF)
    db = dbs[scn.group]
    query, tags = scn.build_query()
    tag = {op_id: t for t, op_id in tags.items()}
    whynot = scn.whynot(db, query)
    alt = scn.alternatives()
    explanations = approximate_msrs(query, db, whynot, alt)
    assert explanations
    sas = {sa.sa_id: sa for sa in enumerate_sas(query, whynot, A.SchemaCache(db), alt)}
    outcome = {}
    for e in explanations:
        q = relax(sas[e.sa_id].query, e.ops - e.sa_ops)
        rows = A.run(q, db).collect()
        outcome[frozenset(tag.get(o, f"op{o}") for o in e.ops)] = any(
            N.matches(r, whynot) for r in rows)
    assert {e for e, ok in outcome.items() if not ok} == WAITING.get(key, set())

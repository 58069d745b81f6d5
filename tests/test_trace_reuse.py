"""Every SA of a question shares one instrumented subtree below the tracing
cut, built once through the question's cache (DESIGN decisions 1 and 8)."""
from collections import Counter

import pandas as pd
import pytest

from repro.core import algebra as A
from repro.core import tracing
from repro.core.alternatives import enumerate_sas
from repro.core.msr import collect_stats
from repro.core.tracing import trace
from repro.workloads import running_example as RE
from repro.workloads.registry import all_scenarios

SF = 0.004


@pytest.fixture(scope="module")
def questions(spark):
    """(query, db, whynot, alternatives) of the running example, Q10 (its SA
    rewrites a projection) and D4 and T2 (their SAs rewrite a flatten, which
    changes the traced rows)."""
    scns = all_scenarios()
    out = {"RE": (RE.query(), RE.db(spark), RE.whynot_nip(), RE.alternatives())}
    dbs: dict[str, dict] = {}
    for key in ("Q10", "D4", "T2"):
        s = scns[key]
        if s.group not in dbs:
            dbs[s.group] = s.build_db(spark, SF)
        db = dbs[s.group]
        query, _ = s.build_query()
        out[key] = (query, db, s.whynot(db, query), s.alternatives())
    return out


def _has_layer_op(op: A.Op) -> bool:
    return any(isinstance(n, (A.GroupAgg, A.NestRel)) for n in A.walk(op))


def _sorted(stats: pd.DataFrame) -> pd.DataFrame:
    return stats.sort_values(list(stats.columns)).reset_index(drop=True)


@pytest.mark.parametrize("key", ["RE", "Q10", "D4", "T2"])
def test_shared_subtrees_give_the_stats_of_a_fresh_trace(questions, key):
    """Oracle: each SA traced through the shared question cache yields the
    annotations and the stats (compat columns included) of a trace with a
    fresh cache of its own, which shares nothing. S₁ is traced again last,
    so its whole subtree below the cut comes from the cache."""
    query, db, whynot, alts = questions[key]
    schemas = A.SchemaCache(db)
    sas = enumerate_sas(query, whynot, schemas, alts)
    assert len(sas) > 1
    orig_bt = sas[0].bt
    for sa in sas + sas[:1]:
        shared = trace(sa, schemas, orig_bt)
        fresh = trace(sa, A.SchemaCache(db), orig_bt)
        for attr in ("flags", "sel_ops", "compat_tables", "tables", "layers"):
            assert getattr(shared, attr) == getattr(fresh, attr), attr
        extra = tuple(shared.compat_tables.values())
        pd.testing.assert_frame_equal(
            _sorted(collect_stats(shared, extra)), _sorted(collect_stats(fresh, extra))
        )


@pytest.mark.parametrize("key", ["RE", "Q10"])
def test_one_instrumented_build_per_operator_below_the_cut(questions, key, monkeypatch):
    """Across every SA of a question, each instrumented operator value below
    the cut (no GroupAgg or NestRel in its subtree) is built once."""
    query, db, whynot, alts = questions[key]
    schemas = A.SchemaCache(db)
    sas = enumerate_sas(query, whynot, schemas, alts)
    build_one, built = tracing._Builder._build_one, Counter()

    def counting(self, op):
        built[op] += 1
        return build_one(self, op)

    monkeypatch.setattr(tracing._Builder, "_build_one", counting)
    per_sa = []
    for sa in sas:
        trace(sa, schemas, sas[0].bt)
        per_sa.append({op for op in A.walk(sa.query) if not _has_layer_op(op)})
    below = set().union(*per_sa)
    assert sum(map(len, per_sa)) > len(below)  # the SAs do share operators
    assert {op: built[op] for op in below} == dict.fromkeys(below, 1)


def test_one_cache_serves_one_original_backtrace(questions):
    query, db, whynot, alts = questions["RE"]
    schemas = A.SchemaCache(db)
    sas = enumerate_sas(query, whynot, schemas, alts)
    assert sas[0].bt != sas[1].bt
    trace(sas[0], schemas, sas[0].bt)
    with pytest.raises(AssertionError, match="one S₁ backtrace"):
        trace(sas[0], schemas, sas[1].bt)

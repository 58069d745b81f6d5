"""The instrumented queries of a question's SAs are built through the
question's one frame cache, so every instrumented subtree they share is built
once, and the row-compatible SAs share one merged frame and one stats
aggregation (DESIGN decisions 1 and 8)."""
from collections import Counter

import pandas as pd
import pytest

from repro.core import algebra as A
from repro.core.alternatives import enumerate_sas
from repro.core.msr import collect_stats, per_sa
from repro.core.tracing import groups, trace
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
        own = A.SchemaCache(db)
        fresh = trace(sa, own, orig_bt)
        for attr in ("flags", "sel_ops", "compat_tables", "tables", "layers"):
            assert getattr(shared, attr) == getattr(fresh, attr), attr
        pd.testing.assert_frame_equal(
            _sorted(collect_stats([shared], schemas)), _sorted(collect_stats([fresh], own))
        )


@pytest.mark.parametrize("key", ["RE", "Q10"])
def test_one_build_per_instrumented_operator(questions, key, monkeypatch):
    """Across every SA of a question, each operator value of the instrumented
    queries is built once through the question's cache, and the SAs share the
    ones they have in common. Tracing draws no operator id."""
    query, db, whynot, alts = questions[key]
    schemas = A.SchemaCache(db)
    build, built = A.build, Counter()

    def counting(op, inputs, db):
        built[op] += 1
        return build(op, inputs, db)

    monkeypatch.setattr(A, "build", counting)
    sas = enumerate_sas(query, whynot, schemas, alts)
    before = A._next_id()
    for sa in sas:
        trace(sa, schemas, sas[0].bt)
    assert A._next_id() == before + 1
    shared = Counter(built)
    per_sa = []  # the operator values of each SA's instrumented query
    for sa in sas:
        built.clear()
        trace(sa, A.SchemaCache(db), sas[0].bt)
        per_sa.append(set(built))
    instrumented = set().union(*per_sa)
    assert sum(map(len, per_sa)) > len(instrumented)  # the SAs do share operators
    assert instrumented <= set(shared)
    assert set(shared.values()) == {1}


def test_one_cache_serves_two_original_backtraces(questions):
    """The compat SQL of S₁'s backtrace is part of the instrumented operator
    values, so S₁ traced under two different S₁ backtraces through one cache
    gets, each time, the compat columns and stats of a fresh-cache trace."""
    query, db, whynot, alts = questions["RE"]
    schemas = A.SchemaCache(db)
    sas = enumerate_sas(query, whynot, schemas, alts)
    stats = []
    for orig_bt in (sas[0].bt, sas[1].bt, sas[0].bt):
        shared = trace(sas[0], schemas, orig_bt)
        own = A.SchemaCache(db)
        fresh = trace(sas[0], own, orig_bt)
        assert shared.compat_tables == fresh.compat_tables
        stats.append(_sorted(collect_stats([shared], schemas)))
        pd.testing.assert_frame_equal(stats[-1], _sorted(collect_stats([fresh], own)))
    assert not stats[0].equals(stats[1])  # the two backtraces mark different compatibles


# registry questions with a group of two or more row-compatible SAs
MERGED = ("D1", "Q1", "Q1F", "Q3", "Q3F", "Q4", "Q4F", "Q6", "Q6F")


@pytest.fixture(scope="module")
def dbs():
    return {}


@pytest.mark.parametrize("key", sorted(all_scenarios()))
def test_merged_group_gives_each_sa_the_stats_of_a_group_of_one(spark, dbs, key):
    """Oracle: each SA's rows of its group's stats table, split by ``_sa``,
    are the stats of a group of that SA alone. The questions in ``MERGED``
    are exactly those with a group of two or more SAs, and S₁ is alone."""
    s = all_scenarios()[key]
    if s.group not in dbs:
        dbs[s.group] = s.build_db(spark, SF)
    db = dbs[s.group]
    query, _ = s.build_query()
    schemas = A.SchemaCache(db)
    sas = enumerate_sas(query, s.whynot(db, query), schemas, s.alternatives())
    found = groups([trace(sa, schemas, sas[0].bt) for sa in sas], schemas)
    assert [tr.sa for tr in found[0]] == sas[:1]
    assert sorted(tr.sa.sa_id for g in found for tr in g) == [sa.sa_id for sa in sas]
    merged = [g for g in found if len(g) > 1]
    assert bool(merged) == (key in MERGED), [len(g) for g in found]
    for group in merged:
        parts = per_sa(collect_stats(group, schemas), group)
        for tr, rows in zip(group, parts):
            (alone,) = per_sa(collect_stats([tr], schemas), [tr])
            # a flag or key column that is null in another SA's rows arrives
            # as float in the group's table: values are compared, not dtypes
            pd.testing.assert_frame_equal(_sorted(rows), _sorted(alone), check_dtype=False,
                                          obj=f"{key} SA {tr.sa.sa_id}")

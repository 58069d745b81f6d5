"""Tracing returns the instrumented queries of a question's SAs as values.
Only the queries `collect_stats` aggregates are built, through the
question's one frame cache, so every instrumented subtree they share is
built once, and the row-compatible SAs share one merged frame and one stats
aggregation (DESIGN decisions 1 and 8)."""
from collections import Counter

import pandas as pd
import pytest

from repro.core import algebra as A
from repro.core import msr
from repro.core.alternatives import enumerate_sas
from repro.core.msr import collect_stats, per_sa
from repro.core.tracing import groups, merge, trace
from repro.workloads import running_example as RE
from repro.workloads.registry import all_scenarios

SF = 0.004


@pytest.fixture(scope="module")
def questions(spark):
    """(query, db, whynot, alternatives) of the running example, Q10 (its SA
    rewrites a projection), Q4 (its 17 other SAs form one merged group) and D4
    and T2 (their SAs rewrite a flatten, which changes the traced rows)."""
    scns = all_scenarios()
    out = {"RE": (RE.query(), RE.db(spark), RE.whynot_nip(), RE.alternatives())}
    dbs: dict[str, dict] = {}
    for key in ("Q10", "Q4", "D4", "T2"):
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
    """Oracle: each SA's stats (compat columns included), built through the
    shared question cache, are the stats built through a fresh cache of
    its own, which shares nothing. S₁ is aggregated again last, so its
    whole instrumented query comes from the cache."""
    query, db, whynot, alts = questions[key]
    schemas = A.SchemaCache(db)
    sas = enumerate_sas(query, whynot, schemas, alts)
    assert len(sas) > 1
    for sa in sas + sas[:1]:
        tr = trace(sa, sas[0].bt)
        pd.testing.assert_frame_equal(
            _sorted(collect_stats([tr], schemas)),
            _sorted(collect_stats([tr], A.SchemaCache(db))),
        )


@pytest.mark.parametrize("key", ["RE", "Q10", "Q4"])
def test_only_the_stats_queries_are_built(questions, key, monkeypatch):
    """`rp` builds, after SA enumeration, only the queries `collect_stats`
    aggregates: tracing builds nothing and draws no operator id, and every
    operator value built is a subtree of an aggregated query, built once.
    So no SA of a merged group (Q4's) gets an instrumented frame of its
    own."""
    query, db, whynot, alts = questions[key]
    build, built = A.build, Counter()
    aggregated, sizes = set(), []

    def counting(op, inputs, db):
        built[op] += 1
        return build(op, inputs, db)

    def enumerating(*args):
        sas = enumerate_sas(*args)
        monkeypatch.setattr(A, "build", counting)  # from here on
        return sas

    def tracing(*args):
        before = A._next_id()
        tr = trace(*args)
        assert not built and A._next_id() == before + 1
        return tr

    def collecting(group, schemas):
        aggregated.update(A.walk(merge(group)))
        sizes.append(len(group))
        return collect_stats(group, schemas)

    monkeypatch.setattr(msr, "enumerate_sas", enumerating)
    monkeypatch.setattr(msr, "trace", tracing)
    monkeypatch.setattr(msr, "collect_stats", collecting)
    assert msr.approximate_msrs(query, db, whynot, alts)
    assert built and set(built) <= aggregated
    assert set(built.values()) == {1}
    assert (max(sizes) > 1) == (key == "Q4"), sizes


def test_one_cache_serves_two_original_backtraces(questions):
    """The compat SQL of S₁'s backtrace is part of the instrumented operator
    values, so S₁ traced under two different S₁ backtraces and aggregated
    through one cache gets, each time, the stats of a fresh cache."""
    query, db, whynot, alts = questions["RE"]
    schemas = A.SchemaCache(db)
    sas = enumerate_sas(query, whynot, schemas, alts)
    stats = []
    for orig_bt in (sas[0].bt, sas[1].bt, sas[0].bt):
        tr = trace(sas[0], orig_bt)
        stats.append(_sorted(collect_stats([tr], schemas)))
        pd.testing.assert_frame_equal(stats[-1], _sorted(collect_stats([tr], A.SchemaCache(db))))
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
    found = groups([trace(sa, sas[0].bt) for sa in sas], schemas)
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

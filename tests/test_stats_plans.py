"""One stats plan for S₁ and one stats aggregation per group of
row-compatible SAs (DESIGN decision 1).

RP, RPnoSA, WN++ and Conseil aggregate S₁ with the same plan, so the JVM
generates and compiles its code once per question. `rp` aggregates S₁ alone
and then one merged frame per group of row-compatible SAs, so the number of
Spark aggregations does not grow with the number of SAs that rewrite only
selections, projections or the cut aggregation.
"""
import pytest

from repro.baselines import conseil, wnpp
from repro.core import msr
from repro.workloads.registry import all_scenarios

SF = 0.004
# `collect_stats` calls per `rp`, at most (one per SA before merging:
# Q1 6, Q3 12, Q4 16 of 18 SAs, Q6 12, Q10 2)
MAX_CALLS = {"Q1": 3, "Q3": 3, "Q4": 3, "Q6": 3, "Q10": 2}


@pytest.fixture(scope="module")
def dbs():
    return {}


def _question(spark, dbs, key):
    s = all_scenarios()[key]
    if s.group not in dbs:
        dbs[s.group] = s.build_db(spark, SF)
    db = dbs[s.group]
    query, _ = s.build_query()
    return query, db, s.whynot(db, query), s.alternatives()


@pytest.mark.parametrize("key", ["C2", "Q10"])
def test_s1_is_aggregated_with_one_plan(spark, dbs, key, monkeypatch):
    """The frame each algorithm aggregates and collects first, S₁'s (`rp`
    aggregates S₁'s group first), is the same plan for all four."""
    query, db, whynot, alts = _question(spark, dbs, key)
    frame_type = type(spark.range(1))
    to_pandas, collected = frame_type.toPandas, []

    def recording(self):
        collected.append(self)
        return to_pandas(self)

    monkeypatch.setattr(frame_type, "toPandas", recording)
    runs = {
        "rp": lambda: msr.approximate_msrs(query, db, whynot, alts),
        "rpnosa": lambda: msr.approximate_msrs(query, db, whynot, alts, with_sas=False),
        "wnpp": lambda: wnpp.wnpp(query, db, whynot),
        "conseil": lambda: conseil.conseil(query, db, whynot),
    }
    first = {}
    for name, run in runs.items():
        collected.clear()
        run()
        first[name] = collected[0]
    for a in first:
        for b in first:
            assert first[a].sameSemantics(first[b]), (a, b)


@pytest.mark.parametrize("key", sorted(MAX_CALLS))
def test_rp_runs_one_aggregation_per_group(spark, dbs, key, monkeypatch):
    """`rp` aggregates S₁ alone first, and every SA exactly once."""
    query, db, whynot, alts = _question(spark, dbs, key)
    collect_stats, sizes = msr.collect_stats, []

    def counting(group, schemas):
        sizes.append([tr.sa.sa_id for tr in group])
        return collect_stats(group, schemas)

    monkeypatch.setattr(msr, "collect_stats", counting)
    assert msr.approximate_msrs(query, db, whynot, alts)
    assert sizes[0] == [1]
    assert len(sizes) <= MAX_CALLS[key], sizes
    ids = sorted(i for group in sizes for i in group)
    assert ids == list(range(1, len(ids) + 1))

"""Source materialization (``algebra.materialize``): registry databases are
lazily local-checkpointed, and every explanation is unchanged by it."""
import pytest

from repro.baselines.conseil import conseil
from repro.baselines.wnpp import wnpp
from repro.core import algebra as A
from repro.core.msr import approximate_msrs
from repro.workloads import crime, tpch
from repro.workloads import running_example as RE

SF = 0.003


def _answers(query, db, whynot, alts):
    """Ranked explanation lists of every operation, as operator-id sets."""
    return {
        "rp": [e.ops for e in approximate_msrs(query, db, whynot, alts, with_sas=True)],
        "rpnosa": [e.ops for e in approximate_msrs(query, db, whynot, alts, with_sas=False)],
        "wnpp": wnpp(query, db, whynot),
        "conseil": conseil(query, db, whynot),
    }


CASES = {
    "C1": (crime.db, crime.c1_query, crime.c1_whynot, dict),
    "C2": (crime.db, crime.c2_query, crime.c2_whynot, dict),
    "C3": (crime.db, crime.c3_query, crime.c3_whynot, crime.c3_alternatives),
    "RE": (RE.db, lambda: (RE.query(), {}), RE.whynot_nip, RE.alternatives),
}


@pytest.mark.parametrize("key", sorted(CASES))
def test_explanations_identical_on_materialized_db(spark, key):
    load, build_query, whynot, alts = CASES[key]
    raw = load(spark)
    query, _ = build_query()
    want = _answers(query, raw, whynot(), alts())
    got = _answers(query, A.materialize(raw), whynot(), alts())
    assert got == want
    assert want["rp"]  # every case has at least one RP explanation


@pytest.fixture(scope="module")
def nested(spark):
    raw = tpch.db_nested(spark, SF)
    return raw, A.materialize(raw)


def test_tpch_nested_tables_are_single_logical_rdd_leaves(nested):
    raw, mat = nested
    # the source plans carry the lineage that the checkpoint cuts
    raw_plans = " ".join(df._jdf.queryExecution().analyzed().toString() for df in raw.values())
    assert "Join" in raw_plans and "Aggregate" in raw_plans and "Union" in raw_plans
    for name, df in mat.items():
        plan = df._jdf.queryExecution().analyzed()
        assert plan.nodeName() == "LogicalRDD", name
        assert plan.children().isEmpty(), name


def test_tpch_nested_schemas_and_counts_unchanged(nested):
    raw, mat = nested
    assert raw.keys() == mat.keys()
    for name in raw:
        assert mat[name].schema == raw[name].schema, name
        assert mat[name].count() == raw[name].count(), name

"""The type guard of row-compatibility (DESIGN decision 1): two SAs whose
instrumented queries differ only in the SQL of chain items share one merged
frame only if each differing item, and each differing cut-γ key, has one
type. Otherwise the ``CASE _sa`` of the merged query would coerce one SA's
values to the other's type. No registry group has items that differ in
type, so a small synthetic question covers both outcomes."""
import pandas as pd
import pytest

from repro.core import algebra as A
from repro.core import nip as N
from repro.core.alternatives import enumerate_sas
from repro.core.exprs import Arith, a, c
from repro.core.msr import collect_stats, per_sa
from repro.core.tracing import groups, trace

COUNT = [("count", "*", "n")]
# the source attribute `a` (int) and its alternatives: another int and a
# string, or two ints (a double for the computed input, where `s + 1` and
# `b + 1` could analyze to one type)
ALTERNATIVES = {
    ("projection", False): ["b", "s"],
    ("projection", True): ["b", "c"],
    ("aggregate input", False): ["b", "s"],
    ("aggregate input", True): ["b", "c"],
    ("computed input", False): ["b", "d"],
    ("computed input", True): ["b", "c"],
    ("key", False): ["b", "s"],
    ("key", True): ["b", "c"],
}


def _question(where: str):
    """The query and why-not NIP in which the alternatives of `a` rewrite
    ``where``."""
    r = A.TableAccess("r")
    if where == "projection":  # a π item below the cut γ
        return A.GroupAgg(A.Project(r, [("k", "k"), ("v", "a")]), ["k"], COUNT), N.tup(k="x")
    if where == "aggregate input":  # a plain `_in_<out>`
        return A.GroupAgg(r, ["k"], [("count", "a", "n")]), N.tup(k="x")
    if where == "computed input":  # a computed `_in_<out>`
        return A.GroupAgg(r, ["k"], [("count", Arith("+", a("a"), c(1)), "n")]), N.tup(k="x")
    # a cut-γ key, dropped above the γ so that the output schema stays fixed
    return A.Project(A.GroupAgg(r, ["a"], COUNT), [("n", "n")]), N.tup(n=0)


def _sorted(stats: pd.DataFrame) -> pd.DataFrame:
    return stats.sort_values(list(stats.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def db(spark):
    rows = [("x", 1, 2, 3, "p", 0.5), ("x", 4, 5, 6, "q", 1.5), ("y", 7, 8, 9, "p", 2.5)]
    return {"r": spark.createDataFrame(rows, "k string, a int, b int, c int, s string, d double")}


@pytest.mark.parametrize("where, same_type", sorted(ALTERNATIVES))
def test_alternatives_merge_only_with_one_type(db, where, same_type):
    query, whynot = _question(where)
    schemas = A.SchemaCache(db)
    sas = enumerate_sas(query, whynot, schemas, {"a": ALTERNATIVES[where, same_type]})
    assert len(sas) == 3
    found = groups([trace(sa, sas[0].bt) for sa in sas], schemas)
    assert [[tr.sa.sa_id for tr in g] for g in found] == (
        [[1], [2, 3]] if same_type else [[1], [2], [3]])
    for group in found:
        for tr, rows in zip(group, per_sa(collect_stats(group, schemas), group)):
            (alone,) = per_sa(collect_stats([tr], schemas), [tr])
            pd.testing.assert_frame_equal(_sorted(rows), _sorted(alone), check_dtype=False)

"""``algebra.build`` is the one validator of NRAB queries.

Every operator kind given a parameter attribute that its input lacks must
raise ``AnalysisException`` when run. The attribute is ``b``, which a
projection below has dropped: Catalyst would resolve a filter on it through
that projection, and a renaming of a missing column is a no-op in Spark, so
``build`` checks those operators itself.
"""
import pytest
from pyspark.errors import AnalysisException

from repro.core import algebra as A
from repro.core.exprs import cmp

R = A.TableAccess("r")
BELOW = A.Project(R, [("a", "a"), ("s", "s")])  # b is dropped

OPS = {
    "σ": A.Select(BELOW, cmp("b", ">", 15)),
    "π": A.Project(BELOW, [("a", "a"), ("b", "b")]),
    "ρ": A.Rename(BELOW, {"b": "c"}),
    "⋈": A.Join(BELOW, R, [("b", "a")]),
    "γ": A.GroupAgg(BELOW, ["b"], [("count", "*", "n")]),
    "N^T": A.NestTup(BELOW, ["b"], "t"),
    "N^R": A.NestRel(BELOW, ["b"], "t"),
    "F^T": A.FlattenTup(BELOW, "b"),
    "F^I": A.FlattenRel(BELOW, "b"),
}


@pytest.fixture(scope="module")
def db(spark):
    df = spark.createDataFrame([(1, 10, (5,)), (2, 20, (6,))], "a int, b int, s struct<x:int>")
    return {"r": df}


@pytest.mark.parametrize("kind", list(OPS))
def test_absent_parameter_attribute_raises(db, kind):
    with pytest.raises(AnalysisException):
        A.run(OPS[kind], db)


def test_selection_reads_its_own_input(db):
    """The same selection over the table itself is valid."""
    assert A.run(A.Select(R, cmp("b", ">", 15)), db).select("a").collect() == [(2,)]


def test_tuple_flatten_of_a_non_struct_raises(db):
    with pytest.raises(AnalysisException, match="not a struct"):
        A.run(A.FlattenTup(BELOW, "a"), db)
    assert A.run(A.FlattenTup(BELOW, "s"), db).columns == ["a", "x"]

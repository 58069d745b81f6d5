"""NRAB semantics on the paper's running example (Figure 1 → Figure 1b)."""
import pytest

from repro.core import algebra as A
from repro.core.exprs import cmp
from repro.workloads import running_example as RE


@pytest.fixture(scope="module")
def db(spark):
    return RE.db(spark)


def rows(df):
    return [r.asDict(recursive=True) for r in df.collect()]


def test_table_access(db):
    out = rows(A.run(A.TableAccess("person"), db))
    assert len(out) == 2
    assert {r["name"] for r in out} == {"Peter", "Sue"}


def test_flatten_inner(db):
    out = rows(A.run(A.FlattenRel(A.TableAccess("person"), "address2"), db))
    # Peter has 2 address2 entries, Sue has 2 → 4 rows
    assert len(out) == 4
    assert set(out[0]) == {"name", "address1", "city", "year"}


def test_flatten_outer_pads(spark, db):
    import pandas as pd

    empty = spark.createDataFrame([("Bob", [], [])], RE.SCHEMA)
    db2 = {"person": db["person"].unionByName(empty)}
    inner = rows(A.run(A.FlattenRel(A.TableAccess("person"), "address2"), db2))
    outer = rows(A.run(A.FlattenRel(A.TableAccess("person"), "address2", outer=True), db2))
    assert len(outer) == len(inner) + 1
    bob = [r for r in outer if r["name"] == "Bob"][0]
    assert bob["city"] is None and bob["year"] is None


def test_selection(db):
    q = A.Select(A.FlattenRel(A.TableAccess("person"), "address2"), cmp("year", ">=", 2019))
    out = rows(A.run(q, db))
    assert [(r["name"], r["city"]) for r in out] == [("Sue", "LA")]


def test_full_query_result_matches_figure_1b(db):
    out = rows(A.run(RE.query(), db))
    assert out == [{"city": "LA", "nList": [{"name": "Sue"}]}]


def test_query_under_sa_matches_figure_2c(db):
    """Flattening address1 + relaxed year ≥ 2018 yields tree T3 of Figure 2."""
    f = A.FlattenRel(A.TableAccess("person"), "address1")
    s = A.Select(f, cmp("year", ">=", 2018))
    p = A.Project(s, [("name", "name"), ("city", "city")])
    q = A.NestRel(p, ["name"], "nList")
    out = {r["city"]: sorted(x["name"] for x in r["nList"]) for r in A.run(q, db).collect()}
    assert out == {"LA": ["Peter", "Sue"], "NY": ["Sue"]}


def test_tuple_flatten(spark):
    df = spark.createDataFrame([(1, {"a": 10, "b": "x"})], "id int, s struct<a:int,b:string>")
    out = rows(A.run(A.FlattenTup(A.TableAccess("t"), "s"), {"t": df}))
    assert out == [{"id": 1, "a": 10, "b": "x"}]


def test_nest_tuple(spark):
    df = spark.createDataFrame([(1, 10, "x")], "id int, a int, b string")
    out = rows(A.run(A.NestTup(A.TableAccess("t"), ["a", "b"], "s"), {"t": df}))
    assert out == [{"id": 1, "s": {"a": 10, "b": "x"}}]


def test_nest_relation_groups(db):
    p = A.Project(
        A.FlattenRel(A.TableAccess("person"), "address2"),
        [("name", "name"), ("city", "city")],
    )
    q = A.NestRel(p, ["name"], "nList")
    out = {r["city"]: sorted(x["name"] for x in r["nList"]) for r in A.run(q, db).collect()}
    assert out == {"LA": ["Peter", "Sue"], "SF": ["Peter"], "NY": ["Sue"]}


def test_walk_and_labels():
    q = RE.query()
    ops = list(A.walk(q))
    assert [type(o).__name__ for o in ops] == [
        "TableAccess",
        "FlattenRel",
        "Select",
        "Project",
        "NestRel",
    ]
    labs = A.labels(q)
    assert labs[q.op_id].startswith("N^R")


def test_subst_changes_flatten_attr():
    q = RE.query()
    f = [o for o in A.walk(q) if isinstance(o, A.FlattenRel)][0]
    f2 = f.subst({"address2": "address1"})
    assert f2.attr == "address1" and f2.op_id == f.op_id


def test_rewriting_consumes_no_op_id():
    """Rewrites keep every id and draw no new one, so the ids (and labels) of
    queries built later do not depend on how many rewrites ran before."""
    t = A.TableAccess("t")
    ops = [A.Select(t, cmp("a", ">", 1))]
    ops.append(A.Extend(ops[-1], [("e", "a + 1")]))
    ops.append(A.Project(ops[-1], {"a": "a", "b": "b", "s": "s", "r": "r"}))
    ops.append(A.Rename(ops[-1], {"b": "b2"}))
    ops.append(A.FlattenTup(ops[-1], "s"))
    ops.append(A.FlattenRel(ops[-1], "r"))
    ops.append(A.NestTup(ops[-1], ["a"], "ta"))
    ops.append(A.Join(ops[-1], A.TableAccess("u"), [("b2", "c")]))
    ops.append(A.NestRel(ops[-1], ["c"], "cs"))
    ops.append(A.AggPerTuple(ops[-1], "count", "cs", "n"))
    ops.append(A.GroupAgg(ops[-1], ["n"], [("count", "*", "m")]))
    ops.append(A.Dedup(A.Union(ops[-1], ops[-1])))
    q = ops[-1]
    types = {type(o) for o in A.walk(q)}
    assert types == {c for c in vars(A).values()
                     if isinstance(c, type) and issubclass(c, A.Op) and c is not A.Op}
    subst = {o.op_id: {name: name + "_alt" for name in o.param_attrs()} for o in A.walk(q)}
    before = A._next_id()
    for _ in range(5):
        rewritten = A.rewrite(q, subst)
    assert A._next_id() == before + 1
    assert [o.op_id for o in A.walk(rewritten)] == [o.op_id for o in A.walk(q)]
    assert rewritten != q


def test_union_and_dedup(spark):
    df = spark.createDataFrame([(1,), (1,), (2,)], "x int")
    dbl = {"t": df}
    u = A.run(A.Union(A.TableAccess("t"), A.TableAccess("t")), dbl)
    assert u.count() == 6
    d = A.run(A.Dedup(A.TableAccess("t")), dbl)
    assert d.count() == 2


def test_rename(spark):
    df = spark.createDataFrame([(1, 2)], "a int, b int")
    out = A.run(A.Rename(A.TableAccess("t"), {"a": "x"}), {"t": df})
    assert out.columns == ["x", "b"]

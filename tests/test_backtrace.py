"""Schema backtracing (§5.1) — Examples 11 and 12 plus per-operator rules."""
from collections import Counter

import pytest

from repro.core import algebra as A
from repro.core import nip as N
from repro.core.backtrace import backtrace, resolve_source
from repro.core.exprs import Arith, a, cmp
from repro.core.msr import approximate_msrs
from repro.workloads import running_example as RE


@pytest.fixture(scope="module")
def db(spark):
    return RE.db(spark)


@pytest.fixture(scope="module")
def bt(db):
    return backtrace(RE.query(), RE.whynot_nip(), A.SchemaCache(db))


class TestRunningExample:
    def test_table_nip_matches_example11(self, bt):
        """t̄_person = ⟨name:?, address1:?, address2: {{⟨city:NY, year:?⟩, *}}⟩"""
        t = bt.table_nip("person")
        d = t.as_dict()
        assert "address2" in d
        addr = d["address2"]
        assert isinstance(addr, N.Bag) and addr.star
        elem = addr.elems[0].as_dict()
        assert elem["city"] == N.Val("NY")
        assert "address1" not in d or d["address1"].is_trivial()

    def test_table_nip_selects_sue_only(self, bt, db):
        from repro.core.nip import to_spark_pred

        out = db["person"].filter(to_spark_pred(bt.table_nip("person"))).collect()
        assert [r.name for r in out] == ["Sue"]

    def test_level_nip_after_flatten_has_flat_city(self, db):
        q = RE.query()  # fresh query instance: op ids differ from the fixture's
        bt2 = backtrace(q, RE.whynot_nip(), A.SchemaCache(db))
        select = [o for o in A.walk(q) if isinstance(o, A.Select)][0]
        lvl = bt2.level_nips[select.op_id]  # NIP over selection's output
        assert lvl.as_dict()["city"] == N.Val("NY")

    def test_no_deferred_predicates(self, bt):
        assert bt.deferred == []

    def test_resolve_selection_year(self, db):
        """M_sbt: σ.year ↝ person.address2.year (Example 12)."""
        q = RE.query()
        sel = [o for o in A.walk(q) if isinstance(o, A.Select)][0]
        assert resolve_source(sel.child, "year", A.SchemaCache(db)) == ("person", "address2.year")

    def test_resolve_projection_name(self, db):
        q = RE.query()
        proj = [o for o in A.walk(q) if isinstance(o, A.Project)][0]
        assert resolve_source(proj.child, "name", A.SchemaCache(db)) == ("person", "name")

    def test_resolve_flatten_attr(self, db):
        q = RE.query()
        fl = [o for o in A.walk(q) if isinstance(o, A.FlattenRel)][0]
        assert resolve_source(fl.child, "address2", A.SchemaCache(db)) == ("person", "address2")

    def test_one_schema_derivation_per_operator(self, db, monkeypatch):
        """Backtracing, SA pruning and every SA's backtrace share one
        question cache: each distinct operator value's frame is built
        exactly once, on top of its children's cached frames."""
        build, derived = A.build, Counter()

        def counting_build(op, inputs, tables):
            derived[op] += 1
            return build(op, inputs, tables)

        monkeypatch.setattr(A, "build", counting_build)
        approximate_msrs(RE.query(), db, RE.whynot_nip(), RE.alternatives(), with_sas=True)
        assert derived and set(derived.values()) == {1}


class TestOperatorRules:
    def test_project_rename_backtraces(self, spark):
        df = spark.createDataFrame([(1, 2)], "x int, y int")
        q = A.Project(A.TableAccess("t"), [("out", "x")])
        bt = backtrace(q, N.tup(out=1), A.SchemaCache({"t": df}))
        assert bt.table_nip("t").as_dict()["x"] == N.Val(1)

    def test_project_computed_defers(self, spark):
        df = spark.createDataFrame([(1.0, 2.0)], "x double, y double")
        q = A.Project(
            A.TableAccess("t"), [("s", Arith("+", a("x"), a("y")))]
        )
        bt = backtrace(q, N.Tup({"s": N.ValPred(cmp("s", ">", 0))}), A.SchemaCache({"t": df}))
        assert len(bt.deferred) == 1
        assert bt.deferred[0].out_attr == "s"
        assert bt.table_nip("t").is_trivial()

    def test_rename_backtraces(self, spark):
        df = spark.createDataFrame([(1,)], "x int")
        q = A.Rename(A.TableAccess("t"), {"x": "y"})
        bt = backtrace(q, N.tup(y=1), A.SchemaCache({"t": df}))
        assert bt.table_nip("t").as_dict()["x"] == N.Val(1)

    def test_join_splits_by_side(self, spark):
        l = spark.createDataFrame([(1, "a")], "k int, lv string")
        r = spark.createDataFrame([(1, "b")], "k2 int, rv string")
        q = A.Join(A.TableAccess("L"), A.TableAccess("R"), [("k", "k2")])
        bt = backtrace(q, N.tup(lv="a", rv="b"), A.SchemaCache({"L": l, "R": r}))
        assert bt.table_nip("L").as_dict()["lv"] == N.Val("a")
        assert bt.table_nip("R").as_dict()["rv"] == N.Val("b")

    def test_flatten_tup_folds_back(self, spark):
        df = spark.createDataFrame(
            [(1, {"f": "v"})], "id int, s struct<f:string>"
        )
        q = A.FlattenTup(A.TableAccess("t"), "s")
        bt = backtrace(q, N.tup(f="v", id=1), A.SchemaCache({"t": df}))
        d = bt.table_nip("t").as_dict()
        assert d["id"] == N.Val(1)
        assert d["s"].as_dict()["f"] == N.Val("v")

    def test_nest_tup_unfolds(self, spark):
        df = spark.createDataFrame([(1, "x")], "id int, v string")
        q = A.NestTup(A.TableAccess("t"), ["v"], "s")
        bt = backtrace(q, N.Tup({"s": N.tup(v="x")}), A.SchemaCache({"t": df}))
        assert bt.table_nip("t").as_dict()["v"] == N.Val("x")

    def test_groupagg_key_passes_value_defers(self, spark):
        df = spark.createDataFrame([(1, 2.0)], "k int, v double")
        q = A.GroupAgg(A.TableAccess("t"), ["k"], [("sum", "v", "s")])
        bt = backtrace(
            q,
            N.Tup({"k": N.Val(1), "s": N.ValPred(cmp("s", ">", 0))}),
            A.SchemaCache({"t": df}),
        )
        assert bt.table_nip("t").as_dict()["k"] == N.Val(1)
        assert len(bt.deferred) == 1 and bt.deferred[0].op_id == q.op_id

    def test_agg_per_tuple_defers(self, spark):
        df = spark.createDataFrame(
            [("a", [{"x": 1}])], "k string, arr array<struct<x:int>>"
        )
        q = A.AggPerTuple(A.TableAccess("t"), "count", "arr", "cnt", inner="x")
        bt = backtrace(q, N.Tup({"k": N.Val("a"), "cnt": N.Val(0)}), A.SchemaCache({"t": df}))
        assert bt.table_nip("t").as_dict()["k"] == N.Val("a")
        assert [d.out_attr for d in bt.deferred] == ["cnt"]

    def test_union_sends_to_both(self, spark):
        df = spark.createDataFrame([(1,)], "x int")
        q = A.Union(A.TableAccess("a"), A.TableAccess("b"))
        bt = backtrace(q, N.tup(x=1), A.SchemaCache({"a": df, "b": df}))
        assert bt.table_nip("a").as_dict()["x"] == N.Val(1)
        assert bt.table_nip("b").as_dict()["x"] == N.Val(1)

    def test_resolve_through_groupagg(self, spark):
        df = spark.createDataFrame([(1, 2.0)], "k int, v double")
        q = A.GroupAgg(A.TableAccess("t"), ["k"], [("sum", "v", "s")])
        assert resolve_source(q, "s", A.SchemaCache({"t": df})) == ("t", "v")
        assert resolve_source(q, "k", A.SchemaCache({"t": df})) == ("t", "k")

    def test_resolve_computed_is_none(self, spark):
        df = spark.createDataFrame([(1.0, 2.0)], "x double, y double")
        q = A.Project(A.TableAccess("t"), [("s", Arith("+", a("x"), a("y")))])
        assert resolve_source(q, "s", A.SchemaCache({"t": df})) is None


class TestNoSilentApproximation:
    """Backtracing raises where it would otherwise approximate silently."""

    def test_equal_constants_on_one_source_merge(self, spark):
        df = spark.createDataFrame([(1,)], "x int")
        q = A.Project(A.TableAccess("t"), [("a", "x"), ("b", "x")])
        bt = backtrace(q, N.tup(a=1, b=1), A.SchemaCache({"t": df}))
        assert bt.table_nip("t").as_dict()["x"] == N.Val(1)

    @pytest.mark.parametrize("other", [N.Val(2), N.ValPred(cmp("b", ">", 0))],
                             ids=["constant", "value-predicate"])
    def test_unequal_constraints_on_one_source_raise(self, spark, other):
        """x = 1 and x = 2 (or x > 0) is no NIP: keeping the first constraint
        would explain a different missing answer."""
        df = spark.createDataFrame([(1,)], "x int")
        q = A.Project(A.TableAccess("t"), [("a", "x"), ("b", "x")])
        with pytest.raises(NotImplementedError):
            backtrace(q, N.Tup({"a": N.Val(1), "b": other}), A.SchemaCache({"t": df}))

    def test_resolving_through_a_union_raises(self, spark):
        """An attribute of a union comes from both inputs; resolving it
        through the left one alone would hide the right one's source."""
        df = spark.createDataFrame([(1,)], "x int")
        q = A.Select(A.Union(A.TableAccess("a"), A.TableAccess("b")), cmp("x", ">", 0))
        schemas = A.SchemaCache({"a": df, "b": df})
        with pytest.raises(NotImplementedError):
            resolve_source(q, "x", schemas)
        bt = backtrace(q, N.tup(x=1), schemas)  # the NIP still goes to both inputs
        assert bt.table_nip("a") == bt.table_nip("b") == N.tup(x=1)

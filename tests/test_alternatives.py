"""Schema alternative enumeration and pruning (§5.2, Figure 3, Examples 13–15)."""
import warnings
from dataclasses import dataclass

import pytest
from pyspark.errors import ParseException

from repro.core import algebra as A
from repro.core import alternatives
from repro.core import nip as N
from repro.core.alternatives import _derive_op_level_name, enumerate_sas
from repro.core.exprs import Pred, cmp, sql_path
from repro.workloads import running_example as RE


@pytest.fixture(scope="module")
def db(spark):
    return RE.db(spark)


class TestRunningExample:
    def test_two_sas_survive(self, db):
        """Figure 3: only S1 (original) and S2 (flatten address1) remain."""
        q = RE.query()
        sas = enumerate_sas(q, RE.whynot_nip(), A.SchemaCache(db), RE.alternatives())
        assert len(sas) == 2
        assert not sas[0].changed_ops
        assert sas[1].changed_ops

    def test_sa2_changes_only_flatten(self, db):
        q = RE.query()
        sas = enumerate_sas(q, RE.whynot_nip(), A.SchemaCache(db), RE.alternatives())
        fl = [o for o in A.walk(q) if isinstance(o, A.FlattenRel)][0]
        assert sas[1].changed_ops == frozenset({fl.op_id})

    def test_sa2_query_flattens_address1(self, db):
        q = RE.query()
        sas = enumerate_sas(q, RE.whynot_nip(), A.SchemaCache(db), RE.alternatives())
        fl2 = [o for o in A.walk(sas[1].query) if isinstance(o, A.FlattenRel)][0]
        assert fl2.attr == "address1"

    def test_sa2_backtrace_swaps_address(self, db):
        """Example 15: t̄₂ constrains address1 instead of address2."""
        q = RE.query()
        sas = enumerate_sas(q, RE.whynot_nip(), A.SchemaCache(db), RE.alternatives())
        t2 = sas[1].bt.table_nip("person").as_dict()
        assert isinstance(t2["address1"], N.Bag)
        assert "address2" not in t2 or t2["address2"].is_trivial()

    def test_sa2_compatibles_differ(self, db):
        """Under S2 BOTH persons are consistent at table access (Figure 4)."""
        from repro.core.nip import to_spark_pred

        q = RE.query()
        sas = enumerate_sas(q, RE.whynot_nip(), A.SchemaCache(db), RE.alternatives())
        s1 = db["person"].filter(to_spark_pred(sas[0].bt.table_nip("person")))
        s2 = db["person"].filter(to_spark_pred(sas[1].bt.table_nip("person")))
        assert sorted(r.name for r in s1.collect()) == ["Sue"]
        assert sorted(r.name for r in s2.collect()) == ["Peter", "Sue"]

    def test_no_alternatives_yields_only_original(self, db):
        q = RE.query()
        sas = enumerate_sas(q, RE.whynot_nip(), A.SchemaCache(db), {})
        assert len(sas) == 1 and not sas[0].changed_ops


class TestPruning:
    def test_schema_breaking_alternative_pruned(self, spark):
        """An alternative whose element fields differ breaks the output schema."""
        from pyspark.sql import types as T

        schema = T.StructType(
            [
                T.StructField("name", T.StringType()),
                T.StructField(
                    "addr",
                    T.ArrayType(T.StructType([T.StructField("city", T.StringType())])),
                ),
                T.StructField(
                    "other",
                    T.ArrayType(T.StructType([T.StructField("town", T.StringType())])),
                ),
            ]
        )
        df = spark.createDataFrame([("x", [("NY",)], [("LA",)])], schema)
        q = A.Project(
            A.FlattenRel(A.TableAccess("t"), "addr"),
            [("name", "name"), ("city", "city")],
        )
        sas = enumerate_sas(
            q, N.tup(city="NY"), A.SchemaCache({"t": df}), {"addr": ["other"]}
        )
        # flattening `other` yields column `town`, so π[city] fails → pruned
        assert len(sas) == 1

    def test_type_mismatch_pruned(self, spark):
        df = spark.createDataFrame([(1, "a")], "x int, y string")
        q = A.Project(A.TableAccess("t"), [("out", "x")])
        sas = enumerate_sas(q, N.tup(out=1), A.SchemaCache({"t": df}), {"x": ["y"]})
        # substituting int x by string y changes the output type → pruned
        assert len(sas) == 1

    def test_valid_same_type_alternative_kept(self, spark):
        df = spark.createDataFrame([(1, 2)], "x int, y int")
        q = A.Project(A.TableAccess("t"), [("out", "x")])
        sas = enumerate_sas(q, N.tup(out=2), A.SchemaCache({"t": df}), {"x": ["y"]})
        assert len(sas) == 2
        assert sas[1].bt.table_nip("t").as_dict()["y"] == N.Val(2)

    def test_selection_attr_alternative(self, spark):
        df = spark.createDataFrame([(1.0, 2.0)], "tax double, disc double")
        q = A.Select(A.TableAccess("t"), cmp("tax", "<", 1.5))
        sas = enumerate_sas(q, N.Tup({}), A.SchemaCache({"t": df}), {"tax": ["disc"]})
        assert len(sas) == 2
        sel2 = [o for o in A.walk(sas[1].query) if isinstance(o, A.Select)][0]
        assert "disc" in sel2.theta.attrs()

    def test_every_combination_examined(self, spark):
        """Each of the 4 × 4 choices for two projection references is a
        valid SA, and every one of them is kept: there is no cap."""
        df = spark.createDataFrame([(1, 2, 3, 4)], "a int, b int, c int, d int")
        q = A.Project(
            A.TableAccess("t"), [("o1", "a"), ("o2", "b")]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sas = enumerate_sas(
                q,
                N.Tup({}),
                A.SchemaCache({"t": df}),
                {"a": ["b", "c", "d"], "b": ["a", "c", "d"]},
            )
        assert [sa.sa_id for sa in sas] == list(range(1, 17))
        items = {tuple(repr(e) for _, e in sa.query.items) for sa in sas}
        assert items == {(x, y) for x in "abcd" for y in "bacd"}


    def test_join_key_resolves_against_its_own_side(self, spark):
        """A table access resolves only its own columns: the right key of
        ``c ⋈ F^I(o, items)`` comes from ``o.items.ik``, not from ``c``."""
        c = spark.createDataFrame([(1,)], "ck int")
        o = spark.createDataFrame([([(1, 2)],)], "items array<struct<ik:int, x:int>>")
        q = A.Join(A.TableAccess("c"), A.FlattenRel(A.TableAccess("o"), "items"),
                   [("ck", "ik")])
        sas = enumerate_sas(q, N.Tup({}), A.SchemaCache({"c": c, "o": o}),
                            {"items.ik": ["items.x"]})
        assert [sa.desc for sa in sas] == ["original", f"op{q.op_id}:ik→x"]
        assert sas[1].query.cond == (("ck", "x"),)

    @pytest.fixture(scope="class")
    def nested(self, spark):
        from pyspark.sql import types as T

        city = T.StructType([T.StructField("city", T.StringType())])
        schema = T.StructType([
            T.StructField("name", T.StringType()),
            T.StructField("addrs", T.ArrayType(city)),
            T.StructField("home", city),
        ])
        df = spark.createDataFrame([("x", [("NY",)], ("LA",))], schema)
        return A.SchemaCache({"t": df})

    def test_relation_flatten_of_a_struct_pruned(self, nested):
        """Exploding a struct is invalid: the SA is pruned by Spark's analysis."""
        q = A.Project(
            A.FlattenRel(A.TableAccess("t"), "addrs"), [("name", "name"), ("city", "city")]
        )
        sas = enumerate_sas(q, N.tup(city="NY"), nested, {"addrs": ["home"]})
        assert len(sas) == 1

    def test_tuple_flatten_of_an_array_pruned(self, nested):
        """Promoting the fields of an array is invalid: the SA is pruned by
        ``algebra.build``'s own check."""
        q = A.Project(
            A.FlattenTup(A.TableAccess("t"), "home"), [("name", "name"), ("city", "city")]
        )
        sas = enumerate_sas(q, N.tup(city="LA"), nested, {"home": ["addrs"]})
        assert len(sas) == 1

    def test_error_in_a_valid_sa_is_raised(self, spark, monkeypatch):
        """A failure past validation is a bug, not a pruned SA."""
        df = spark.createDataFrame([(1, 2)], "x int, y int")
        q = A.Project(A.TableAccess("t"), [("out", "x")])
        real = alternatives.backtrace

        def backtrace(query, whynot, schemas):
            if query is not q:
                raise RuntimeError("backtrace failed")
            return real(query, whynot, schemas)

        monkeypatch.setattr(alternatives, "backtrace", backtrace)
        with pytest.raises(RuntimeError, match="backtrace failed"):
            enumerate_sas(q, N.tup(out=2), A.SchemaCache({"t": df}), {"x": ["y"]})


    def test_malformed_sql_is_raised(self, spark):
        """Spark's ``ParseException`` is an ``AnalysisException``: SQL text
        that does not parse is a compiler bug and must not prune the SA."""

        @dataclass(frozen=True)
        class NotNull(Pred):
            path: str

            def attrs(self):
                return {self.path}

            def subst(self, mapping):
                return NotNull(mapping.get(self.path, self.path))

            def to_sql(self):  # well-formed for `x` only
                return f"({sql_path(self.path)} IS NOT NULL" + (")" if self.path == "x" else "")

        df = spark.createDataFrame([(1, 2)], "x int, y int")
        q = A.Select(A.TableAccess("t"), NotNull("x"))
        cache = A.SchemaCache({"t": df})
        assert len(enumerate_sas(q, N.tup(x=1), cache, {})) == 1
        with pytest.raises(ParseException):
            enumerate_sas(q, N.tup(x=1), cache, {"x": ["y"]})


class TestDeriveName:
    def test_direct(self):
        assert _derive_op_level_name("address2", "address2", "address1") == "address1"

    def test_nested_shared_prefix(self):
        assert (
            _derive_op_level_name("l_tax", "o_lineitems.l_tax", "o_lineitems.l_discount")
            == "l_discount"
        )

    def test_cross_parent(self):
        assert (
            _derive_op_level_name(
                "place.country", "place.country", "user.location"
            )
            == "user.location"
        )

    def test_fallback_leaf_swap(self):
        assert _derive_op_level_name("x.y", "q.y", "q.z") == "x.z"

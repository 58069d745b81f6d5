"""Expression AST: attrs, substitution, python evaluation, Spark SQL compilation."""
import numpy as np
import pytest

from repro.core.exprs import (
    TRUE,
    And,
    Arith,
    Attr,
    Cmp,
    Const,
    Like,
    Or,
    a,
    c,
    cmp,
    sql_lit,
    sql_path,
)


class TestAttrs:
    def test_attr_refs(self):
        assert a("x").attrs() == {"x"}

    def test_cmp_refs(self):
        assert cmp("x", "<", 5).attrs() == {"x"}

    def test_attr_to_attr_cmp_refs(self):
        assert cmp("x", "<", a("y")).attrs() == {"x", "y"}

    def test_arith_refs(self):
        e = Arith("*", a("p"), Arith("-", Const(1.0), a("d")))
        assert e.attrs() == {"p", "d"}

    def test_and_or_refs(self):
        e = And(cmp("x", ">", 1), Or(cmp("y", "<", 2), cmp("z", "=", 3)))
        assert e.attrs() == {"x", "y", "z"}

    def test_like_refs(self):
        assert Like(a("t"), "%x%").attrs() == {"t"}

    def test_true_refs(self):
        assert TRUE.attrs() == set()


class TestSubst:
    def test_attr_subst(self):
        assert a("x").subst({"x": "y"}) == a("y")

    def test_attr_prefix_subst(self):
        assert a("addr.city").subst({"addr": "addr2"}) == a("addr2.city")

    def test_attr_no_match(self):
        assert a("x").subst({"y": "z"}) == a("x")

    def test_cmp_subst(self):
        assert cmp("x", "<", 5).subst({"x": "y"}) == cmp("y", "<", 5)

    def test_arith_subst(self):
        e = Arith("*", a("p"), a("d")).subst({"d": "t"})
        assert e.attrs() == {"p", "t"}

    def test_and_subst(self):
        e = And(cmp("x", ">", 1), cmp("x", "<", 9)).subst({"x": "y"})
        assert e.attrs() == {"y"}

    def test_const_unchanged(self):
        assert c(5).subst({"5": "6"}) == c(5)


class TestHolds:
    def test_cmp_holds(self):
        assert cmp("v", ">", 3).holds(4)
        assert not cmp("v", ">", 3).holds(3)
        assert cmp("v", "=", "x").holds("x")
        assert cmp("v", "!=", "x").holds("y")
        assert not cmp("v", "<=", 2).holds(None)

    def test_and_or_holds(self):
        e = And(cmp("v", ">=", 1), cmp("v", "<=", 3))
        assert e.holds(2) and not e.holds(4)
        o = Or(cmp("v", "<", 0), cmp("v", ">", 10))
        assert o.holds(-1) and o.holds(11) and not o.holds(5)

    def test_like_holds(self):
        assert Like(a("t"), "%BTS%").holds("I love BTS!")
        assert not Like(a("t"), "%BTS%").holds("nothing")
        assert Like(a("t"), "%Dey%", negated=True).holds("Smith")
        assert not Like(a("t"), "%Dey%", negated=True).holds("A Dey")
        assert not Like(a("t"), "%x%").holds(None)

    @pytest.mark.parametrize("missing", [None, float("nan"), np.float64("nan")])
    def test_missing_value_fails_every_predicate(self, missing):
        """pandas reads a null string key as NaN: it fails like None does,
        instead of raising on ``nan < "x"``."""
        for op in ("=", "!=", "<", "<=", ">", ">="):
            assert not cmp("k", op, "x").holds(missing)
            assert not cmp("k", op, 3).holds(missing)
        assert not Like(a("k"), "%").holds(missing)
        assert not Like(a("k"), "x%", negated=True).holds(missing)


class TestSparkCompilation:
    def test_cmp_compiles(self, spark):
        df = spark.createDataFrame([(1,), (5,)], "x int")
        assert df.filter(cmp("x", ">", 3).to_sql()).count() == 1

    def test_arith_compiles(self, spark):
        df = spark.createDataFrame([(10.0, 0.1)], "p double, d double")
        e = Arith("*", a("p"), Arith("-", Const(1.0), a("d")))
        row = df.selectExpr(f"{e.to_sql()} AS v").collect()[0]
        assert row["v"] == pytest.approx(9.0)

    def test_nested_attr_compiles(self, spark):
        df = spark.createDataFrame([((1,),)], "s struct<x:int>")
        assert df.filter(cmp("s.x", "=", 1).to_sql()).count() == 1

    def test_like_compiles(self, spark):
        df = spark.createDataFrame([("hello BTS",), ("bye",)], "t string")
        assert df.filter(Like(a("t"), "%BTS%").to_sql()).count() == 1

    def test_true_compiles(self, spark):
        df = spark.createDataFrame([(1,)], "x int")
        assert df.filter(TRUE.to_sql()).count() == 1

    def test_repr_roundtrip_strings(self):
        assert "year >= 2019" in repr(cmp("year", ">=", 2019))
        assert "∧" in repr(And(cmp("a", ">", 1), cmp("b", "<", 2)))


class TestSqlText:
    """``sql_lit`` gives a constant the type ``F.lit`` would; ``sql_path``
    quotes every path segment. Checked against Spark's own analysis."""

    @pytest.mark.parametrize("value, type_name", [
        (24.0, "double"), (0.05, "double"), (1e-05, "double"), (-2.5e16, "double"),
        (7, "int"), (3_000_000_000, "bigint"), (True, "boolean"), (False, "boolean"),
        ("x", "string"),
    ])
    def test_literal_type(self, spark, value, type_name):
        df = spark.range(1).selectExpr(f"{sql_lit(value)} AS v")
        assert df.schema["v"].dataType.simpleString() == type_name
        assert df.collect()[0]["v"] == value

    def test_bare_decimal_is_not_double(self, spark):
        """Why floats carry the ``D`` suffix."""
        df = spark.range(1).selectExpr("24.0 AS v")
        assert df.schema["v"].dataType.simpleString() == "decimal(3,1)"

    @pytest.mark.parametrize("text", [
        "it's", "back\\slash", "50%_off", "\\'", "''", "\\n", "tab\there", "line\nbreak",
        "ünï", "",
    ])
    def test_string_round_trips(self, spark, text):
        assert spark.range(1).selectExpr(f"{sql_lit(text)} AS v").collect()[0]["v"] == text

    def test_string_equality_with_special_characters(self, spark):
        df = spark.createDataFrame([("it's 50%",), ("a\\b",), ("x",)], "t string")
        assert [r.t for r in df.filter(cmp("t", "=", "it's 50%").to_sql()).collect()] == [
            "it's 50%"]
        assert [r.t for r in df.filter(cmp("t", "=", "a\\b").to_sql()).collect()] == ["a\\b"]

    def test_path_segments_quoted(self, spark):
        assert sql_path("s.x") == "`s`.`x`"
        df = spark.createDataFrame([((1,), 2)], "s struct<x:int>, `select` int")
        assert df.filter(cmp("select", "=", 2).to_sql()).count() == 1
        assert df.filter(cmp("s.x", "=", a("select")).to_sql()).count() == 0

    def test_and_or_empty(self):
        assert And().to_sql() == "true" and Or().to_sql() == "false"

"""NIP construction and matching — Definitions 3 and 4, Examples 5–7."""
import random

import pytest

from repro.core import nip as N
from repro.core.exprs import Like, a, c, cmp


def t_sue():
    return {
        "name": "Sue",
        "address1": [{"city": "LA", "year": 2019}, {"city": "NY", "year": 2018}],
        "address2": [{"city": "LA", "year": 2019}, {"city": "NY", "year": 2018}],
    }


class TestBasics:
    def test_wild_matches_anything(self):
        assert N.matches(42, N.WILD)
        assert N.matches(None, N.WILD)
        assert N.matches([{"x": 1}], N.WILD)

    def test_val(self):
        assert N.matches("NY", N.Val("NY"))
        assert not N.matches("LA", N.Val("NY"))

    def test_valpred(self):
        p = N.ValPred(cmp("v", ">", 0.45))
        assert N.matches(0.5, p)
        assert not N.matches(0.4, p)
        assert not N.matches(None, p)

    def test_tuple_fields_implicitly_wild(self):
        assert N.matches(t_sue(), N.tup(name="Sue"))
        assert not N.matches(t_sue(), N.tup(name="Peter"))

    def test_tuple_on_none_fails(self):
        assert not N.matches(None, N.tup(name="Sue"))


class TestBagMatching:
    def test_example6_star_matches(self):
        """t_ex = ⟨city: NY, nList: {{?, *}}⟩ matches Sue²+Peter bag."""
        t = {
            "city": "NY",
            "nList": [{"name": "Sue"}, {"name": "Sue"}, {"name": "Peter"}],
        }
        t_ex = N.Tup({"city": N.Val("NY"), "nList": N.Bag([N.WILD], star=True)})
        assert N.matches(t, t_ex)

    def test_example6_two_placeholders_fail_on_multiplicity(self):
        """t'_ex = ⟨city: NY, nList: {{?, ?}}⟩ does NOT match a 3-element bag."""
        t = {
            "city": "NY",
            "nList": [{"name": "Sue"}, {"name": "Sue"}, {"name": "Peter"}],
        }
        t_ex2 = N.Tup({"city": N.Val("NY"), "nList": N.Bag([N.WILD, N.WILD])})
        assert not N.matches(t, t_ex2)

    def test_exact_bag_no_star(self):
        nip = N.Bag([N.tup(name="Sue"), N.tup(name="Peter")])
        assert N.matches([{"name": "Peter"}, {"name": "Sue"}], nip)
        assert not N.matches([{"name": "Sue"}], nip)
        assert not N.matches(
            [{"name": "Sue"}, {"name": "Peter"}, {"name": "Bob"}], nip
        )

    def test_example7_nested_match(self):
        t = N.Tup(
            {
                "name": N.Val("Sue"),
                "address1": N.WILD,
                "address2": N.Bag(
                    [N.Tup({"city": N.WILD, "year": N.Val(2019)})], star=True
                ),
            }
        )
        assert N.matches(t_sue(), t)

    def test_bag_element_needs_distinct_partners(self):
        nip = N.Bag([N.tup(name="Sue"), N.tup(name="Sue")], star=True)
        assert not N.matches([{"name": "Sue"}], nip)
        assert N.matches([{"name": "Sue"}, {"name": "Sue"}], nip)

    def test_empty_bag_pattern(self):
        assert N.matches([], N.Bag([]))
        assert not N.matches([{"name": "x"}], N.Bag([]))
        assert N.matches([], N.Bag([], star=True))

    def test_bag_on_none_fails(self):
        assert not N.matches(None, N.Bag([N.WILD], star=True))


class TestTriviality:
    def test_wild_trivial(self):
        assert N.WILD.is_trivial()

    def test_val_not_trivial(self):
        assert not N.Val(1).is_trivial()

    def test_tup_of_wilds_trivial(self):
        assert N.Tup({"a": N.WILD}).is_trivial()
        assert not N.tup(a=1).is_trivial()

    def test_star_only_bag_trivial(self):
        assert N.Bag([], star=True).is_trivial()
        assert not N.Bag([N.WILD], star=True).is_trivial()


class TestSparkCompilation:
    @pytest.fixture(scope="class")
    def person(self, spark):
        from repro.workloads.running_example import db

        return db(spark)["person"]

    def test_flat_value(self, person):
        pred = N.to_spark_pred(N.tup(name="Sue"))
        assert [r.name for r in person.filter(pred).collect()] == ["Sue"]

    def test_nested_bag_exists(self, person):
        nip = N.Tup(
            {"address2": N.Bag([N.Tup({"city": N.Val("NY")})], star=True)}
        )
        out = person.filter(N.to_spark_pred(nip)).collect()
        assert [r.name for r in out] == ["Sue"]

    def test_nested_bag_no_match(self, person):
        nip = N.Tup(
            {"address2": N.Bag([N.Tup({"city": N.Val("Boston")})], star=True)}
        )
        assert person.filter(N.to_spark_pred(nip)).count() == 0

    def test_conjunction_of_fields(self, person):
        nip = N.Tup(
            {
                "name": N.Val("Sue"),
                "address2": N.Bag(
                    [N.Tup({"city": N.Val("NY"), "year": N.Val(2018)})], star=True
                ),
            }
        )
        assert person.filter(N.to_spark_pred(nip)).count() == 1

    def test_valpred_compiles(self, spark):
        df = spark.createDataFrame([(0.5,), (0.2,)], "v double")
        nip = N.Tup({"v": N.ValPred(cmp("v", ">", 0.45))})
        assert df.filter(N.to_spark_pred(nip)).count() == 1

    def test_null_toplevel_fails_constraint(self, spark):
        df = spark.createDataFrame([(None,), ("NY",)], "city string")
        nip = N.tup(city="NY")
        assert df.filter(N.to_spark_pred(nip)).count() == 1

    def test_trivial_nip_keeps_all(self, person):
        nip = N.Tup({"name": N.WILD})
        assert person.filter(N.to_spark_pred(nip)).count() == 2

    def test_uncompilable_value_predicate_raises(self, spark):
        """``_c`` is the only key-constraint check: a predicate it cannot
        express must not turn into a match-everything flag."""
        nip = N.Tup({"t": N.ValPred(Like(a("t"), "%x%"))})
        with pytest.raises(NotImplementedError, match="does not compile"):
            N.to_spark_pred(nip)
        with pytest.raises(NotImplementedError):
            N.to_spark_pred(N.Tup({"v": N.ValPred(cmp("v", "<", a("w")))}))


# generated rows and NIPs for the compiled-vs-matcher check
SCHEMA = (
    "id int, k int, s string, d double, "
    "b array<struct<x:int, t:string, inner:array<struct<y:int>>>>, "
    "st struct<y:int>"
)
STRINGS = [None, "it's", "a\\b", "50%", "x", "", "'%\\'"]
CMP_OPS = ["=", "!=", "<", "<=", ">", ">="]


def _some(rng, make, most):
    """None, an empty list, or (most often) 1..``most`` items from ``make``."""
    r = rng.random()
    if r < 0.3:
        return None if r < 0.15 else []
    return [make() for _ in range(rng.randint(1, most))]


def _row(rng, i):
    def elem():
        if rng.random() < 0.1:
            return None
        inner = _some(rng, lambda: rng.choice([None, {"y": rng.choice([None, 0, 1])}]), 2)
        return {"x": rng.choice([None, 0, 1, 2]), "t": rng.choice(STRINGS), "inner": inner}

    return {"id": i, "k": rng.choice([None, 0, 1, 2, 3]), "s": rng.choice(STRINGS),
            "d": rng.choice([None, -1.5, 0.0, 0.45, 2.0]), "b": _some(rng, elem, 3),
            "st": rng.choice([None, {"y": None}, {"y": 0}, {"y": 1}])}


def _scalar(rng, values):
    """A Val, a comparison against a constant, or ``?``."""
    values = [v for v in values if v is not None]
    kind = rng.random()
    if kind < 0.4:
        return N.Val(rng.choice(values))
    if kind < 0.85:
        return N.ValPred(cmp("v", rng.choice(CMP_OPS), rng.choice(values)))
    return N.WILD


def _nip(rng, seen):
    """A top-level NIP whose bags all have a ``*`` and pairwise exclusive
    explicit elements (distinct ``x`` constants), or a single ``?`` or
    trivial-tuple element, or are ``{{}}`` or ``{{*}}``."""
    fields = {}
    for name, values in (("k", [0, 1, 2, 3]), ("s", STRINGS), ("d", [-1.5, 0.0, 0.45, 2.0])):
        if rng.random() < 0.4:
            fields[name] = _scalar(rng, values)
            seen.add(type(fields[name]).__name__)
    if rng.random() < 0.4:  # a nullable struct column, constrained or trivially
        if rng.random() < 0.5:
            fields["st"] = rng.choice([N.Tup({}), N.Tup({"y": N.WILD})])
            seen.add("trivial tuple")
        else:
            fields["st"] = N.tup(y=rng.choice([0, 1]))
    r = rng.random()
    if r < 0.2:  # bags that need no element, over null and empty relations
        fields["b"] = N.Bag([], star=r < 0.1)
        seen.add("{{*}}" if r < 0.1 else "{{}}")
    elif r < 0.32:  # one element of any value, null elements included
        fields["b"] = N.Bag([rng.choice([N.WILD, N.Tup({}), N.Tup({"x": N.WILD})])], star=True)
        seen.add("{{?, *}}")
    elif rng.random() < 0.7:
        elems = []
        for x in rng.sample([0, 1, 2], rng.randint(1, 2)):
            el = {"x": N.Val(x)}
            if rng.random() < 0.4:
                el["t"] = _scalar(rng, STRINGS)
            if rng.random() < 0.5:
                el["inner"] = N.Bag([rng.choice([N.WILD, N.Tup({"y": N.WILD}),
                                                 N.tup(y=rng.choice([0, 1]))])], star=True)
                seen.add("bag in bag")
            elems.append(N.Tup(el))
        seen.add(f"{len(elems)}-element bag")
        fields["b"] = N.Bag(elems, star=True)
    return N.Tup(fields)


def test_compiled_nip_agrees_with_matcher(spark):
    """``df.filter(to_spark_pred(nip))`` keeps exactly the rows that the
    Python matcher ``matches`` accepts, on generated rows and NIPs: nulls
    at every level, strings with ``'``, ``\\`` and ``%``, value predicates,
    ``?``, trivial tuples over null structs and null elements, ``{{}}`` and
    ``{{*}}`` over null and empty relations, and bags inside bags. The NIPs
    stay in the fragment where the compiled bag check, an existential per
    element without multiplicities (module docstring), is exact."""
    import random

    rng = random.Random(7)
    rows = [_row(rng, i) for i in range(60)]
    df = spark.createDataFrame(rows, SCHEMA).cache()
    seen = set()
    for _ in range(40):
        nip = _nip(rng, seen)
        got = sorted(r.id for r in df.filter(N.to_spark_pred(nip)).select("id").collect())
        assert got == [r["id"] for r in rows if N.matches(r, nip)], nip
    df.unpersist()
    assert seen == {"Val", "ValPred", "Wild", "{{?, *}}", "bag in bag", "{{}}", "{{*}}",
                    "trivial tuple", "1-element bag", "2-element bag"}

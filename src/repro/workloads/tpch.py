"""TPC-H scenarios Q1/Q3/Q4/Q6/Q10/Q13 (Table 9) on nested and flat data.

The nested schema follows [35]: lineitems are nested into orders
(``nestedOrders.o_lineitems``). We extend the TPC-H-lite generators with
``l_commitdate``/``l_receiptdate``, ``o_shippriority`` and a ``nation``
table, and plant the gold-standard rows each why-not question targets
(order 4986467 for Q3, customer 61402 for Q10, an order-less customer for
Q13). Every order is guaranteed at least one lineitem — real TPC-H enforces
this referential cardinality (1–7 lineitems per order), and it keeps
inner-flatten relaxations out of the aggregate explanations, as in the
paper.

Injected errors (blue in Table 9) are marked ``# ERROR`` below; the
unmodified query is the gold standard.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .. import synth_data
from ..core import algebra as A
from ..core import nip as N
from ..core.exprs import And, Arith, Const, Like, a, cmp

# planted keys
Q3_ORDER = 4986467
Q10_CUST = 61402
Q13_CUST = 888888

LI_COLS = [
    "l_orderkey", "l_partkey", "l_linenumber", "l_quantity", "l_extendedprice",
    "l_discount", "l_tax", "l_returnflag", "l_linestatus", "l_shipdate",
    "l_commitdate", "l_receiptdate",
]


def _enrich_lineitem(li: DataFrame) -> DataFrame:
    """Add commit/receipt dates deterministically derived from the shipdate."""
    li = li.withColumn(
        "l_commitdate",
        F.expr("l_shipdate - make_interval(0,0,0, abs(hash(l_orderkey, l_linenumber)) % 45)"),
    )
    li = li.withColumn(
        "l_receiptdate",
        F.expr("l_shipdate + make_interval(0,0,0, 1 + abs(hash(l_partkey, l_linenumber)) % 30)"),
    )
    return li


def _cover_orders(li: DataFrame, orders: DataFrame) -> DataFrame:
    """Guarantee every order has at least one lineitem (TPC-H's referential
    cardinality: each order owns 1–7 lineitems). Without this, relaxing an
    inner flatten could contribute spurious padded rows to aggregates —
    which real TPC-H data never exhibits."""
    missing = orders.join(li, orders.o_orderkey == li.l_orderkey, "left_anti")
    fallback = missing.select(
        F.col("o_orderkey").alias("l_orderkey"),
        F.lit(1).alias("l_partkey"),
        F.lit(1).alias("l_linenumber"),
        F.lit(1.0).alias("l_quantity"),
        F.lit(1000.0).alias("l_extendedprice"),
        F.lit(0.05).alias("l_discount"),
        F.lit(0.04).alias("l_tax"),
        F.lit("N").alias("l_returnflag"),
        F.lit("O").alias("l_linestatus"),
        F.expr("o_orderdate + make_interval(0,0,0,30)").alias("l_shipdate"),
        F.expr("o_orderdate + make_interval(0,0,0,20)").alias("l_commitdate"),
        F.expr("o_orderdate + make_interval(0,0,0,40)").alias("l_receiptdate"),
    )
    return li.unionByName(fallback)


def _planted_lineitems() -> pd.DataFrame:
    ts = pd.Timestamp
    rows = [
        # Q3: order 4986467 — commitdates pass the intended > 1995-03-15 but
        # fail the typo'd > 1995-03-25
        dict(l_orderkey=Q3_ORDER, l_partkey=1, l_linenumber=1, l_quantity=10.0,
             l_extendedprice=1000.0, l_discount=0.05, l_tax=0.04, l_returnflag="N",
             l_linestatus="O", l_shipdate=ts("1995-03-10"),
             l_commitdate=ts("1995-03-20"), l_receiptdate=ts("1995-03-22")),
        dict(l_orderkey=Q3_ORDER, l_partkey=2, l_linenumber=2, l_quantity=5.0,
             l_extendedprice=2000.0, l_discount=0.10, l_tax=0.02, l_returnflag="N",
             l_linestatus="O", l_shipdate=ts("1995-03-12"),
             l_commitdate=ts("1995-03-18"), l_receiptdate=ts("1995-03-21")),
        # Q10: customer 61402's orders — returned items ('R'), positive revenue
        dict(l_orderkey=61402001, l_partkey=3, l_linenumber=1, l_quantity=7.0,
             l_extendedprice=5000.0, l_discount=0.05, l_tax=0.03, l_returnflag="R",
             l_linestatus="F", l_shipdate=ts("1997-11-20"),
             l_commitdate=ts("1997-11-10"), l_receiptdate=ts("1997-11-25")),
        dict(l_orderkey=61402002, l_partkey=4, l_linenumber=1, l_quantity=3.0,
             l_extendedprice=3000.0, l_discount=0.06, l_tax=0.02, l_returnflag="R",
             l_linestatus="F", l_shipdate=ts("1993-11-20"),
             l_commitdate=ts("1993-11-10"), l_receiptdate=ts("1993-11-25")),
    ]
    return pd.DataFrame(rows)


def _planted_orders() -> pd.DataFrame:
    ts = pd.Timestamp
    rows = [
        dict(o_orderkey=Q3_ORDER, o_custkey=990001, o_orderstatus="O",
             o_totalprice=3000.0, o_orderdate=ts("1995-02-01"),
             o_orderpriority="1-URGENT", o_shippriority="S-LOW"),
        dict(o_orderkey=61402001, o_custkey=Q10_CUST, o_orderstatus="F",
             o_totalprice=5000.0, o_orderdate=ts("1997-11-01"),
             o_orderpriority="2-HIGH", o_shippriority="S-HIGH"),
        dict(o_orderkey=61402002, o_custkey=Q10_CUST, o_orderstatus="F",
             o_totalprice=3000.0, o_orderdate=ts("1993-11-15"),
             o_orderpriority="2-HIGH", o_shippriority="S-HIGH"),
    ]
    return pd.DataFrame(rows)


def _planted_customers() -> pd.DataFrame:
    return pd.DataFrame(
        [
            dict(c_custkey=990001, c_nationkey=3, c_acctbal=100.0,
                 c_mktsegment="BUILDING", c_name="Customer#990001"),
            dict(c_custkey=Q10_CUST, c_nationkey=7, c_acctbal=9999.0,
                 c_mktsegment="AUTOMOBILE", c_name="Customer#61402"),
            dict(c_custkey=Q13_CUST, c_nationkey=1, c_acctbal=0.0,
                 c_mktsegment="MACHINERY", c_name="Customer#888888"),
        ]
    )


def db_flat(spark: SparkSession, sf: float = 0.01) -> dict:
    li = synth_data.lineitem(spark, sf=sf)
    li = _enrich_lineitem(li)
    n_orders = max(1, int(1_500_000 * sf))
    li_pdf_extra = spark.createDataFrame(_planted_lineitems())
    li = li.unionByName(li_pdf_extra)

    orders = synth_data.orders(spark, sf=sf)
    orders = orders.withColumn(
        "o_shippriority",
        F.when(F.abs(F.hash("o_orderkey")) % 2 == 0, F.lit("S-HIGH")).otherwise("S-LOW"),
    )
    orders = orders.unionByName(spark.createDataFrame(_planted_orders()))

    cust = synth_data.customer(spark, sf=sf)
    cust = cust.withColumn("c_name", F.concat(F.lit("Customer#"), F.col("c_custkey")))
    cust = cust.unionByName(spark.createDataFrame(_planted_customers()))

    li = _cover_orders(li, orders.filter(F.col("o_custkey") != Q13_CUST))

    # built on the JVM: a table from a Python list starts Python workers on
    # its first read
    nation = spark.range(25).select(
        F.col("id").cast("int").alias("n_nationkey"),
        F.concat(F.lit("NATION_"), F.col("id")).alias("n_name"),
    )
    return {"lineitem": li, "orders": orders, "customer": cust, "nation": nation}


def db_nested(spark: SparkSession, sf: float = 0.01) -> dict:
    flat = db_flat(spark, sf=sf)
    li, orders = flat["lineitem"], flat["orders"]
    nested_li = li.groupBy("l_orderkey").agg(
        F.collect_list(F.struct(*[c for c in LI_COLS if c != "l_orderkey"])).alias(
            "o_lineitems"
        )
    )
    nested = orders.join(
        nested_li, orders.o_orderkey == nested_li.l_orderkey, "left"
    ).drop("l_orderkey")
    return {
        "nestedOrders": nested,
        "customer": flat["customer"],
        "nation": flat["nation"],
    }


def _li(attr: str, nested: bool) -> str:
    """Source path of a lineitem attribute in the nested vs flat schema."""
    return f"o_lineitems.{attr}" if nested else attr


def alternatives(nested: bool) -> dict[str, list[str]]:
    """The paper's three TPC-H attribute-alternative sets (§6.2)."""
    d, t = _li("l_discount", nested), _li("l_tax", nested)
    s, c, r = (
        _li("l_shipdate", nested),
        _li("l_commitdate", nested),
        _li("l_receiptdate", nested),
    )
    return {
        d: [t], t: [d],
        s: [c, r], c: [s, r], r: [s, c],
        "o_orderpriority": ["o_shippriority"],
        "o_shippriority": ["o_orderpriority"],
    }


def _lineitems_root(nested: bool) -> tuple[A.Op, dict]:
    """Flattened lineitem⋈order rows (nested: F^I; flat: ⋈ on orderkey)."""
    if nested:
        fl = A.FlattenRel(A.TableAccess("nestedOrders"), "o_lineitems")
        return fl, {"F": fl.op_id}
    j = A.Join(
        A.TableAccess("orders"), A.TableAccess("lineitem"), [("o_orderkey", "l_orderkey")]
    )
    return j, {"⋈LO": j.op_id}


# ---------------------------------------------------------------------------
# Q1: γ²³_{sum(l_tax)→avgDisc}( σ²⁴_{l_shipdate ≤ 1998-09-02}( F(nestedOrders) ) )
# ---------------------------------------------------------------------------


def q1(nested: bool = True):
    root, tags = _lineitems_root(nested)
    s24 = A.Select(root, cmp("l_shipdate", "<=", "1998-09-02"))
    g23 = A.GroupAgg(s24, [], [("sum", "l_tax", "avgDisc")])  # ERROR: l_tax ↛ l_discount
    tags.update({"σ24": s24.op_id, "γ23": g23.op_id})
    return g23, tags


# ---------------------------------------------------------------------------
# Q3: γ²⁵( σ²⁶_{mktsegment}( σ_{orderdate}( σ²⁷_{commitdate}( customer ⋈ F(orders) ) ) ) )
# ---------------------------------------------------------------------------


def q3(nested: bool = True):
    root, tags = _lineitems_root(nested)
    j = A.Join(A.TableAccess("customer"), root, [("c_custkey", "o_custkey")])
    if nested:
        s27 = A.Select(j, cmp("l_commitdate", ">", "1995-03-25"))  # ERROR: typo (15→25)
        s26 = A.Select(s27, cmp("c_mktsegment", "=", "HOUSEHOLD"))  # ERROR: ≠ BUILDING
    else:  # flat plan applies the segment filter first (paper: Q3F ordering)
        s26 = A.Select(j, cmp("c_mktsegment", "=", "HOUSEHOLD"))  # ERROR
        s27 = A.Select(s26, cmp("l_commitdate", ">", "1995-03-25"))  # ERROR
    sod = A.Select(s26 if nested else s27, cmp("o_orderdate", "<", "1995-03-15"))
    g25 = A.GroupAgg(
        sod,
        ["o_orderkey", "o_orderdate", "o_shippriority"],
        [("sum", Arith("*", a("l_extendedprice"), Arith("-", Const(1.0), a("l_discount"))), "revenue")],
    )
    tags.update({"⋈C": j.op_id, "σ26": s26.op_id, "σ27": s27.op_id,
                 "σod": sod.op_id, "γ25": g25.op_id})
    return g25, tags


def q3_whynot(db=None):
    return N.Tup({
        "o_orderkey": N.Val(Q3_ORDER),
        "o_orderdate": N.WILD, "o_shippriority": N.WILD, "revenue": N.WILD,
    })


# ---------------------------------------------------------------------------
# Q4: γ³⁰_{priority←o_shippriority, count(o_orderkey)}( σ²⁹_{orderdate}( σ²⁸_{l_shipdate<l_receiptdate}( F ) ) )
# ---------------------------------------------------------------------------


def q4(nested: bool = True):
    root, tags = _lineitems_root(nested)
    s28 = A.Select(root, cmp("l_shipdate", "<", a("l_receiptdate")))  # ERROR: ≠ l_commitdate
    s29 = A.Select(
        s28,
        And(cmp("o_orderdate", ">=", "1993-07-01"), cmp("o_orderdate", "<=", "1993-09-30")),
    )
    g30 = A.GroupAgg(
        s29, ["o_shippriority"], [("count", "o_orderkey", "order_count")],
        key_out=["priority"],
    )  # ERROR: o_shippriority ↛ o_orderpriority
    tags.update({"σ28": s28.op_id, "σ29": s29.op_id, "γ30": g30.op_id})
    return g30, tags


def q4_whynot(db=None):
    return N.Tup({
        "priority": N.Val("3-MEDIUM"),
        "order_count": N.ValPred(cmp("order_count", "<", 11000)),
    })


# ---------------------------------------------------------------------------
# Q6: γ( π³¹_{disc_price}( σ³²_{shipdate}( σ³³_{l_tax}( σ³⁴_{quantity}( F ) ) ) ) )
# ---------------------------------------------------------------------------


def q6(nested: bool = True):
    root, tags = _lineitems_root(nested)
    s34 = A.Select(root, cmp("l_quantity", "<=", 24.0))
    s33 = A.Select(
        s34, And(cmp("l_tax", ">=", 0.05), cmp("l_tax", "<=", 0.07))
    )  # ERROR: l_tax ↛ l_discount
    s32 = A.Select(
        s33,
        And(cmp("l_shipdate", ">=", "1994-01-01"), cmp("l_shipdate", "<=", "1994-12-31")),
    )
    p31 = A.Project(
        s32, [("disc_price", Arith("*", a("l_extendedprice"), a("l_discount")))]
    )
    g = A.GroupAgg(p31, [], [("sum", "disc_price", "revenue")])
    tags.update({"σ34": s34.op_id, "σ33": s33.op_id, "σ32": s32.op_id,
                 "π31": p31.op_id, "γ": g.op_id})
    return g, tags


# ---------------------------------------------------------------------------
# Q10: γ( π³⁷( customer ⋈³⁸ σ³⁵_{returnflag}( σ³⁶_{orderdate}( F ) ) ⋈ nation ) )
# ---------------------------------------------------------------------------


def q10(nested: bool = True):
    root, tags = _lineitems_root(nested)
    s36 = A.Select(
        root,
        And(cmp("o_orderdate", ">=", "1997-10-01"), cmp("o_orderdate", "<=", "1997-12-31")),
    )  # ERROR: constants (intended 1993-10-01 … 1993-12-31)
    s35 = A.Select(s36, cmp("l_returnflag", "=", "A"))  # ERROR: 'A' ↛ 'R'
    j38 = A.Join(A.TableAccess("customer"), s35, [("c_custkey", "o_custkey")])
    jn = A.Join(j38, A.TableAccess("nation"), [("c_nationkey", "n_nationkey")])
    p37 = A.Project(
        jn,
        [
            ("c_custkey", "c_custkey"), ("c_name", "c_name"),
            ("c_acctbal", "c_acctbal"), ("n_name", "n_name"),
            ("disc_price", Arith("*", a("l_extendedprice"), Arith("-", Const(1.0), a("l_tax")))),
            # ERROR: l_tax ↛ l_discount
        ],
    )
    g = A.GroupAgg(
        p37,
        ["c_custkey", "c_name", "c_acctbal", "n_name"],
        [("sum", "disc_price", "revenue")],
    )
    tags.update({"σ36": s36.op_id, "σ35": s35.op_id, "⋈38": j38.op_id,
                 "⋈N": jn.op_id, "π37": p37.op_id, "γ": g.op_id})
    return g, tags


def q10_whynot(db=None):
    return N.Tup({
        "c_custkey": N.Val(Q10_CUST), "c_name": N.WILD, "c_acctbal": N.WILD,
        "n_name": N.WILD, "revenue": N.ValPred(cmp("revenue", ">", 0.0)),
    })


# ---------------------------------------------------------------------------
# Q13: γ_{c_count, count(c_custkey)→custdist}( γ_{c_custkey, count(o_orderkey)→c_count}( customer ⋈³⁹ orders ) )
# ---------------------------------------------------------------------------


def q13(nested: bool = True):
    orders = A.TableAccess("nestedOrders" if nested else "orders")
    j39 = A.Join(A.TableAccess("customer"), orders, [("c_custkey", "o_custkey")], kind="inner")
    # ERROR: inner join ↛ left outer join
    g1 = A.GroupAgg(j39, ["c_custkey"], [("count", "o_orderkey", "c_count")])
    g2 = A.GroupAgg(g1, ["c_count"], [("count", "c_custkey", "custdist")])
    tags = {"⋈39": j39.op_id, "γ1": g1.op_id, "γ2": g2.op_id}
    return g2, tags


def q13_whynot(db=None):
    return N.Tup({"c_count": N.Val(0), "custdist": N.WILD})

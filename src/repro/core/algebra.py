"""NRAB — the paper's nested relational algebra for bags, on Spark DataFrames.

Each operator is an AST node with a unique ``op_id`` and a printable label
(``σ³``, ``F^I⁵``, …). ``build(op, inputs, db)`` applies one operator's
*original* semantics of Table 1 to its children's frames (Catalyst plans, no
RDDs): expressions go in as Spark SQL text (``filter``/``selectExpr``), and
the DataFrame API builds only the structure (join conditions, ``explode``,
``struct``/``collect_list``, ``groupBy``). ``run(op, db)`` is the recursion
over it and ``SchemaCache`` its memo per question. Tracing rewrites a query
into another NRAB query whose ``Extend`` operators add the annotation
columns, and builds it through the same cache.

Representation choices (documented in DESIGN.md):
- a nested relation = a DataFrame whose columns may be ``array<struct<…>>``
  (relation-typed) or ``struct<…>`` (tuple-typed attributes);
- relation flatten drops the flattened attribute and promotes the element
  fields to top-level columns (matching Figure 5 of the paper);
- ``GroupAgg`` is the practical SQL-style grouped aggregation used by the
  TPC-H scenarios (= relation nesting ∘ per-tuple aggregation ∘ projection);
  the formal per-tuple ``γ`` of Table 1 is ``AggPerTuple``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import StructType

from .exprs import Attr, Pred, Scalar, sql_path

_ids = itertools.count(1)


def _next_id() -> int:
    return next(_ids)


@dataclass(frozen=True)
class Op:
    """Base operator node."""

    op_id: int = field(default_factory=_next_id, kw_only=True)

    @property
    def label(self) -> str:
        return f"{self.symbol}{self.op_id}"

    symbol = "op"

    def children(self) -> tuple["Op", ...]:
        raise NotImplementedError

    def param_attrs(self) -> set[str]:
        """Attribute paths referenced in this operator's parameters."""
        return set()

    def subst(self, mapping: dict[str, str]) -> "Op":
        """Copy of this node with parameter attributes substituted (same id)."""
        return self


def walk(op: Op):
    """Yield operators bottom-up (children before parents)."""
    for ch in op.children():
        yield from walk(ch)
    yield op


@dataclass(frozen=True)
class TableAccess(Op):
    table: str
    symbol = "R"

    def children(self):
        return ()

    def __repr__(self):
        return self.table


@dataclass(frozen=True)
class Select(Op):
    child: Op
    theta: Pred
    symbol = "σ"

    def children(self):
        return (self.child,)

    def param_attrs(self):
        return self.theta.attrs()

    def subst(self, mapping):
        return replace(self, theta=self.theta.subst(mapping))

    def __repr__(self):
        return f"σ[{self.theta}]({self.child!r})"


@dataclass(frozen=True)
class Project(Op):
    """π with optional renaming / computed columns: items = [(out_name, Scalar)]."""

    child: Op
    items: tuple[tuple[str, Scalar], ...]
    symbol = "π"

    def __post_init__(self):
        items = self.items.items() if isinstance(self.items, dict) else self.items
        norm = tuple((o, Attr(e) if isinstance(e, str) else e) for o, e in items)
        object.__setattr__(self, "items", norm)

    def children(self):
        return (self.child,)

    def param_attrs(self):
        return set().union(*(e.attrs() for _, e in self.items))

    def subst(self, mapping):
        """Substitute attrs; keys of the form ``"out::attr"`` target a single
        projection item (per-reference schema alternatives, e.g. D1's venue)."""
        global_map = {k: v for k, v in mapping.items() if "::" not in k}
        items = []
        for o, e in self.items:
            m = dict(global_map)
            for k, v in mapping.items():
                if "::" in k:
                    io, attr = k.split("::", 1)
                    if io == o:
                        m[attr] = v
            items.append((o, e.subst(m) if m else e))
        return Project(self.child, items, op_id=self.op_id)

    def __repr__(self):
        inner = ", ".join(f"{o}←{e}" if repr(e) != o else o for o, e in self.items)
        return f"π[{inner}]({self.child!r})"


@dataclass(frozen=True)
class Join(Op):
    """Equi-join variants. ``cond`` is a list of (left_attr, right_attr) pairs."""

    left: Op
    right: Op
    cond: tuple[tuple[str, str], ...]
    kind: str = "inner"  # inner | left | right | full
    symbol = "⋈"

    def __post_init__(self):
        object.__setattr__(self, "cond", tuple(tuple(p) for p in self.cond))

    def children(self):
        return (self.left, self.right)

    def param_attrs(self):
        return {a for p in self.cond for a in p}

    def subst(self, mapping):
        cond = tuple((mapping.get(l, l), mapping.get(r, r)) for l, r in self.cond)
        return Join(self.left, self.right, cond, self.kind, op_id=self.op_id)

    def __repr__(self):
        c = ",".join(f"{l}={r}" for l, r in self.cond)
        return f"⋈[{self.kind},{c}]({self.left!r}, {self.right!r})"


@dataclass(frozen=True)
class FlattenRel(Op):
    """Relation flatten F^I / F^O on an array<struct> attribute."""

    child: Op
    attr: str
    outer: bool = False

    @property
    def symbol(self):
        return "F^O" if self.outer else "F^I"

    def children(self):
        return (self.child,)

    def param_attrs(self):
        return {self.attr}

    def subst(self, mapping):
        return replace(self, attr=mapping.get(self.attr, self.attr))

    def __repr__(self):
        return f"{self.symbol}[{self.attr}]({self.child!r})"


@dataclass(frozen=True)
class FlattenTup(Op):
    """Tuple flatten F^T on a struct attribute (promotes its fields)."""

    child: Op
    attr: str
    symbol = "F^T"

    def children(self):
        return (self.child,)

    def param_attrs(self):
        return {self.attr}

    def subst(self, mapping):
        return replace(self, attr=mapping.get(self.attr, self.attr))

    def __repr__(self):
        return f"F^T[{self.attr}]({self.child!r})"


@dataclass(frozen=True)
class NestTup(Op):
    """Tuple nesting N^T: pack attrs A into a new struct attribute C."""

    child: Op
    attrs_in: tuple[str, ...]
    out: str
    symbol = "N^T"

    def __post_init__(self):
        object.__setattr__(self, "attrs_in", tuple(self.attrs_in))

    def children(self):
        return (self.child,)

    def param_attrs(self):
        return set(self.attrs_in)

    def subst(self, mapping):
        return NestTup(
            self.child, [mapping.get(x, x) for x in self.attrs_in], self.out, op_id=self.op_id
        )

    def __repr__(self):
        return f"N^T[{','.join(self.attrs_in)}→{self.out}]({self.child!r})"


@dataclass(frozen=True)
class NestRel(Op):
    """Relation nesting N^R: group by sch(R)−A, nest A-tuples into C."""

    child: Op
    attrs_in: tuple[str, ...]
    out: str
    symbol = "N^R"

    def __post_init__(self):
        object.__setattr__(self, "attrs_in", tuple(self.attrs_in))

    def children(self):
        return (self.child,)

    def param_attrs(self):
        return set(self.attrs_in)

    def subst(self, mapping):
        return NestRel(
            self.child, [mapping.get(x, x) for x in self.attrs_in], self.out, op_id=self.op_id
        )

    def __repr__(self):
        return f"N^R[{','.join(self.attrs_in)}→{self.out}]({self.child!r})"


@dataclass(frozen=True)
class GroupAgg(Op):
    """SQL-style grouped aggregation: group by ``keys``, aggs = [(fn, attr, out)].

    fn ∈ {count, sum, avg, min, max}; attr may be "*" for count(*), a column
    name, or a :class:`Scalar` expression (e.g. TPC-H's revenue
    ``sum(l_extendedprice × (1 − l_discount))`` — the paper's γ²⁵ carries the
    arithmetic inside the aggregation parameter). ``key_out`` optionally
    renames group keys in the output so that a schema alternative on a key
    does not change the output schema (Q4's priority column).
    """

    child: Op
    keys: tuple[str, ...]
    aggs: tuple[tuple[str, object, str], ...]
    key_out: tuple[str, ...] | None = None  # None: the keys themselves
    symbol = "γ"

    def __post_init__(self):
        object.__setattr__(self, "keys", tuple(self.keys))
        object.__setattr__(self, "aggs", tuple(tuple(x) for x in self.aggs))
        object.__setattr__(self, "key_out", tuple(self.key_out or self.keys))

    def children(self):
        return (self.child,)

    def param_attrs(self):
        out = set(self.keys)
        for _, a, _ in self.aggs:
            if isinstance(a, Scalar):
                out |= a.attrs()
            elif a != "*":
                out.add(a)
        return out

    def subst(self, mapping):
        keys = [mapping.get(k, k) for k in self.keys]
        aggs = [
            (f, a.subst(mapping) if isinstance(a, Scalar) else mapping.get(a, a), o)
            for f, a, o in self.aggs
        ]
        return GroupAgg(self.child, keys, aggs, key_out=self.key_out, op_id=self.op_id)

    def __repr__(self):
        ag = ",".join(f"{f}({a})→{o}" for f, a, o in self.aggs)
        ks = ",".join(
            k if k == o else f"{o}←{k}" for k, o in zip(self.keys, self.key_out)
        )
        return f"γ[{ks};{ag}]({self.child!r})"


@dataclass(frozen=True)
class AggPerTuple(Op):
    """Formal γ of Table 1: apply fn to a nested-relation attribute per tuple.

    ``fn`` ∈ {count, sum, avg, min, max}; ``attr`` is ``array<struct<f>>`` or a
    plain array; ``inner`` names the struct field to aggregate over ("" = the
    element itself). Null elements are ignored (SQL semantics), and a null /
    empty array yields count 0 and null sum — the behaviour driving D2.
    """

    child: Op
    fn: str
    attr: str
    out: str
    inner: str = ""
    symbol = "γ"

    def children(self):
        return (self.child,)

    def param_attrs(self):
        return {self.attr}

    def subst(self, mapping):
        return replace(self, attr=mapping.get(self.attr, self.attr))

    def __repr__(self):
        fld = f".{self.inner}" if self.inner else ""
        return f"γ[{self.fn}({self.attr}{fld})→{self.out}]({self.child!r})"


@dataclass(frozen=True)
class Union(Op):
    left: Op
    right: Op
    symbol = "∪"

    def children(self):
        return (self.left, self.right)

    def __repr__(self):
        return f"({self.left!r} ∪ {self.right!r})"


@dataclass(frozen=True)
class Dedup(Op):
    child: Op
    symbol = "δ"

    def children(self):
        return (self.child,)

    def __repr__(self):
        return f"δ({self.child!r})"


@dataclass(frozen=True)
class Extend(Op):
    """Append computed columns: items = [(name, Spark SQL expression)].

    Tracing's annotations (retained flags, compat and consistency flags, join
    markers, aggregate inputs) are Extends carrying the id of the operator
    they annotate, so the expression text is part of the operator value.
    """

    child: Op
    items: tuple[tuple[str, str], ...]
    symbol = "ε"

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(tuple(p) for p in self.items))

    def children(self):
        return (self.child,)

    def __repr__(self):
        return f"ε[{','.join(name for name, _ in self.items)}]({self.child!r})"


@dataclass(frozen=True)
class Rename(Op):
    child: Op
    mapping: tuple[tuple[str, str], ...]  # (old, new)
    symbol = "ρ"

    def __post_init__(self):
        m = self.mapping.items() if isinstance(self.mapping, dict) else self.mapping
        object.__setattr__(self, "mapping", tuple(tuple(p) for p in m))

    def children(self):
        return (self.child,)

    def param_attrs(self):
        return {old for old, _ in self.mapping}

    def subst(self, mapping):
        return self  # renaming reparameterizations are permutations; not modeled

    def __repr__(self):
        m = ",".join(f"{n}←{o}" for o, n in self.mapping)
        return f"ρ[{m}]({self.child!r})"


# ---------------------------------------------------------------------------
# Execution (original semantics)
# ---------------------------------------------------------------------------


def _per_tuple_agg_sql(op: AggPerTuple) -> str:
    """γ per tuple as one SQL expression over the non-null elements."""
    inner = "." + sql_path(op.inner) if op.inner else ""
    nonnull = f"filter(transform({sql_path(op.attr)}, _x -> _x{inner}), _x -> _x IS NOT NULL)"
    if op.fn == "count":
        return f"coalesce(size({nonnull}), 0)"
    if op.fn in ("min", "max"):
        return f"array_{op.fn}({nonnull})"
    total = f"aggregate({nonnull}, 0.0D, (_acc, _x) -> _acc + CAST(_x AS DOUBLE))"
    if op.fn == "sum":
        return f"CASE WHEN size({nonnull}) > 0 THEN {total} END"
    if op.fn == "avg":
        return f"CASE WHEN size({nonnull}) > 0 THEN {total} / size({nonnull}) END"
    raise ValueError(op.fn)


def _equi_on(l: DataFrame, r: DataFrame, cond):
    """The conjunctive equality condition of an equi-join."""
    on = None
    for lc, rc in cond:
        this = l[lc] == r[rc]
        on = this if on is None else (on & this)
    return on


def _explode_promote(df: DataFrame, attr: str, outer: bool) -> DataFrame:
    """Relation flatten: explode ``attr`` and promote the element fields."""
    gen = "explode_outer" if outer else "explode"
    df = df.selectExpr("*", f"{gen}({sql_path(attr)}) AS __e").drop(attr)
    return df.select(*[c for c in df.columns if c != "__e"], "__e.*")


def _flatten_tuple(df: DataFrame, attr: str) -> DataFrame:
    """Tuple flatten: promote the fields of struct ``attr``."""
    inner = type_at(df.schema, attr).fieldNames()
    promoted = [f"{sql_path(attr)}.{sql_path(f)} AS {sql_path(f)}" for f in inner]
    if "." in attr:  # nested struct path: promote fields, keep the rest
        return df.selectExpr("*", *promoted)
    return df.selectExpr(*[sql_path(c) for c in df.columns if c != attr], *promoted)


def _extend(df: DataFrame, items) -> DataFrame:
    return df.selectExpr("*", *(f"{e} AS {sql_path(name)}" for name, e in items))


def agg_inputs(aggs):
    """The ``Extend`` items that materialize expression-aggregate inputs as
    ``_in_<out>`` columns, and the aggregate specs over plain column names."""
    items = tuple((f"_in_{o}", a.to_sql()) for _, a, o in aggs if isinstance(a, Scalar))
    norm = tuple((f, f"_in_{o}" if isinstance(a, Scalar) else a, o) for f, a, o in aggs)
    return items, norm


def build(op: Op, inputs: tuple[DataFrame, ...], db: dict[str, DataFrame]) -> DataFrame:
    """One level of the original NRAB semantics of Table 1: ``op`` applied to
    its children's frames ``inputs`` (in ``op.children()`` order)."""
    if isinstance(op, TableAccess):
        return db[op.table]
    if isinstance(op, Union):
        l, r = inputs
        return l.unionByName(r)
    if isinstance(op, Join):
        l, r = inputs
        how = {"inner": "inner", "left": "left_outer", "right": "right_outer", "full": "full_outer"}[
            op.kind
        ]
        return l.join(r, on=_equi_on(l, r, op.cond), how=how)
    (df,) = inputs
    if isinstance(op, Select):
        return df.filter(op.theta.to_sql())
    if isinstance(op, Extend):
        return _extend(df, op.items)
    if isinstance(op, Project):
        return df.selectExpr(*(f"{e.to_sql()} AS {sql_path(o)}" for o, e in op.items))
    if isinstance(op, Rename):
        for old, new in op.mapping:
            df = df.withColumnRenamed(old, new)
        return df
    if isinstance(op, FlattenRel):
        return _explode_promote(df, op.attr, op.outer)
    if isinstance(op, FlattenTup):
        return _flatten_tuple(df, op.attr)
    if isinstance(op, NestTup):
        rest = [c for c in df.columns if c not in op.attrs_in]
        return df.select(*rest, F.struct(*op.attrs_in).alias(op.out))
    if isinstance(op, NestRel):
        rest = [c for c in df.columns if c not in op.attrs_in]
        return df.groupBy(*rest).agg(
            F.collect_list(F.struct(*op.attrs_in)).alias(op.out)
        )
    if isinstance(op, GroupAgg):
        items, norm = agg_inputs(op.aggs)
        if items:
            df = _extend(df, items)
        aggs = [F.expr(f"{f}({'1' if a == '*' else sql_path(a)}) AS {sql_path(o)}")
                for f, a, o in norm]
        if op.keys:
            keys = [F.expr(f"{sql_path(k)} AS {sql_path(o)}")
                    for k, o in zip(op.keys, op.key_out)]
            return df.groupBy(*keys).agg(*aggs)
        return df.agg(*aggs)
    if isinstance(op, AggPerTuple):
        return df.withColumn(op.out, F.expr(_per_tuple_agg_sql(op)))
    if isinstance(op, Dedup):
        return df.distinct()
    raise TypeError(f"unknown operator {op!r}")


def run(op: Op, db: dict[str, DataFrame]) -> DataFrame:
    """Execute ``op`` with the original NRAB semantics of Table 1."""
    return build(op, tuple(run(c, db) for c in op.children()), db)


class SchemaCache:
    """The per-question cache over one database ``db``: one DataFrame per
    operator value, built once from its children's cached frames, and the
    schema each frame's lazy analysis gives (no job is launched).

    Keyed by operator value: operators are frozen dataclasses whose equality
    covers op id, parameters and the whole subtree, so a reparameterized
    operator gets its own entry while every unchanged subtree is shared. One
    cache thus serves a query, all its schema alternatives and their traced
    (instrumented) queries over ``db``, and a rewritten operator costs one
    new ``build`` on top of cached frames.
    A derivation that Spark's analysis rejects raises and stores nothing.
    """

    def __init__(self, db: dict[str, DataFrame]):
        self.db = db
        self._frames: dict[Op, DataFrame] = {}

    def frame(self, op: Op) -> DataFrame:
        df = self._frames.get(op)
        if df is None:
            df = build(op, tuple(self.frame(c) for c in op.children()), self.db)
            self._frames[op] = df
        return df

    def schema(self, op: Op) -> StructType:
        return self.frame(op).schema  # a cached property of the frame

    def columns(self, op: Op) -> list[str]:
        return [f.name for f in self.schema(op).fields]

    def field_type(self, op: Op, name: str):
        return type_at(self.schema(op), name)


def materialize(db: dict[str, DataFrame]) -> dict[str, DataFrame]:
    """Cut every table's lineage to a ``LogicalRDD`` leaf (lazy local
    checkpoint): the first action that reads a table fills its blocks, and
    every later trace, stats aggregation and schema probe reuses them instead
    of re-analyzing and re-executing the source plan."""
    return {name: df.localCheckpoint(eager=False) for name, df in db.items()}


def type_at(schema, path: str):
    """The type of the dotted attribute ``path`` in ``schema`` (each step
    into a struct), or ``None`` if there is no such attribute."""
    cur = schema
    for part in path.split("."):
        if not isinstance(cur, StructType) or part not in cur.fieldNames():
            return None
        cur = cur[part].dataType
    return cur


def replace_children(op: Op, new_children: tuple[Op, ...]) -> Op:
    """Copy of ``op`` with its children replaced (op_id preserved)."""
    if isinstance(op, TableAccess):
        return op
    if isinstance(op, (Join, Union)):
        l, r = new_children
        return replace(op, left=l, right=r)
    (c,) = new_children
    return replace(op, child=c)


def rewrite(root: Op, per_op_subst: dict[int, dict[str, str]]) -> Op:
    """Rebuild the tree applying per-operator attribute substitutions.

    Operator ids are preserved, so an operator keeps its identity across
    reparameterizations (as required by Definition 7 ff.).
    """
    new_children = tuple(rewrite(c, per_op_subst) for c in root.children())
    node = replace_children(root, new_children)
    mapping = per_op_subst.get(root.op_id)
    if mapping:
        node = node.subst(mapping)
    return node


def find_op(root: Op, op_id: int) -> Op:
    for node in walk(root):
        if node.op_id == op_id:
            return node
    raise KeyError(op_id)


def labels(root: Op) -> dict[int, str]:
    return {node.op_id: node.label for node in walk(root)}

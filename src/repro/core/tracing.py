"""Step 3 — data tracing (§5.3).

Executes one *instrumented* variant of the (SA-reparameterized) query that
never discards tuples; annotation columns substitute for the paper's
``valid``/``retained``/``consistent`` flags:

- every potentially-filtering operator executes its *full relaxation*
  (selection → no filter, inner flatten → outer flatten, equi-join → full
  outer join) and instead adds a boolean ``retained`` flag ``_f<op_id>``
  telling whether the row would survive the *original* operator — the
  paper's ``retainedSᵢ``;
- a row is *valid* iff its non-relaxed provenance is intact; validity is
  implicit in the flag conjunctions evaluated by the MSR step;
- the ``consistent`` flag ``_c`` is **re-validated** at the tracing cut
  (pre-aggregation / pre-nesting level) against the backtraced per-level NIP
  of that level, not propagated from the source — the paper's second novel
  technique (§1, contribution (ii));
- ``_k`` marks successors of *source-level compatibles* (tuples matching the
  original-schema table NIPs, no re-validation) — the substrate for the
  lineage-based WN++ baseline.

Aggregations and relation nestings are not executed during tracing: the
DataFrame is cut below the first group layer and the layers are recorded
(keys, aggregate specs, deferred value predicates, post-aggregation
selections) for the feasibility analysis of §5.4.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from pyspark.sql import DataFrame

from . import algebra as A
from .alternatives import SchemaAlternative
from .backtrace import Backtrace
from .exprs import Pred, sql_path
from .nip import Nip, Tup, to_spark_pred


@dataclass
class Layer:
    """One aggregation layer (GroupAgg) cut out of the traced pipeline."""

    op_id: int
    keys: tuple[str, ...]
    aggs: tuple[tuple[str, str, str], ...]  # (fn, attr, out)
    key_nip: Tup  # constraints on this layer's input columns (group keys)
    value_preds: dict[str, list[Nip]] = field(default_factory=dict)
    post_filters: list[tuple[int, Pred]] = field(default_factory=list)


@dataclass
class Traced:
    """Result of instrumented execution for one schema alternative."""

    df: DataFrame  # annotated, unfiltered, cut below the first group layer
    flags: dict[int, str]  # relaxable op_id → flag column name
    sel_ops: frozenset  # pre-layer selections (admit restrictive reparams)
    layers: list[Layer]
    compat_tables: dict[str, str]  # table → compat flag column (`_k_<table>`)
    tables: tuple[str, ...]  # accessed tables in build order (for WN++)


@dataclass(frozen=True)
class _Sub:
    """An instrumented subtree: its frame and the annotations the subtree
    adds, each in build order."""

    df: DataFrame
    flags: tuple[tuple[int, str], ...] = ()  # (op_id, retained flag column)
    sel_ops: frozenset[int] = frozenset()
    tables: tuple[str, ...] = ()  # table accesses
    compat: tuple[tuple[str, str], ...] = ()  # (table, `_k_<table>` column)
    anno_cols: tuple[str, ...] = ()

    def on(self, df: DataFrame) -> "_Sub":
        return replace(self, df=df)


def _int_flag(cond: str, name: str) -> str:
    """A 0/1 annotation column: SQL condition ``cond``, null counted as 0."""
    return f"CAST(coalesce({cond}, false) AS INT) AS {sql_path(name)}"


def _flag(sub: _Sub, op: A.Op, cond: str) -> _Sub:
    name = f"_f{op.op_id}"
    return replace(
        sub,
        df=sub.df.selectExpr("*", _int_flag(cond, name)),
        flags=sub.flags + ((op.op_id, name),),
        anno_cols=sub.anno_cols + (name,),
    )


class _Builder:
    """Instrumented build of one SA's query.

    A subtree that lies below the tracing cut (built before the cut is set,
    with no GroupAgg or NestRel in it) depends only on its operator value,
    ``db`` and the S₁ backtrace (the compat columns), so it is taken from and
    stored in the question cache's ``instrumented`` memo and shared by every
    SA. The cut, the layers and ``_c`` come from the SA's backtrace and are
    built per SA.
    """

    def __init__(self, schemas: A.SchemaCache, bt: Backtrace, orig_bt: Backtrace):
        self.schemas = schemas
        self.bt = bt
        self.orig_bt = orig_bt
        self.layers: list[Layer] = []
        self.cut_op_child: A.Op | None = None

    # -- helpers -----------------------------------------------------------
    def _deferred_for(self, op_id: int) -> dict[str, list[Nip]]:
        out: dict[str, list[Nip]] = {}
        for d in self.bt.deferred:
            if d.op_id == op_id and not d.nip.is_trivial():
                out.setdefault(d.out_attr, []).append(d.nip)
        return out

    def build(self, op: A.Op) -> _Sub:
        sub = self._build(op)
        # Re-validated consistency at the cut level (paper contribution ii).
        if self.cut_op_child is not None:
            cut_nip = self.bt.level_nips[self.cut_op_child.op_id]
        else:
            cut_nip = self.bt.level_nips[op.op_id]
        return sub.on(sub.df.selectExpr("*", _int_flag(to_spark_pred(cut_nip), "_c")))

    def _build(self, op: A.Op) -> _Sub:
        if self.cut_op_child is not None:
            return self._build_one(op)
        memo = self.schemas.instrumented
        sub = memo.get(op)
        if sub is None:
            sub = self._build_one(op)
            if self.cut_op_child is None:  # no GroupAgg or NestRel in op's subtree
                memo[op] = sub
        return sub

    # -- one instrumented operator over its built children -----------------
    def _build_one(self, op: A.Op) -> _Sub:
        if isinstance(op, A.TableAccess):
            df, tnip = self.schemas.db[op.table], self.orig_bt.table_nip(op.table)
            if tnip.is_trivial():
                return _Sub(df, tables=(op.table,))
            col = f"_k_{op.table}"
            df = df.selectExpr("*", _int_flag(to_spark_pred(tnip), col))
            return _Sub(df, tables=(op.table,), compat=((op.table, col),), anno_cols=(col,))

        if isinstance(op, A.Select):
            sub = self._build(op.child)
            if self.layers:  # post-aggregation selection → virtual flag
                self.layers[-1].post_filters.append((op.op_id, op.theta))
                return sub
            sub = _flag(sub, op, op.theta.to_sql())
            return replace(sub, sel_ops=sub.sel_ops | {op.op_id})

        if isinstance(op, A.Project):
            sub = self._build(op.child)
            if self.layers or self.cut_op_child is not None:
                return sub  # post-layer projections only rename for display
            # every annotation of the subtree is a column of its frame
            items = A.project_sql(op.items)
            return sub.on(sub.df.selectExpr(*items, *map(sql_path, sub.anno_cols)))

        if isinstance(op, A.Rename):
            sub = self._build(op.child)
            if self.layers or self.cut_op_child is not None:
                return sub
            return sub.on(A.rename_cols(sub.df, op.mapping))

        if isinstance(op, A.Dedup):
            return self._build(op.child)

        if isinstance(op, A.FlattenRel):
            sub = self._build(op.child)
            if not op.outer:
                arr = sql_path(op.attr)
                sub = _flag(sub, op, f"({arr} IS NOT NULL AND size({arr}) > 0)")
            return sub.on(A.explode_promote(sub.df, op.attr, outer=True))

        if isinstance(op, A.FlattenTup):
            sub = self._build(op.child)
            return sub.on(A.flatten_tuple(sub.df, op.attr))

        if isinstance(op, A.Join):
            l, r = self._build(op.left), self._build(op.right)
            lm, rm = f"_m{op.op_id}l", f"_m{op.op_id}r"
            ldf = l.df.selectExpr("*", f"1 AS {lm}")
            rdf = r.df.selectExpr("*", f"1 AS {rm}")
            df = ldf.join(rdf, on=A.equi_on(ldf, rdf, op.cond), how="full_outer")
            cond = {
                "inner": f"({lm} IS NOT NULL AND {rm} IS NOT NULL)",
                "left": f"({lm} IS NOT NULL)",
                "right": f"({rm} IS NOT NULL)",
                "full": "true",
            }[op.kind]
            both = _Sub(
                df,
                l.flags + r.flags,
                l.sel_ops | r.sel_ops,
                l.tables + r.tables,
                l.compat + r.compat,
                l.anno_cols + r.anno_cols,
            )
            sub = _flag(both, op, cond)
            return sub.on(sub.df.drop(lm, rm))

        if isinstance(op, A.NestTup):
            sub = self._build(op.child)
            if self.layers or self.cut_op_child is not None:
                return sub
            return sub.on(A.nest_tuple(sub.df, op.attrs_in, op.out))

        if isinstance(op, A.NestRel):
            sub = self._build(op.child)
            # terminal: don't nest — pre-nest rows witness the bag members
            if self.cut_op_child is None and not self.layers:
                self.cut_op_child = op.child
            return sub

        if isinstance(op, A.GroupAgg):
            sub = self._build(op.child)
            if self.cut_op_child is None and not self.layers:
                self.cut_op_child = op.child
                key_nip = self.bt.level_nips[op.child.op_id]
                # ``_c`` compiles key_nip, so it is a function of the group key
                # (collect_stats relies on it, DESIGN decision 2)
                assert {k for k, _ in key_nip.fields} <= set(op.keys), (key_nip, op.keys)
            else:
                key_nip = Tup({})  # stacked layer: keys are lower-layer outputs
            df, norm = A.agg_inputs(sub.df, op.aggs)
            layer = Layer(
                op.op_id,
                op.keys,
                norm,
                key_nip,
                value_preds=self._deferred_for(op.op_id),
            )
            self.layers.append(layer)
            return sub.on(df)

        raise NotImplementedError(f"tracing does not support {type(op).__name__}")


def trace(sa: SchemaAlternative, schemas: A.SchemaCache, orig_bt: Backtrace) -> Traced:
    """Run instrumented execution of ``sa.query`` over ``schemas.db``.

    ``schemas`` is the question's cache: every SA traced through it shares
    the instrumented subtrees below the tracing cut, which embed the compat
    columns of ``orig_bt`` (S₁'s backtrace), so one cache serves one S₁.
    """
    if schemas.instrumented_bt is None:
        schemas.instrumented_bt = orig_bt
    assert schemas.instrumented_bt == orig_bt, "one question cache, one S₁ backtrace"
    b = _Builder(schemas, sa.bt, orig_bt)
    sub = b.build(sa.query)
    return Traced(
        df=sub.df,
        flags=dict(sub.flags),
        sel_ops=sub.sel_ops,
        layers=b.layers,
        compat_tables=dict(sub.compat),
        tables=tuple(dict.fromkeys(sub.tables)),
    )

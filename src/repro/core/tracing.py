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

from dataclasses import dataclass, field

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from . import algebra as A
from .alternatives import SchemaAlternative
from .backtrace import Backtrace
from .exprs import Pred
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
    table_order: dict[str, int]  # table → position (for WN++ path analysis)


class _Builder:
    def __init__(self, db, bt: Backtrace, orig_bt: Backtrace):
        self.db = db
        self.bt = bt
        self.orig_bt = orig_bt
        self.flags: dict[int, str] = {}
        self.sel_ops: set[int] = set()
        self.layers: list[Layer] = []
        self.cut_op_child: A.Op | None = None
        self.compat_tables: dict[str, str] = {}
        self.table_order: dict[str, int] = {}
        self.anno_cols: list[str] = []

    # -- helpers -----------------------------------------------------------
    def _deferred_for(self, op_id: int) -> dict[str, list[Nip]]:
        out: dict[str, list[Nip]] = {}
        for d in self.bt.deferred:
            if d.op_id == op_id and not d.nip.is_trivial():
                out.setdefault(d.out_attr, []).append(d.nip)
        return out

    def build(self, op: A.Op) -> DataFrame:
        df = self._build(op)
        # Re-validated consistency at the cut level (paper contribution ii).
        if self.cut_op_child is not None:
            cut_nip = self.bt.level_nips[self.cut_op_child.op_id]
        else:
            cut_nip = self.bt.level_nips[op.op_id]
        df = df.withColumn(
            "_c", F.coalesce(to_spark_pred(cut_nip), F.lit(False)).cast("int")
        )
        return df

    def _flag(self, df: DataFrame, op: A.Op, cond) -> DataFrame:
        name = f"_f{op.op_id}"
        self.flags[op.op_id] = name
        self.anno_cols.append(name)
        return df.withColumn(name, F.coalesce(cond, F.lit(False)).cast("int"))

    # -- recursive instrumented build -------------------------------------
    def _build(self, op: A.Op) -> DataFrame:
        if isinstance(op, A.TableAccess):
            df = self.db[op.table]
            self.table_order[op.table] = len(self.table_order)
            tnip = self.orig_bt.table_nip(op.table)
            if not tnip.is_trivial():
                col = f"_k_{op.table}"
                df = df.withColumn(
                    col, F.coalesce(to_spark_pred(tnip), F.lit(False)).cast("int")
                )
                self.compat_tables[op.table] = col
                self.anno_cols.append(col)
            return df

        if isinstance(op, A.Select):
            df = self._build(op.child)
            if self.layers:  # post-aggregation selection → virtual flag
                self.layers[-1].post_filters.append((op.op_id, op.theta))
                return df
            self.sel_ops.add(op.op_id)
            return self._flag(df, op, op.theta.to_col())

        if isinstance(op, A.Project):
            df = self._build(op.child)
            if self.layers or self.cut_op_child is not None:
                return df  # post-layer projections only rename for display
            keep = [c for c in self.anno_cols if c in df.columns]
            return df.select(*[e.to_col().alias(o) for o, e in op.items], *keep)

        if isinstance(op, A.Rename):
            df = self._build(op.child)
            if self.layers or self.cut_op_child is not None:
                return df
            return A.rename_cols(df, op.mapping)

        if isinstance(op, A.Dedup):
            return self._build(op.child)

        if isinstance(op, A.FlattenRel):
            df = self._build(op.child)
            exists = (F.col(op.attr).isNotNull()) & (F.size(op.attr) > 0)
            if not op.outer:
                df = self._flag(df, op, exists)
            return A.explode_promote(df, op.attr, outer=True)

        if isinstance(op, A.FlattenTup):
            return A.flatten_tuple(self._build(op.child), op.attr)

        if isinstance(op, A.Join):
            l = self._build(op.left)
            r = self._build(op.right)
            lm, rm = f"_m{op.op_id}l", f"_m{op.op_id}r"
            l = l.withColumn(lm, F.lit(1))
            r = r.withColumn(rm, F.lit(1))
            df = l.join(r, on=A.equi_on(l, r, op.cond), how="full_outer")
            matched = F.col(lm).isNotNull() & F.col(rm).isNotNull()
            cond = {
                "inner": matched,
                "left": F.col(lm).isNotNull(),
                "right": F.col(rm).isNotNull(),
                "full": F.lit(True),
            }[op.kind]
            df = self._flag(df, op, cond)
            return df.drop(lm, rm)

        if isinstance(op, A.NestTup):
            df = self._build(op.child)
            if self.layers or self.cut_op_child is not None:
                return df
            return A.nest_tuple(df, op.attrs_in, op.out)

        if isinstance(op, A.NestRel):
            df = self._build(op.child)
            # terminal: don't nest — pre-nest rows witness the bag members
            if self.cut_op_child is None and not self.layers:
                self.cut_op_child = op.child
            return df

        if isinstance(op, A.GroupAgg):
            df = self._build(op.child)
            if self.cut_op_child is None and not self.layers:
                self.cut_op_child = op.child
                key_nip = self.bt.level_nips[op.child.op_id]
            else:
                key_nip = Tup({})  # stacked layer: keys are lower-layer outputs
            df, norm = A.agg_inputs(df, op.aggs)
            layer = Layer(
                op.op_id,
                op.keys,
                norm,
                key_nip,
                value_preds=self._deferred_for(op.op_id),
            )
            self.layers.append(layer)
            return df

        raise NotImplementedError(f"tracing does not support {type(op).__name__}")


def trace(sa: SchemaAlternative, db, orig_bt: Backtrace) -> Traced:
    """Run instrumented execution of ``sa.query`` over ``db``."""
    b = _Builder(db, sa.bt, orig_bt)
    df = b.build(sa.query)
    return Traced(
        df=df,
        flags=b.flags,
        sel_ops=frozenset(b.sel_ops),
        layers=b.layers,
        compat_tables=b.compat_tables,
        table_order=b.table_order,
    )

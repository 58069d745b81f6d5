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

The instrumented query is a plain NRAB query: the relaxed operators plus
``Extend`` operators that add the annotation columns. It is built through
the question's ``SchemaCache`` like any other query, so the SAs of a question
share every instrumented subtree they have in common.

Aggregations and relation nestings are not executed during tracing: the
query is cut below the first group layer and the layers are recorded (keys,
aggregate specs, deferred value predicates, post-aggregation selections)
for the feasibility analysis of §5.4.

The traced SAs of a question are then merged, as in the paper's multi-SA
plan (§5.3): :func:`groups` puts S₁ in a group of its own and every other SA
in one group per set of *row-compatible* SAs, whose instrumented queries are
equal below a chain of σ/π/``Extend`` operators. :func:`merge` builds a
group's instrumented query: the shared subtree once per SA (``_sa`` =
1..n), and each chain operator with its items switched on ``_sa``.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from pyspark.sql import DataFrame

from . import algebra as A
from .alternatives import SchemaAlternative
from .backtrace import Backtrace
from .exprs import Attr, Case, Pred, Scalar, sql_case, sql_path
from .nip import Nip, Tup, to_spark_pred

# the operators tracing records above the cut; none of them is executed
_ABOVE_CUT = (A.GroupAgg, A.NestRel, A.Select, A.Project, A.Rename, A.NestTup, A.Dedup)


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

    sa: SchemaAlternative
    query: A.Op  # the instrumented query, cut below the first group layer
    df: DataFrame  # its frame: annotated, unfiltered
    flags: dict[int, str]  # relaxable op_id → flag column name
    sel_ops: frozenset  # pre-layer selections (admit restrictive reparams)
    layers: list[Layer]
    compat_tables: dict[str, str]  # table → compat flag column (`_k_<table>`)
    tables: tuple[str, ...]  # accessed tables in build order (for WN++)


def _flag(cond: str) -> str:
    """A 0/1 annotation: SQL condition ``cond``, null counted as 0."""
    return f"CAST(coalesce({cond}, false) AS INT)"


def _annotations(op: A.Op, orig_bt: Backtrace):
    """(operator, annotation column) for every annotation the instrumented
    ``op`` carries, in build order."""
    for n in A.walk(op):
        if isinstance(n, (A.Select, A.Join)) or (isinstance(n, A.FlattenRel) and not n.outer):
            yield n, f"_f{n.op_id}"
        elif isinstance(n, A.TableAccess) and not orig_bt.table_nip(n.table).is_trivial():
            yield n, f"_k_{n.table}"


def _instrument(op: A.Op, orig_bt: Backtrace) -> A.Op:
    """The instrumented query of ``op``, a subtree below the tracing cut.

    Its annotations depend on ``orig_bt`` (S₁'s backtrace) only through the
    compat SQL of the table accesses, which is part of the operator value.
    Every ``Extend`` takes the id of the operator it annotates.
    """
    if isinstance(op, (A.Union, A.AggPerTuple)):
        raise NotImplementedError(f"tracing does not support {type(op).__name__}")
    if isinstance(op, A.TableAccess):
        tnip = orig_bt.table_nip(op.table)
        if tnip.is_trivial():
            return op
        return A.Extend(op, [(f"_k_{op.table}", _flag(to_spark_pred(tnip)))], op_id=op.op_id)

    def flagged(child: A.Op, cond: str) -> A.Op:
        return A.Extend(child, [(f"_f{op.op_id}", _flag(cond))], op_id=op.op_id)

    if isinstance(op, A.Join):
        lm, rm = f"_m{op.op_id}l", f"_m{op.op_id}r"
        l, r = (A.Extend(_instrument(c, orig_bt), [(m, "1")], op_id=op.op_id)
                for c, m in ((op.left, lm), (op.right, rm)))
        cond = {
            "inner": f"({lm} IS NOT NULL AND {rm} IS NOT NULL)",
            "left": f"({lm} IS NOT NULL)",
            "right": f"({rm} IS NOT NULL)",
            "full": "true",
        }[op.kind]
        return flagged(replace(op, left=l, right=r, kind="full"), cond)
    child = _instrument(op.child, orig_bt)
    if isinstance(op, A.Select):
        return flagged(child, op.theta.to_sql())
    if isinstance(op, A.FlattenRel) and not op.outer:
        arr = sql_path(op.attr)
        child = flagged(child, f"({arr} IS NOT NULL AND size({arr}) > 0)")
        return replace(op, child=child, outer=True)
    if isinstance(op, A.Project):
        # every annotation of the subtree is a column of its frame
        annos = tuple((col, col) for _, col in _annotations(op.child, orig_bt))
        return replace(op, child=child, items=op.items + annos)
    if isinstance(op, A.Dedup):
        return child
    return A.replace_children(op, (child,))


def _split(query: A.Op) -> tuple[list[A.Op], A.Op]:
    """The operators from the tracing cut (the first GroupAgg or NestRel) up
    to the root, bottom-up, and the subtree below the cut. Without a cut,
    nothing is above it and the whole query is below."""
    cut = next((n for n in A.walk(query) if isinstance(n, (A.GroupAgg, A.NestRel))), None)
    if cut is None:
        return [], query
    above, op = [], query
    while True:
        if not isinstance(op, _ABOVE_CUT):
            raise NotImplementedError(f"tracing does not support {op.label} above the cut")
        above.append(op)
        if op is cut:
            return above[::-1], cut.child
        op = op.child


def trace(sa: SchemaAlternative, schemas: A.SchemaCache, orig_bt: Backtrace) -> Traced:
    """Run instrumented execution of ``sa.query`` over ``schemas.db``.

    ``schemas`` is the question's cache; ``orig_bt`` is S₁'s backtrace,
    which supplies the compat columns.
    """
    above, below = _split(sa.query)
    bt, layers = sa.bt, []
    for op in above:
        if isinstance(op, A.GroupAgg):
            key_nip = Tup({})  # stacked layer: keys are lower-layer outputs
            if op is above[0]:
                key_nip = bt.level_nips[below.op_id]
                # ``_c`` compiles key_nip, so it is a function of the group key
                # (collect_stats relies on it, DESIGN decision 2)
                assert {k for k, _ in key_nip.fields} <= set(op.keys), (key_nip, op.keys)
            value_preds: dict[str, list[Nip]] = {}
            for d in bt.deferred:
                if d.op_id == op.op_id and not d.nip.is_trivial():
                    value_preds.setdefault(d.out_attr, []).append(d.nip)
            # the cut layer's aggregates read the ``_in_<out>`` inputs its
            # Extend computes, so the SAs of a group aggregate the same columns
            # (a stacked layer's inputs are never read)
            aggs = tuple((fn, attr if attr == "*" else f"_in_{out}", out)
                         for fn, attr, out in op.aggs)
            layers.append(Layer(op.op_id, op.keys, aggs, key_nip, value_preds))
        elif isinstance(op, A.Select):  # post-aggregation selection → virtual flag
            if not layers:
                raise NotImplementedError(f"tracing does not support {op.label} above "
                                          "a relation nesting without an aggregation")
            layers[-1].post_filters.append((op.op_id, op.theta))
        # projections, renamings and nestings above the cut only shape the output

    # re-validated consistency at the cut level (paper contribution ii), and
    # the cut layer's aggregate inputs
    cut = above[0] if above else below
    aggs = cut.aggs if isinstance(cut, A.GroupAgg) else ()
    items = tuple((f"_in_{out}", attr.to_sql() if isinstance(attr, Scalar) else sql_path(attr))
                  for _, attr, out in aggs if attr != "*")
    items += (("_c", _flag(to_spark_pred(bt.level_nips[below.op_id]))),)
    instrumented = A.Extend(_instrument(below, orig_bt), items, op_id=cut.op_id)

    annos = list(_annotations(below, orig_bt))
    return Traced(
        sa=sa,
        query=instrumented,
        df=schemas.frame(instrumented),
        flags={n.op_id: col for n, col in annos if not isinstance(n, A.TableAccess)},
        sel_ops=frozenset(n.op_id for n, _ in annos if isinstance(n, A.Select)),
        layers=layers,
        compat_tables={n.table: col for n, col in annos if isinstance(n, A.TableAccess)},
        tables=tuple(dict.fromkeys(n.table for n in A.walk(below)
                                   if isinstance(n, A.TableAccess))),
    )


# ---------------------------------------------------------------------------
# groups of row-compatible SAs, merged into one instrumented query
# ---------------------------------------------------------------------------


def _aligned(a: A.Op, b: A.Op, schemas: A.SchemaCache) -> bool:
    """Are ``a`` and ``b`` equal below a chain of ``Extend``/π operators that
    differ at most in the SQL of their items, each item with one type?"""
    if a == b:
        return True
    return (isinstance(a, (A.Extend, A.Project)) and type(a) is type(b)
            and a.op_id == b.op_id and [n for n, _ in a.items] == [n for n, _ in b.items]
            and schemas.schema(a).simpleString() == schemas.schema(b).simpleString()
            and _aligned(a.child, b.child, schemas))


def _key_types(tr: Traced, schemas: A.SchemaCache) -> list[str]:
    return [schemas.field_type(tr.query, k).simpleString() for k in tr.layers[0].keys]


def _row_compatible(a: Traced, b: Traced, schemas: A.SchemaCache) -> bool:
    """Do ``a`` and ``b`` trace the same rows, so that one frame holds the
    annotations of both? Their flags name the same operators, their cut γ
    aggregates the same inputs, and its keys have the same types."""
    if a.flags != b.flags or a.compat_tables != b.compat_tables:
        return False
    if [l.aggs for l in a.layers[:1]] != [l.aggs for l in b.layers[:1]]:
        return False
    if a.layers and _key_types(a, schemas) != _key_types(b, schemas):
        return False
    return _aligned(a.query, b.query, schemas)


def groups(traced: list[Traced], schemas: A.SchemaCache) -> list[list[Traced]]:
    """S₁ (``traced[0]``) alone, then one group per set of row-compatible
    SAs, in SA order. An SA that rewrites a flatten or a join, or an
    operator below one, is row-compatible with no other SA that differs
    from it there, and stays in a group of its own."""
    out = [traced[:1]]
    for tr in traced[1:]:
        group = next((g for g in out[1:] if _row_compatible(g[0], tr, schemas)), None)
        if group is None:
            out.append([tr])
        else:
            group.append(tr)
    return out


def merge(group: list[Traced]) -> A.Op:
    """The group's instrumented query: the rows of the subtree its SAs share,
    once per SA (``_sa`` = 1..n, by ``explode``), under their chain
    operators with every item switched on ``_sa``."""

    def merged(ops: list[A.Op]) -> A.Op:
        first = ops[0]
        if all(op == first for op in ops):
            sa = ("_sa", f"explode(sequence(1, {len(ops)}))")
            return A.Extend(first, [sa], op_id=first.op_id)
        # per item, each SA's value (the items of aligned operators)
        values = [tuple(e for _, e in item) for item in zip(*(op.items for op in ops))]
        names = [name for name, _ in first.items]
        if isinstance(first, A.Project):
            items = tuple(zip(names, (Case("_sa", es) for es in values))) + (("_sa", Attr("_sa")),)
        else:
            items = tuple(zip(names, (sql_case("_sa", list(es)) for es in values)))
        return replace(first, child=merged([op.child for op in ops]), items=items)

    return merged([tr.query for tr in group])

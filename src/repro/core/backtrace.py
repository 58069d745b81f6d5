"""Step 1 — schema backtracing (§5.1).

Walks the query top-down, rewriting the why-not NIP ``t`` (defined over the
output schema) into:

- ``table_nips`` — one NIP per accessed input table (the set ``T̄``);
- ``level_nips`` — a NIP over every operator's *output* schema. These are the
  basis of the paper's *re-validation* of compatibility: the data-tracing step
  recomputes the ``consistent`` flag of intermediate tuples against the NIP of
  their level instead of blindly propagating source-level compatibility;
- ``deferred`` — value predicates that cannot be pushed through an operator
  (aggregate outputs, arithmetically computed columns). They are checked later
  by the feasibility analysis (§ feasibility.py);
- ``resolve_source`` — maps an operator-level attribute reference to its
  ``(table, source_path)``, the paper's ``M_sbt`` associations.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import algebra as A
from .exprs import Attr
from .nip import WILD, Bag, Nip, Tup, Val, ValPred, Wild


@dataclass
class Deferred:
    """A value predicate that was deferred at ``op_id`` on output ``out_attr``."""

    op_id: int
    out_attr: str
    nip: Nip


@dataclass
class Backtrace:
    table_nips: dict[str, Tup]
    level_nips: dict[int, Tup]
    deferred: list[Deferred]

    def table_nip(self, table: str) -> Tup:
        return self.table_nips.get(table, Tup({}))


def _merge(a: Nip, b: Nip) -> Nip:
    """Conjunctive merge of two NIPs over the same type (best effort)."""
    if isinstance(a, Wild):
        return b
    if isinstance(b, Wild):
        return a
    if isinstance(a, Tup) and isinstance(b, Tup):
        out = a.as_dict()
        for k, v in b.fields:
            out[k] = _merge(out[k], v) if k in out else v
        return Tup(out)
    if isinstance(a, Bag) and isinstance(b, Bag):
        return Bag(a.elems + b.elems, star=a.star or b.star)
    return a  # conflicting constants: keep the first (conservative)


def _nest_path(path: str, nip: Nip) -> Tup:
    """Wrap ``nip`` into nested Tups along a dotted path."""
    parts = path.split(".")
    for p in reversed(parts[1:]):
        nip = Tup({p: nip})
    return Tup({parts[0]: nip})


def _set_path(t: Tup, path: str, nip: Nip) -> Tup:
    return _merge(t, _nest_path(path, nip))


def _get_field(t: Tup, name: str) -> Nip:
    return t.as_dict().get(name, WILD)


def _drop_fields(t: Tup, names: set[str]) -> Tup:
    return Tup({k: v for k, v in t.fields if k not in names})


class SchemaCache:
    """Operator output schemas over ``db``, derived once per op id (valid
    for one query: a rewritten subtree keeps its ids but not its schemas)."""

    def __init__(self, db):
        self.db = db
        self._schemas: dict[int, object] = {}

    def columns(self, op: A.Op) -> list[str]:
        return [f.name for f in self.schema(op).fields]

    def schema(self, op: A.Op):
        if op.op_id not in self._schemas:
            self._schemas[op.op_id] = A.run(op, self.db).schema
        return self._schemas[op.op_id]

    def field_type(self, op: A.Op, name: str):
        return A.struct_type_at(self.schema(op), name)


def backtrace(query: A.Op, whynot: Tup, db) -> Backtrace:
    """Compute ``T̄``, per-level NIPs and deferred predicates for ``whynot``."""
    ctx = SchemaCache(db)
    bt = Backtrace({}, {}, [])
    _walk(query, whynot, ctx, bt)
    return bt


def _walk(op: A.Op, nip: Tup, ctx: SchemaCache, bt: Backtrace) -> None:
    bt.level_nips[op.op_id] = nip

    if isinstance(op, A.TableAccess):
        prev = bt.table_nips.get(op.table, Tup({}))
        bt.table_nips[op.table] = _merge(prev, nip)
        return

    if isinstance(op, (A.Select, A.Dedup)):
        _walk(op.children()[0], nip, ctx, bt)
        return

    if isinstance(op, A.Project):
        child = op.child
        out = Tup({})
        for out_name, expr in op.items:
            f = _get_field(nip, out_name)
            if f.is_trivial():
                continue
            if isinstance(expr, Attr):
                out = _set_path(out, expr.path, f)
            else:  # computed column — defer the value predicate
                bt.deferred.append(Deferred(op.op_id, out_name, f))
        _walk(child, out, ctx, bt)
        return

    if isinstance(op, A.Rename):
        inv = {new: old for old, new in op.mapping}
        out = Tup({inv.get(k, k): v for k, v in nip.fields})
        _walk(op.child, out, ctx, bt)
        return

    if isinstance(op, A.Join):
        lcols = set(ctx.columns(op.left))
        rcols = set(ctx.columns(op.right))
        lnip = Tup({k: v for k, v in nip.fields if k in lcols})
        rnip = Tup({k: v for k, v in nip.fields if k in rcols and k not in lcols})
        _walk(op.left, lnip, ctx, bt)
        _walk(op.right, rnip, ctx, bt)
        return

    if isinstance(op, A.FlattenRel):
        elem_fields = [f.name for f in ctx.field_type(op.child, op.attr).elementType.fields]
        elem_constraints = {
            k: v for k, v in nip.fields if k in elem_fields and not v.is_trivial()
        }
        rest = Tup({k: v for k, v in nip.fields if k not in elem_fields})
        if elem_constraints:
            rest = _set_path(rest, op.attr, Bag([Tup(elem_constraints)], star=True))
        _walk(op.child, rest, ctx, bt)
        return

    if isinstance(op, A.FlattenTup):
        tfields = [f.name for f in ctx.field_type(op.child, op.attr).fields]
        inner = {k: v for k, v in nip.fields if k in tfields and not v.is_trivial()}
        rest = Tup({k: v for k, v in nip.fields if k not in tfields})
        if inner:
            rest = _set_path(rest, op.attr, Tup(inner))
        _walk(op.child, rest, ctx, bt)
        return

    if isinstance(op, A.NestTup):
        f = _get_field(nip, op.out)
        rest = _drop_fields(nip, {op.out})
        if isinstance(f, Tup):
            rest = _merge(rest, f)
        _walk(op.child, rest, ctx, bt)
        return

    if isinstance(op, A.NestRel):
        f = _get_field(nip, op.out)
        rest = _drop_fields(nip, {op.out})
        if isinstance(f, Bag):
            # Constraints of the explicit element patterns must be witnessed by
            # at least one input tuple each; we take their merged constraints
            # (single-pattern case in all scenarios — documented simplification).
            for elem in f.elems:
                if isinstance(elem, Tup) and not elem.is_trivial():
                    rest = _merge(rest, elem)
                    break
        _walk(op.child, rest, ctx, bt)
        return

    if isinstance(op, A.GroupAgg):
        out = Tup({})
        agg_outs = {o for _, _, o in op.aggs}
        key_in = dict(zip(op.key_out, op.keys))
        for k, v in nip.fields:
            if v.is_trivial():
                continue
            if k in agg_outs:
                bt.deferred.append(Deferred(op.op_id, k, v))
            elif k in key_in:
                out = _set_path(out, key_in[k], v)
        _walk(op.child, out, ctx, bt)
        return

    if isinstance(op, A.AggPerTuple):
        out = Tup({})
        for k, v in nip.fields:
            if v.is_trivial():
                continue
            if k == op.out:
                bt.deferred.append(Deferred(op.op_id, k, v))
            else:
                out = _set_path(out, k, v)
        _walk(op.child, out, ctx, bt)
        return

    if isinstance(op, A.Union):
        _walk(op.left, nip, ctx, bt)
        _walk(op.right, nip, ctx, bt)
        return

    raise TypeError(f"backtrace: unknown operator {op!r}")


def resolve_source(
    op: A.Op, path: str, ctx_db, ctx: SchemaCache | None = None
) -> tuple[str, str] | None:
    """Resolve an operator-level attribute path to ``(table, source_path)``.

    Returns ``None`` when the attribute is computed (no single source). This
    realizes the ``M_sbt`` associations of §5.1 used by schema alternatives.
    Calls that resolve against the same query may share one ``ctx``, so each
    operator's schema is derived once.
    """
    return _resolve(op, path, ctx or SchemaCache(ctx_db))


def _resolve(op: A.Op, path: str, ctx: SchemaCache) -> tuple[str, str] | None:
    head = path.split(".")[0]
    rest = path[len(head):]  # includes leading "." or empty

    if isinstance(op, A.TableAccess):
        return (op.table, path)
    if isinstance(op, (A.Select, A.Dedup)):
        return _resolve(op.children()[0], path, ctx)
    if isinstance(op, A.Project):
        for out, expr in op.items:
            if out == head:
                if hasattr(expr, "path"):
                    return _resolve(op.child, expr.path + rest, ctx)
                return None
        return None
    if isinstance(op, A.Rename):
        inv = {new: old for old, new in op.mapping}
        return _resolve(op.child, inv.get(head, head) + rest, ctx)
    if isinstance(op, A.Join):
        if head in ctx.columns(op.left):
            return _resolve(op.left, path, ctx)
        if head in ctx.columns(op.right):
            return _resolve(op.right, path, ctx)
        return None
    if isinstance(op, A.FlattenRel):
        elem_fields = [f.name for f in ctx.field_type(op.child, op.attr).elementType.fields]
        if head in elem_fields:
            return _resolve(op.child, f"{op.attr}.{path}", ctx)
        return _resolve(op.child, path, ctx)
    if isinstance(op, A.FlattenTup):
        tfields = [f.name for f in ctx.field_type(op.child, op.attr).fields]
        if head in tfields:
            return _resolve(op.child, f"{op.attr}.{path}", ctx)
        return _resolve(op.child, path, ctx)
    if isinstance(op, A.NestTup):
        if head == op.out:
            return _resolve(op.child, path[len(head) + 1:], ctx) if rest else None
        return _resolve(op.child, path, ctx)
    if isinstance(op, A.NestRel):
        if head == op.out:
            return _resolve(op.child, path[len(head) + 1:], ctx) if rest else None
        return _resolve(op.child, path, ctx)
    if isinstance(op, A.GroupAgg):
        agg_in = {o: a for _, a, o in op.aggs}
        if head in agg_in:
            src = agg_in[head]
            if src == "*" or not isinstance(src, str):
                return None  # count(*) or expression aggregate
            return _resolve(op.child, src + rest, ctx)
        key_in = dict(zip(op.key_out, op.keys))
        if head in key_in:
            return _resolve(op.child, key_in[head] + rest, ctx)
        return _resolve(op.child, path, ctx)
    if isinstance(op, A.AggPerTuple):
        if head == op.out:
            return _resolve(op.child, op.attr, ctx)
        return _resolve(op.child, path, ctx)
    if isinstance(op, A.Union):
        return _resolve(op.left, path, ctx)
    raise TypeError(f"resolve: unknown operator {op!r}")

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
  by the feasibility analysis of the MSR step (``msr.py``);
- ``resolve_source`` — maps an operator-level attribute reference to its
  ``(table, source_path)``, the paper's ``M_sbt`` associations.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import algebra as A
from .exprs import Attr
from .nip import WILD, Bag, Nip, Tup, Wild


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


def backtrace(query: A.Op, whynot: Tup, schemas: A.SchemaCache) -> Backtrace:
    """Compute ``T̄``, per-level NIPs and deferred predicates for ``whynot``."""
    bt = Backtrace({}, {}, [])
    _walk(query, whynot, schemas, bt)
    return bt


def _walk(op: A.Op, nip: Tup, schemas: A.SchemaCache, bt: Backtrace) -> None:
    bt.level_nips[op.op_id] = nip

    if isinstance(op, A.TableAccess):
        prev = bt.table_nips.get(op.table, Tup({}))
        bt.table_nips[op.table] = _merge(prev, nip)
        return

    if isinstance(op, (A.Select, A.Dedup)):
        _walk(op.children()[0], nip, schemas, bt)
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
        _walk(child, out, schemas, bt)
        return

    if isinstance(op, A.Rename):
        inv = {new: old for old, new in op.mapping}
        out = Tup({inv.get(k, k): v for k, v in nip.fields})
        _walk(op.child, out, schemas, bt)
        return

    if isinstance(op, A.Join):
        lcols = set(schemas.columns(op.left))
        rcols = set(schemas.columns(op.right))
        lnip = Tup({k: v for k, v in nip.fields if k in lcols})
        rnip = Tup({k: v for k, v in nip.fields if k in rcols and k not in lcols})
        _walk(op.left, lnip, schemas, bt)
        _walk(op.right, rnip, schemas, bt)
        return

    if isinstance(op, A.FlattenRel):
        elem_fields = [f.name for f in schemas.field_type(op.child, op.attr).elementType.fields]
        elem_constraints = {
            k: v for k, v in nip.fields if k in elem_fields and not v.is_trivial()
        }
        rest = Tup({k: v for k, v in nip.fields if k not in elem_fields})
        if elem_constraints:
            rest = _set_path(rest, op.attr, Bag([Tup(elem_constraints)], star=True))
        _walk(op.child, rest, schemas, bt)
        return

    if isinstance(op, A.FlattenTup):
        tfields = [f.name for f in schemas.field_type(op.child, op.attr).fields]
        inner = {k: v for k, v in nip.fields if k in tfields and not v.is_trivial()}
        rest = Tup({k: v for k, v in nip.fields if k not in tfields})
        if inner:
            rest = _set_path(rest, op.attr, Tup(inner))
        _walk(op.child, rest, schemas, bt)
        return

    if isinstance(op, A.NestTup):
        f = _get_field(nip, op.out)
        rest = _drop_fields(nip, {op.out})
        if isinstance(f, Tup):
            rest = _merge(rest, f)
        _walk(op.child, rest, schemas, bt)
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
        _walk(op.child, rest, schemas, bt)
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
        _walk(op.child, out, schemas, bt)
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
        _walk(op.child, out, schemas, bt)
        return

    if isinstance(op, A.Union):
        _walk(op.left, nip, schemas, bt)
        _walk(op.right, nip, schemas, bt)
        return

    raise TypeError(f"backtrace: unknown operator {op!r}")


def resolve_source(op: A.Op, path: str, schemas: A.SchemaCache) -> tuple[str, str] | None:
    """Resolve an operator-level attribute path to ``(table, source_path)``.

    Returns ``None`` when the attribute is computed (no single source). This
    realizes the ``M_sbt`` associations of §5.1 used by schema alternatives.
    """
    head = path.split(".")[0]
    rest = path[len(head):]  # includes leading "." or empty

    if isinstance(op, A.TableAccess):
        return (op.table, path)
    if isinstance(op, (A.Select, A.Dedup)):
        return resolve_source(op.children()[0], path, schemas)
    if isinstance(op, A.Project):
        for out, expr in op.items:
            if out == head:
                if hasattr(expr, "path"):
                    return resolve_source(op.child, expr.path + rest, schemas)
                return None
        return None
    if isinstance(op, A.Rename):
        inv = {new: old for old, new in op.mapping}
        return resolve_source(op.child, inv.get(head, head) + rest, schemas)
    if isinstance(op, A.Join):
        if head in schemas.columns(op.left):
            return resolve_source(op.left, path, schemas)
        if head in schemas.columns(op.right):
            return resolve_source(op.right, path, schemas)
        return None
    if isinstance(op, A.FlattenRel):
        elem_fields = [f.name for f in schemas.field_type(op.child, op.attr).elementType.fields]
        if head in elem_fields:
            return resolve_source(op.child, f"{op.attr}.{path}", schemas)
        return resolve_source(op.child, path, schemas)
    if isinstance(op, A.FlattenTup):
        tfields = [f.name for f in schemas.field_type(op.child, op.attr).fields]
        if head in tfields:
            return resolve_source(op.child, f"{op.attr}.{path}", schemas)
        return resolve_source(op.child, path, schemas)
    if isinstance(op, A.NestTup):
        if head == op.out:
            return resolve_source(op.child, path[len(head) + 1:], schemas) if rest else None
        return resolve_source(op.child, path, schemas)
    if isinstance(op, A.NestRel):
        if head == op.out:
            return resolve_source(op.child, path[len(head) + 1:], schemas) if rest else None
        return resolve_source(op.child, path, schemas)
    if isinstance(op, A.GroupAgg):
        agg_in = {o: a for _, a, o in op.aggs}
        if head in agg_in:
            src = agg_in[head]
            if src == "*" or not isinstance(src, str):
                return None  # count(*) or expression aggregate
            return resolve_source(op.child, src + rest, schemas)
        key_in = dict(zip(op.key_out, op.keys))
        if head in key_in:
            return resolve_source(op.child, key_in[head] + rest, schemas)
        return resolve_source(op.child, path, schemas)
    if isinstance(op, A.AggPerTuple):
        if head == op.out:
            return resolve_source(op.child, op.attr, schemas)
        return resolve_source(op.child, path, schemas)
    if isinstance(op, A.Union):
        return resolve_source(op.left, path, schemas)
    raise TypeError(f"resolve: unknown operator {op!r}")

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

Both follow one per-operator attribute mapping, :func:`source_step`.
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
    """Conjunctive merge of two NIPs over the same type. Two unequal
    constants or value predicates raise ``NotImplementedError``: their
    conjunction is no NIP."""
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
    if a == b:
        return a
    raise NotImplementedError(f"backtracing cannot merge {a!r} and {b!r}")


def _set_path(t: Tup, path: str, nip: Nip) -> Tup:
    """``t`` merged with ``nip`` wrapped into nested Tups along a dotted path."""
    head, *rest = path.split(".")
    for p in reversed(rest):
        nip = Tup({p: nip})
    return _merge(t, Tup({head: nip}))


def backtrace(query: A.Op, whynot: Tup, schemas: A.SchemaCache) -> Backtrace:
    """Compute ``T̄``, per-level NIPs and deferred predicates for ``whynot``."""
    bt = Backtrace({}, {}, [])
    _walk(query, whynot, schemas, bt)
    return bt


def source_step(op: A.Op, path: str, schemas: A.SchemaCache) -> tuple[int, str] | None:
    """One step of ``M_sbt``: the child (index into ``op.children()``) and
    the path in that child's output that ``op``'s output attribute ``path``
    comes from, or ``None`` if the attribute is computed."""
    head, _, tail = path.partition(".")
    rest = "." + tail if tail else ""
    if isinstance(op, A.Union):
        raise NotImplementedError("an attribute of a union has no single source")
    if isinstance(op, (A.Select, A.Dedup)):
        return (0, path)
    if isinstance(op, A.Project):
        expr = dict(op.items).get(head)
        return (0, expr.path + rest) if isinstance(expr, Attr) else None
    if isinstance(op, A.Rename):
        inv = {new: old for old, new in op.mapping}
        return (0, inv.get(head, head) + rest)
    if isinstance(op, A.Join):
        for i, side in enumerate(op.children()):
            if head in schemas.columns(side):
                return (i, path)
        return None
    if isinstance(op, A.FlattenRel):
        elem = schemas.field_type(op.child, op.attr).elementType
        return (0, f"{op.attr}.{path}" if head in elem.fieldNames() else path)
    if isinstance(op, A.FlattenTup):
        fields = schemas.field_type(op.child, op.attr).fieldNames()
        return (0, f"{op.attr}.{path}" if head in fields else path)
    if isinstance(op, (A.NestTup, A.NestRel)):
        if head == op.out:
            return (0, tail) if tail else None
        return (0, path)
    if isinstance(op, A.GroupAgg):
        agg_in = {o: a for _, a, o in op.aggs}
        if head in agg_in:
            src = agg_in[head]
            if src == "*" or not isinstance(src, str):
                return None  # count(*) or expression aggregate
            return (0, src + rest)
        key_in = dict(zip(op.key_out, op.keys))
        return (0, key_in.get(head, head) + rest)
    if isinstance(op, A.AggPerTuple):
        return (0, op.attr if head == op.out else path)
    raise TypeError(f"backtrace: no source step for {op!r}")


def _walk(op: A.Op, nip: Tup, schemas: A.SchemaCache, bt: Backtrace) -> None:
    bt.level_nips[op.op_id] = nip

    if isinstance(op, A.TableAccess):
        bt.table_nips[op.table] = _merge(bt.table_nip(op.table), nip)
        return

    if isinstance(op, A.Union):
        _walk(op.left, nip, schemas, bt)
        _walk(op.right, nip, schemas, bt)
        return

    if isinstance(op, (A.NestTup, A.NestRel)):
        # unfold ``out``: a tuple's fields, or for a bag the constraints of
        # its first constrained element pattern, which an input tuple must
        # witness (single-pattern case in all scenarios — documented
        # simplification)
        f = nip.as_dict().get(op.out, WILD)
        if isinstance(f, Bag):
            f = next((e for e in f.elems if isinstance(e, Tup) and not e.is_trivial()), WILD)
        rest = Tup({k: v for k, v in nip.fields if k != op.out})
        _walk(op.child, _merge(rest, f), schemas, bt)
        return

    # every other operator: each constrained field goes to the child
    # attribute ``source_step`` names; aggregate outputs and computed
    # columns are deferred to the MSR step
    if isinstance(op, A.GroupAgg):
        aggregated = {o for _, _, o in op.aggs}
    elif isinstance(op, A.AggPerTuple):
        aggregated = {op.out}
    else:
        aggregated = set()
    outs = [Tup({}) for _ in op.children()]
    elem = {}  # relation flatten: constraints on one element of ``attr``
    for k, v in nip.fields:
        if v.is_trivial():
            continue
        step = None if k in aggregated else source_step(op, k, schemas)
        if step is None:
            bt.deferred.append(Deferred(op.op_id, k, v))
        elif isinstance(op, A.FlattenRel) and step[1] != k:
            elem[k] = v
        else:
            outs[step[0]] = _set_path(outs[step[0]], step[1], v)
    if elem:
        outs[0] = _set_path(outs[0], op.attr, Bag([Tup(elem)], star=True))
    for child, out in zip(op.children(), outs):
        _walk(child, out, schemas, bt)


def resolve_source(op: A.Op, path: str, schemas: A.SchemaCache) -> tuple[str, str] | None:
    """Resolve an operator-level attribute path to ``(table, source_path)``.

    Follows :func:`source_step` down to a table access, which resolves only
    a path whose top-level column it has. Returns ``None`` when the attribute
    is computed (no single source). This realizes the ``M_sbt``
    associations of §5.1 used by schema alternatives.
    """
    while not isinstance(op, A.TableAccess):
        step = source_step(op, path, schemas)
        if step is None:
            return None
        op, path = op.children()[step[0]], step[1]
    return (op.table, path) if path.split(".")[0] in schemas.columns(op) else None

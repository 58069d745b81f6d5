"""Step 2 — schema alternatives (§5.2).

A schema alternative (SA) substitutes zero or more attribute references in
operator parameters with user-provided *attribute alternatives* (the paper
assumes these are supplied, e.g. by schema matching). SA enumeration:

1. For every operator parameter attribute, resolve its source attribute
   (``M_sbt``) and look it up in the alternatives map (keyed by source path,
   e.g. ``"address2"`` or ``"o_lineitems.l_tax"``).
2. Enumerate the cross product of per-reference choices, up to ``MAX_SAS``
   SAs; a ``UserWarning`` reports the combinations the cap left unexamined.
3. Prune alternatives that make the query invalid (Spark analysis fails) or
   change the final output schema (fixed by definition — Figure 3's dashed
   subtrees).

``S₁`` is always the unmodified query. Each SA carries the reparameterized
query (same op ids), the set of changed operators (the SR "prefix" of
Algorithm 4) and a re-run of schema backtracing under the substitution.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

from pyspark.errors import AnalysisException, ParseException
from pyspark.sql import types as T

from . import algebra as A
from .backtrace import Backtrace, backtrace, resolve_source
from .nip import Tup

MAX_SAS = 16  # SAs kept per question, S₁ included


@dataclass
class SchemaAlternative:
    sa_id: int
    query: A.Op
    changed_ops: frozenset[int]
    bt: Backtrace
    desc: str


def _derive_op_level_name(q: str, src: str, alt: str) -> str:
    """Translate a source-level alternative into the operator-level attr name."""
    if src == q:
        return alt
    if src.endswith("." + q):
        prefix = src[: -len(q) - 1]
        if alt.startswith(prefix + "."):
            return alt[len(prefix) + 1:]
        return alt
    # fall back: swap the last segment
    q_parts = q.split(".")
    q_parts[-1] = alt.split(".")[-1]
    return ".".join(q_parts)


def _schema_sig(schema) -> list[tuple[str, str]]:
    return [(f.name, f.dataType.simpleString()) for f in schema.fields]


def _refs_valid(query: A.Op, schemas: A.SchemaCache) -> bool:
    """Structural check: every operator parameter attribute must exist in the
    operator's input schema. Catalyst's ``ResolveMissingReferences`` would
    otherwise silently resolve a filter on a projected-away column, letting
    invalid SAs (Figure 3's dashed subtrees) slip through schema validation.
    A tuple flatten needs a struct and a relation flatten an array of
    structs; operators are checked bottom-up, so an operator's input schema
    is derived only once everything below it has passed.
    """
    for op in A.walk(query):
        children = op.children()
        if not children:
            continue
        if isinstance(op, A.Join):
            l, r = (schemas.schema(c) for c in children)
            if any(A.type_at(l, lc) is None or A.type_at(r, rc) is None for lc, rc in op.cond):
                return False
            continue
        child_schema = schemas.schema(children[0])
        for p in op.param_attrs():
            if p != "*" and A.type_at(child_schema, p) is None:
                return False
        if isinstance(op, A.FlattenTup):
            if not isinstance(A.type_at(child_schema, op.attr), T.StructType):
                return False
        elif isinstance(op, A.FlattenRel):
            t = A.type_at(child_schema, op.attr)
            if not (isinstance(t, T.ArrayType) and isinstance(t.elementType, T.StructType)):
                return False
    return True


def enumerate_sas(
    query: A.Op,
    whynot: Tup,
    schemas: A.SchemaCache,
    alt_map: dict[str, list[str]],
) -> list[SchemaAlternative]:
    """Enumerate and prune SAs; the original query is always ``sa_id=1``."""
    choices: list[tuple[int, str, str, list[str]]] = []  # (op_id, subst_key, attr, options)
    for op in A.walk(query):
        if isinstance(op, A.Project):
            refs = [(f"{o}::{p}", p) for o, e in op.items for p in sorted(e.attrs())]
        else:
            refs = [(q, q) for q in sorted(op.param_attrs())]
        for key, q in refs:
            # operator parameters reference the operator's INPUT schema —
            # resolve from the children, not from the operator's own output
            resolved = None
            for child in op.children():
                resolved = resolve_source(child, q, schemas)
                if resolved is not None:
                    break
            src = resolved[1] if resolved else q
            alts = alt_map.get(src, [])
            if not alts:
                continue
            opts = [q] + [_derive_op_level_name(q, src, alt) for alt in alts]
            choices.append((op.op_id, key, q, opts))

    orig_schema = _schema_sig(schemas.schema(query))
    sas: list[SchemaAlternative] = [
        SchemaAlternative(1, query, frozenset(), backtrace(query, whynot, schemas), "original")
    ]

    combos = itertools.product(*(range(len(opts)) for _, _, _, opts in choices))
    next(combos)  # skip the all-original combo (already added)
    n_combos = math.prod(len(opts) for _, _, _, opts in choices) - 1
    sa_id = 2
    for examined, combo in enumerate(combos):
        if sa_id > MAX_SAS:
            warnings.warn(
                f"enumerate_sas: stopped at MAX_SAS={MAX_SAS} SAs; "
                f"{n_combos - examined} of {n_combos} attribute-alternative "
                "combinations were not examined",
                UserWarning,
                stacklevel=2,
            )
            break
        subst: dict[int, dict[str, str]] = {}
        parts = []
        for (op_id, key, q, opts), idx in zip(choices, combo):
            if idx == 0:
                continue
            subst.setdefault(op_id, {})[key] = opts[idx]
            parts.append(f"op{op_id}:{q}→{opts[idx]}")
        if not subst:
            continue
        q2 = A.rewrite(query, subst)
        try:
            if not _refs_valid(q2, schemas):
                continue
            sig = _schema_sig(schemas.schema(q2))
        except ParseException:
            raise  # malformed SQL text is a compiler bug, not an invalid SA
        except AnalysisException:
            continue  # invalid query under this substitution — pruned
        if sig != orig_schema:
            continue  # output schema is fixed by definition — pruned
        bt2 = backtrace(q2, whynot, schemas)
        sas.append(
            SchemaAlternative(sa_id, q2, frozenset(subst), bt2, ", ".join(parts))
        )
        sa_id += 1
    return sas

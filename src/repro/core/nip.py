"""Nested Instances with Placeholders (NIPs) — Definitions 3–5 of the paper.

A NIP describes a (set of) missing answer(s): ``?`` matches any value of the
right type, ``*`` matches 0+ additional tuples of a nested relation, constants
match themselves, and (our extension, needed by the TPC-H why-not tuples such
as ``⟨avgDisc : > 0.45⟩``) value predicates match any value satisfying them.

Two implementations of Definition 4:
- :func:`to_spark_pred` — compile a tuple-typed NIP into a Spark SQL
  condition: the ``consistent`` annotation ``_c`` of data tracing, the one
  match the explanation search reads. Bags compile to ``exists`` (one
  existential per explicit element, without multiplicities); a value
  predicate that cannot be compiled raises rather than match everything.
- :func:`matches` — the full matcher on collected Python data, including the
  bag multiplicity assignment (condition 4), via backtracking; the tests'
  oracle for the compiled predicate.

Both read nulls the same way: a trivial NIP (pure ``?`` structure, such as
``?``, ``{{*}}`` or ``⟨x: ?⟩``) matches any value, null included, and a null
nested relation reads as the empty bag, so ``{{}}`` matches it and
``{{?, *}}`` does not. ``AggPerTuple``'s count reads a null relation as empty
too.
"""
from __future__ import annotations

from dataclasses import dataclass

from .exprs import Cmp, Const, Pred, sql_and, sql_lit, sql_path


class Nip:
    """Base class for NIP nodes."""

    def is_trivial(self) -> bool:
        """True if the NIP matches everything (pure ``?`` structure)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Wild(Nip):
    """The instance placeholder ``?``."""

    def is_trivial(self) -> bool:
        return True

    def __repr__(self) -> str:
        return "?"


WILD = Wild()


@dataclass(frozen=True)
class Val(Nip):
    """A fully specified primitive value."""

    value: object

    def is_trivial(self) -> bool:
        return False

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class ValPred(Nip):
    """A value predicate placeholder, e.g. ``> 0.45`` (matches satisfying values).

    ``pred.holds(v)`` must evaluate the predicate on a single python value.
    """

    pred: Pred

    def is_trivial(self) -> bool:
        return False

    def __repr__(self) -> str:
        return f"⟨{self.pred}⟩"


@dataclass(frozen=True)
class Tup(Nip):
    """A tuple NIP: mapping attribute name → child NIP.

    Attributes omitted from ``fields`` are implicitly ``?``.
    """

    fields: tuple[tuple[str, Nip], ...]

    def __init__(self, fields: dict[str, Nip] | tuple = ()):  # noqa: D401
        if isinstance(fields, dict):
            fields = tuple(fields.items())
        object.__setattr__(self, "fields", tuple(fields))

    def as_dict(self) -> dict[str, Nip]:
        return dict(self.fields)

    def is_trivial(self) -> bool:
        return all(v.is_trivial() for _, v in self.fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v!r}" for k, v in self.fields)
        return f"⟨{inner}⟩"


@dataclass(frozen=True)
class Bag(Nip):
    """A bag NIP ``{{e₁, …, eₙ}}`` with an optional trailing ``*``."""

    elems: tuple[Nip, ...]
    star: bool = False

    def __init__(self, elems=(), star: bool = False):
        object.__setattr__(self, "elems", tuple(elems))
        object.__setattr__(self, "star", star)

    def is_trivial(self) -> bool:
        # {{*}} matches any bag; {{?, *}} requires at least one element.
        return self.star and not self.elems

    def __repr__(self) -> str:
        inner = ", ".join(map(repr, self.elems)) + (", *" if self.star else "")
        return "{{" + inner + "}}"


# ---------------------------------------------------------------------------
# Definition 4 matcher (Python side, exact, incl. bag multiplicities)
# ---------------------------------------------------------------------------


def _as_plain(value):
    """Normalize Spark Row / dict / list values into plain python structures."""
    if hasattr(value, "asDict"):  # a Spark Row (a tuple subclass)
        return {k: _as_plain(v) for k, v in value.asDict().items()}
    if isinstance(value, dict):
        return {k: _as_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_plain(v) for v in value]
    return value


def matches(instance, nip: Nip) -> bool:
    """Does ``instance`` match ``nip`` (Definition 4)?

    Bags use a backtracking assignment honoring multiplicities: every
    instance element must be assigned to an equal explicit NIP element, to a
    ``?``/predicate element, or to ``*`` (if present); every explicit NIP
    element must be used exactly once.
    """
    instance = _as_plain(instance)
    if nip.is_trivial():
        return True
    if isinstance(nip, Val):
        return instance == nip.value
    if isinstance(nip, ValPred):
        return nip.pred.holds(instance)
    if isinstance(nip, Tup):
        if instance is None or not isinstance(instance, dict):
            return False
        return all(matches(instance.get(k), v) for k, v in nip.fields)
    if isinstance(nip, Bag):
        if instance is None:
            instance = []  # a null nested relation reads as the empty bag
        if not isinstance(instance, list):
            return False
        return _match_bag(instance, list(nip.elems), nip.star)
    raise TypeError(f"unknown NIP node {nip!r}")


def _match_bag(items: list, elems: list[Nip], star: bool) -> bool:
    """Backtracking assignment for bag matching (condition 4 of Def. 4)."""
    if not elems:
        return star or not items
    if len(items) < len(elems):
        return False  # each explicit element needs a distinct instance tuple

    def bt(i: int, remaining: list[int]) -> bool:
        if i == len(elems):
            return star or not remaining
        for j in list(remaining):
            if matches(items[j], elems[i]):
                nxt = [x for x in remaining if x != j]
                if bt(i + 1, nxt):
                    return True
        return False

    return bt(0, list(range(len(items))))


# ---------------------------------------------------------------------------
# Spark SQL compilation (for `consistent` annotations)
# ---------------------------------------------------------------------------


def _sql_match(expr: str, nip: Nip, depth: int) -> str:
    """SQL condition that the value of SQL expression ``expr`` matches
    ``nip``; ``depth`` numbers the lambda variables of nested bags."""
    if isinstance(nip, Wild):
        return "true"
    if isinstance(nip, Val):
        return f"({expr} = {sql_lit(nip.value)})"
    if isinstance(nip, ValPred):
        # Only comparisons against constants are compilable here.
        p = nip.pred
        if isinstance(p, Cmp) and isinstance(p.right, Const):
            return f"({expr} {p.op} {p.right.to_sql()})"
        raise NotImplementedError(f"value predicate {p!r} does not compile to Spark")
    if isinstance(nip, Tup):
        return sql_and(_sql_match(f"{expr}.{sql_path(name)}", child, depth)
                       for name, child in nip.fields if not child.is_trivial())
    if isinstance(nip, Bag):
        x = f"_x{depth}"
        conds = [
            f"coalesce(size({expr}) >= 1, false)" if isinstance(elem, Wild)
            else f"coalesce(exists({expr}, {x} -> {_sql_match(x, elem, depth + 1)}), false)"
            for elem in nip.elems
        ]
        if not nip.elems and not nip.star:
            conds.append(f"(coalesce(size({expr}), 0) = 0)")
        return sql_and(conds)
    raise TypeError(f"unknown NIP node {nip!r}")


def to_spark_pred(nip: Tup) -> str:
    """Compile a tuple NIP over a DataFrame's top-level schema into a Spark
    SQL condition (for ``DataFrame.filter`` or ``selectExpr``).

    Null top-level values fail non-trivial constraints (``coalesce`` to
    false), so outer-join/outer-flatten padding is handled naturally.
    """
    assert isinstance(nip, Tup), "top-level why-not NIPs are tuple-typed"
    return sql_and(f"coalesce({_sql_match(sql_path(name), child, 0)}, false)"
                   for name, child in nip.fields if not child.is_trivial())


def tup(**fields) -> Tup:
    """Shorthand tuple-NIP constructor: values may be Nips or plain constants."""
    return Tup({k: v if isinstance(v, Nip) else Val(v) for k, v in fields.items()})


def bag(*elems, star: bool = False) -> Bag:
    """Shorthand bag-NIP constructor."""
    return Bag([e if isinstance(e, Nip) else Val(e) for e in elems], star=star)

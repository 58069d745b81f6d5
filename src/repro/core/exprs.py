"""Introspectable scalar/boolean expression AST for NRAB operator parameters.

Operator parameters (selection conditions, computed projections, join
conditions) must be *introspectable* — schema backtracing needs the set of
referenced attribute paths, schema alternatives substitute attributes, and
data tracing needs both the original predicate (to compute ``retained``
flags) and its "full relaxation". Raw Spark ``Column`` objects expose none
of that, so we keep a tiny AST and compile to ``Column`` on demand.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from pyspark.sql import Column
from pyspark.sql import functions as F

_CMP_OPS = {"=", "!=", "<", "<=", ">", ">="}


def _missing(value) -> bool:
    """A null value: ``None``, or NaN as pandas reads a null key."""
    return value is None or (isinstance(value, float) and math.isnan(value))


class Scalar:
    """Base class for scalar expressions (attribute refs, constants, arithmetic)."""

    def attrs(self) -> set[str]:
        raise NotImplementedError

    def to_col(self) -> Column:
        raise NotImplementedError

    def subst(self, mapping: dict[str, str]) -> "Scalar":
        """Return a copy with attribute paths replaced per ``mapping``."""
        raise NotImplementedError


@dataclass(frozen=True)
class Attr(Scalar):
    """Reference to a (possibly dotted, nested) attribute path."""

    path: str

    def attrs(self) -> set[str]:
        return {self.path}

    def to_col(self) -> Column:
        return F.col(self.path)

    def subst(self, mapping: dict[str, str]) -> "Attr":
        if self.path in mapping:
            return Attr(mapping[self.path])
        # prefix substitution: replacing `address2` also redirects `address2.city`
        for old, new in mapping.items():
            if self.path.startswith(old + "."):
                return Attr(new + self.path[len(old):])
        return self

    def __repr__(self) -> str:
        return self.path


@dataclass(frozen=True)
class Const(Scalar):
    """A literal constant value."""

    value: object

    def attrs(self) -> set[str]:
        return set()

    def to_col(self) -> Column:
        return F.lit(self.value)

    def subst(self, mapping: dict[str, str]) -> "Const":
        return self

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Arith(Scalar):
    """Binary arithmetic over scalars: ``+ - * /``."""

    op: str
    left: Scalar
    right: Scalar

    def attrs(self) -> set[str]:
        return self.left.attrs() | self.right.attrs()

    def to_col(self) -> Column:
        l, r = self.left.to_col(), self.right.to_col()
        return {"+": l + r, "-": l - r, "*": l * r, "/": l / r}[self.op]

    def subst(self, mapping: dict[str, str]) -> "Arith":
        return Arith(self.op, self.left.subst(mapping), self.right.subst(mapping))

    def __repr__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


class Pred:
    """Base class for boolean conditions."""

    def attrs(self) -> set[str]:
        raise NotImplementedError

    def to_col(self) -> Column:
        raise NotImplementedError

    def subst(self, mapping: dict[str, str]) -> "Pred":
        raise NotImplementedError

    def holds(self, value) -> bool:
        """Python-side evaluation (used for value-predicate feasibility)."""
        raise NotImplementedError


@dataclass(frozen=True)
class TruePred(Pred):
    """The always-true condition (a fully relaxed selection)."""

    def attrs(self) -> set[str]:
        return set()

    def to_col(self) -> Column:
        return F.lit(True)

    def subst(self, mapping: dict[str, str]) -> "TruePred":
        return self

    def holds(self, value) -> bool:
        return True

    def __repr__(self) -> str:
        return "true"


TRUE = TruePred()


@dataclass(frozen=True)
class Cmp(Pred):
    """Comparison ``left op right`` with op in =, !=, <, <=, >, >=."""

    left: Scalar
    op: str
    right: Scalar

    def __post_init__(self):
        assert self.op in _CMP_OPS, self.op

    def attrs(self) -> set[str]:
        return self.left.attrs() | self.right.attrs()

    def to_col(self) -> Column:
        l, r = self.left.to_col(), self.right.to_col()
        return {
            "=": l == r,
            "!=": l != r,
            "<": l < r,
            "<=": l <= r,
            ">": l > r,
            ">=": l >= r,
        }[self.op]

    def subst(self, mapping: dict[str, str]) -> "Cmp":
        return Cmp(self.left.subst(mapping), self.op, self.right.subst(mapping))

    def holds(self, value) -> bool:
        """Evaluate assuming ``left`` is the single attribute and right a const;
        a missing value fails, as SQL's null comparison does."""
        if _missing(value):
            return False
        c = self.right.value if isinstance(self.right, Const) else self.right
        return {
            "=": value == c,
            "!=": value != c,
            "<": value < c,
            "<=": value <= c,
            ">": value > c,
            ">=": value >= c,
        }[self.op]

    def __repr__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class Like(Pred):
    """SQL LIKE / NOT LIKE on a scalar (used by TPC-H Q13's comment filter)."""

    expr: Scalar
    pattern: str
    negated: bool = False

    def attrs(self) -> set[str]:
        return self.expr.attrs()

    def to_col(self) -> Column:
        c = self.expr.to_col().like(self.pattern)
        return ~c if self.negated else c

    def subst(self, mapping: dict[str, str]) -> "Like":
        return Like(self.expr.subst(mapping), self.pattern, self.negated)

    def holds(self, value) -> bool:
        if _missing(value):
            return False
        rx = (
            "^"
            + re.escape(self.pattern).replace("\\%", ".*").replace("%", ".*")
            .replace("\\_", ".").replace("_", ".")
            + "$"
        )
        m = re.match(rx, str(value))
        return (m is None) if self.negated else (m is not None)

    def __repr__(self) -> str:
        return f"{self.expr} {'NOT ' if self.negated else ''}LIKE {self.pattern!r}"


@dataclass(frozen=True)
class And(Pred):
    preds: tuple[Pred, ...]

    def __init__(self, *preds: Pred):
        object.__setattr__(self, "preds", tuple(preds))

    def attrs(self) -> set[str]:
        return set().union(*(p.attrs() for p in self.preds)) if self.preds else set()

    def to_col(self) -> Column:
        col = F.lit(True)
        for p in self.preds:
            col = col & p.to_col()
        return col

    def subst(self, mapping: dict[str, str]) -> "And":
        return And(*(p.subst(mapping) for p in self.preds))

    def holds(self, value) -> bool:
        return all(p.holds(value) for p in self.preds)

    def __repr__(self) -> str:
        return "(" + " ∧ ".join(map(repr, self.preds)) + ")"


@dataclass(frozen=True)
class Or(Pred):
    preds: tuple[Pred, ...]

    def __init__(self, *preds: Pred):
        object.__setattr__(self, "preds", tuple(preds))

    def attrs(self) -> set[str]:
        return set().union(*(p.attrs() for p in self.preds)) if self.preds else set()

    def to_col(self) -> Column:
        col = F.lit(False)
        for p in self.preds:
            col = col | p.to_col()
        return col

    def subst(self, mapping: dict[str, str]) -> "Or":
        return Or(*(p.subst(mapping) for p in self.preds))

    def holds(self, value) -> bool:
        return any(p.holds(value) for p in self.preds)

    def __repr__(self) -> str:
        return "(" + " ∨ ".join(map(repr, self.preds)) + ")"


def a(path: str) -> Attr:
    """Shorthand attribute constructor."""
    return Attr(path)


def c(value) -> Const:
    """Shorthand constant constructor."""
    return Const(value)


def cmp(left: str | Scalar, op: str, right) -> Cmp:
    """Shorthand comparison: ``cmp("year", ">=", 2019)``."""
    l = Attr(left) if isinstance(left, str) else left
    r = right if isinstance(right, Scalar) else Const(right)
    return Cmp(l, op, r)

"""Introspectable scalar/boolean expression AST for NRAB operator parameters.

Operator parameters (selection conditions, computed projections, join
conditions) must be *introspectable* — schema backtracing needs the set of
referenced attribute paths, schema alternatives substitute attributes, and
data tracing needs both the original predicate (to compute ``retained``
flags) and its "full relaxation". Raw Spark ``Column`` objects expose none
of that, so we keep a tiny AST and compile it to Spark SQL text on demand
(``to_sql``; attribute paths through :func:`sql_path`, constants through
:func:`sql_lit`). The text goes to ``DataFrame.filter``/``selectExpr``, which
parse it once on the JVM side, so an expression costs a few py4j round trips
however many nodes it has (DESIGN decision 8).
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

_CMP_OPS = {"=", "!=", "<", "<=", ">", ">="}


def sql_path(path: str) -> str:
    """A dotted attribute path as Spark SQL, each segment backtick-quoted."""
    return ".".join("`" + part.replace("`", "``") + "`" for part in path.split("."))


def sql_lit(value) -> str:
    """A Python constant as a Spark SQL literal of the type ``F.lit`` gives it.

    A float gets the ``D`` suffix (a bare ``24.0`` is DECIMAL(3,1)); a string
    escapes ``\\`` and ``'``, the two characters Spark's parser unescapes.
    """
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value!r}D"
    if isinstance(value, str):
        return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"
    raise TypeError(f"no Spark SQL literal for {value!r}")


def sql_and(conds) -> str:
    """The SQL conjunction of the conditions ``conds`` (``true`` if none)."""
    conds = list(conds)
    return "(" + " AND ".join(conds) + ")" if conds else "true"


def _missing(value) -> bool:
    """A null value: ``None``, or NaN as pandas reads a null key."""
    return value is None or (isinstance(value, float) and math.isnan(value))


class Scalar:
    """Base class for scalar expressions (attribute refs, constants, arithmetic)."""

    def attrs(self) -> set[str]:
        raise NotImplementedError

    def to_sql(self) -> str:
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

    def to_sql(self) -> str:
        return sql_path(self.path)

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

    def to_sql(self) -> str:
        return sql_lit(self.value)

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

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"

    def subst(self, mapping: dict[str, str]) -> "Arith":
        return Arith(self.op, self.left.subst(mapping), self.right.subst(mapping))

    def __repr__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


class Pred:
    """Base class for boolean conditions."""

    def attrs(self) -> set[str]:
        raise NotImplementedError

    def to_sql(self) -> str:
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

    def to_sql(self) -> str:
        return "true"

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

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"

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

    def to_sql(self) -> str:
        neg = "NOT " if self.negated else ""
        return f"({self.expr.to_sql()} {neg}LIKE {sql_lit(self.pattern)})"

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

    def to_sql(self) -> str:
        return sql_and(p.to_sql() for p in self.preds)

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

    def to_sql(self) -> str:
        return "(" + " OR ".join(p.to_sql() for p in self.preds) + ")" if self.preds else "false"

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

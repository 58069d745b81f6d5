"""Query shapes tracing does not support raise ``NotImplementedError`` before
anything is built, instead of tracing a query they would misread."""
from collections import defaultdict

import pytest

from repro.core import algebra as A
from repro.core import nip as N
from repro.core.alternatives import SchemaAlternative
from repro.core.backtrace import Backtrace
from repro.core.exprs import cmp
from repro.core.tracing import trace

COUNT = [("count", "*", "n")]


def _r():
    return A.TableAccess("r")


@pytest.mark.parametrize("build", [
    lambda: A.GroupAgg(A.Union(_r(), _r()), ["k"], COUNT),
    lambda: A.Union(_r(), _r()),
    lambda: A.GroupAgg(A.AggPerTuple(_r(), "count", "xs", "m"), ["k"], COUNT),
    lambda: A.Join(A.GroupAgg(_r(), ["k"], COUNT), _r(), [("k", "k")]),
    lambda: A.FlattenRel(A.NestRel(_r(), ["x"], "xs"), "xs"),
    lambda: A.Select(A.NestRel(_r(), ["x"], "xs"), cmp("k", ">", 1)),
], ids=["union-below-cut", "union-no-cut", "agg-per-tuple-below-cut", "join-above-cut",
        "flatten-above-cut", "select-above-nesting"])
def test_unsupported_shapes_raise(build):
    query = build()
    bt = Backtrace({}, defaultdict(lambda: N.Tup({})), [])
    sa = SchemaAlternative(1, query, frozenset(), bt, "original")
    with pytest.raises(NotImplementedError):
        trace(sa, bt)

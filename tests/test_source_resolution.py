"""``M_sbt`` against the data (§5.1), independent of ``backtrace.source_step``.

Schema alternatives look up an operator parameter's source attribute via
``resolve_source``. Below any aggregation or relation nesting, every
non-null value the operator reads at that parameter must be a value of the
source table at the resolved path: selections, joins, flattens, renamings
and projections only drop, pair up, unnest or rename source values.
The same loop pins the number of schema alternatives each question keeps.
"""
import warnings

import pytest

from repro.core import algebra as A
from repro.core.alternatives import enumerate_sas
from repro.core.backtrace import resolve_source
from repro.core.exprs import sql_path
from repro.workloads.registry import all_scenarios

SF = 0.004
# SAs ``enumerate_sas`` keeps per question (Q4 has 18 valid SAs, capped at
# MAX_SAS); the invalid ones are pruned by ``algebra.build``'s validation
N_SAS = {
    "C1": 1, "C2": 1, "C3": 2, "D1": 4, "D2": 2, "D3": 2, "D4": 2, "D5": 2,
    "T1": 2, "T2": 2, "T3": 2, "T4": 2, "TASD": 2,
    "Q1": 6, "Q1F": 6, "Q3": 12, "Q3F": 12, "Q4": 16, "Q4F": 16,
    "Q6": 12, "Q6F": 12, "Q10": 2, "Q10F": 2, "Q13": 1, "Q13F": 1,
}


def _freeze(v):
    """A hashable form of a collected value (Rows and lists to tuples)."""
    if isinstance(v, (list, tuple)):
        return tuple(_freeze(x) for x in v)
    return v


def _at(v, parts):
    """The non-null values at the path ``parts`` below ``v``, exploding
    every array met before the last segment."""
    if v is None:
        return
    if not parts:
        yield _freeze(v)
    elif isinstance(v, list):
        for x in v:
            yield from _at(x, parts)
    else:
        yield from _at(v[parts[0]], parts[1:])


def _fill(memo, key, df, paths):
    """Collect the values of ``df`` at each of ``paths`` not yet in
    ``memo[key, path]``, in one Spark job."""
    paths = sorted(p for p in paths if (key, p) not in memo)
    if not paths:
        return
    heads = sorted({p.split(".")[0] for p in paths})
    rows = df.select(*map(sql_path, heads)).collect()
    for p in paths:
        memo[key, p] = {v for r in rows for v in _at(r, p.split("."))}


def _below_layers(op: A.Op) -> bool:
    return not any(isinstance(n, (A.GroupAgg, A.AggPerTuple, A.NestRel))
                   for c in op.children() for n in A.walk(c))


@pytest.fixture(scope="module")
def cache():
    """Databases by group, and values by (frame or table, path): frames are
    keyed by their operator tree without op ids, so scenarios share them."""
    return {"db": {}, "values": {}}


@pytest.mark.parametrize("key", sorted(all_scenarios()))
def test_resolved_source_holds_the_values_read(spark, cache, key):
    scn = all_scenarios()[key]
    if scn.group not in cache["db"]:
        cache["db"][scn.group] = scn.build_db(spark, SF)
    schemas = A.SchemaCache(cache["db"][scn.group])
    query, _ = scn.build_query()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # Q4's MAX_SAS warning
        sas = enumerate_sas(query, scn.whynot(schemas.db, query), schemas, scn.alternatives())
    assert len(sas) == N_SAS[key], [sa.desc for sa in sas]
    checks, reads, sources = [], {}, {}
    for op in A.walk(query):
        if not op.children() or not _below_layers(op):
            continue
        for q in sorted(op.param_attrs() - {"*"}):
            # as ``enumerate_sas``: the first input that resolves ``q``
            for child in op.children():
                src = resolve_source(child, q, schemas)
                if src is not None:
                    break
            if src is None:
                continue
            frame = (scn.group, repr(child))
            reads.setdefault(frame, (child, set()))[1].add(q)
            sources.setdefault((scn.group, src[0]), set()).add(src[1])
            checks.append((op.label, q, frame, src))
    assert checks, "no parameter attribute resolved"
    values = cache["values"]
    for frame, (child, paths) in reads.items():
        _fill(values, frame, schemas.frame(child), paths)
    for (group, table), paths in sources.items():
        _fill(values, (group, table), schemas.db[table], paths)
    for label, q, frame, (table, path) in checks:
        missing = values[frame, q] - values[(scn.group, table), path]
        assert not missing, (label, q, table, path, sorted(map(repr, missing))[:5])

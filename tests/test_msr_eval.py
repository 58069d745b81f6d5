"""Randomized check of the array candidate evaluator against a row-by-row oracle.

Every random stats table is evaluated twice for every candidate: once by
``CandidateEval`` (bitmasks and per-group array reductions) and once by the
plain-Python oracle below, which walks the rows and groups one at a time.
Success, Algorithm-4 necessity of each operator, the side-effect bounds and
the baselines' successor counts must agree.

The tables are states tracing can produce: under a key constraint ``_c`` is
that constraint on the row's keys (the evaluator reads the key match from it,
the oracle re-matches the keys with ``nip.matches``), and the keys of the
rows that fail it are null, as ``collect_stats`` collapses them.
"""
import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest

from repro.core import nip as N
from repro.core.exprs import Cmp, Const, a, cmp
from repro.core.msr import CandidateEval
from repro.core.tracing import Layer, Traced

FLAG_OPS = (3, 5, 8, 11)
POST_OPS = (20, 21)
STACK_POST_OP = 30
TABLES = ("r", "s", "u")
OPS = ("=", "!=", "<", "<=", ">", ">=")
# (fn, out, attr kind): count(*), count of a non-numeric attribute, numeric aggs
AGGS = (
    ("count", "cstar", "*"),
    ("count", "cname", "str"),
    ("count", "cv", "num"),
    ("sum", "s", "num"),
    ("avg", "a", "num"),
    ("min", "mn", "num"),
    ("max", "mx", "num"),
)

# the aggregate-input columns collect_stats emits per function (numeric attr)
READS = {
    "count": ("cnt",),
    "min": ("cnt", "min", "max"),
    "max": ("cnt", "min", "max"),
    "avg": ("cnt", "min", "max", "sum"),
    "sum": ("cnt", "min", "max", "sum", "pos", "neg"),
}


# ---------------------------------------------------------------------------
# the oracle: one row, one group at a time
# ---------------------------------------------------------------------------


def _missing(v):
    return v is None or (isinstance(v, float) and math.isnan(v))


def _is(v, x):
    return not _missing(v) and v == x


def o_allowed(rows, tr, E):
    return [r for r in rows
            if all(_is(r[col], 1) for op, col in tr.flags.items() if op not in E)]


def o_interval(fn, grp, out, subset_ok):
    n = sum(r["_n"] for r in grp)
    if n == 0:
        return None
    if fn == "count" and f"_cnt_{out}" not in grp[0]:
        return (1, n) if subset_ok else (n, n)
    cnt = sum(r[f"_cnt_{out}"] for r in grp)
    if fn == "count":
        return ((0 if n > cnt else min(1, cnt)) if subset_ok else cnt, cnt)
    if f"_min_{out}" not in grp[0] or cnt == 0:
        return None
    vals = {c: [r[f"_{c}_{out}"] for r in grp if not _missing(r[f"_{c}_{out}"])]
            for c in READS[fn] if c != "cnt"}
    mn, mx = min(vals["min"]), max(vals["max"])
    if fn == "sum":
        s, pos, neg = sum(vals["sum"]), sum(vals["pos"]), sum(vals["neg"])
        if not subset_ok:
            return (s, s)
        lo = neg if neg < 0 else min(mn, pos)
        hi = pos if pos > 0 else mx
        return (min(lo, s), max(hi, s))
    if fn == "avg":
        s = sum(vals["sum"])
        return (mn, mx) if subset_ok else (s / cnt, s / cnt)
    if fn == "min":
        return (mn, mx) if subset_ok else (mn, mn)
    return (mn, mx) if subset_ok else (mx, mx)


def o_pred(pred, iv):
    if iv is None:
        return False
    lo, hi = iv
    if isinstance(pred, Cmp) and isinstance(pred.right, Const):
        c = pred.right.value
        return {"=": lo <= c <= hi, "!=": not (lo == hi == c), "<": lo < c,
                "<=": lo <= c, ">": hi > c, ">=": hi >= c}[pred.op]
    return True


def o_nip(nip, iv):
    if iv is None:
        return False
    if isinstance(nip, N.Val):
        return iv[0] <= nip.value <= iv[1]
    if isinstance(nip, N.ValPred):
        return o_pred(nip.pred, iv)
    return True


def o_success(rows, tr, E):
    allowed = o_allowed(rows, tr, E)
    if not tr.layers:
        return sum(r["_n"] for r in allowed if r["_c"] == 1) > 0
    layer0 = tr.layers[0]
    groups = {}
    for r in allowed:  # missing keys form one group and read as NaN
        gk = tuple("<missing>" if _missing(r[k]) else r[k] for k in layer0.keys)
        groups.setdefault(gk, []).append(r)
    subset_ok = bool(E & tr.sel_ops)
    qualifying = 0
    for gk, grp in groups.items():
        kd = {k: math.nan if v == "<missing>" else v for k, v in zip(layer0.keys, gk)}
        if not all(N.matches(kd[k], nip) for k, nip in layer0.key_nip.fields):
            continue
        if sum(r["_nc"] for r in grp) <= 0:
            continue
        iv = {out: o_interval(fn, grp, out, subset_ok) for fn, _, out in layer0.aggs}
        ok = all(o_nip(nv, iv.get(out)) for out, nips in layer0.value_preds.items()
                 for nv in nips)
        for op, pred in layer0.post_filters:
            ref = next(iter(pred.attrs()))
            if op in E or not ok:
                continue
            if ref in iv:
                ok = o_pred(pred, iv[ref])
            elif ref in kd:
                ok = pred.holds(kd[ref])
        qualifying += ok
    if qualifying == 0:
        return False
    for layer in tr.layers[1:2]:
        if not all(o_nip(nv, (1, qualifying))
                   for nips in layer.value_preds.values() for nv in nips):
            return False
        if not all(o_pred(p, (1, qualifying)) for op, p in layer.post_filters if op not in E):
            return False
    return True


def o_necessary(rows, tr, E, op):
    if op not in tr.flags:
        smaller = E - {op}
        return not (smaller and o_success(rows, tr, smaller))
    return sum(r["_n"] for r in o_allowed(rows, tr, E)
               if r["_c"] == 1 and _is(r[tr.flags[op]], 0)) > 0


def o_bounds(rows, tr, E):
    changed = [tr.flags[o] for o in E if o in tr.flags]
    if not changed:
        return 0, 0
    plus = sum(r["_n"] for r in o_allowed(rows, tr, E)
               if any(_is(r[c], 0) for c in changed))
    minus = sum(r["_n"] for r in rows if all(_is(r[c], 1) for c in tr.flags.values()))
    return plus, minus


def o_survivors(rows, tr, ops, table):
    return sum(r["_n"] for r in rows
               if all(_is(r[tr.flags[op]], 1) for op in ops)
               and (table is None or _is(r[tr.compat_tables[table]], 1)))


# ---------------------------------------------------------------------------
# random stats tables
# ---------------------------------------------------------------------------


def _values(rng, n):
    """Aggregate-input columns of one stats row over ``n`` numeric inputs."""
    padded = rng.random() < 0.25  # all contributions null (outer-join padding)
    xs = [] if padded else [rng.randint(-4, 6) for _ in range(n) if rng.random() < 0.7]
    if not xs:
        return dict(cnt=0, sum=None, pos=None, neg=None, min=None, max=None)
    return dict(cnt=len(xs), sum=sum(xs), pos=sum(max(x, 0) for x in xs),
                neg=sum(min(x, 0) for x in xs), min=min(xs), max=max(xs))


def _pred_on(rng, attr):
    return cmp(attr, rng.choice(OPS), rng.randint(-3, 8))


def random_case(seed):
    rng = random.Random(seed)
    flags = {op: f"_f{op}" for op in rng.sample(FLAG_OPS, rng.randint(1, len(FLAG_OPS)))}
    shape = rng.choice(["none", "layer", "layer", "stacked"])
    keys = () if shape == "none" else rng.choice([(), ("k",), ("k", "j"), ("j",)])
    aggs = () if shape == "none" else tuple(
        (fn, "*" if kind == "*" else f"in_{out}", out)
        for fn, out, kind in rng.sample(AGGS, rng.randint(1, 4)))
    rows = []
    for _ in range(rng.randint(0, 16)):
        r = {col: rng.choice([1, 1, 0, None] if rng.random() < 0.3 else [1, 1, 0])
             for col in flags.values()}
        r["_c"] = int(rng.random() < 0.6)
        r["k"] = rng.choice(["a", "b", "c", None, np.nan])
        r["j"] = rng.choice([1.0, 2.0, 3.0, np.nan])
        r["_n"] = n = rng.randint(1, 3)
        for fn, attr, out in aggs:
            kind = next(k for _, o, k in AGGS if o == out)
            if kind == "str":
                r[f"_cnt_{out}"] = rng.randint(0, n)
            elif kind == "num":
                vals = _values(rng, n)
                r.update({f"_{c}_{out}": vals[c] for c in READS[fn]})
        rows.append(r)
    # the stats table carries key columns only when the layer groups by them
    cols = [*keys, *flags.values(), "_c", "_n"]
    if shape != "none":
        cols += sorted({c for r in rows for c in r if c.startswith("_") and c[1:4]
                        in ("cnt", "sum", "pos", "neg", "min", "max")})
    rows = [{c: r.get(c) for c in cols} for r in rows]

    layers = []
    if shape != "none":
        outs = [out for _, _, out in aggs]
        key_nip = {}
        if "k" in keys and rng.random() < 0.5:
            key_nip["k"] = N.Val(rng.choice(["a", "b"]))
        if "j" in keys and rng.random() < 0.5:
            key_nip["j"] = N.ValPred(_pred_on(rng, "j"))
        if key_nip:
            # as traced: ``_c`` is the key constraint, and collect_stats nulls
            # every key of the rows that fail it (one collapsed group per mask)
            for r in rows:
                r["_c"] = int(all(N.matches(r[k], nip) for k, nip in key_nip.items()))
                if not r["_c"]:
                    r.update(dict.fromkeys(keys))
        value_preds = {}
        for out in rng.sample(outs, rng.randint(0, len(outs))):
            value_preds[out] = [rng.choice([N.WILD, N.Val(rng.randint(-2, 6)),
                                            N.ValPred(_pred_on(rng, out))])]
        post = []
        for op in POST_OPS[: rng.randint(0, 2)]:
            attr = rng.choice(outs + list(keys))
            if attr == "k":
                post.append((op, cmp("k", rng.choice(OPS), rng.choice(["a", "b", "c"]))))
            else:
                post.append((op, _pred_on(rng, attr)))
        layers.append(Layer(40, keys, aggs, N.Tup(key_nip), value_preds, post))
        if shape == "stacked":
            layers.append(Layer(
                41, (outs[0],), (("count", "*", "custdist"),), N.Tup({}),
                {"custdist": [N.ValPred(_pred_on(rng, "custdist"))]},
                [(STACK_POST_OP, cmp("custdist", rng.choice(OPS), rng.randint(0, 4)))]))
    sel_ops = frozenset(o for o in flags if rng.random() < 0.5)
    # source-compatibility flags the baselines group by; null is outer-join padding
    compat_tables = {t: f"_k_{t}" for t in rng.sample(TABLES, rng.randint(0, len(TABLES)))}
    for r in rows:
        r.update({col: rng.choice([1, 1, 0, None]) for col in compat_tables.values()})
        r["_nc"] = r["_n"] * r["_c"]  # the oracle's consistent rows; not a stats column
    stats = pd.DataFrame(rows, columns=[*cols, *compat_tables.values()])
    tr = Traced(df=None, flags=flags, sel_ops=sel_ops, layers=layers,
                compat_tables=compat_tables, tables=())
    return stats, rows, tr


@pytest.mark.parametrize("seed", range(300))
def test_evaluator_matches_oracle(seed):
    stats, rows, tr = random_case(seed)
    ev = CandidateEval(stats, tr)
    relaxable = sorted(tr.flags) + [op for layer in tr.layers for op, _ in layer.post_filters]
    for k in range(1, len(relaxable) + 1):
        for combo in itertools.combinations(relaxable, k):
            E = frozenset(combo)
            assert ev.success(E) == o_success(rows, tr, E), E
            for op in combo:
                assert ev.necessary(E, op) == o_necessary(rows, tr, E, op), (E, op)
            assert ev.bounds(E) == o_bounds(rows, tr, E), E
    for k in range(len(tr.flags) + 1):
        for ops in itertools.combinations(sorted(tr.flags), k):
            for table in [*tr.compat_tables, None]:
                assert ev.survivors(ops, table) == o_survivors(rows, tr, ops, table), (
                    ops, table)


@pytest.mark.parametrize("n_flags", [64, 100])
def test_flag_matrix_has_no_operator_cap(n_flags):
    """Flags are boolean matrix columns, not bits of a fixed-width mask: a
    SA with more flagged operators than a 64-bit mask holds is evaluated."""
    stats, _, tr = random_case(0)
    tr = replace(tr, flags={op: f"_f{op}" for op in range(100, 100 + n_flags)})
    flags = pd.DataFrame(1, index=stats.index, columns=list(tr.flags.values()))
    stats = pd.concat([stats, flags], axis=1)
    ev = CandidateEval(stats, tr)
    assert ev.survivors(tr.flags) == stats["_n"].sum() > 0


def test_cases_cover_the_edge_cases():
    """The seeds above include every situation the evaluator special-cases."""
    seen = set()
    for seed in range(300):
        stats, rows, tr = random_case(seed)
        flags = list(tr.flags.values())
        seen.add("layer" if tr.layers else "no layer")
        if len(tr.layers) > 1:
            seen.add("stacked")
        if stats[flags].isna().any().any():
            seen.add("null flag")
        if stats[list(tr.compat_tables.values())].isna().any().any():
            seen.add("null compat flag")
        if tr.layers:
            layer0 = tr.layers[0]
            if any(stats[k].isna().any() for k in layer0.keys):
                seen.add("missing key")
            for fn, attr, out in layer0.aggs:
                if attr == "*":
                    seen.add("count(*)")
                if out == "cname":
                    seen.add("non-numeric count")
                if f"_sum_{out}" in stats and stats[f"_sum_{out}"].isna().any():
                    seen.add("all-null sum")
                if f"_neg_{out}" in stats and (
                        (stats[f"_neg_{out}"] < 0) & (stats[f"_pos_{out}"] > 0)).any():
                    seen.add("mixed signs")
            refs = {next(iter(p.attrs())) for _, p in layer0.post_filters}
            if refs & set(layer0.keys):
                seen.add("key post-filter")
            if "k" in refs and stats["k"].isna().any():
                seen.add("post-filter on a missing string key")
            if not layer0.key_nip.is_trivial() and (stats["_c"] == 0).any():
                seen.add("collapsed rows")
            if refs & {out for _, _, out in layer0.aggs}:
                seen.add("aggregate post-filter")
    assert seen == {
        "layer", "no layer", "stacked", "null flag", "null compat flag", "missing key",
        "count(*)",
        "non-numeric count", "all-null sum", "mixed signs", "key post-filter",
        "aggregate post-filter", "post-filter on a missing string key", "collapsed rows",
    }


# ---------------------------------------------------------------------------
# layer shapes the evaluator cannot check raise instead of passing silently
# ---------------------------------------------------------------------------

COUNT = Layer(40, ("k",), (("count", "*", "c"),), N.Tup({}))
STACKED = Layer(41, ("c",), (("count", "*", "custdist"),), N.Tup({}))


def _post(op_id, pred, layer=COUNT):
    return Layer(layer.op_id, layer.keys, layer.aggs, layer.key_nip, {}, [(op_id, pred)])


@pytest.mark.parametrize("layers", [
    [_post(20, cmp("z", ">", 1))],  # neither a key nor an aggregate output
    [_post(20, cmp("c", "<", a("k")))],  # a key and an aggregate output
    [COUNT, Layer(41, ("c",), (("sum", "c", "s"),), N.Tup({}))],  # stacked sum
    [COUNT, _post(30, cmp("c", ">", 1), STACKED)],  # stacked post on its key
    [COUNT, STACKED, Layer(42, ("custdist",), (("count", "*", "n"),), N.Tup({}))],
], ids=["post-unknown-attr", "post-two-attrs", "stacked-sum", "stacked-post-on-key",
        "third-layer"])
def test_unsupported_layers_raise(layers):
    stats = pd.DataFrame({"k": ["a"], "_f3": [1], "_c": [1], "_n": [2]})
    tr = Traced(df=None, flags={3: "_f3"}, sel_ops=frozenset(), layers=layers,
                compat_tables={}, tables=())
    with pytest.raises(NotImplementedError):
        CandidateEval(stats, tr)


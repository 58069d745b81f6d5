"""Step 4 — computing (approximate) MSRs from tracing annotations (§5.4).

From each schema alternative's annotated DataFrame we aggregate once into
per-(group-key, flag-mask) statistics, then evaluate every candidate
explanation — a set of operator ids = SA-changed operators ∪ a subset of
relaxable operators — entirely from that small collected table:

* a candidate ``E`` *succeeds* iff a tuple matching the why-not NIP is
  producible when the operators in ``E`` are reparameterized: rows whose
  flags for operators **outside** ``E`` are all 1 are "allowed"; for
  aggregation layers, value predicates are checked against the interval of
  aggregate values achievable by (sub)sets of allowed contributing rows;
* every non-SA operator in ``E`` must be *necessary* in the sense of
  Algorithm 4: it must block at least one re-validated-consistent row that
  is otherwise allowed (``retained = 0 ∧ consistent = 1``);
* side effects are bounded loosely (UB on added/removed top-level rows), and
  explanations are ranked by a total refinement of Definition 9's partial
  order: ``(|Δ|, #SA-changed ops, side-effect UB, labels)``.

Subset semantics: if ``E`` contains at least one selection, upstream
reparameterizations may also *restrict* the contributing set, so aggregate
values range over subsets; otherwise the aggregate is the exact value over
all allowed rows (the paper's tracing likewise only models full relaxation,
§5.5 (ii)).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import functions as F
from pyspark.sql import types as T

from . import algebra as A
from . import nip as N
from .alternatives import SchemaAlternative, enumerate_sas
from .backtrace import backtrace
from .exprs import Cmp, Const, Pred
from .tracing import Traced, trace

# Largest number of relaxed operators added to an SA's changed operators.
MAX_EXTRA_OPS = 4

_NUMERIC = (
    T.IntegerType,
    T.LongType,
    T.DoubleType,
    T.FloatType,
    T.DecimalType,
    T.ShortType,
)


@dataclass(frozen=True)
class Explanation:
    ops: frozenset[int]
    labels: tuple[str, ...]
    sa_id: int
    sa_ops: frozenset[int]
    ub_plus: int
    ub_minus: int

    @property
    def rank_key(self):
        return (len(self.ops), len(self.sa_ops), self.ub_plus + self.ub_minus, self.labels)

    def __repr__(self):
        return "{" + ", ".join(self.labels) + "}"


# ---------------------------------------------------------------------------
# statistics collection (one Spark aggregation per SA)
# ---------------------------------------------------------------------------


def collect_stats(tr: Traced, extra_cols: tuple[str, ...] = ()) -> pd.DataFrame:
    """Aggregate the annotated DataFrame into per-(keys, mask) statistics.

    ``extra_cols`` adds further grouping columns (the baselines group by the
    source-compatibility flags ``_k_<table>`` as well).
    """
    flag_cols = [tr.flags[i] for i in sorted(tr.flags)] + list(extra_cols)
    df = tr.df
    if not tr.layers:
        grouped = df.groupBy(*flag_cols, "_c").agg(F.count(F.lit(1)).alias("_n"))
        return grouped.toPandas()

    keys = list(tr.layers[0].keys)
    aggs = [F.count(F.lit(1)).alias("_n"), F.sum("_c").alias("_nc")]
    schema_types = {f.name: f.dataType for f in df.schema.fields}
    for fn, attr, out in tr.layers[0].aggs:
        if attr == "*":
            continue
        col = F.col(attr)
        aggs.append(F.count(col).alias(f"_cnt_{out}"))
        if isinstance(schema_types.get(attr), _NUMERIC):
            aggs += [
                F.sum(col).alias(f"_sum_{out}"),
                F.sum(F.greatest(col, F.lit(0))).alias(f"_pos_{out}"),
                F.sum(F.least(col, F.lit(0))).alias(f"_neg_{out}"),
                F.min(col).alias(f"_min_{out}"),
                F.max(col).alias(f"_max_{out}"),
            ]
    grouped = df.groupBy(*keys, *flag_cols, "_c").agg(*aggs)
    return grouped.toPandas()


# ---------------------------------------------------------------------------
# interval feasibility for aggregate value predicates
# ---------------------------------------------------------------------------


def _nip_interval_feasible(nip: N.Nip, lo, hi) -> bool:
    """Is a value satisfying ``nip`` achievable within [lo, hi]?

    Subset-achievable aggregate values are approximated as a dense interval
    (documented in DESIGN.md); ``None`` bounds mean "no value achievable".
    """
    if lo is None or hi is None:
        return False
    if isinstance(nip, N.Wild):
        return True
    if isinstance(nip, N.Val):
        return lo <= nip.value <= hi
    if isinstance(nip, N.ValPred):
        return _pred_interval_feasible(nip.pred, lo, hi)
    return True


def _pred_interval_feasible(pred: Pred, lo, hi) -> bool:
    if isinstance(pred, Cmp) and isinstance(pred.right, Const):
        cst = pred.right.value
        return {
            "=": lo <= cst <= hi,
            "!=": not (lo == hi == cst),
            "<": lo < cst,
            "<=": lo <= cst,
            ">": hi > cst,
            ">=": hi >= cst,
        }[pred.op]
    return True  # uncheckable predicate: optimistic


def _agg_interval(fn: str, rows: pd.DataFrame, out: str, subset_ok: bool):
    """Achievable [lo, hi] for aggregate ``fn`` over the allowed rows."""
    n = int(rows["_n"].sum())
    if n == 0:
        return (None, None)
    if fn == "count" and f"_cnt_{out}" not in rows.columns:  # count(*)
        return (1, n) if subset_ok else (n, n)
    cnt = int(rows[f"_cnt_{out}"].sum())
    if fn == "count":
        if not subset_ok:
            return (cnt, cnt)
        lo = 0 if (n - cnt) > 0 else min(1, cnt)
        return (lo, cnt)
    if f"_sum_{out}" not in rows.columns:
        return (None, None)  # non-numeric attr: only count supported
    if cnt == 0:
        return (None, None)  # all contributions null → aggregate is null
    s = float(rows[f"_sum_{out}"].sum())
    mn = float(rows[f"_min_{out}"].min())
    mx = float(rows[f"_max_{out}"].max())
    if fn == "sum":
        if not subset_ok:
            return (s, s)
        pos = float(rows[f"_pos_{out}"].sum())
        neg = float(rows[f"_neg_{out}"].sum())
        lo = neg if neg < 0 else min(mn, pos)
        hi = pos if pos > 0 else mx
        return (min(lo, s), max(hi, s))
    if fn == "avg":
        return (mn, mx) if subset_ok else (s / cnt, s / cnt)
    if fn == "min":
        return (mn, mx) if subset_ok else (mn, mn)
    if fn == "max":
        return (mn, mx) if subset_ok else (mx, mx)
    raise ValueError(fn)


# ---------------------------------------------------------------------------
# candidate evaluation
# ---------------------------------------------------------------------------


def _allowed(stats: pd.DataFrame, tr: Traced, E: frozenset[int]) -> pd.DataFrame:
    out = stats
    for op_id, col in tr.flags.items():
        if op_id not in E:
            out = out[out[col] == 1]
    return out


def _blocks_consistent(stats: pd.DataFrame, tr: Traced, E: frozenset[int], op_id: int) -> bool:
    """Necessity (Algorithm 4): op blocks a consistent row otherwise allowed.

    Post-aggregation selections have no per-row flag; they are necessary iff
    dropping them from the candidate makes it fail (their predicate blocks
    the qualifying group).
    """
    if op_id not in tr.flags:
        smaller = E - {op_id}
        return not (smaller and _success(stats, tr, smaller))
    rows = stats[stats["_c"] == 1]
    rows = rows[rows[tr.flags[op_id]] == 0]
    for other, col in tr.flags.items():
        if other != op_id and other not in E:
            rows = rows[rows[col] == 1]
    return bool(len(rows) and rows["_n"].sum() > 0)


def _group_level_success(stats, tr: Traced, E: frozenset[int]) -> bool:
    layer0 = tr.layers[0]
    rows = _allowed(stats, tr, E)
    if not len(rows):
        return False
    subset_ok = bool(E & tr.sel_ops)
    key_constraints = {
        k: v for k, v in layer0.key_nip.fields if k in layer0.keys and not v.is_trivial()
    }
    if layer0.keys:
        groups = rows.groupby(list(layer0.keys), dropna=False, sort=False)
    else:  # global aggregate (e.g. Q1/Q6): a single group
        groups = [((), rows)]

    qualifying = 0
    for key_vals, g in groups:
        if not isinstance(key_vals, tuple):
            key_vals = (key_vals,)
        kd = dict(zip(layer0.keys, key_vals))
        if any(not N.matches(kd[k], nip) for k, nip in key_constraints.items()):
            continue
        if g["_nc"].sum() <= 0:
            continue  # no re-validated-consistent contributor in this group
        ok = True
        agg_by_out = {out: (fn, attr) for fn, attr, out in layer0.aggs}
        intervals = {}
        for out, (fn, attr) in agg_by_out.items():
            intervals[out] = _agg_interval(fn, g, out, subset_ok)
        for out, nips in layer0.value_preds.items():
            lo, hi = intervals.get(out, (None, None))
            if not all(_nip_interval_feasible(nv, lo, hi) for nv in nips):
                ok = False
                break
        if ok:
            for op_id, pred in layer0.post_filters:
                if op_id in E:
                    continue
                attrs = list(pred.attrs())
                ref = attrs[0] if attrs else None
                if ref in intervals:
                    lo, hi = intervals[ref]
                    if lo is None or not _pred_interval_feasible(pred, lo, hi):
                        ok = False
                        break
                elif ref in kd:
                    if not pred.holds(kd[ref]):
                        ok = False
                        break
        if ok:
            qualifying += 1
    if qualifying == 0:
        return False
    if len(tr.layers) > 1:
        # Stacked layer (e.g. Q13's custdist): its key constraints were
        # deferred into layer0.value_preds; its own value predicates are
        # checked against [1, #qualifying lower-layer groups].
        for out, nips in tr.layers[1].value_preds.items():
            if not all(_nip_interval_feasible(nv, 1, qualifying) for nv in nips):
                return False
        for op_id, pred in tr.layers[1].post_filters:
            if op_id in E:
                continue
            if not _pred_interval_feasible(pred, 1, qualifying):
                return False
    return True


def _success(stats: pd.DataFrame, tr: Traced, E: frozenset[int]) -> bool:
    if tr.layers:
        return _group_level_success(stats, tr, E)
    rows = _allowed(stats, tr, E)
    rows = rows[rows["_c"] == 1]
    return bool(len(rows) and rows["_n"].sum() > 0)


def _side_effect_bounds(stats: pd.DataFrame, tr: Traced, E: frozenset[int]):
    """Loose UB on added/removed top-level rows (paper §5.4, loose bounds)."""
    changed = [tr.flags[o] for o in E if o in tr.flags]
    if not changed:
        return 0, 0
    rows = _allowed(stats, tr, E)
    newly = rows[(rows[changed] == 0).any(axis=1)]
    orig = stats
    for col in tr.flags.values():
        orig = orig[orig[col] == 1]
    return int(newly["_n"].sum()), int(orig["_n"].sum())


# ---------------------------------------------------------------------------
# top-level driver
# ---------------------------------------------------------------------------


def approximate_msrs(
    query: A.Op,
    db,
    whynot: N.Tup,
    alt_map: dict[str, list[str]] | None = None,
    with_sas: bool = True,
) -> list[Explanation]:
    """Run the full §5 pipeline and return ranked explanations."""
    schemas = A.SchemaCache(db)
    if with_sas and alt_map:
        sas = enumerate_sas(query, whynot, schemas, alt_map)
    else:
        bt = backtrace(query, whynot, schemas)
        sas = [SchemaAlternative(1, query, frozenset(), bt, "original")]
    orig_bt = sas[0].bt

    labels = A.labels(query)
    found: dict[frozenset[int], Explanation] = {}

    for sa in sas:
        tr = trace(sa, db, orig_bt)
        stats = collect_stats(tr)
        relaxable = sorted(tr.flags) + [
            op_id for layer in tr.layers for op_id, _ in layer.post_filters
        ]
        relaxable = [o for o in relaxable if o not in sa.changed_ops]
        max_k = min(len(relaxable), MAX_EXTRA_OPS)
        for k in range(0, max_k + 1):
            for combo in itertools.combinations(relaxable, k):
                E = frozenset(combo) | sa.changed_ops
                if not E:
                    continue
                if not _success(stats, tr, E):
                    continue
                if not all(_blocks_consistent(stats, tr, E, o) for o in combo):
                    continue
                ubp, ubm = _side_effect_bounds(stats, tr, E)
                exp = Explanation(
                    ops=E,
                    labels=tuple(sorted(labels[o] for o in E)),
                    sa_id=sa.sa_id,
                    sa_ops=sa.changed_ops,
                    ub_plus=ubp,
                    ub_minus=ubm,
                )
                if E not in found or exp.rank_key < found[E].rank_key:
                    found[E] = exp
    return sorted(found.values(), key=lambda e: e.rank_key)

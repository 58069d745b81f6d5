"""Step 4 — computing (approximate) MSRs from tracing annotations (§5.4).

The instrumented queries of a group of row-compatible schema alternatives
(``tracing.groups``; S₁ is a group of its own) are merged into one query,
the only one built, and aggregated in one Spark job into per-(SA, group-key,
flag-mask) statistics. We then evaluate every candidate
explanation — a set of operator ids = SA-changed operators ∪ a subset of
relaxable operators — entirely from that small collected table, encoded once
per SA as boolean flag matrices and float arrays (:class:`CandidateEval`):

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

import numpy as np
import pandas as pd
from pyspark.sql import functions as F
from pyspark.sql import types as T

from . import algebra as A
from . import nip as N
from .alternatives import SchemaAlternative, enumerate_sas
from .backtrace import backtrace
from .exprs import Cmp, Const, Pred, sql_case, sql_path
from .tracing import Traced, groups, merge, trace

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
# statistics collection (one Spark aggregation per group of SAs)
# ---------------------------------------------------------------------------


def collect_stats(group: list[Traced], schemas: A.SchemaCache) -> pd.DataFrame:
    """Aggregate a group's merged frame (``tracing.merge``, built through
    ``schemas``) into per-(``_sa``, keys, flags, compat flags, ``_c``)
    statistics, in one Spark job; :func:`per_sa` splits the table by SA.

    ``_c`` is the key constraint (DESIGN decision 2): rows failing it
    collapse into one null-key group per mask, which never qualifies. A key
    column is named after the group's first SA's key.
    """
    df = schemas.frame(merge(group))
    tr = group[0]
    cols = ["_sa", *(tr.flags[i] for i in sorted(tr.flags)), *tr.compat_tables.values(), "_c"]
    keys, aggs = [], {"_n": "count(1)"}  # stats column -> SQL aggregate
    if tr.layers:
        for k, per_sa_keys in zip(tr.layers[0].keys, zip(*(t.layers[0].keys for t in group))):
            key = sql_case("_sa", [sql_path(x) for x in per_sa_keys])
            keys.append(F.expr(f"if(_c = 1, {key}, null) AS {sql_path(k)}"))
        schema_types = {f.name: f.dataType for f in df.schema.fields}
        for fn, attr, out in tr.layers[0].aggs:
            if attr == "*":
                continue
            x = sql_path(attr)
            aggs[f"_cnt_{out}"] = f"count({x})"
            if fn == "count" or not isinstance(schema_types.get(attr), _NUMERIC):
                continue  # only what ``_agg_interval`` reads for ``fn``
            aggs[f"_min_{out}"], aggs[f"_max_{out}"] = f"min({x})", f"max({x})"
            if fn in ("avg", "sum"):
                aggs[f"_sum_{out}"] = f"sum({x})"
            if fn == "sum":
                aggs[f"_pos_{out}"] = f"sum(greatest({x}, 0))"
                aggs[f"_neg_{out}"] = f"sum(least({x}, 0))"
    grouped = df.groupBy(*keys, *cols).agg(
        *(F.expr(f"{e} AS {sql_path(col)}") for col, e in aggs.items()))
    return grouped.toPandas()


def per_sa(stats: pd.DataFrame, group: list[Traced]) -> list[pd.DataFrame]:
    """Each SA's rows of its group's stats table, with the key columns
    under the SA's own key names."""
    out = []
    for i, tr in enumerate(group, 1):
        rows = stats[stats["_sa"] == i].drop(columns="_sa").reset_index(drop=True)
        if tr.layers:
            rows = rows.rename(columns=dict(zip(group[0].layers[0].keys, tr.layers[0].keys)))
        out.append(rows)
    return out


# ---------------------------------------------------------------------------
# interval feasibility for aggregate value predicates
# ---------------------------------------------------------------------------
#
# Intervals are float arrays with one entry per group (scalars work too);
# NaN bounds mean "no value achievable".


def _nip_interval_feasible(nip: N.Nip, lo, hi):
    """Is a value satisfying ``nip`` achievable within [lo, hi]?

    Subset-achievable aggregate values are approximated as a dense interval
    (documented in DESIGN.md).
    """
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    if isinstance(nip, N.ValPred):
        return _pred_interval_feasible(nip.pred, lo, hi)
    ok = ~np.isnan(lo)
    if isinstance(nip, N.Val) and ok.any():
        ok &= (lo <= nip.value) & (nip.value <= hi)
    return ok


def _pred_interval_feasible(pred: Pred, lo, hi):
    if not (isinstance(pred, Cmp) and isinstance(pred.right, Const)):
        raise NotImplementedError(f"value predicate {pred!r} is not checkable on an interval")
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    ok = ~np.isnan(lo)
    # no achievable value: nothing to compare (the constant may be no number)
    if ok.any():
        cst = pred.right.value
        ok &= {
            "=": (lo <= cst) & (cst <= hi),
            "!=": ~((lo == hi) & (hi == cst)),
            "<": lo < cst,
            "<=": lo <= cst,
            ">": hi > cst,
            ">=": hi >= cst,
        }[pred.op]
    return ok


def _agg_interval(fn: str, g: dict[str, np.ndarray], out: str, subset_ok: bool):
    """Achievable [lo, hi] per group for aggregate ``fn`` over its allowed
    rows; ``g`` holds the per-group totals of :func:`_reduce`."""
    n = g["_n"]
    nan = np.full(len(n), np.nan)
    if fn == "count" and f"_cnt_{out}" not in g:  # count(*)
        lo = np.ones_like(n) if subset_ok else n
        return np.where(n > 0, lo, nan), np.where(n > 0, n, nan)
    cnt = g[f"_cnt_{out}"]
    if fn == "count":
        lo = np.where(n > cnt, 0.0, np.minimum(1.0, cnt)) if subset_ok else cnt
        return np.where(n > 0, lo, nan), np.where(n > 0, cnt, nan)
    if f"_min_{out}" not in g:
        return nan, nan  # non-numeric attr: only count supported
    mn, mx = g[f"_min_{out}"], g[f"_max_{out}"]
    if fn == "sum":
        s = g[f"_sum_{out}"]
        if subset_ok:
            pos, neg = g[f"_pos_{out}"], g[f"_neg_{out}"]
            lo = np.minimum(np.where(neg < 0, neg, np.minimum(mn, pos)), s)
            hi = np.maximum(np.where(pos > 0, pos, mx), s)
        else:
            lo = hi = s
    elif fn == "avg":
        if subset_ok:
            lo, hi = mn, mx
        else:
            lo = hi = np.divide(g[f"_sum_{out}"], cnt, out=nan.copy(), where=cnt > 0)
    elif fn == "min":
        lo, hi = mn, (mx if subset_ok else mn)
    elif fn == "max":
        lo, hi = (mn if subset_ok else mx), mx
    else:
        raise ValueError(fn)
    ok = (n > 0) & (cnt > 0)  # all contributions null → aggregate is null
    return np.where(ok, lo, nan), np.where(ok, hi, nan)


# ---------------------------------------------------------------------------
# candidate evaluation
# ---------------------------------------------------------------------------

_SUMMED = ("_cnt_", "_sum_", "_pos_", "_neg_")


def _columns(stats: pd.DataFrame) -> dict[str, np.ndarray]:
    """The count and aggregate columns of a stats table as float arrays.

    Nulls become 0 in the summed columns (pandas' ``sum`` skips them) and
    stay NaN in the ``_min_``/``_max_`` columns.
    """
    out = {}
    for col in stats.columns:
        summed = col == "_n" or col.startswith(_SUMMED)
        if summed or col.startswith(("_min_", "_max_")):
            v = stats[col].to_numpy(dtype=float, na_value=np.nan)
            out[col] = np.nan_to_num(v, nan=0.0) if summed else v
    return out


def _reduce(cols: dict[str, np.ndarray], codes: np.ndarray, ngroups: int):
    """Per-group totals: sums, or min/max ignoring nulls (NaN if none)."""
    out = {}
    for col, v in cols.items():
        if col.startswith(("_min_", "_max_")):
            acc = np.full(ngroups, np.nan)
            (np.fmin if col.startswith("_min_") else np.fmax).at(acc, codes, v)
            out[col] = acc
        else:
            out[col] = np.bincount(codes, weights=v, minlength=ngroups)
    return out


class CandidateEval:
    """Evaluates every candidate explanation of one SA from its stats table.

    Built once per SA: the flags become two boolean matrices, stats rows ×
    flagged operators (``one``: flag = 1, ``zero``: flag = 0; a null flag is
    in neither), counts and aggregate inputs become float arrays, and the
    group codes and key post-filter results are computed once per group. A
    candidate ``E`` then costs a few whole-table array reductions: its allowed rows are
    those whose flags outside ``E`` are all 1. The lineage baselines read
    their successor counts from it too (:meth:`survivors`).
    """

    def __init__(self, stats: pd.DataFrame, tr: Traced):
        self.tr = tr
        self.index = {op_id: i for i, op_id in enumerate(sorted(tr.flags))}
        flags = stats[[tr.flags[op_id] for op_id in self.index]].to_numpy(
            dtype=float, na_value=np.nan)
        self.one, self.zero = flags == 1, flags == 0
        self.cols = _columns(stats)
        self.n = self.cols["_n"]
        self.consistent = stats["_c"].to_numpy() == 1
        self.cols["_nc"] = self.n * self.consistent
        self.orig_n = int(self.n[self.one.all(axis=1)].sum())
        # the baselines' source-compatibility flags (a null flag is not 1)
        self.compat = {
            table: stats[col].to_numpy(dtype=float, na_value=np.nan) == 1
            for table, col in tr.compat_tables.items()
        }
        if len(tr.layers) > 2:
            raise NotImplementedError(f"{len(tr.layers)} stacked aggregation layers")
        if len(tr.layers) == 2:
            # a stacked layer is checked against [1, #qualifying groups] below
            # (``success``): only counts, post-selected on a count, fit that
            layer1 = tr.layers[1]
            counts = {out for fn, _, out in layer1.aggs if fn == "count"}
            if len(counts) < len(layer1.aggs) or any(
                    len(pred.attrs()) != 1 or not pred.attrs() <= counts
                    for _, pred in layer1.post_filters):
                raise NotImplementedError(
                    f"stacked layer γ{layer1.op_id}: only count aggregates, "
                    "post-selected on a count, are supported")
        if tr.layers:
            self._init_groups(stats, tr.layers[0])

    def _init_groups(self, stats: pd.DataFrame, layer0):
        keys = list(layer0.keys)
        if keys:
            grouped = stats.groupby(keys, dropna=False, sort=False)
            self.codes = grouped.ngroup().to_numpy()
            index = grouped.size().index  # in group-code order
            kds = [dict(zip(keys, kv if len(keys) > 1 else (kv,))) for kv in index]
        else:  # global aggregate (e.g. Q1/Q6): a single group
            self.codes = np.zeros(len(stats), np.intp)
            kds = [{}]
        self.ngroups = len(kds)
        # post-aggregation selections: (op id, predicate, aggregate output it
        # reads or None, precomputed per-group result if it reads a key)
        outs = {out for _, _, out in layer0.aggs}
        self.post = []
        for op_id, pred in layer0.post_filters:
            attrs = pred.attrs()
            ref = next(iter(attrs)) if len(attrs) == 1 else None
            if ref in outs:
                self.post.append((op_id, pred, ref, None))
            elif ref in keys:
                held = np.array([bool(pred.holds(kd[ref])) for kd in kds], dtype=bool)
                self.post.append((op_id, pred, None, held))
            else:
                raise NotImplementedError(
                    f"post-aggregation selection σ{op_id} [{pred}] reads neither "
                    "one group key nor one aggregate output")

    def _indices(self, ops) -> list[int]:
        return [self.index[op_id] for op_id in ops if op_id in self.index]

    def _allowed(self, E: frozenset[int]) -> np.ndarray:
        return self.one[:, self._indices(self.index.keys() - E)].all(axis=1)

    def survivors(self, ops, table: str | None = None) -> int:
        """Rows (by ``_n``) whose flag is 1 for every operator in ``ops``;
        with ``table``, only successors of ``table``'s compatibles
        (``_k_<table>`` = 1). These are the baselines' successor counts."""
        rows = self.one[:, self._indices(ops)].all(axis=1)
        if table is not None:
            rows &= self.compat[table]
        return int(self.n[rows].sum())

    def success(self, E: frozenset[int]) -> bool:
        """Is a tuple matching the why-not NIP producible once ``E`` is
        reparameterized?"""
        allowed = self._allowed(E)
        if not self.tr.layers:
            return bool(self.n[allowed & self.consistent].sum() > 0)
        if not allowed.any():
            return False
        layer0 = self.tr.layers[0]
        g = _reduce({c: v[allowed] for c, v in self.cols.items()},
                    self.codes[allowed], self.ngroups)
        subset_ok = bool(E & self.tr.sel_ops)
        intervals = {out: _agg_interval(fn, g, out, subset_ok) for fn, _, out in layer0.aggs}
        # a qualifying group has a re-validated-consistent contributor (so
        # its keys match the key constraint)
        ok = g["_nc"] > 0
        for out, nips in layer0.value_preds.items():
            lo, hi = intervals.get(out, (np.nan, np.nan))
            for nv in nips:
                ok &= _nip_interval_feasible(nv, lo, hi)
        for op_id, pred, ref, held in self.post:
            if op_id not in E:
                ok &= held if ref is None else _pred_interval_feasible(pred, *intervals[ref])
        qualifying = int(ok.sum())
        if qualifying == 0:
            return False
        if len(self.tr.layers) > 1:
            # Stacked layer (e.g. Q13's custdist): its key constraints were
            # deferred into layer0.value_preds; its own value predicates are
            # checked against [1, #qualifying lower-layer groups].
            layer1 = self.tr.layers[1]
            for nips in layer1.value_preds.values():
                if not all(_nip_interval_feasible(nv, 1, qualifying) for nv in nips):
                    return False
            for op_id, pred in layer1.post_filters:
                if op_id not in E and not _pred_interval_feasible(pred, 1, qualifying):
                    return False
        return True

    def necessary(self, E: frozenset[int], op_id: int) -> bool:
        """Necessity (Algorithm 4): ``op_id`` blocks a consistent row that
        ``E`` otherwise allows.

        Post-aggregation selections have no per-row flag; they are necessary
        iff dropping them from the candidate makes it fail (their predicate
        blocks the qualifying group).
        """
        if op_id not in self.index:
            smaller = E - {op_id}
            return not (smaller and self.success(smaller))
        blocked = self.zero[:, self.index[op_id]]
        rows = self.consistent & blocked & self._allowed(E | {op_id})
        return bool(self.n[rows].sum() > 0)

    def bounds(self, E: frozenset[int]) -> tuple[int, int]:
        """Loose UB on added/removed top-level rows (paper §5.4, loose bounds)."""
        changed = self._indices(E)
        if not changed:
            return 0, 0
        newly = self._allowed(E) & self.zero[:, changed].any(axis=1)
        return int(self.n[newly].sum()), self.orig_n


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

    evals = {}
    for group in groups([trace(sa, orig_bt) for sa in sas], schemas):
        for tr, rows in zip(group, per_sa(collect_stats(group, schemas), group)):
            evals[tr.sa.sa_id] = CandidateEval(rows, tr)

    labels = A.labels(query)
    found: dict[frozenset[int], Explanation] = {}
    for sa in sas:
        ev = evals[sa.sa_id]
        tr = ev.tr
        relaxable = sorted(tr.flags) + [
            op_id for layer in tr.layers for op_id, _ in layer.post_filters
        ]
        relaxable = [o for o in relaxable if o not in sa.changed_ops]
        for k in range(len(relaxable) + 1):
            for combo in itertools.combinations(relaxable, k):
                E = frozenset(combo) | sa.changed_ops
                if not E:
                    continue
                if not ev.success(E):
                    continue
                if not all(ev.necessary(E, o) for o in combo):
                    continue
                ubp, ubm = ev.bounds(E)
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

"""Aggregate feasibility intervals and side-effect machinery (§5.4)."""
import numpy as np
import pandas as pd
import pytest

from repro.core import algebra as A
from repro.core import nip as N
from repro.core.alternatives import SchemaAlternative
from repro.core.backtrace import backtrace
from repro.core.exprs import And, a, cmp
from repro.core.msr import (
    _agg_interval,
    _columns,
    _nip_interval_feasible,
    _pred_interval_feasible,
    _reduce,
    collect_stats,
)
from repro.core.tracing import trace
from repro.workloads.registry import all_scenarios


AGG_PREFIXES = ("_cnt_", "_sum_", "_pos_", "_neg_", "_min_", "_max_")


def rows(**cols):
    return pd.DataFrame(cols)


def interval(fn, g, out, subset_ok):
    """``_agg_interval`` over all rows of ``g`` as one group; None if empty."""
    totals = _reduce(_columns(g), np.zeros(len(g), np.intp), 1)
    lo, hi = _agg_interval(fn, totals, out, subset_ok)
    return (None, None) if np.isnan(lo[0]) else (lo[0], hi[0])


class TestAggIntervals:
    def test_count_exact(self):
        g = rows(_n=[3], _cnt_c=[2])
        assert interval("count", g, "c", subset_ok=False) == (2, 2)

    def test_count_subset_with_null_rows_reaches_zero(self):
        g = rows(_n=[3], _cnt_c=[2])  # one row has a null attr
        assert interval("count", g, "c", subset_ok=True) == (0, 2)

    def test_count_subset_all_nonnull_min_one(self):
        g = rows(_n=[2], _cnt_c=[2])
        assert interval("count", g, "c", subset_ok=True) == (1, 2)

    def test_count_star(self):
        g = rows(_n=[4])
        assert interval("count", g, "c", subset_ok=False) == (4, 4)
        assert interval("count", g, "c", subset_ok=True) == (1, 4)

    def test_empty_group_unachievable(self):
        g = rows(_n=[], _cnt_c=[])
        assert interval("count", g, "c", subset_ok=True) == (None, None)

    def test_sum_exact(self):
        g = rows(_n=[2], _cnt_s=[2], _sum_s=[10.0], _pos_s=[10.0], _neg_s=[0.0],
                 _min_s=[4.0], _max_s=[6.0])
        assert interval("sum", g, "s", subset_ok=False) == (10.0, 10.0)

    def test_sum_subset_positive_values(self):
        g = rows(_n=[2], _cnt_s=[2], _sum_s=[10.0], _pos_s=[10.0], _neg_s=[0.0],
                 _min_s=[4.0], _max_s=[6.0])
        lo, hi = interval("sum", g, "s", subset_ok=True)
        assert lo == 4.0 and hi == 10.0

    def test_sum_subset_mixed_signs(self):
        g = rows(_n=[3], _cnt_s=[3], _sum_s=[5.0], _pos_s=[8.0], _neg_s=[-3.0],
                 _min_s=[-3.0], _max_s=[6.0])
        lo, hi = interval("sum", g, "s", subset_ok=True)
        assert lo == -3.0 and hi == 8.0

    def test_sum_all_null_contributions(self):
        """A group fed only by padded rows (Q10's ⋈³⁸): sum unachievable."""
        g = rows(_n=[2], _cnt_s=[0], _sum_s=[None], _pos_s=[None], _neg_s=[None],
                 _min_s=[None], _max_s=[None])
        assert interval("sum", g, "s", subset_ok=True) == (None, None)

    def test_avg_subset_range(self):
        g = rows(_n=[2], _cnt_s=[2], _sum_s=[10.0], _pos_s=[10.0], _neg_s=[0.0],
                 _min_s=[4.0], _max_s=[6.0])
        assert interval("avg", g, "s", subset_ok=True) == (4.0, 6.0)
        assert interval("avg", g, "s", subset_ok=False) == (5.0, 5.0)

    def test_min_max(self):
        g = rows(_n=[2], _cnt_s=[2], _sum_s=[10.0], _pos_s=[10.0], _neg_s=[0.0],
                 _min_s=[4.0], _max_s=[6.0])
        assert interval("min", g, "s", subset_ok=False) == (4.0, 4.0)
        assert interval("max", g, "s", subset_ok=False) == (6.0, 6.0)

    def test_min_max_avg_read_only_their_columns(self):
        """collect_stats emits ``_sum_`` for avg and sum only, and
        ``_pos_``/``_neg_`` for sum only."""
        g = rows(_n=[2], _cnt_s=[2], _min_s=[4.0], _max_s=[6.0])
        assert interval("min", g, "s", subset_ok=True) == (4.0, 6.0)
        assert interval("max", g, "s", subset_ok=False) == (6.0, 6.0)
        g = rows(_n=[2], _cnt_s=[2], _min_s=[4.0], _max_s=[6.0], _sum_s=[10.0])
        assert interval("avg", g, "s", subset_ok=False) == (5.0, 5.0)

    def test_non_numeric_attr_has_no_extrema(self):
        g = rows(_n=[2], _cnt_s=[2])
        assert interval("min", g, "s", subset_ok=True) == (None, None)


class TestStatsColumns:
    """``collect_stats`` aggregates only what ``_agg_interval`` reads for
    each aggregate function."""

    @pytest.mark.parametrize("key, want", [
        ("Q13", {"_cnt_c_count"}),  # count(o_orderkey)
        ("Q10", {f"_{c}_revenue" for c in ("cnt", "min", "max", "sum", "pos", "neg")}),
    ])
    def test_aggregate_columns(self, spark, key, want):
        scn = all_scenarios()[key]
        db = scn.build_db(spark, 0.004)
        query, _ = scn.build_query()
        schemas = A.SchemaCache(db)
        bt = backtrace(query, scn.whynot(db, query), schemas)
        tr = trace(SchemaAlternative(1, query, frozenset(), bt, "original"), bt)
        stats = collect_stats([tr], schemas)
        assert {c for c in stats.columns if c.startswith(AGG_PREFIXES)} == want


class TestPredFeasibility:
    def test_gt(self):
        assert _pred_interval_feasible(cmp("v", ">", 5), 0, 10)
        assert not _pred_interval_feasible(cmp("v", ">", 10), 0, 10)

    def test_lt(self):
        assert _pred_interval_feasible(cmp("v", "<", 5), 0, 10)
        assert not _pred_interval_feasible(cmp("v", "<", 0), 0, 10)

    def test_eq(self):
        assert _pred_interval_feasible(cmp("v", "=", 5), 0, 10)
        assert not _pred_interval_feasible(cmp("v", "=", 11), 0, 10)

    def test_ne(self):
        assert _pred_interval_feasible(cmp("v", "!=", 5), 0, 10)
        assert not _pred_interval_feasible(cmp("v", "!=", 5), 5, 5)

    def test_bounds_inclusive(self):
        assert _pred_interval_feasible(cmp("v", ">=", 10), 0, 10)
        assert _pred_interval_feasible(cmp("v", "<=", 0), 0, 10)

    @pytest.mark.parametrize("pred", [
        cmp("v", ">", a("w")),
        And(cmp("v", ">", 1), cmp("v", "<", 9)),
    ], ids=["attr", "and"])
    def test_uncheckable_predicate_raises(self, pred):
        """Only a comparison with a constant is checked on an interval; any
        other predicate raises instead of passing as feasible."""
        with pytest.raises(NotImplementedError):
            _pred_interval_feasible(pred, 0, 10)


class TestNipFeasibility:
    def test_wild_always(self):
        assert _nip_interval_feasible(N.WILD, 0, 0)

    def test_val_in_interval(self):
        assert _nip_interval_feasible(N.Val(0), 0, 5)
        assert not _nip_interval_feasible(N.Val(9), 0, 5)

    def test_valpred(self):
        assert _nip_interval_feasible(N.ValPred(cmp("v", ">=", 5)), 0, 5)
        assert not _nip_interval_feasible(N.ValPred(cmp("v", ">=", 6)), 0, 5)

    def test_none_interval_infeasible(self):
        assert not _nip_interval_feasible(N.WILD, None, None)

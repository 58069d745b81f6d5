"""Data tracing + MSR computation on the running example (Figures 4–7, Ex. 19)."""
import pytest

from repro.core import algebra as A
from repro.core.alternatives import enumerate_sas
from repro.core.backtrace import backtrace
from repro.core.msr import approximate_msrs, collect_stats
from repro.core.tracing import trace
from repro.workloads import running_example as RE


@pytest.fixture(scope="module")
def db(spark):
    return RE.db(spark)


@pytest.fixture(scope="module")
def setup(db):
    q = RE.query()
    schemas = A.SchemaCache(db)
    bt = backtrace(q, RE.whynot_nip(), schemas)
    sas = enumerate_sas(q, RE.whynot_nip(), schemas, RE.alternatives())
    return q, bt, sas, schemas


class TestTracingAnnotations:
    def test_sa1_flags_match_figures_5_and_6(self, db, setup):
        """Under S1: flatten address2, σ year≥2019 — flags per Figures 5/6."""
        q, bt, sas, schemas = setup
        tr = trace(sas[0], schemas, bt)
        fl = [o for o in A.walk(q) if isinstance(o, A.FlattenRel)][0]
        sel = [o for o in A.walk(q) if isinstance(o, A.Select)][0]
        # the instrumented π already dropped `year`; (name, city) identifies rows
        rows = tr.df.select("name", "city", tr.flags[fl.op_id], tr.flags[sel.op_id], "_c").collect()
        by_key = {(r["name"], r["city"]): r for r in rows}
        # Sue's (NY, 2018): flatten-retained 1, selection-retained 0, consistent 1
        r = by_key[("Sue", "NY")]
        assert r[tr.flags[fl.op_id]] == 1
        assert r[tr.flags[sel.op_id]] == 0
        assert r["_c"] == 1
        # Sue's (LA, 2019): retained by both, NOT consistent (re-validation!)
        r = by_key[("Sue", "LA")]
        assert r[tr.flags[sel.op_id]] == 1
        assert r["_c"] == 0

    def test_sa1_no_padded_rows_for_nonempty(self, db, setup):
        q, bt, sas, schemas = setup
        tr = trace(sas[0], schemas, bt)
        assert tr.df.count() == 4  # 2 address2 entries per person

    def test_sa2_flags(self, db, setup):
        """Under S2 (flatten address1): Peter's NY/2010 row is consistent but
        not retained by the selection (year < 2019)."""
        q, bt, sas, schemas = setup
        tr2 = trace(sas[1], schemas, bt)
        sel = [o for o in A.walk(q) if isinstance(o, A.Select)][0]
        rows = tr2.df.select("name", "city", tr2.flags[sel.op_id], "_c").collect()
        by_key = {(r["name"], r["city"]): r for r in rows}
        r = by_key[("Peter", "NY")]  # address1 entry (NY, 2010)
        assert r["_c"] == 1 and r[tr2.flags[sel.op_id]] == 0
        r = by_key[("Sue", "NY")]  # address1 entry (NY, 2018)
        assert r["_c"] == 1 and r[tr2.flags[sel.op_id]] == 0

    def test_compat_column_tracks_source_compatibles(self, db, setup):
        """WN++ substrate: under the original schema only Sue is compatible
        (Figure 4's consistentS1 column), without re-validation."""
        q, bt, sas, schemas = setup
        tr = trace(sas[0], schemas, bt)
        col = tr.compat_tables["person"]
        vals = {r["name"]: r[col] for r in tr.df.select("name", col).distinct().collect()}
        assert vals == {"Peter": 0, "Sue": 1}

    def test_revalidation_differs_from_source_compat(self, db, setup):
        """Sue's (LA, 2019) successor is a successor of a compatible (_k=1)
        but not consistent after flattening (_c=0) — the false positive the
        paper's re-validation removes."""
        q, bt, sas, schemas = setup
        tr = trace(sas[0], schemas, bt)
        col = tr.compat_tables["person"]
        r = [
            x
            for x in tr.df.select("name", "city", col, "_c").collect()
            if x["name"] == "Sue" and x["city"] == "LA"
        ][0]
        assert r[col] == 1 and r["_c"] == 0

    def test_cut_is_pre_nest(self, db, setup):
        q, bt, sas, schemas = setup
        tr = trace(sas[0], schemas, bt)
        assert tr.layers == []
        assert "city" in tr.df.columns and "nList" not in tr.df.columns

    def test_stats_are_small(self, db, setup):
        q, bt, sas, schemas = setup
        tr = trace(sas[0], schemas, bt)
        stats = collect_stats([tr], schemas)
        assert stats["_n"].sum() == 4
        assert set(stats.columns) >= {"_c", "_n"}


class TestExample19:
    def test_explanations_match_paper(self, db):
        """E≈ = {σ} (ranked first) and {F, σ} (Example 19 / Figure 2)."""
        q = RE.query()
        exps = approximate_msrs(q, db, RE.whynot_nip(), RE.alternatives())
        as_sets = [set(e.labels) for e in exps]
        sel = [o for o in A.walk(q) if isinstance(o, A.Select)][0]
        fl = [o for o in A.walk(q) if isinstance(o, A.FlattenRel)][0]
        assert as_sets == [{sel.label}, {fl.label, sel.label}]

    def test_first_explanation_is_selection_only(self, db):
        q = RE.query()
        exps = approximate_msrs(q, db, RE.whynot_nip(), RE.alternatives())
        assert len(exps[0].ops) == 1 and exps[0].sa_id == 1

    def test_second_explanation_uses_sa(self, db):
        q = RE.query()
        exps = approximate_msrs(q, db, RE.whynot_nip(), RE.alternatives())
        assert len(exps[1].ops) == 2 and exps[1].sa_id == 2
        assert len(exps[1].sa_ops) == 1

    def test_without_sas_only_selection(self, db):
        """RPnoS on the running example finds only {σ}."""
        q = RE.query()
        exps = approximate_msrs(q, db, RE.whynot_nip(), RE.alternatives(), with_sas=False)
        assert len(exps) == 1 and len(exps[0].ops) == 1

    def test_flatten_alone_is_not_an_explanation(self, db):
        """{F} alone fails: no address1 tuple for NY has year ≥ 2019."""
        q = RE.query()
        exps = approximate_msrs(q, db, RE.whynot_nip(), RE.alternatives())
        fl = [o for o in A.walk(q) if isinstance(o, A.FlattenRel)][0]
        assert frozenset({fl.op_id}) not in {e.ops for e in exps}

"""Scenario registry — one entry per evaluation scenario of §6 (Tables 4–10).

Each scenario bundles the database builder, the (erroneous) query with
human-readable operator tags matching the paper's superscripts, the why-not
question, the attribute alternatives, the gold standard (the injected
errors), and the paper's reported explanation sets for WN++ / RPnoSA / RP
(Table 8) so that the Table 7/8 harnesses can print paper vs. measured.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..baselines.conseil import conseil
from ..baselines.wnpp import wnpp
from ..core import algebra as A
from ..core import nip as N
from ..core.exprs import cmp
from ..core.msr import approximate_msrs
from . import crime, dblp, tpch, twitter


@dataclass
class Scenario:
    key: str
    group: str  # dblp | twitter | tpch-nested | tpch-flat | crime
    description: str
    load_db: Callable  # (spark, sf) -> source tables, lazy plans
    build_query: Callable
    whynot: Callable  # (db, query) -> Tup
    alternatives: Callable
    paper_wn: list[frozenset]
    paper_rpnos: list[frozenset]
    paper_rp: list[frozenset]
    gold: frozenset | None = None
    paper_gold_pos: int | None = None
    baseline: str = "wnpp"  # crime scenarios additionally run conseil

    def build_db(self, spark, sf: float = 0.01) -> dict:
        """The scenario's database, materialized once: every question asked
        over it then reads checkpointed blocks, not the source lineage."""
        return A.materialize(self.load_db(spark, sf))


@dataclass
class ScenarioResult:
    scenario: Scenario
    wn: list[frozenset]
    rpnos: list[frozenset]
    rp: list[frozenset]
    conseil: list[frozenset] | None = None

    @property
    def gold_pos(self) -> int | None:
        if self.scenario.gold is None:
            return None
        for i, e in enumerate(self.rp, start=1):
            if e == self.scenario.gold:
                return i
        return None


def _s(*tags) -> frozenset:
    return frozenset(tags)


def _const_whynot(fn):
    return lambda db, query: fn(db)


def _q1_whynot(db, query):
    """avgDisc must exceed 1.03 × the (erroneous) current value: the correct
    aggregate over l_discount is ~25 % larger than the erroneous l_tax sum."""
    cur = A.run(query, db).collect()[0]["avgDisc"]
    return N.Tup({"avgDisc": N.ValPred(cmp("avgDisc", ">", float(cur) * 1.03))})


def _q6_whynot(db, query):
    """revenue expected below half the erroneous value (paper: 'we expect
    less revenue than we get after introducing the error')."""
    cur = A.run(query, db).collect()[0]["revenue"]
    return N.Tup({"revenue": N.ValPred(cmp("revenue", "<", float(cur) * 0.5))})


_Q6_POWERSET = [
    _s("σ32"), _s("σ33"), _s("σ34"), _s("σ32", "σ33"), _s("σ32", "σ34"),
    _s("σ33", "σ34"), _s("σ32", "σ33", "σ34"),
]
_Q6_RP = _Q6_POWERSET + [
    _s("π31", "σ33"), _s("π31", "σ32", "σ33"), _s("π31", "σ33", "σ34"),
    _s("π31", "σ32", "σ33", "σ34"),
]


def _tpch_scenario(key, nested, qfn, wnfn, paper_wn, paper_rpnos, paper_rp,
                   gold, pos, desc):
    return Scenario(
        key=key,
        group="tpch-nested" if nested else "tpch-flat",
        description=desc,
        load_db=(lambda spark, sf=0.01: tpch.db_nested(spark, sf))
        if nested
        else (lambda spark, sf=0.01: tpch.db_flat(spark, sf)),
        build_query=lambda: qfn(nested),
        whynot=wnfn,
        alternatives=lambda: tpch.alternatives(nested),
        paper_wn=paper_wn, paper_rpnos=paper_rpnos, paper_rp=paper_rp,
        gold=gold, paper_gold_pos=pos,
    )


def _tpch_pair(key, qfn, wnfn, paper_wn_nested, paper_wn_flat, paper_rpnos,
               paper_rp, gold, pos, desc):
    return [
        _tpch_scenario(key, True, qfn, wnfn, paper_wn_nested, paper_rpnos,
                       paper_rp, gold, pos, desc),
        _tpch_scenario(key + "F", False, qfn, wnfn, paper_wn_flat, paper_rpnos,
                       paper_rp, gold, pos, desc + " (flat)"),
    ]


def all_scenarios() -> dict[str, Scenario]:
    scns: list[Scenario] = []

    # ---- DBLP (Table 4 / Table 10) ----------------------------------------
    scns.append(Scenario(
        "D1", "dblp", "All authors and titles of papers published at SIGMOD",
        dblp.db, dblp.d1, _const_whynot(dblp.d1_whynot), dblp.d1_alternatives,
        [_s("σ2")], [_s("σ2")], [_s("σ2"), _s("π1")],
    ))
    scns.append(Scenario(
        "D2", "dblp", "Number of articles for authors not named 'Dey'",
        dblp.db, dblp.d2, _const_whynot(dblp.d2_whynot), dblp.d2_alternatives,
        [], [], [_s("F^T3")],
    ))
    scns.append(Scenario(
        "D3", "dblp", "Author-paper pairs per booktitle and year",
        dblp.db, dblp.d3, _const_whynot(dblp.d3_whynot), dblp.d3_alternatives,
        [], [], [_s("N^T4")],
    ))
    scns.append(Scenario(
        "D4", "dblp", "Papers per author published through ACM after 2010",
        dblp.db, dblp.d4, _const_whynot(dblp.d4_whynot), dblp.d4_alternatives,
        [_s("σ6")], [_s("σ6"), _s("σ6", "σ7")],
        [_s("σ6"), _s("σ6", "σ7"), _s("F^T5", "σ7"), _s("F^T5", "σ6", "σ7")],
    ))
    scns.append(Scenario(
        "D5", "dblp", "List of homepage urls per author",
        dblp.db, dblp.d5, _const_whynot(dblp.d5_whynot), dblp.d5_alternatives,
        [_s("F^I9")], [_s("F^I9")], [_s("F^I9"), _s("π8")],
    ))

    # ---- Twitter (Table 5 / Table 10) -------------------------------------
    scns.append(Scenario(
        "T1", "twitter", "Tweets providing media urls about a basketball player",
        twitter.db, twitter.t1, _const_whynot(twitter.t1_whynot), twitter.t1_alternatives,
        [_s("F^I11")], [_s("F^I11", "σ12")],
        [_s("F^I11", "σ12"), _s("F^T10", "σ12")],
    ))
    scns.append(Scenario(
        "T2", "twitter", "Users who tweeted about BTS in the US",
        twitter.db, twitter.t2, _const_whynot(twitter.t2_whynot), twitter.t2_alternatives,
        [_s("σ15")], [_s("σ15"), _s("σ14", "σ15")],
        [_s("σ15"), _s("F^T13"), _s("σ14", "σ15"), _s("F^T13", "σ14", "σ15")],
    ))
    scns.append(Scenario(
        "T3", "twitter", "Hashtags and media for users mentioned in other tweets",
        twitter.db, twitter.t3, _const_whynot(twitter.t3_whynot), twitter.t3_alternatives,
        [_s("F^I17")], [_s("F^I17")], [_s("F^I17"), _s("F^T16")],
    ))
    scns.append(Scenario(
        "T4", "twitter", "Countries per hashtag for UEFA tweets",
        twitter.db, twitter.t4, _const_whynot(twitter.t4_whynot), twitter.t4_alternatives,
        [_s("σ19")], [_s("σ19", "σ20")],
        [_s("F^T18"), _s("σ19", "σ20"), _s("F^T18", "σ19", "σ20")],
    ))
    scns.append(Scenario(
        "TASD", "twitter", "ASD example: flatten/filter/project quoted tweets",
        twitter.db, twitter.tasd, _const_whynot(twitter.tasd_whynot),
        twitter.tasd_alternatives,
        [], [], [_s("F21"), _s("F21", "σ22")],
        gold=_s("F21", "σ22"), paper_gold_pos=2,
    ))

    # ---- TPC-H nested + flat (Table 9) ------------------------------------
    scns += _tpch_pair(
        "Q1", tpch.q1, _q1_whynot,
        [_s("σ24")], [_s("σ24")], [_s("σ24")],
        [_s("σ24"), _s("γ23"), _s("γ23", "σ24")],
        _s("γ23"), 2, "TPC-H Q1 with one modified aggregation",
    )
    scns += _tpch_pair(
        "Q3", tpch.q3, _const_whynot(tpch.q3_whynot),
        [_s("σ27")], [_s("σ26")], [_s("σ26", "σ27")],
        [_s("σ26", "σ27"), _s("σ26", "σ27", "γ25")],
        _s("σ26", "σ27"), 1, "TPC-H Q3 with two modified selections",
    )
    scns += _tpch_pair(
        "Q4", tpch.q4, _const_whynot(tpch.q4_whynot),
        [], [], [],
        [_s("γ30"), _s("γ30", "σ29"), _s("γ30", "σ28"), _s("γ30", "σ29", "σ28")],
        _s("γ30", "σ28"), 3, "TPC-H Q4 with a modified selection and aggregation",
    )
    scns += _tpch_pair(
        "Q6", tpch.q6, _q6_whynot,
        [_s("σ32")], [_s("σ32")], _Q6_POWERSET,
        _Q6_RP, _s("σ33"), 2, "TPC-H Q6 with one modified selection",
    )
    scns += _tpch_pair(
        "Q10", tpch.q10, _const_whynot(tpch.q10_whynot),
        [_s("⋈38")], [_s("⋈38")], [_s("σ35"), _s("σ35", "σ36")],
        [_s("σ35"), _s("σ35", "σ36"), _s("σ35", "π37"), _s("σ35", "σ36", "π37")],
        _s("σ35", "σ36", "π37"), 4,
        "TPC-H Q10 with two modified selections and a modified projection",
    )
    scns += _tpch_pair(
        "Q13", tpch.q13, _const_whynot(tpch.q13_whynot),
        [_s("⋈39")], [_s("⋈39")], [_s("⋈39")],
        [_s("⋈39")], _s("⋈39"), 1, "TPC-H Q13 with one modified join",
    )

    # ---- Crime (Table 6, §6.4 baseline comparison) ------------------------
    scns.append(Scenario(
        "C1", "crime", "Persons with blue hair seen by witnesses near crimes",
        lambda spark, sf=0.01: crime.db(spark), crime.c1_query,
        _const_whynot(crime.c1_whynot), lambda: {},
        [_s("σ1")], [_s("σ1", "⋈2")], [_s("σ1", "⋈2")], baseline="conseil",
    ))
    scns.append(Scenario(
        "C2", "crime", "Persons matching sightings of witness Susan (sector > 90)",
        lambda spark, sf=0.01: crime.db(spark), crime.c2_query,
        _const_whynot(crime.c2_whynot), lambda: {},
        [_s("σ4")], [_s("σ4"), _s("σ3", "σ4")], [_s("σ4"), _s("σ3", "σ4")],
        baseline="conseil",
    ))
    scns.append(Scenario(
        "C3", "crime", "Witness names with sighting descriptions",
        lambda spark, sf=0.01: crime.db(spark), crime.c3_query,
        _const_whynot(crime.c3_whynot), crime.c3_alternatives,
        [_s("⋈5")], [], [_s("π6")], baseline="conseil",
    ))

    return {s.key: s for s in scns}


def sweep(spark, sf: float = 0.01, keys: list[str] | None = None) -> dict[str, ScenarioResult]:
    """Run every (or the selected) scenario, sharing databases per group."""
    scns = all_scenarios()
    if keys:
        scns = {k: scns[k] for k in keys}
    dbs: dict[str, dict] = {}
    out: dict[str, ScenarioResult] = {}
    for key, scn in scns.items():
        if scn.group not in dbs:
            dbs[scn.group] = scn.build_db(spark, sf)
        out[key] = run_scenario(spark, scn, sf, db=dbs[scn.group])
    return out


def run_scenario(spark, scn: Scenario, sf: float = 0.01, db=None) -> ScenarioResult:
    """Execute WN++ / RPnoSA / RP (and Conseil for crime) on one scenario."""
    if db is None:
        db = scn.build_db(spark, sf)
    query, tags = scn.build_query()
    inv = {v: k for k, v in tags.items()}
    whynot = scn.whynot(db, query)
    alt = scn.alternatives()

    def conv(op_sets):
        return [frozenset(inv.get(o, f"op{o}") for o in s) for s in op_sets]

    rp = approximate_msrs(query, db, whynot, alt, with_sas=True)
    rpnos = approximate_msrs(query, db, whynot, alt, with_sas=False)
    wn = wnpp(query, db, whynot)
    cons = conseil(query, db, whynot) if scn.baseline == "conseil" else None
    return ScenarioResult(
        scenario=scn,
        wn=conv(wn),
        rpnos=conv([e.ops for e in rpnos]),
        rp=conv([e.ops for e in rp]),
        conseil=conv(cons) if cons is not None else None,
    )

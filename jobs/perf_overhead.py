"""Tracing-overhead measurement (the data behind Figures 8–11, reported as a
table since figures are out of scope).

For each scenario: wall-clock of the original query, of one RPnoSA run (S₁
only) and of one full RP run (all SAs, tracing + stats + candidate
evaluation), in that order, with the SAs RP kept and the stats aggregations
it ran. Two factors: RP / original query (Figs. 8–10), and Fig. 11's cost
per added SA, (t_RP − t_RPnoSA) / (t_RPnoSA · (|SAs| − 1)): 1 means every
added SA costs as much as S₁ alone.

Usage: spark-submit jobs/perf_overhead.py [--sf=0.01] [--keys=Q3,T1,...]
"""
import sys
import time

from _common import arg_sf, session


def main() -> None:
    from repro.core import algebra as A
    from repro.core import msr
    from repro.workloads.registry import all_scenarios

    spark = session("perf-overhead")
    sf = arg_sf()
    keys = None
    for a in sys.argv[1:]:
        if a.startswith("--keys="):
            keys = a.split("=", 1)[1].split(",")
    scns = all_scenarios()
    if keys:
        scns = {k: scns[k] for k in keys}

    # count the SAs RP keeps and the stats aggregations it runs
    seen = {"sas": 0, "stats": 0}
    enumerate_sas, collect_stats = msr.enumerate_sas, msr.collect_stats

    def counting_enumerate(*args):
        sas = enumerate_sas(*args)
        seen["sas"] = len(sas)
        return sas

    def counting_collect(*args):
        seen["stats"] += 1
        return collect_stats(*args)

    msr.enumerate_sas, msr.collect_stats = counting_enumerate, counting_collect

    dbs = {}
    print(f"{'Scen.':6} | {'SAs':>3} | {'stats':>5} | {'orig (s)':>9} | {'RPnoSA (s)':>10} | "
          f"{'RP (s)':>9} | {'RP/orig':>7} | per added SA")
    for key, s in scns.items():
        if s.group not in dbs:
            dbs[s.group] = s.build_db(spark, sf)
        db = dbs[s.group]
        query, _ = s.build_query()
        whynot = s.whynot(db, query)

        t0 = time.time()
        A.run(query, db).collect()
        t_orig = time.time() - t0

        t0 = time.time()
        msr.approximate_msrs(query, db, whynot, s.alternatives(), with_sas=False)
        t_nosa = time.time() - t0

        seen.update(sas=1, stats=0)
        t0 = time.time()
        msr.approximate_msrs(query, db, whynot, s.alternatives(), with_sas=True)
        t_rp = time.time() - t0
        n = seen["sas"]
        per_sa = f"{(t_rp - t_nosa) / (t_nosa * (n - 1)):6.2f}" if n > 1 else "     —"
        print(f"{key:6} | {n:3} | {seen['stats']:5} | {t_orig:9.2f} | {t_nosa:10.2f} | "
              f"{t_rp:9.2f} | {t_rp / max(t_orig, 1e-9):6.1f}x | {per_sa}")
    spark.stop()


if __name__ == "__main__":
    main()

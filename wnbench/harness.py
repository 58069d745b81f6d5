"""Why-not explanation benchmark: workloads, closed loop, metrics.

A *question* is one why-not question ``<Q, D, t>`` from
``repro.workloads.registry``. Each workload replays its questions in a
round, which asks every question once, in an order drawn from the seed, and
runs each of the workload's operations on it:

* ``rp``      ``approximate_msrs(..., with_sas=True)``
* ``rpnosa``  ``approximate_msrs(..., with_sas=False)``
* ``wnpp``    ``wnpp(...)``
* ``conseil`` ``conseil(...)`` (crime questions only)

One client sends the next question only when the previous answer returned
(a closed loop). A run measures exactly one round, whatever the host's speed,
so every run of a workload asks the same questions the same number of times
and only the order depends on the seed.
"""
from __future__ import annotations

import os
import random
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

from spans import Recorder, patched, spark_counts

SF = 0.004  # the scale at which tests/ and benchmarks/ assert explanation sets
OPS = ("rp", "rpnosa", "wnpp")


@dataclass(frozen=True)
class Workload:
    questions: tuple[str, ...]
    # (question, operation) pairs run once, untimed, before the timed phase:
    # one per data group, because the first question to touch a group's data
    # pays a cold cost of its own. They absorb the JVM's first-touch cost and
    # share no question with the timed phase, so every timed question is
    # asked for the first time, in a warm JVM.
    warmup: tuple[tuple[str, str], ...]


WORKLOADS = {
    # Flatten/selection questions over nested DBLP, Twitter and crime data,
    # 1.7 SAs kept per question; traced, collect_stats takes about 70 % of the
    # layers' time and trace 18 %. C2 brings Conseil.
    "nested-lookup": Workload(
        questions=("D3", "D4", "D5", "T1", "T2", "TASD", "C2"),
        warmup=(("D1", "rp"), ("T4", "rpnosa"), ("C1", "rpnosa")),
    ),
    # Aggregation questions over nested TPC-H, 1.5 SAs kept per question;
    # traced, collect_stats takes about half of the layers' time, enumerate_sas
    # a fifth. Q1, Q3, Q4 and Q6, with 6-16 SAs each, take 15-75 s per `rp`,
    # more than one run's time budget, so the many-SA profile is not covered.
    "tpch-agg": Workload(
        questions=("Q13", "Q10"),
        warmup=(("Q4", "rpnosa"),),
    ),
}


def ops_for(scenario) -> tuple[str, ...]:
    return OPS + ("conseil",) if scenario.baseline == "conseil" else OPS


# ---------------------------------------------------------------------------
# Spark session
# ---------------------------------------------------------------------------


def spark_settings() -> dict[str, str]:
    """The Spark settings every run uses; printed with every result.

    Two task threads leave the other cores to the JIT compiler, the garbage
    collector and the Python driver: on a 4-core machine local[2] answered
    faster and with less run-to-run spread than local[4]. A fixed-size heap
    under the serial collector keeps the JVM's peak RSS from swinging with
    the timing of G1's heap resizing.
    """
    k = min(2, os.cpu_count() or 1)
    return {
        "master": f"local[{k}]",
        "spark.driver.memory": "2g",
        "jvm_options": "-XX:+UseSerialGC -Xms2g",
        "spark.sql.shuffle.partitions": str(k),
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
    }


def start_session(tmp: str):
    """Launch the JVM with fixed settings, keeping its scratch files in ``tmp``."""
    conf = spark_settings()
    os.makedirs(tmp, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    os.environ["TMPDIR"] = tmp
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master", conf["master"],
        "--driver-memory", conf["spark.driver.memory"],
        "--driver-java-options", shlex.quote(f"-Djava.io.tmpdir={tmp} {conf['jvm_options']}"),
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("wnbench")
    for key, value in conf.items():
        if key.startswith("spark.sql."):
            b = b.config(key, value)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait until the JVM process has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    proc.stdin.close()  # the JVM exits when its stdin closes
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30)


def peak_rss_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def jvm_pid(spark) -> int:
    return int(spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid())


# ---------------------------------------------------------------------------
# questions and operations
# ---------------------------------------------------------------------------


@dataclass
class Question:
    key: str
    scenario: object
    db: dict
    query: object
    inv: dict  # op id -> operator tag
    whynot: object
    alts: dict

    @property
    def ops(self) -> tuple[str, ...]:
        return ops_for(self.scenario)


def build_questions(spark, keys, timings: dict | None = None) -> dict[str, Question]:
    """``build_db`` once per data group, then ``build_query`` and ``whynot``."""
    from repro.workloads.registry import all_scenarios

    scns = all_scenarios()
    dbs: dict[str, dict] = {}
    out = {}
    t_db = t_wn = 0.0
    for key in keys:
        s = scns[key]
        if s.group not in dbs:
            t0 = time.perf_counter()
            dbs[s.group] = s.build_db(spark, SF)
            t_db += time.perf_counter() - t0
        t0 = time.perf_counter()
        query, tags = s.build_query()
        whynot = s.whynot(dbs[s.group], query)
        t_wn += time.perf_counter() - t0
        inv = {v: k for k, v in tags.items()}
        out[key] = Question(key, s, dbs[s.group], query, inv, whynot, s.alternatives())
    if timings is not None:
        timings["build_db_s"] = t_db
        timings["whynot_s"] = t_wn
    return out


def ask(q: Question, op: str):
    """Run one operation through the library; return (raw result, explanation
    list as operator-id sets in rank order)."""
    # Imported here: run.py puts src/ on sys.path after importing this module.
    from repro.baselines import conseil, wnpp
    from repro.core import msr

    if op in ("rp", "rpnosa"):
        raw = msr.approximate_msrs(q.query, q.db, q.whynot, q.alts, with_sas=op == "rp")
        sets = [e.ops for e in raw]
    elif op == "wnpp":
        raw = sets = wnpp.wnpp(q.query, q.db, q.whynot)
    elif op == "conseil":
        raw = sets = conseil.conseil(q.query, q.db, q.whynot)
    else:
        raise ValueError(op)
    return raw, sets


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    reference: dict
    latencies: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    rp_ok: int = 0

    def call(self, q: Question, op: str, timed: bool = True, rec: Recorder | None = None):
        """Run, time and verify one operation; return its raw result, or None
        if it failed. A missing reference entry is a failure, never a skip.

        With a recorder, an ``op.<op>`` span wraps the library call only:
        mapping the answer to tags and checking it stay in the enclosing
        span's self time, the harness's own."""
        self.attempted += 1
        span = None
        raw = sets = None
        t0 = time.perf_counter()
        try:
            with rec.span(f"op.{op}") if rec else nullcontext() as span:
                raw, sets = ask(q, op)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        if timed:  # a failed operation still took its time
            self.latencies.setdefault(op, []).append(time.perf_counter() - t0)
        got = None if sets is None else [sorted(q.inv.get(o, f"op{o}") for o in e) for e in sets]
        want = self.reference.get(q.key, {}).get(op)
        if got is None or got != want:
            print(f"FAILED {q.key}/{op}: got {got}, reference {want}", file=sys.stderr)
            self.failed += 1
            return None
        if span is not None and op == "rp":
            span.attrs["n"] = len(raw)
            span.attrs["sa_ids"] = len({e.sa_id for e in raw})
        self.rp_ok += timed and op == "rp"
        return raw


def round_order(keys, rng: random.Random) -> list[str]:
    order = list(keys)
    rng.shuffle(order)
    return order


def closed_loop(questions: dict[str, Question], tally: Tally, rng: random.Random) -> float:
    """Untraced timed phase: one round; return its wall time."""
    t0 = time.perf_counter()
    for key in round_order(questions, rng):
        q = questions[key]
        for op in q.ops:
            tally.call(q, op)
    return time.perf_counter() - t0


def traced_loop(spark, questions: dict[str, Question], tally: Tally,
                rng: random.Random, rec: Recorder) -> dict[str, float]:
    """Traced phase, one round. Every question is asked once untraced and
    once traced, alternating which goes first; the second ask of a question runs warmer,
    so the tracing overhead is the geometric mean of the per-question
    traced/untraced ratios, in which the two orders offset each other."""
    from repro.core import algebra as A

    sc = spark.sparkContext
    ratios: list[float] = []
    counts: list[dict[str, int]] = []
    for i, key in enumerate(round_order(questions, rng)):
        q = questions[key]
        plain = traced = 0.0
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                t = time.perf_counter()
                for op in q.ops:
                    tally.call(q, op, timed=False)
                plain = time.perf_counter() - t
                continue
            gid = f"wnbench-{key}"
            sc.setJobGroup(gid, gid)
            with rec.span("question", qid=gid) as qs, patched(rec):
                for op in q.ops:
                    tally.call(q, op, timed=False, rec=rec)
            traced = qs.duration
            counts.append(spark_counts(sc, gid))
            sc.setJobGroup(gid + "-orig", gid + "-orig")
            with rec.span("algebra.orig_query", qid=gid):
                A.run(q.query, q.db).collect()
        ratios.append(traced / plain)
    n = len(counts)
    return {
        "spark.jobs": sum(c["jobs"] for c in counts) / n,
        "spark.stages": sum(c["stages"] for c in counts) / n,
        "spark.tasks": sum(c["tasks"] for c in counts) / n,
        "trace.overhead_ratio": statistics.geometric_mean(ratios),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest percentile that
    has at least ten samples beyond it; the maximum if there are too few."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


# Per-layer metric -> span name whose self time it sums, per traced question.
SELF_TIME = {
    "backtrace.backtrace_s": ("backtrace.backtrace",),
    "alternatives.enumerate_s": ("alternatives.enumerate",),
    "tracing.trace_s": ("tracing.trace",),
    "msr.collect_stats_s": ("msr.collect_stats",),
    "msr.candidate_eval_s": ("op.rp", "op.rpnosa"),
    "baselines.wnpp_s": ("op.wnpp",),
    "baselines.conseil_s": ("op.conseil",),
    "harness.self_s": ("question",),
}


def layer_metrics(rec: Recorder) -> dict[str, float]:
    spans = rec.spans
    selfs = rec.self_times()
    roots = [i for i, s in enumerate(spans) if s.name == "question"]
    n = len(roots)
    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(t for s, t in zip(spans, selfs) if s.name in names) / n

    def count(name):
        return sum(1 for s in spans if s.name == name) / n

    def total(name, attr="n"):
        return sum(s.attrs.get(attr, 0) for s in spans if s.name == name)

    out["backtrace.calls"] = count("backtrace.backtrace")
    out["alternatives.sas_kept"] = total("alternatives.enumerate") / n
    out["tracing.calls"] = count("tracing.trace")
    out["msr.collect_stats_calls"] = count("msr.collect_stats")
    out["msr.stats_rows"] = total("msr.collect_stats") / n
    out["msr.explanations"] = total("op.rp") / n

    # SAs traced under each rp call, against distinct SAs among its answers
    def op_of(i):
        while spans[i].parent is not None and not spans[i].name.startswith("op."):
            i = spans[i].parent
        return spans[i].name
    traced_in_rp = sum(1 for i, s in enumerate(spans)
                       if s.name == "tracing.trace" and op_of(i) == "op.rp")
    out["msr.sa_useful_ratio"] = total("op.rp", "sa_ids") / max(traced_in_rp, 1)

    orig = [s.duration for s in spans if s.name == "algebra.orig_query"]
    rp = [s.duration for s in spans if s.name == "op.rp"]
    out["algebra.orig_query_s"] = sum(orig) / n
    out["algebra.overhead_x"] = sum(rp) / sum(orig)

    # Share of each question's wall time spent inside layer calls; the rest
    # is the harness's own (harness.self_s): answer mapping, verification and
    # the loop. Report the question whose layers account for the least.
    out["trace.accounted_ratio"] = min(
        1.0 - selfs[i] / spans[i].duration for i in roots)
    return out


def end_to_end(tally: Tally, phase_s: float, setup_s: float, jvm: int) -> tuple[dict, list[str]]:
    """End-to-end metrics plus one printable line per metric with its sample count."""
    lat = tally.latencies
    rp = lat.get("rp", [])
    tail_v, tail_p, beyond = tail(rp)
    m = {
        "setup_s": (setup_s, "s", "one per run; parts on the set-up line"),
        "rp_questions_per_min": (60.0 * tally.rp_ok / phase_s, "1/min",
                                 f"{tally.rp_ok} rp answers in {phase_s:.1f} s"),
        "rp_p50_s": (statistics.median(rp), "s", f"n={len(rp)}"),
        "rp_tail_s": (tail_v, "s", f"p{tail_p:.1f}, n={len(rp)}, {beyond} beyond"),
        "rpnosa_p50_s": (statistics.median(lat["rpnosa"]), "s", f"n={len(lat['rpnosa'])}"),
        "wnpp_p50_s": (statistics.median(lat["wnpp"]), "s", f"n={len(lat['wnpp'])}"),
        "py_peak_rss_mb": (peak_rss_mb(), "MB", "VmHWM of the driver"),
        "jvm_peak_rss_mb": (peak_rss_mb(jvm), "MB", "VmHWM of the Spark JVM"),
    }
    lines = [f"  {k:22} {v:12.4f} {u:6} ({note})" for k, (v, u, note) in m.items()]
    ratio = tally.failed / tally.attempted
    lines.append(f"  {'failed_ratio':22} {ratio:12.4f} {'':6} "
                 f"({tally.failed} of {tally.attempted} operations)")
    return {k: {"value": v, "unit": u} for k, (v, u, _) in m.items()}, lines

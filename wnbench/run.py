"""Why-not explanation benchmark — one workload, one run.

Usage (from the repository root):

    python3 wnbench/run.py --workload nested-lookup --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the untraced closed loop and prints the end-to-end
metrics; ``--trace 1`` runs the traced phase and prints the per-layer
metrics, the tracing overhead included, and writes its spans to
``.wnbench/``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed_ratio``
(operations that raised or answered differently from ``reference.json``, over
operations attempted) is printed with the end-to-end metrics but carried in
the JSON as ``failed`` / ``attempted``, because a gated metric must never
be 0.

Warm-up policy: after set-up, the workload's warm-up operations run once on
questions outside the timed set. They absorb the JVM's first-touch cost
(class loading, JIT, code generation) and are verified but not timed as
latency samples; their time is part of ``setup_s``, which is session start +
one build of every question (``build_db``, ``build_query``, ``whynot``) + the
warm-up, so the first-touch cost of building counts in it too. Every timed
question is therefore asked for the first time in a warm JVM.

A run measures one round of the workload's questions, however long it takes;
``--seconds`` is the time a round is sized to exceed, and a round that ends
sooner is reported on standard error. The seed sets the question order only:
the registry's data generators hard-code their own seeds.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    t_start = time.perf_counter()
    from harness import (
        WORKLOADS, Recorder, Tally, build_questions, closed_loop, end_to_end,
        jvm_pid, layer_metrics, spark_settings, start_session, stop_session,
        traced_loop,
    )

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"wnbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    reference = json.loads((HERE / "reference.json").read_text())["questions"]

    wl = WORKLOADS[args.workload]
    keys = list(dict.fromkeys((*wl.questions, *(k for k, _ in wl.warmup))))
    out_dir = ROOT / ".wnbench"
    tmp = out_dir / f"tmp-{os.getpid()}"
    spark = start_session(str(tmp))
    try:
        session_s = time.perf_counter() - t_start
        build: dict[str, float] = {}
        t0 = time.perf_counter()
        questions = build_questions(spark, keys, build)
        build_s = time.perf_counter() - t0
        tally = Tally(reference)
        t0 = time.perf_counter()
        for key, op in wl.warmup:
            tally.call(questions[key], op, timed=False)
        warmup_s = time.perf_counter() - t0
        setup_s = session_s + build_s + warmup_s

        timed = {k: questions[k] for k in wl.questions}
        rng = random.Random(args.seed)
        conf = " ".join(f"{k}={v}" for k, v in spark_settings().items())
        print(f"wnbench {args.workload} seed={args.seed} trace={args.trace} "
              f"(seed sets question order only; data seeds are fixed)")
        print(f"  spark: {conf}")
        print(f"  setup: session {session_s:.2f} s, build {build_s:.2f} s "
              f"(build_db {build['build_db_s']:.2f} s, whynot {build['whynot_s']:.2f} s), "
              f"warm-up {warmup_s:.2f} s")
        if args.trace:
            rec = Recorder()
            metrics = traced_loop(spark, timed, tally, rng, rec)
            metrics |= layer_metrics(rec)
            metrics["workloads.build_db_s"] = build["build_db_s"]
            metrics["workloads.whynot_s"] = build["whynot_s"]
            out_dir.mkdir(exist_ok=True)
            rec.dump(out_dir / f"spans-{args.workload}-{args.seed}.json")
            print("  per-layer, per traced question (self time or count):")
            for k in sorted(metrics):
                print(f"  {k:28} {metrics[k]:12.4f}")
            result = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
        else:
            phase_s = closed_loop(timed, tally, rng)
            if phase_s < args.seconds:
                print(f"wnbench: the round took {phase_s:.1f} s, less than "
                      f"--seconds {args.seconds:g}", file=sys.stderr)
            result, lines = end_to_end(tally, phase_s, setup_s, jvm_pid(spark))
            print(f"  end-to-end (1 round of {len(timed)} questions, 1 client):")
            print("\n".join(lines))
    finally:
        stop_session(spark)
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result,
    }))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_x") or metric.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

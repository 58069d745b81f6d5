"""Regenerate ``reference.json``: the explanation list, in rank order, of every
operation on every question the benchmark can ask.

Usage (from the repository root): ``python3 wnbench/make_reference.py``.
Run it only on a commit whose explanations are known good; the benchmark
counts every later difference as a failed operation.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Every question the workloads of the benchmark's specification name, so
# that a workload can grow without a new reference.
QUESTIONS = (
    "D1", "D2", "D3", "D4", "D5", "T1", "T2", "T3", "T4", "TASD",
    "C1", "C2", "C3", "Q1", "Q3", "Q4", "Q6", "Q10", "Q13",
)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from harness import SF, build_questions, run_op, start_session, stop_session

    tmp = ROOT / ".wnbench" / "tmp-reference"
    spark = start_session(str(tmp))
    try:
        questions = build_questions(spark, QUESTIONS)
        ref = {}
        for key, q in questions.items():
            ref[key] = {op: run_op(q, op)[0] for op in q.ops}
            print(key, ref[key], flush=True)
    finally:
        stop_session(spark)
        shutil.rmtree(tmp, ignore_errors=True)
    doc = {"sf": SF, "questions": ref}
    (HERE / "reference.json").write_text(
        json.dumps(doc, indent=1, ensure_ascii=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

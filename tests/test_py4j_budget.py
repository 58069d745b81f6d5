"""Bounds on the driver's py4j traffic for one why-not question.

Building the instrumented plans is py4j traffic between the Python driver
and the JVM (DESIGN decision 8). The number of commands repeats within a
fraction of a percent between runs, so, unlike wall time, a bound on it
shows traffic growth on any host.
"""
import py4j.clientserver as cs

from repro.core import msr
from repro.workloads.registry import all_scenarios

SF = 0.004
# Q10 `rp` issues about 600 non-GC commands with expressions compiled to SQL
# text, and about 3,100 with expressions built as Column trees.
BUDGET = 1500
# Q4 `rp` (18 SAs, 17 of them in one merged group) issues about 720 when
# only the queries a stats job runs are built, and about 1,020 when every
# SA's instrumented query is built as well.
Q4_BUDGET = 850


def _rp_commands(spark, monkeypatch, key: str) -> int:
    """The non-GC py4j commands one `rp` on ``key`` sends."""
    scn = all_scenarios()[key]
    db = scn.build_db(spark, SF)
    query, _ = scn.build_query()
    whynot = scn.whynot(db, query)
    sent = []
    real = cs.ClientServerConnection.send_command

    def send_command(self, command, *args, **kwargs):
        if not command.startswith("m"):  # `m`: the asynchronous GC's deletes
            sent.append(command[0])
        return real(self, command, *args, **kwargs)

    monkeypatch.setattr(cs.ClientServerConnection, "send_command", send_command)
    explanations = msr.approximate_msrs(query, db, whynot, scn.alternatives())
    monkeypatch.undo()
    assert explanations
    return len(sent)


def test_q10_rp_py4j_budget(spark, monkeypatch):
    sent = _rp_commands(spark, monkeypatch, "Q10")
    assert sent <= BUDGET, f"{sent} py4j commands for Q10 rp"


def test_q4_rp_py4j_budget(spark, monkeypatch):
    sent = _rp_commands(spark, monkeypatch, "Q4")
    assert sent <= Q4_BUDGET, f"{sent} py4j commands for Q4 rp"

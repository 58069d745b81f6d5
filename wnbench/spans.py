"""In-memory spans and per-question Spark counters for the traced run.

The traced run wraps the module-level names that ``approximate_msrs``,
``wnpp`` and ``conseil`` look up at call time (``backtrace``,
``enumerate_sas``, ``trace``, ``collect_stats``); nothing under ``src/``
changes. Spans are kept in memory and written out when the run ends.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    qid: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects the spans of one thread; a span's parent is the innermost
    span open when it starts."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, qid: str | None = None, **attrs):
        parent = self._open[-1] if self._open else None
        if qid is None and parent is not None:
            qid = self.spans[parent].qid
        s = Span(name, time.perf_counter(), 0.0, parent, qid, attrs)
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus its children's."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)


def _wrap(rec: Recorder, name: str, fn, count):
    def wrapper(*args, **kwargs):
        with rec.span(name) as s:
            out = fn(*args, **kwargs)
            if count is not None:
                s.attrs["n"] = count(out)
            return out

    return wrapper


def _patch_points():
    from repro.baselines import conseil, wnpp
    from repro.core import alternatives, msr

    return [
        # (module, attribute, span name, count of the returned value)
        (msr, "backtrace", "backtrace.backtrace", None),
        (msr, "enumerate_sas", "alternatives.enumerate", len),
        (msr, "trace", "tracing.trace", None),
        (msr, "collect_stats", "msr.collect_stats", len),
        (alternatives, "backtrace", "backtrace.backtrace", None),
        (wnpp, "backtrace", "backtrace.backtrace", None),
        (wnpp, "trace", "tracing.trace", None),
        (wnpp, "collect_stats", "msr.collect_stats", len),
        (conseil, "backtrace", "backtrace.backtrace", None),
        (conseil, "trace", "tracing.trace", None),
        (conseil, "collect_stats", "msr.collect_stats", len),
    ]


@contextmanager
def patched(rec: Recorder):
    """Route the layer entry points through span-recording wrappers."""
    saved = []
    try:
        for mod, attr, name, count in _patch_points():
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, _wrap(rec, name, getattr(mod, attr), count))
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def spark_counts(sc, group: str) -> dict[str, int]:
    """Jobs, stages and completed tasks run under one job group."""
    tracker = sc.statusTracker()
    jobs = stages = tasks = 0
    for jid in tracker.getJobIdsForGroup(group):
        info = tracker.getJobInfo(jid)
        if info is None:
            continue
        jobs += 1
        for sid in info.stageIds:
            stages += 1
            st = tracker.getStageInfo(sid)
            if st is not None:
                tasks += st.numCompletedTasks
    return {"jobs": jobs, "stages": stages, "tasks": tasks}

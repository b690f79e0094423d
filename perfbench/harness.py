"""Closed-loop timing, tracing and statistics shared by every workload.

A workload is a list of jobs, one *round*.  The loop runs whole rounds,
one job at a time, and starts no round that would end past the run's
length, so every run measures the same mix of jobs however many rounds
fit.  Each job is prepared (inputs built, untimed), run (timed), then
checked (untimed).

With tracing on, rounds alternate untraced and traced.  Traced rounds
record a span around every public basepack call a job makes and wrap the
matroids the benchmark builds itself in counting and timing oracles;
the untraced rounds give the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

from basepack.core import Matroid, ResourceCapExceeded

# Candidate tail percentiles, highest first.  The tail is the highest one
# with at least ten jobs beyond it.  The ladder is coarse so that run to
# run changes in the job count do not move the tail to another percentile.
TAIL_LADDER = (90, 50)


@dataclass
class Job:
    """One input taken to a checked answer.

    ``prepare(tr)`` builds fresh inputs (untimed); ``run(tr, inputs)`` is
    the timed work; ``check(tr, inputs, result)`` returns (ok, answer
    text) and is untimed.
    """

    kind: str
    prepare: Callable
    run: Callable
    check: Callable


class _Node:
    __slots__ = ("kind", "tag", "calls", "total", "child", "masks")

    def __init__(self, kind: str, tag: Optional[str], distinct: bool):
        self.kind = kind
        self.tag = tag
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.masks = set() if distinct else None


class Tracer:
    """Spans and oracle counters, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self._open: list[int] = []
        self._job: Optional[str] = None
        self._job_first_span = 0
        self._nodes: list[_Node] = []
        self._query_stack: list[float] = []
        self.counts: dict[str, float] = {}
        self.failures = 0

    def call(self, name: str, fn: Callable, *args):
        """``fn(*args)``, inside a span named ``name`` when tracing."""
        if not self.enabled:
            return fn(*args)
        rec = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1, self._job]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args)
        finally:
            rec[2] = perf_counter()
            self._open.pop()

    def wrap(self, matroid: Matroid, kind: str, tag: Optional[str] = None,
             distinct: bool = False) -> Matroid:
        """When tracing, an equal oracle that counts and times its queries.

        Time spent in wrapped oracles below this one is subtracted, so the
        node's self time is its own work.  ``tag`` names an exact per-job
        count that the node's calls add to; ``distinct`` also records the
        distinct masks queried.
        """
        if not self.enabled:
            return matroid
        node = _Node(kind, tag, distinct)
        self._nodes.append(node)
        inner = matroid.indep_mask
        stack = self._query_stack
        masks = node.masks

        def indep(mask: int) -> bool:
            stack.append(0.0)
            start = perf_counter()
            try:
                return inner(mask)
            finally:
                elapsed = perf_counter() - start
                node.child += stack.pop()
                node.total += elapsed
                node.calls += 1
                if stack:
                    stack[-1] += elapsed
                if masks is not None:
                    masks.add(mask)

        return Matroid(matroid.ground, matroid.kind, indep, matroid.descriptor)

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] = value

    def begin_job(self, job_id: str) -> None:
        self._job = job_id
        self._job_first_span = len(self.spans)
        self._nodes = []
        self.counts = {}

    def node_totals(self) -> dict:
        """Per node kind: [calls, self seconds]; tagged calls go into ``counts``."""
        totals: dict[str, list] = {}
        distinct: dict[str, set] = {}
        for node in self._nodes:
            acc = totals.setdefault(node.kind, [0, 0.0])
            acc[0] += node.calls
            acc[1] += node.total - node.child
            if node.tag:
                self.counts[node.tag] = self.counts.get(node.tag, 0) + node.calls
                if node.masks is not None:
                    distinct.setdefault(node.tag, set()).update(node.masks)
        for tag, masks in distinct.items():
            if self.counts[tag]:
                self.counts[tag + ".distinct_ratio"] = len(masks) / self.counts[tag]
        return totals

    def job_spans(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, start, end, _, _ in self.spans[self._job_first_span:]:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def dump(self, path: str) -> None:
        """Write every span with its self time: duration minus its child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = [
            {"name": name, "start": start, "end": end, "parent": parent, "job": job,
             "self": (end - start) - child_time[i]}
            for i, (name, start, end, parent, job) in enumerate(self.spans)
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(out, handle)


@dataclass
class Record:
    round: int
    pos: int
    kind: str
    seconds: float
    ok: bool
    answer: str
    traced: bool
    spans: dict
    nodes: dict
    counts: dict


def _report_failure(tr: Tracer, where: str) -> None:
    """Print the traceback of the first few failures of a run."""
    tr.failures += 1
    if tr.failures <= 5:
        print(f"job failure in {where}:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def run_job(job: Job, tr: Tracer, round_idx: int, pos: int) -> Record:
    job_id = f"{round_idx}.{pos}"
    tr.begin_job(job_id)
    start = None
    try:
        inputs = job.prepare(tr)
        start = perf_counter()
        result = tr.call("job:" + job.kind, job.run, tr, inputs)
        error = None
    except ResourceCapExceeded:
        error = "cap"
    except Exception:  # a failed job is counted, and the run goes on
        _report_failure(tr, f"job {job_id} ({job.kind})")
        error = "exception"
    seconds = perf_counter() - start if start is not None else 0.0
    nodes = tr.node_totals()
    if error is None:
        try:
            ok, answer = tr.call("check", job.check, tr, inputs, result)
        except Exception:
            _report_failure(tr, f"check of job {job_id} ({job.kind})")
            ok, answer = False, "check-error"
    else:
        ok, answer = False, "error:" + error
    return Record(round_idx, pos, job.kind, seconds, ok, answer, tr.enabled,
                  tr.job_spans(), nodes, dict(tr.counts))


def setup(make_parts: Callable[[], list]) -> tuple[list, float]:
    """Generate inputs and warm up (the first job of each part, untimed).

    ``make_parts`` returns the workload's job lists, one per job source;
    the round is their concatenation.  Returns the round's jobs and the
    seconds this took.
    """
    start = perf_counter()
    parts = make_parts()
    for part in parts:
        run_job(part[0], Tracer(), -1, 0)
    return [job for part in parts for job in part], perf_counter() - start


def measure(jobs: list, seconds: float, trace: bool, tr: Tracer,
            between: Callable[[], None]) -> list[Record]:
    """Run whole rounds until the next would end past ``seconds``.

    ``between`` runs before every round but the first, outside the jobs'
    timed spans.
    """
    records: list[Record] = []
    min_rounds = 2 if trace else 1
    start = perf_counter()
    last_round = 0.0
    round_idx = 0
    while round_idx < min_rounds or perf_counter() - start + last_round <= seconds:
        if round_idx:
            between()
        tr.enabled = trace and round_idx % 2 == 1
        round_start = perf_counter()
        for pos, job in enumerate(jobs):
            records.append(run_job(job, tr, round_idx, pos))
        last_round = perf_counter() - round_start
        round_idx += 1
    tr.enabled = False
    return records


def tail(times: list[float]) -> tuple[int, float]:
    """(percentile, value): the highest ladder percentile with >= 10 jobs beyond it.

    Falls back to the median when fewer than twenty jobs ran.
    """
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50, ordered[math.ceil(n / 2) - 1]


def peak_rss_mib(include_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def answers_digest(records: list[Record]) -> tuple[list[str], str]:
    """Answer lines of the first round and their SHA-256."""
    lines = [f"{r.pos} {r.kind} {r.answer}" for r in records if r.round == 0]
    return lines, hashlib.sha256("\n".join(lines).encode()).hexdigest()


def end_to_end(records: list[Record], setup_seconds: float, rss: float) -> dict:
    times = [r.seconds for r in records]
    pct, tail_value = tail(times)
    return {
        "setup_s": (setup_seconds, "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (tail_value, "s"),
        "peak_rss_mib": (rss, "MiB"),
    }, pct


def median_of(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(records: list[Record], table: dict) -> dict:
    """Per-layer metrics from the traced rounds.

    Span metrics: median over jobs of the job's summed span time.  Node
    metrics: median over jobs of self time per query, in microseconds.
    Count metrics: median over the jobs of the first traced round (every
    traced round repeats the same inputs).  A layer the workload does
    not exercise reads 0.
    """
    traced = [r for r in records if r.traced]
    first = [r for r in traced if r.round == 1]
    plain = [r for r in records if not r.traced]
    out = {}
    for name, (how, key, unit) in table.items():
        if how == "span":
            value = median_of(r.spans[key] for r in traced if key in r.spans)
        elif how == "node":
            value = median_of(
                r.nodes[key][1] / r.nodes[key][0] * 1e6
                for r in traced if r.nodes.get(key, (0,))[0]
            )
        elif how == "count":
            value = median_of(r.counts[key] for r in first if key in r.counts)
        else:  # overhead
            value = median_of(r.seconds for r in traced) / median_of(r.seconds for r in plain)
        out[name] = (value, unit)
    return out


def emit(metrics: dict, records: list[Record]) -> None:
    failed = sum(1 for r in records if not r.ok)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))

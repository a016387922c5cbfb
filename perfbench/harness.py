"""Benchmark machinery: spans, the closed-loop client, metric summaries.

Tracing model
-------------
A traced operation is one *trace*: a root span ``bench.op`` around the
whole operation, child spans the workload opens around each call into
a layer's public function (``pietql.parse``, ``query.plan``, ...), and
*derived* spans built from the program's own ``repro.obs`` stage timers
read through ``snapshot()``/``since()`` at the same boundaries (for
example the ``segment_scan`` seconds a Piet-QL execution accumulated
become a ``query.scan`` child of ``pietql.execute``).  A span's layer is
the part of its name before the first dot.

A span's *self time* is its duration minus its children's durations,
so the self times of one trace add up to the root's duration by
construction.  What can go wrong is a breakdown that does not fit:
derived spans carry no real start time (the program only reports
accumulated seconds), so they are laid out back to back at the end of
their parent, and if their sum would exceed the time their parent has
left (overlapping stage timers, a stage that started before the span
opened) they are scaled down to fit and counted in ``clamped``.  A
breakdown is only trustworthy while ``clamped`` stays 0.

Spans live in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: CPUs this process may use.  On a shared 2-core container the two CPUs
#: were measured running up to 1.5x apart in speed, and which one was
#: faster changed from minute to minute, so a run the scheduler kept on
#: one CPU measured that CPU.  Set-up repetitions, and the timed
#: operations of each kind, therefore take the CPUs in turn
#: (:func:`on_cpu`), and every run measures each of them equally.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def on_cpu(i: int) -> None:
    """Move the calling thread to the ``i``-th of :data:`CPUS`, round robin."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})


def on_all_cpus() -> None:
    """Let every thread of the process run on any of :data:`CPUS` again.

    Threads started while the caller was held on one CPU (a service's
    workers, say) inherited that; this releases them too.
    """
    if len(CPUS) > 1:
        for tid in os.listdir("/proc/self/task"):
            try:
                os.sched_setaffinity(int(tid), CPUS)
            except OSError:  # the thread has ended
                pass


#: ``repro.obs`` stage timer -> the derived span it becomes.
STAGE_SPANS: Dict[str, str] = {
    "geometric_subquery": "query.geometric_subquery",
    "segment_scan": "query.scan",
    "elapsed": "query.scan",  # EvaluationStats reports segment_scan as elapsed
    "during_restriction": "temporal.during",
    "index_build": "geometry.index_build",
    "preagg_lookup": "preagg.lookup",
    "shard_fanout": "parallel.fanout",
    "merge": "parallel.merge",
}

#: Overflow of derived spans below which it is clock rounding (the
#: service stamps jobs with ``time.time``, spans use ``perf_counter``).
CLOCK_SLACK_S = 1e-6

#: ``repro.obs`` counters the per-layer ratios are computed from.
COUNTERS = (
    "scan_rows", "objects_scanned", "objects_matched", "vectorized_accepts",
    "grid_index_builds", "grid_index_cache_hits",
    "clip_kernel_segments", "clip_kernel_fallback",
    "preagg_hits", "preagg_misses", "sliver_scan_rows",
    "poi_preagg_hits", "poi_preagg_misses", "disc_kernel_segments",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace_id", "span_id", "derived")

    def __init__(self, name, start, end, parent, trace_id, span_id, derived=False):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.trace_id = trace_id
        self.span_id = span_id
        self.derived = derived

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "trace_id": self.trace_id,
            "span_id": self.span_id, "derived": self.derived,
        }


class Tracer:
    """Records spans and ``repro.obs`` counter deltas of traced operations."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.clamped = 0
        self._stack: List[Span] = []
        self._traces = 0

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._traces += 1
        span = Span(
            name, time.perf_counter(), None,
            parent.span_id if parent else None,
            parent.trace_id if parent else self._traces,
            len(self.spans),
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def derive(self, parent: Span, parts: Sequence[Tuple[str, float]]) -> List[Span]:
        """Attach accumulated-seconds figures as children of a closed span.

        The new spans are laid out back to back, ending where the parent
        ends; if they would overflow the time the parent's existing
        children leave, they are scaled down to fit, and counted in
        ``clamped`` when the excess is more than clock rounding.
        """
        parts = [(name, float(s)) for name, s in parts if s > 0]
        if not parts:
            return []
        taken = sum(
            s.seconds for s in self.spans[parent.span_id + 1:]
            if s.parent == parent.span_id
        )
        room = max(0.0, parent.seconds - taken)
        total = sum(s for _, s in parts)
        scale = 1.0
        if total > room:
            scale = room / total
            if total - room > CLOCK_SLACK_S:
                self.clamped += 1
        out = []
        cursor = parent.end - total * scale
        for name, seconds in parts:
            span = Span(
                name, cursor, cursor + seconds * scale, parent.span_id,
                parent.trace_id, len(self.spans), derived=True,
            )
            cursor = span.end
            self.spans.append(span)
            out.append(span)
        return out

    def add_counters(self, delta: Mapping[str, float], names: Iterable[str] = COUNTERS) -> None:
        for name in names:
            value = delta.get(name, 0)
            if value:
                self.counters[name] = self.counters.get(name, 0) + value


class NullTracer:
    """The untraced path: same calls, no recording."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def derive(self, parent, parts):
        return []

    def add_counters(self, delta, names=COUNTERS):
        pass


NULL = NullTracer()


def stage_parts(delta: Mapping[str, float], stages: Sequence[str]) -> List[Tuple[str, float]]:
    """``(span name, seconds)`` for the listed stages found in an obs delta."""
    return [
        (STAGE_SPANS[stage], delta.get(f"{stage}_seconds", 0.0))
        for stage in stages
    ]


def observed(tr, name: str, fn: Callable[[], object], obs, stages: Sequence[str] = (),
             counters: Iterable[str] = COUNTERS):
    """Call ``fn`` inside span ``name``; derive children from ``obs`` stages.

    ``obs`` is one ``PipelineStats`` (or a sequence of them, each paired
    with the stage and counter names to read from it, for calls that
    spread their figures over several observers).
    """
    if not tr.enabled:
        return fn()
    sources = obs if isinstance(obs, list) else [(obs, stages, counters)]
    before = [src.snapshot() for src, _, _ in sources]
    with tr.span(name) as span:
        result = fn()
    parts: List[Tuple[str, float]] = []
    for (src, src_stages, src_counters), snap in zip(sources, before):
        delta = src.since(snap)
        parts.extend(stage_parts(delta, src_stages))
        tr.add_counters(delta, src_counters)
    tr.derive(span, parts)
    return result


# ---------------------------------------------------------------------------
# Operations and the closed loop
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One timed operation: ``run(tracer)`` returns the answer to check.

    ``key`` identifies the question, so the correctness gate computes
    each distinct expected answer once; ``expect()`` computes it by a
    second route outside the timed region.  Answers that cannot be
    pinned to one value (a query racing a live stream) pass ``accept``
    instead, a predicate over the answer.
    """

    kind: str
    key: object
    run: Callable[[object], object]
    expect: Optional[Callable[[], object]] = None
    accept: Optional[Callable[[object], bool]] = None


@dataclass
class Sample:
    op: Op
    started: float  # seconds since the closed loop began
    seconds: float
    traced: bool
    answer: object = None
    error: Optional[str] = None
    ok: bool = True


def closed_loop(ops: Iterator[Op], seconds: float, tracer: Optional[Tracer],
                rng: Optional[np.random.Generator] = None,
                block: int = 1) -> Tuple[List[Sample], float]:
    """One client: send the next op when the previous one returned.

    Runs for ``seconds`` and then on to the end of the current block of
    ``block`` operations, so every run measures whole blocks of the
    workload's fixed mix.  In a single-threaded process the operations of
    each kind take the CPUs in turn.  With a tracer, each op is traced with
    probability 1/2 (from ``rng``) so traced and untraced latencies come
    from the same mix and their medians give the tracing overhead.
    Returns samples and wall time.
    """
    samples: List[Sample] = []
    asked: Dict[str, int] = {}
    # A program serving from threads of its own (a service's workers) does
    # its work there; holding the client to one CPU would only make it
    # queue behind them, so such a loop is left to the scheduler.
    spread = threading.active_count() == 1
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline or len(samples) % block:
        op = next(ops)
        if spread:
            # Each kind runs equally often on every CPU, so no percentile
            # inside one kind depends on how the shuffle met the CPUs.
            on_cpu(asked.get(op.kind, 0))
            asked[op.kind] = asked.get(op.kind, 0) + 1
        traced = tracer is not None and bool(rng.random() < 0.5)
        tr = tracer if traced else NULL
        t0 = time.perf_counter()
        try:
            with tr.span("bench.op"):
                answer = op.run(tr)
            samples.append(Sample(op, t0 - start, time.perf_counter() - t0, traced, answer))
        except Exception as exc:  # an operation that raised is a failure
            samples.append(Sample(op, t0 - start, time.perf_counter() - t0, traced,
                                  error=f"{type(exc).__name__}: {exc}", ok=False))
    elapsed = time.perf_counter() - start
    on_all_cpus()
    return samples, elapsed


def canonical(value) -> str:
    """Canonical JSON of an answer (sets sorted, floats exact)."""

    def plain(obj):
        if isinstance(obj, Mapping):
            return [[plain(k), plain(obj[k])] for k in sorted(obj, key=repr)]
        if isinstance(obj, (set, frozenset)):
            return sorted((plain(v) for v in obj), key=repr)
        if isinstance(obj, (list, tuple)):
            return [plain(v) for v in obj]
        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (np.floating,)):
            return float(obj)
        return obj

    return json.dumps(plain(value), separators=(",", ":"))


def verify(samples: Sequence[Sample]) -> Dict[str, str]:
    """The correctness gate: each answer against its second route.

    Runs after the timed loop.  A wrong answer marks its sample failed;
    returns ``{op kind: first mismatch}`` for the report.
    """
    expected: Dict[object, str] = {}
    mismatches: Dict[str, str] = {}
    for sample in samples:
        if not sample.ok:
            mismatches.setdefault(sample.op.kind, sample.error or "raised")
            continue
        if sample.op.accept is not None:
            try:
                accepted = sample.op.accept(sample.answer)
            except Exception as exc:  # the second route failing is a failure too
                accepted = False
                sample.error = f"second route raised {type(exc).__name__}: {exc}"
            if not accepted:
                sample.ok = False
                sample.error = sample.error or f"answer rejected: {str(sample.answer)[:80]}"
                mismatches.setdefault(sample.op.kind, sample.error)
            continue
        key = sample.op.key
        if key not in expected:
            try:
                expected[key] = canonical(sample.op.expect())
            except Exception as exc:  # the second route failing is a failure too
                expected[key] = f"second route raised {type(exc).__name__}: {exc}"
        got = canonical(sample.answer)
        if got != expected[key]:
            sample.ok = False
            sample.error = f"wrong answer: {got[:80]} != {expected[key][:80]}"
            mismatches.setdefault(sample.op.kind, sample.error)
    return mismatches


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(build: Callable[[], object], min_reps: int, min_seconds: float,
                max_reps: int, dispose: Optional[Callable[[object], None]] = None):
    """Run ``build`` at least ``min_reps`` times and until ``min_seconds``
    of building have passed (at most ``max_reps`` times).

    Repetitions take the CPUs in turn.  Returns (median seconds,
    repetitions, last result).  Every result but the last is handed to
    ``dispose`` (untimed) before the next build.
    """
    times: List[float] = []
    while True:
        on_cpu(len(times))
        t0 = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - t0)
        if len(times) >= max_reps or (
                len(times) >= min_reps and sum(times) >= min_seconds):
            on_all_cpus()
            return float(np.median(times)), len(times), result
        if dispose is not None:
            dispose(result)
        result = None  # let the world go before building the next


@dataclass
class Metric:
    value: float
    unit: str
    n: int


@dataclass
class Report:
    """Everything one run measured; ``metrics`` are keyed by metric name."""

    workload: str
    seed: int
    metrics: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: Dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, n: int) -> None:
        self.metrics[name] = Metric(float(value), unit, int(n))


def block_rates(samples: Sequence[Sample], block: int, elapsed: float) -> List[float]:
    """Correct operations per second of each whole block of ``block`` ops."""
    rates = []
    for i in range(0, len(samples) - block + 1, block):
        chunk = samples[i:i + block]
        stop = samples[i + block].started if i + block < len(samples) else elapsed
        rates.append(sum(s.ok for s in chunk) / (stop - chunk[0].started))
    return rates


def latency_metrics(report: Report, samples: Sequence[Sample], elapsed: float,
                    block: int = 1) -> None:
    """``query_p50_ms`` / ``query_p95_ms`` / ``queries_per_s`` of correct ops.

    Failed ops are excluded from the latency figures and the rate: a
    wrong answer must never show up as a fast query.  The rate is the
    median over the run's whole blocks of operations, so a stall of the
    host in one block moves it less than it moves a run-wide mean.
    """
    good = [s.seconds * 1000 for s in samples if s.ok]
    report.put("query_p50_ms", percentile(good, 50), "ms", len(good))
    report.put("query_p95_ms", percentile(good, 95), "ms", len(good))
    rates = block_rates(samples, block, elapsed)
    report.put("queries_per_s", percentile(rates, 50) if rates else 0.0, "1/s", len(rates))


def tracing_overhead_ms(samples: Sequence[Sample]) -> float:
    """Traced minus untraced median latency, per op kind, count-weighted.

    Comparing within a kind keeps a mix of cheap and expensive
    operations from passing off its sampling noise as overhead.
    """
    by_kind: Dict[str, Tuple[List[float], List[float]]] = {}
    for s in samples:
        if s.ok:
            pair = by_kind.setdefault(s.op.kind, ([], []))
            pair[0 if s.traced else 1].append(s.seconds * 1000)
    total = weight = 0.0
    for traced, plain in by_kind.values():
        if traced and plain:
            n = len(traced) + len(plain)
            total += n * (percentile(traced, 50) - percentile(plain, 50))
            weight += n
    return total / weight if weight else 0.0


def layer_breakdown(tracer: Tracer) -> Dict[str, object]:
    """Self time per span name and per layer, plus the additivity check."""
    children: Dict[int, float] = {}
    for span in tracer.spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.seconds
    by_name: Dict[str, float] = {}
    by_layer: Dict[str, float] = {}
    per_trace_self: Dict[int, float] = {}
    roots: Dict[int, float] = {}
    for span in tracer.spans:
        own = span.seconds - children.get(span.span_id, 0.0)
        by_name[span.name] = by_name.get(span.name, 0.0) + own
        layer = span.name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + own
        per_trace_self[span.trace_id] = per_trace_self.get(span.trace_id, 0.0) + own
        if span.parent is None:
            roots[span.trace_id] = span.seconds
    worst = max(
        (abs(per_trace_self[t] - roots[t]) for t in roots), default=0.0
    )
    return {
        "self_by_name": by_name,
        "self_by_layer": by_layer,
        "traces": len(roots),
        "root_seconds": sum(roots.values()),
        "max_sum_error_s": worst,
    }


def write_spans(path: str, tracer: Tracer) -> None:
    with open(path, "w") as fh:
        json.dump([s.as_dict() for s in tracer.spans], fh)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def out_dir(root: str) -> str:
    path = os.path.join(root, ".perfbench_out")
    os.makedirs(path, exist_ok=True)
    return path

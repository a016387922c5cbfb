"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload adhoc_scan --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the same operation stream with half of the operations traced and
reports the per-layer metrics.  Every metric is printed by name with its
unit and sample count; the full report (and, when tracing, every span)
is written under ``.perfbench_out/``; the last line of standard output
is the JSON summary ``{"correct", "attempted", "failed", "metrics"}``.

The program under test is imported from ``src/`` of the current
directory; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("adhoc_scan", "fo_region", "dashboard_preagg", "stream_serve")
#: Set-up is repeated at least SETUP_REPS times and until SETUP_MIN_S of
#: building have passed (at most SETUP_MAX_REPS times); ``setup_s`` is the
#: median, so a set-up of milliseconds is measured many times over.
SETUP_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 4, 2.0, 400


def load_spec() -> Dict[str, object]:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def bind_program(root: str) -> None:
    """Put the checkout's ``src`` first on the path; fail if it is absent."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        fail(f"no program sources under {src!r}")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.abspath(src)):
        fail(f"imported repro from {repro.__file__!r}, not {src!r}")


@dataclass
class RunConfig:
    workload: str
    seed: int
    seconds: float
    trace: bool
    size: str
    out: str
    tracer: Optional[object] = None
    setup_s: float = float("nan")
    setup_reps: int = 0
    setup_peak_rss_mb: float = float("nan")
    block: int = 1
    peak_rss_mb: float = float("nan")

    def input_path(self, suffix: str) -> str:
        """Where this run's generator writes an input file."""
        return os.path.join(self.out, f"{self.workload}-{self.seed}-{self.size}.{suffix}")

    def setup(self, build, dispose=None):
        """Build the world repeatedly; the median time is ``setup_s``."""
        import harness

        self.setup_s, self.setup_reps, world = harness.timed_setup(
            build, SETUP_REPS, SETUP_MIN_S, SETUP_MAX_REPS, dispose)
        self.setup_peak_rss_mb = harness.peak_rss_mb()
        return world

    def drive(self, ops, block: int = 1):
        """Run the closed loop; the peak RSS is read as soon as it ends."""
        import numpy as np

        import harness

        if self.trace:
            self.tracer = harness.Tracer()
        coin = np.random.default_rng(self.seed + 7919)
        self.block = block
        samples, elapsed = harness.closed_loop(ops, self.seconds, self.tracer, coin, block)
        self.peak_rss_mb = harness.peak_rss_mb()
        return samples, elapsed

    def finish(self, report, samples, elapsed, extras, observers):
        """Gate the answers, then fill every metric of this run."""
        import harness

        mismatches = harness.verify(samples)
        report.attempted += len(samples)
        report.failed += sum(1 for s in samples if not s.ok)
        if mismatches:
            report.notes["mismatches"] = mismatches
        report.put("setup_s", self.setup_s, "s", self.setup_reps)
        if not self.trace:
            harness.latency_metrics(report, samples, elapsed, self.block)
            report.put("peak_rss_mb", self.peak_rss_mb, "MB", 1)
        else:
            per_layer(report, self.tracer, samples, extras, observers)
        report.notes["peak_rss_mb_after_setup"] = self.setup_peak_rss_mb
        report.notes["elapsed_s"] = elapsed
        report.notes["ops_by_kind"] = count_kinds(samples)
        return report


def count_kinds(samples) -> Dict[str, object]:
    """Per operation kind: count and median latency in ms."""
    import harness

    by_kind: Dict[str, List[float]] = {}
    for s in samples:
        by_kind.setdefault(s.op.kind, []).append(s.seconds * 1000)
    return {kind: [len(v), round(harness.percentile(v, 50), 3)]
            for kind, v in sorted(by_kind.items())}


#: Per-layer time metrics: metric -> span names whose self time it sums,
#: reported as milliseconds per traced operation.
SPAN_TIMES = {
    "pietql.parse_ms": ("pietql.parse",),
    "pietql.execute_self_ms": ("pietql.execute",),
    "query.plan_ms": ("query.plan",),
    "query.execute_self_ms": ("query.execute", "query.objects_through",
                              "query.count_objects_through"),
    "query.geometric_subquery_ms": ("query.geometric_subquery",),
    "query.scan_ms": ("query.scan",),
    "query.fo_eval_ms": ("query.fo_eval",),
    "temporal.during_ms": ("temporal.during",),
    "geometry.index_build_ms": ("geometry.index_build",),
    "preagg.lookup_ms": ("preagg.lookup",),
    "poi.read_ms": ("poi.read",),
    "parallel.fanout_ms": ("parallel.fanout",),
    "parallel.merge_ms": ("parallel.merge",),
    "ingest.snapshot_pin_ms": ("ingest.snapshot_pin",),
}

#: Layers whose total self time per operation is reported as self.<layer>_ms.
LAYERS = ("bench", "pietql", "query", "temporal", "geometry", "preagg", "poi",
          "parallel", "service", "ingest")

#: Workload-specific per-layer figures; absent means the layer was bypassed.
EXTRA_DEFAULTS = {
    "preagg.build_s": "s", "preagg.update_ms": "ms", "poi.build_s": "s",
    "service.queue_wait_ms": "ms", "service.run_ms": "ms",
    "service.overhead_ms": "ms", "service.attempts_per_job": "count",
    "ingest.submit_ms": "ms", "ingest.fold_ms": "ms", "ingest.compaction_ms": "ms",
    "ingest.late_ratio": "ratio", "mo.load_ms": "ms", "mo.bytes_per_sample": "B",
    "stream.ingest_samples_per_s": "1/s", "stream.freshness_p95_ms": "ms",
    "stream.generator_late_p95_ms": "ms",
}


def per_layer(report, tracer, samples, extras, observers) -> None:
    import harness

    traced = [s for s in samples if s.traced]
    n = max(len(traced), 1)
    b = harness.layer_breakdown(tracer)
    by_name, by_layer = b["self_by_name"], b["self_by_layer"]
    for metric, names in SPAN_TIMES.items():
        total = sum(by_name.get(name, 0.0) for name in names)
        report.put(metric, total * 1000 / n, "ms", len(traced))
    for layer in LAYERS:
        report.put(f"self.{layer}_ms", by_layer.get(layer, 0.0) * 1000 / n, "ms", len(traced))

    c = tracer.counters
    r = harness.ratio
    report.put("query.scan_rows_per_query", c.get("scan_rows", 0) / n, "rows", len(traced))
    report.put("query.rows_per_match", r(c.get("scan_rows", 0), c.get("objects_matched", 0)),
               "rows", int(c.get("objects_matched", 0)))
    report.put("query.prefilter_accept_ratio",
               r(c.get("vectorized_accepts", 0), c.get("objects_scanned", 0)),
               "ratio", int(c.get("objects_scanned", 0)))
    hits, builds = c.get("grid_index_cache_hits", 0), c.get("grid_index_builds", 0)
    report.put("geometry.index_cache_hit_ratio", r(hits, hits + builds), "ratio", int(hits + builds))
    report.put("geometry.clip_segments_per_query", c.get("clip_kernel_segments", 0) / n,
               "count", len(traced))
    # The fallback share covers every clip the run made, set-up included.
    clip = sum(o.count("clip_kernel_segments") for o in observers)
    fallback = sum(o.count("clip_kernel_fallback") for o in observers)
    report.put("geometry.clip_fallback_ratio", r(fallback, clip), "ratio", clip)
    ph, pm = c.get("preagg_hits", 0), c.get("preagg_misses", 0)
    report.put("preagg.hit_ratio", r(ph, ph + pm), "ratio", int(ph + pm))
    report.put("preagg.sliver_rows_per_query", c.get("sliver_scan_rows", 0) / n, "rows", len(traced))
    qh, qm = c.get("poi_preagg_hits", 0), c.get("poi_preagg_misses", 0)
    report.put("poi.hit_ratio", r(qh, qh + qm), "ratio", int(qh + qm))
    report.put("poi.disc_segments_per_query", c.get("disc_kernel_segments", 0) / n,
               "count", len(traced))

    for metric, unit in EXTRA_DEFAULTS.items():
        value, unit, count = extras.get(metric, (0.0, unit, 0))
        report.put(metric, value, unit, count)

    traced_ms = [s.seconds * 1000 for s in traced if s.ok]
    plain_ms = [s.seconds * 1000 for s in samples if s.ok and not s.traced]
    report.put("trace.p50_ms", harness.percentile(traced_ms, 50), "ms", len(traced_ms))
    report.put("trace.untraced_p50_ms", harness.percentile(plain_ms, 50), "ms", len(plain_ms))
    report.put("trace.overhead_ms", harness.tracing_overhead_ms(samples), "ms",
               len(traced_ms) + len(plain_ms))
    report.put("trace.e2e_mean_ms", b["root_seconds"] * 1000 / n, "ms", b["traces"])
    report.put("trace.spans_per_query", len(tracer.spans) / n, "count", len(tracer.spans))
    report.put("trace.clamped_spans", tracer.clamped, "count", len(tracer.spans))
    report.put("failed_ops_frac", report.failed / max(report.attempted, 1), "frac",
               report.attempted)
    report.notes["max_trace_sum_error_ms"] = b["max_sum_error_s"] * 1000


def workload_module(name: str):
    if name not in WORKLOADS:
        fail(f"unknown workload {name!r}; expected {WORKLOADS}")
    sys.path.insert(0, HERE)
    return __import__(name)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", root: Optional[str] = None):
    """Run one workload in-process and return its :class:`harness.Report`."""
    root = os.path.abspath(root or os.getcwd())
    bind_program(root)
    module = workload_module(name)
    import harness

    cfg = RunConfig(name, seed, seconds, trace, size, harness.out_dir(root))
    return module.run(cfg), cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="world size; 'tiny' is for the self-tests")
    args = parser.parse_args(argv)

    report, cfg = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.size)
    spec = load_spec()
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [m for m in wanted if m not in report.metrics]
    if missing:
        fail(f"metrics not measured: {missing}")

    print(f"workload={report.workload} seed={report.seed} size={args.size} "
          f"trace={args.trace} attempted={report.attempted} failed={report.failed}")
    if cfg.tracer is not None:
        # A scaled-down breakdown is not a measurement; say so up front.
        print(f"  spans={len(cfg.tracer.spans)} clamped_spans={cfg.tracer.clamped}")
    for name, m in sorted(report.metrics.items()):
        print(f"  {name:34s} {m.value:14.6g} {m.unit:6s} n={m.n}")
    for key, value in report.notes.items():
        print(f"  note {key}: {value}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(cfg.out, stem + ".json"), "w") as fh:
        json.dump({
            "workload": report.workload, "seed": report.seed, "size": args.size,
            "seconds": args.seconds, "trace": args.trace,
            "attempted": report.attempted, "failed": report.failed,
            "metrics": {k: vars(m) for k, m in report.metrics.items()},
            "notes": report.notes,
        }, fh, indent=1, default=str)
    if cfg.tracer is not None:
        import harness

        harness.write_spans(os.path.join(cfg.out, stem + "-spans.json"), cfg.tracer)

    values = {name: report.metrics[name] for name in wanted}
    correct = report.failed == 0 and all(math.isfinite(m.value) for m in values.values())
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        # A metric with nothing to measure (NaN) prints as null, keeping the line JSON.
        "metrics": {name: {"value": m.value if math.isfinite(m.value) else None,
                           "unit": m.unit} for name, m in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench``.  The
tiny-size passes drive every workload end to end through
``perfbench/run.py`` for one second each, traced and untraced.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402
import run  # noqa: E402

SPEC = run.load_spec()


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_pass_reports_every_metric(workload, trace):
    proc = run_cli("--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), metric["name"]
    for metric in SPEC["end_to_end"] if not trace else ():
        assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]
    # Every metric is also printed by name with its unit and sample count.
    for metric in wanted:
        assert any(line.split()[:1] == [metric["name"]] and "n=" in line
                   for line in proc.stdout.splitlines()), metric["name"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_self_times_add_up(workload):
    proc = run_cli("--workload", workload, "--seed", "4", "--seconds", "1",
                   "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    out = os.path.join(ROOT, ".perfbench_out", f"{workload}-seed4-trace1")
    with open(out + ".json") as fh:
        report = json.load(fh)
    metrics = {k: v["value"] for k, v in report["metrics"].items()}
    layers = sum(metrics[f"self.{layer}_ms"] for layer in run.LAYERS)
    assert layers == pytest.approx(metrics["trace.e2e_mean_ms"], rel=1e-9, abs=1e-9)
    assert report["notes"]["max_trace_sum_error_ms"] < 1e-6
    # Self times add up by construction; the breakdown is only sound when
    # no derived span had to be scaled down to fit its parent.
    assert metrics["trace.clamped_spans"] == 0
    with open(out + "-spans.json") as fh:
        spans = json.load(fh)
    assert spans and all(
        {"name", "start", "end", "parent", "trace_id"} <= set(s) for s in spans)
    assert all(s["end"] >= s["start"] for s in spans)


def test_wrong_answer_is_a_failure_not_a_fast_query():
    """A fast wrong answer must count in ``failed`` and stay out of latency."""
    import time

    def slow_right(tr):
        time.sleep(0.01)
        return 42

    ops = iter([
        harness.Op("right", "q", slow_right, expect=lambda: 42),
        harness.Op("wrong", "q", lambda tr: 41, expect=lambda: 42),
    ] * 1000)
    samples, elapsed = harness.closed_loop(ops, 0.3, None, block=2)
    harness.verify(samples)
    report = harness.Report("negative", 0)
    report.failed = sum(1 for s in samples if not s.ok)
    harness.latency_metrics(report, samples, elapsed, block=2)
    wrong = [s for s in samples if s.op.kind == "wrong"]
    assert wrong and all(not s.ok for s in wrong)
    assert report.failed == len(wrong)
    assert report.metrics["query_p50_ms"].n == len(samples) - len(wrong)
    assert report.metrics["query_p50_ms"].value >= 10.0
    # Each block is one right (10 ms) and one wrong (instant) answer: only
    # the right one counts, so the rate stays near 100/s, not 200/s.
    assert report.metrics["queries_per_s"].value < 110.0


def test_wrong_program_answer_fails_the_workload(monkeypatch):
    """A deliberately broken Piet-QL executor is caught by the gate."""
    report, _ = run.run_workload("adhoc_scan", 5, 1.0, False, "tiny", ROOT)
    assert report.failed == 0
    from repro.pietql import PietQLExecutor

    real = PietQLExecutor.execute

    def off_by_one(self, query):
        from dataclasses import replace

        result = real(self, query)
        return replace(result, count=result.count + 1)

    monkeypatch.setattr(PietQLExecutor, "execute", off_by_one)
    report, _ = run.run_workload("adhoc_scan", 5, 1.0, False, "tiny", ROOT)
    pietql = sum(n for kind, (n, _) in report.notes["ops_by_kind"].items()
                 if kind.startswith("pietql"))
    assert pietql and report.failed == pietql
    assert report.metrics["query_p50_ms"].n == report.attempted - pietql


def test_wrong_clip_kernel_fails_fo_region(monkeypatch):
    """Q5's second route clips segment by segment, not through the kernel."""
    run.bind_program(ROOT)
    from repro.geometry import kernels

    real = kernels.clip_segments_batch

    def shrunk(*args, **kwargs):
        return [[(s0, s0 + (s1 - s0) * 0.99) for s0, s1 in clips]
                for clips in real(*args, **kwargs)]

    monkeypatch.setattr(kernels, "clip_segments_batch", shrunk)
    report, _ = run.run_workload("fo_region", 5, 1.0, False, "tiny", ROOT)
    assert "synth.q5" in report.notes["mismatches"]
    assert report.failed > 0


def test_derived_spans_fit_their_parent():
    tracer = harness.Tracer()
    with tracer.span("bench.op"):
        with tracer.span("query.execute") as span:
            pass
    tracer.derive(span, [("query.scan", 10.0), ("geometry.index_build", 10.0)])
    assert tracer.clamped == 1
    breakdown = harness.layer_breakdown(tracer)
    assert breakdown["max_sum_error_s"] < 1e-12


def test_without_program_sources_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("--workload", "fo_region", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""``stream_serve``: live operations, writes beside reads.

World: the 12x12-block city of ``adhoc_scan`` behind a streaming
``ServiceWorld``: a ``StreamingIngestor`` seeded with a historical batch
(the first 4 instants of 250 random-waypoint objects, loaded with
``MOFT.load`` from a columnar file the generator wrote in a child
process, next to the later instants it streams) that maintains a
day-granule ``PreAggStore`` over the 144 neighbourhoods on every flush.

Service: ``QueryService`` on a ``SQLiteJobQueue`` (the queue the CLI
``serve`` verb uses) with one worker and the default 20 ms idle poll.

Load:

* ingest, open loop: one ``ingest`` job per instant (250 time-ordered
  samples) every 0.5 s, i.e. 500 samples/s, submitted at its due time
  whatever the service is doing.  A job costs about 70 ms (mostly the
  store fold), so ingest keeps the worker about 15% busy: enough to
  delay queries behind it, not so much that the queue dominates;
* queries, closed loop, one client: light ``through`` and Piet-QL jobs
  (whole-table counts the store answers, and ``DURING hour = h`` counts
  that miss it and run a serial-backend sharded scan), each submitted
  after the previous answer came back.

``freshness`` is a batch's due time to its ingest job being done, so a
stall also counts against the batches queued behind it.

Correctness gate: each query answer must lie between the direct
(store-free, serial) answers on the snapshots pinned just before submit
and just after the answer (whole-table counts only grow as samples
append); after the run the ingestor is closed and its final snapshot
must equal a batch load of the accepted samples, answering every query
identically, with ``submitted == ingested + late + buffered``.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np

import harness
import worlds
from harness import Op

SIZES = {
    "full": dict(blocks=12, objects=250, base_instants=4, period_s=0.5),
    "tiny": dict(blocks=4, objects=20, base_instants=2, period_s=0.1),
}

#: Query jobs per block (the closed loop runs whole blocks).
QUESTIONS = 6


def questions(rng: np.random.Generator):
    """The query jobs of one block: ``(kind, spec payload)`` pairs."""
    hours = rng.integers(0, 24, size=2)
    return [
        ("through", (("Ln", "polygon"), (("contains", ("Ls", "node")),))),
        ("through", (("Lc", "polygon"), (("intersects", ("Lr", "polyline")),))),
        ("pietql", "SELECT layer.neighborhoods FROM Stream WHERE (layer.neighborhoods) "
                   "CONTAINS (layer.neighborhoods, layer.stores) "
                   "| COUNT OBJECTS FROM FM THROUGH RESULT"),
        ("pietql", "SELECT layer.cities FROM Stream "
                   "| COUNT OBJECTS FROM FM THROUGH RESULT"),
    ] + [
        ("pietql_hour", "SELECT layer.neighborhoods FROM Stream WHERE "
                        "intersection(layer.rivers, layer.neighborhoods) "
                        f"| COUNT OBJECTS FROM FM THROUGH RESULT DURING hour = {int(h)}")
        for h in hours
    ]


def spec_of(kind, payload):
    from repro.service import QuerySpec

    if kind == "through":
        target, constraints = payload
        return QuerySpec.through(target, constraints, moft_name="FM")
    return QuerySpec.pietql(payload)


def count_on(context, kind, payload) -> int:
    """One question answered in-process (through any store ``context`` has)."""
    from repro.pietql import PietQLExecutor
    from repro.query import count_objects_through

    if kind == "through":
        target, constraints = payload
        return count_objects_through(context, target, list(constraints))
    executor = PietQLExecutor(context, worlds.layer_bindings())
    return int(executor.execute(payload).count)


def direct_count(moft, kind, payload, gis, time_dim) -> int:
    """The store-free serial answer on one table version."""
    from repro.query.region import EvaluationContext

    return count_on(EvaluationContext(gis, time_dim, moft), kind, payload)


class World:
    """Ingestor + service world + SQLite-queued service, started."""

    def __init__(self, size: dict, base_path: str, queue_path: str, n_instants: int) -> None:
        from repro.gis import POLYGON
        from repro.ingest import IngestConfig, StoreSpec, StreamingIngestor
        from repro.mo.moft import MOFT
        from repro.service import QueryService, ServiceWorld, SQLiteJobQueue

        self.city = worlds.build_city(worlds.CITY_SEED, size["blocks"])
        self.time = worlds.hourly_time(n_instants)
        t0 = time.perf_counter()
        self.base = MOFT.load(base_path)
        self.load_s = time.perf_counter() - t0
        self.ingestor = StreamingIngestor(
            self.city.gis, self.time, moft_name="FM", base=self.base,
            config=IngestConfig(allowed_lateness=0.0, compact_every=8),
            store_specs=[StoreSpec("day", "Ln", POLYGON)],
        )
        self.world = ServiceWorld(
            name="stream", context=self.ingestor.snapshot().context(),
            bindings=worlds.layer_bindings(),
            ingestor=self.ingestor,
        )
        worlds.precompute_overlay(self.world.context, ("neighborhoods", "cities"))
        worlds.discard(queue_path)
        self.queue = SQLiteJobQueue(queue_path)
        self.service = QueryService(self.world, queue=self.queue, n_workers=1).start()

    def close(self) -> None:
        self.service.stop()
        self.queue.close()


class Generator(threading.Thread):
    """The open-loop ingest client: one batch per period, on schedule."""

    def __init__(self, service, batches, period_s: float) -> None:
        super().__init__(name="perfbench-ingest", daemon=True)
        self.service, self.batches, self.period_s = service, batches, period_s
        self.stop_event = threading.Event()
        self.sent = []  # (due time, job id, samples)
        self.late_ms = []
        self.error = None

    def run(self) -> None:
        from repro.service import QuerySpec

        start = time.time()
        try:
            for k, batch in enumerate(self.batches):
                due = start + k * self.period_s
                if self.stop_event.wait(max(0.0, due - time.time())):
                    return
                self.late_ms.append((time.time() - due) * 1000)
                self.sent.append((due, self.service.submit(QuerySpec.ingest(batch)), len(batch)))
        except Exception as exc:  # reported by the workload, never swallowed
            self.error = f"{type(exc).__name__}: {exc}"

    def stop(self) -> None:
        self.stop_event.set()
        self.join(timeout=30)


def make_ops(w: World, rng: np.random.Generator, check_cache: dict, queued: list):
    svc, ingestor = w.service, w.ingestor

    def op(kind, payload):
        spec = spec_of(kind, payload)

        def run(tr):
            with tr.span("ingest.snapshot_pin"):
                before = ingestor.snapshot()
                before.context()
            job = traced_job(tr, w, spec, queued)
            after = ingestor.snapshot()
            answer = svc.result(job.job_id)["count"]
            return (int(answer), before, after, job)

        def accept(answer):
            count, before, after, _ = answer
            bounds = []
            for snap in (before, after):
                key = (snap.ordinal, kind, payload)
                if key not in check_cache:
                    check_cache[key] = direct_count(snap.moft, kind, payload,
                                                    w.city.gis, w.time)
                bounds.append(check_cache[key])
            return bounds[0] <= count <= bounds[1]

        return Op(kind, (kind, payload), run, accept=accept)

    while True:
        block = questions(rng)
        for i in rng.permutation(len(block)):
            yield op(*block[i])


def traced_job(tr, w: World, spec, queued: list):
    """Submit and wait under a ``service.job`` span.

    Its children are the ``service.submit`` call and, from the job
    record, ``service.queue_wait`` (from the submit call's return to the
    claim) and ``service.run`` (the job's run time, with the fan-out and
    merge stage seconds as its children).  Each queue wait is also
    appended to ``queued`` with its wall-clock window, so that the ingest
    jobs it waited behind can be attached once the run is over
    (:func:`attach_ingest`).
    """
    svc = w.service
    if not tr.enabled:
        return svc.wait(svc.submit(spec))
    service_before = svc.obs.snapshot()
    with tr.span("service.job") as span:
        with tr.span("service.submit"):
            job_id = svc.submit(spec)
        submitted = time.time()
        job = svc.wait(job_id)
    run_s = json.loads(job.metrics_json or "{}").get("run_s", 0.0)
    claimed = job.claimed_at or submitted
    queue_s = max(0.0, claimed - max(job.submitted_at, submitted))
    for waited in tr.derive(span, [("service.queue_wait", queue_s)]):
        queued.append((waited, claimed - queue_s, claimed))
    for ran in tr.derive(span, [("service.run", run_s)]):
        delta = svc.obs.since(service_before)
        tr.derive(ran, harness.stage_parts(delta, ("shard_fanout", "merge")))
    return job


def attach_ingest(tr, queued: list, ingest_jobs, iobs) -> None:
    """Give each traced queue wait the ingest work that overlapped it.

    The single worker runs ingest jobs and query jobs one at a time, so
    the part of every ingest job's ``[claimed, finished]`` window that
    falls inside a query's queue wait is time that query spent behind
    ingest.  It becomes an ``ingest.job`` child of the wait, with a
    ``preagg.update`` child in the proportion store updates took of all
    ingest job time.
    """
    windows = [(j.claimed_at, j.finished_at) for j in ingest_jobs
               if j.claimed_at is not None and j.finished_at is not None]
    share = harness.ratio(iobs.seconds("preagg_update"), sum(f - c for c, f in windows))
    for waited, q0, q1 in queued:
        overlap = sum(max(0.0, min(f, q1) - max(c, q0)) for c, f in windows)
        for job in tr.derive(waited, [("ingest.job", overlap)]):
            tr.derive(job, [("preagg.update", overlap * min(share, 1.0))])


def final_gate(w: World, sent_batches, report: harness.Report) -> None:
    """Close the stream; the final snapshot must equal a batch load."""
    from repro.mo.moft import MOFT

    final = w.ingestor.close()
    accepted = list(w.base.tuples())
    late = set(w.ingestor.late_samples())
    for batch in sent_batches:
        accepted.extend(s for s in batch if s not in late)
    batch_load = MOFT.from_columns(*zip(*accepted), name="FM")
    obs = w.ingestor.obs
    problems = []
    if sorted(final.moft.tuples()) != sorted(batch_load.tuples()):
        problems.append("final snapshot differs from the batch load")
    submitted = obs.count("samples_submitted")
    if submitted != obs.count("samples_ingested") + obs.count("samples_late") + obs.count("samples_buffered"):
        problems.append("submitted != ingested + late + buffered")
    for kind, payload in questions(np.random.default_rng(0)):
        a = count_on(final.context(), kind, payload)
        b = direct_count(batch_load, kind, payload, w.city.gis, w.time)
        if a != b:
            problems.append(f"{kind} answer {a} on the stream != {b} on the batch load")
    report.attempted += 1
    if problems:
        report.failed += 1
        report.notes["final_gate"] = problems


def write_inputs(base_path: str, stream_path: str, size: dict, n_instants: int,
                 seed: int) -> None:
    """The generator: a columnar base file and the positions to stream."""
    rng = np.random.default_rng([seed, worlds.MOVEMENT])
    box = worlds.build_city(worlds.CITY_SEED, size["blocks"]).bounding_box
    xs, ys = worlds.waypoint_arrays(box, size["objects"], n_instants, worlds.SPEED, rng)
    b = size["base_instants"]
    worlds.save_columns(base_path, xs[:, :b], ys[:, :b])
    np.savez(stream_path, xs=xs[:, b:], ys=ys[:, b:])


def load_batches(stream_path: str, first_instant: int):
    """One time-ordered batch of ``(oid, t, x, y)`` samples per instant."""
    with np.load(stream_path) as arrays:
        xs, ys = arrays["xs"], arrays["ys"]
    oids = worlds.object_ids(xs.shape[0])
    return [
        [(oid, float(first_instant + k), float(x), float(y))
         for oid, x, y in zip(oids, xs[:, k], ys[:, k])]
        for k in range(xs.shape[1])
    ]


def run(cfg) -> harness.Report:
    size = SIZES[cfg.size]
    n_batches = int(cfg.seconds / size["period_s"]) + 8
    n_instants = size["base_instants"] + n_batches
    base_path, stream_path = cfg.input_path("moft"), cfg.input_path("npz")
    worlds.generate(write_inputs, base_path, stream_path, size, n_instants, cfg.seed)
    batches = load_batches(stream_path, size["base_instants"])
    queue_path = cfg.input_path("jobs.db")

    w = cfg.setup(lambda: World(size, base_path, queue_path, n_instants),
                  dispose=World.close)
    report = harness.Report("stream_serve", cfg.seed)
    gen = Generator(w.service, batches, size["period_s"])
    check_cache: dict = {}
    queued: list = []
    try:
        gen.start()
        ops = make_ops(w, worlds.query_rng(cfg.seed), check_cache, queued)
        samples, elapsed = cfg.drive(ops, QUESTIONS)
        gen.stop()
        w.service.drain(timeout=120)
        jobs = [(due, w.service.status(job_id), n) for due, job_id, n in gen.sent]
    finally:
        gen.stop()
        w.close()
    if cfg.tracer is not None:
        attach_ingest(cfg.tracer, queued, [job for _, job, _ in jobs], w.ingestor.obs)
    report.attempted += len(jobs)
    report.failed += sum(1 for _, job, _ in jobs if job.state != "done")
    if gen.error:
        report.failed += 1
        report.notes["generator_error"] = gen.error
    final_gate(w, batches[:len(jobs)], report)

    ingest_runs = [json.loads(j.metrics_json or "{}").get("run_s", 0.0) for _, j, _ in jobs]
    fresh_ms = [(j.finished_at - due) * 1000 for due, j, _ in jobs if j.finished_at]
    done = sum(n for _, j, n in jobs if j.state == "done")
    obs, iobs = w.service.obs, w.ingestor.obs
    extras = {
        "stream.ingest_samples_per_s": (done / elapsed, "1/s", done),
        "stream.freshness_p95_ms": (harness.percentile(fresh_ms, 95), "ms", len(fresh_ms)),
        "stream.generator_late_p95_ms": (harness.percentile(gen.late_ms, 95), "ms",
                                         len(gen.late_ms)),
        "ingest.submit_ms": (1000 * float(np.mean(ingest_runs)) if ingest_runs else 0.0,
                             "ms", len(ingest_runs)),
        "ingest.fold_ms": (1000 * harness.ratio(iobs.seconds("ingest_fold"),
                                                iobs.timer("ingest_fold").calls),
                           "ms", iobs.timer("ingest_fold").calls),
        "ingest.compaction_ms": (1000 * harness.ratio(iobs.seconds("compaction"),
                                                      iobs.timer("compaction").calls),
                                 "ms", iobs.timer("compaction").calls),
        "ingest.late_ratio": (harness.ratio(iobs.count("samples_late"),
                                            iobs.count("samples_submitted")),
                              "ratio", iobs.count("samples_submitted")),
        "preagg.update_ms": (1000 * harness.ratio(iobs.seconds("preagg_update"),
                                                  iobs.timer("preagg_update").calls),
                             "ms", iobs.timer("preagg_update").calls),
        "preagg.build_s": (iobs.seconds("preagg_build") / max(iobs.timer("preagg_build").calls, 1),
                           "s", iobs.timer("preagg_build").calls),
        "mo.load_ms": (w.load_s * 1000, "ms", 1),
        "mo.bytes_per_sample": (worlds.bytes_per_sample(w.base), "B", len(w.base)),
    }
    extras.update(service_extras(w, samples))
    report.notes["stream"] = {k: round(v[0], 3) for k, v in extras.items()
                              if k.startswith("stream.")}
    report = cfg.finish(report, samples, elapsed, extras, [iobs, obs])
    for path in (base_path, stream_path, queue_path):
        worlds.discard(path)
    return report


def service_extras(w: World, samples):
    """Per-query-job queue wait, run time, overhead and attempts."""
    waits, runs, overheads, attempts = [], [], [], []
    jobs = [(s.answer[3], s.seconds) for s in samples if s.ok]
    for job, latency in jobs:
        run_s = json.loads(job.metrics_json or "{}").get("run_s", 0.0)
        waits.append(((job.claimed_at or job.submitted_at) - job.submitted_at) * 1000)
        runs.append(run_s * 1000)
        overheads.append(latency * 1000 - run_s * 1000)
        attempts.append(job.attempts)
    n = len(jobs)

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    return {
        "service.queue_wait_ms": (mean(waits), "ms", n),
        "service.run_ms": (mean(runs), "ms", n),
        "service.overhead_ms": (mean(overheads), "ms", n),
        "service.attempts_per_job": (mean(attempts), "count", n),
    }

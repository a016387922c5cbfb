"""``adhoc_scan``: one analyst issuing one-off Section 5 queries.

World: the 12x12-block synthetic city and 1000 random-waypoint objects
sampled at 250 hourly instants (250k samples), written by the generator
(in a child process) as one columnar file and loaded with ``MOFT.load``.  No store is
materialised, so every answer comes from the geometric subquery plus the
trajectory scan.

Load: closed loop, one client.  Every block of 20 operations holds
2 Piet-QL ``THROUGH RESULT`` queries over the whole table, 4 with a
one-day ``DURING``, 7 planned counts (``plan_count_objects_through`` +
``execute_plan``, the two halves of ``planned_count_objects_through``)
and 7 ``objects_through`` calls.  Each of 20 target sets (conditions on
neighbourhoods or cities) appears once per block, always as the same
kind, in a shuffled order.  Builder windows have log-uniform lengths
(1 to 249 instants) and ``DURING`` days are spread the same way: one
stratum per operation within each kind, each target walking through the
strata in a fixed order, at each stratum's middle.  So every seed gets
the same mix of cheap and expensive questions with different window
starts and movement, and the matched share spans about 1% to 100% of
the objects.

Correctness gate (after the timed loop): Piet-QL answers must equal
``geometric_subquery`` + ``count_objects_through``; planned counts must
equal ``count_objects_through(use_preagg=False)``; ``objects_through``
sets must equal a serial-backend sharded scan.
"""

from __future__ import annotations

import time

import numpy as np

import harness
import worlds
from harness import Op, observed

SIZES = {
    "full": dict(blocks=12, objects=1000, instants=250),
    "tiny": dict(blocks=4, objects=30, instants=48),
}

#: Target sets, each used once per block: every one- and two-condition
#: neighbourhood query plus five city queries (1 to 44 of the 144
#: neighbourhoods, 8 or 16 of the 16 cities on the fixed city).
TARGETS = (
    [("neighborhoods", [c]) for c in sorted(worlds.CONDITIONS)]
    + [("neighborhoods", sorted([a, b])) for i, a in enumerate(sorted(worlds.CONDITIONS))
       for b in sorted(worlds.CONDITIONS)[i + 1:]]
    + [("cities", []), ("cities", ["rivers"]), ("cities", ["schools"]),
       ("cities", ["gas", "rivers"]), ("cities", ["schools", "stores"])]
)

#: Kinds per block of 20 operations.
BLOCK = (["pietql_full"] * 2 + ["pietql_day"] * 4 + ["planned"] * 7
         + ["objects"] * 7)

PIETQL_STAGES = ("geometric_subquery", "during_restriction", "preagg_lookup",
                 "index_build", "segment_scan")


def pietql_text(target: str, conds, day: str | None) -> str:
    parts = []
    for other in conds:
        if worlds.CONDITIONS[other] == "intersects":
            parts.append(f"intersection(layer.{other}, layer.{target})")
        else:
            parts.append(f"(layer.{target}) CONTAINS (layer.{target}, layer.{other})")
    where = (" WHERE " + " AND ".join(parts)) if parts else ""
    during = f" DURING day = '{day}'" if day else ""
    return (f"SELECT layer.{target} FROM CityWorld{where} "
            f"| COUNT OBJECTS FROM FM THROUGH RESULT{during}")


def constraints_of(conds):
    return [(worlds.CONDITIONS[c], worlds.BINDINGS[c]) for c in conds]


def pietql_through_op(kind: str, executor, target: str, conds, day_index) -> Op:
    """A Piet-QL ``THROUGH RESULT`` count, whole table or one ``DURING`` day.

    Checked against ``geometric_subquery`` + ``count_objects_through``
    over the day's window, with no store.
    """
    from repro.pietql import parse
    from repro.query import count_objects_through, geometric_subquery

    ctx = executor.context
    day = window = None
    if day_index is not None:
        day = worlds.day_member(day_index)
        window = (24.0 * day_index, 24.0 * day_index + 23.0)
    text = pietql_text(target, conds, day)
    tgt, cons = worlds.BINDINGS[target], constraints_of(conds)

    def run(tr):
        with tr.span("pietql.parse"):
            query = parse(text)
        result = observed(tr, "pietql.execute", lambda: executor.execute(query),
                          ctx.obs, PIETQL_STAGES)
        return [result.geometry_ids, int(result.count)]

    def expect():
        ids = geometric_subquery(ctx, tgt, cons)
        count = count_objects_through(ctx, tgt, cons, window=window,
                                      use_preagg=False) if ids else 0
        return [ids, count]

    return Op(kind, ("pietql", text), run, expect)


class World:
    def __init__(self, path: str, size: dict) -> None:
        from repro.mo.moft import MOFT
        from repro.pietql import PietQLExecutor
        from repro.query.region import EvaluationContext

        self.city = worlds.build_city(worlds.CITY_SEED, size["blocks"])
        self.time = worlds.hourly_time(size["instants"])
        t0 = time.perf_counter()
        self.moft = MOFT.load(path)
        self.load_s = time.perf_counter() - t0
        self.context = EvaluationContext(self.city.gis, self.time, self.moft)
        worlds.precompute_overlay(self.context, ("neighborhoods", "cities"))
        self.executor = PietQLExecutor(self.context, worlds.layer_bindings())


def make_ops(world: World, rng: np.random.Generator, n_instants: int):
    """Endless seeded stream of operations, one block of 20 at a time."""
    from repro.parallel import ShardedExecutor
    from repro.obs import EvaluationStats
    from repro.query import count_objects_through
    from repro.query.evaluator import objects_through
    from repro.query.planner import plan_count_objects_through

    ctx = world.context
    n_days = n_instants // 24

    def pietql_op(kind, day_index, target, conds):
        return pietql_through_op(kind, world.executor, target, conds, day_index)

    def window_for(u):
        length = worlds.log_uniform_int(1, n_instants - 1, u)
        start = int(rng.integers(0, n_instants - length))
        return (float(start), float(start + length))

    def planned_op(u, target, conds):
        tgt, cons, window = worlds.BINDINGS[target], constraints_of(conds), window_for(u)

        def run(tr):
            plan = observed(tr, "query.plan", lambda: plan_count_objects_through(
                ctx, tgt, cons, window=window), ctx.obs, ("geometric_subquery",))
            return plan_execute(tr, plan, ctx, tgt, cons, window)

        def expect():
            return count_objects_through(ctx, tgt, cons, window=window,
                                         use_preagg=False)

        return Op("planned", ("planned", tgt, tuple(cons), window), run, expect)

    def objects_op(u, target, conds):
        tgt, cons, window = worlds.BINDINGS[target], constraints_of(conds), window_for(u)

        def run(tr):
            stats = EvaluationStats()
            return observed(
                tr, "query.objects_through",
                lambda: objects_through(ctx, tgt, cons, window=window, stats=stats),
                [(ctx.obs, ("index_build", "preagg_lookup"), CONTEXT_COUNTERS),
                 (stats, ("geometric_subquery", "elapsed"), SCAN_COUNTERS)],
            )

        def expect():
            return objects_through(ctx, tgt, cons, window=window, use_preagg=False,
                                   executor=ShardedExecutor("serial", n_shards=3))

        return Op("objects", ("objects", tgt, tuple(cons), window), run, expect)

    # Target i is always asked as kind BLOCK[i], so every block (and
    # every seed) has the same mix.  Within a kind, the j-th target takes
    # window length (or day) stratum (j + block) mod n, at the stratum's
    # middle: each block spans every stratum, and every target walks
    # through them in the same order on every seed.  What the seed varies
    # is the movement, the block order and where each window starts.
    rank = [BLOCK[:i].count(kind) for i, kind in enumerate(BLOCK)]
    block = 0
    while True:
        for i in rng.permutation(len(TARGETS)).tolist():
            kind = BLOCK[i]
            target, conds = TARGETS[i]
            n = BLOCK.count(kind)
            u = ((rank[i] + block) % n + 0.5) / n
            if kind == "pietql_full":
                yield pietql_op(kind, None, target, conds)
            elif kind == "pietql_day":
                yield pietql_op(kind, int(u * n_days), target, conds)
            elif kind == "planned":
                yield planned_op(u, target, conds)
            else:
                yield objects_op(u, target, conds)
        block += 1


#: Counters read from the context observer when a call also fills its
#: own ``EvaluationStats`` (some counters are bumped on both).
CONTEXT_COUNTERS = ("grid_index_builds", "grid_index_cache_hits", "preagg_hits",
                    "preagg_misses", "sliver_scan_rows", "clip_kernel_segments",
                    "clip_kernel_fallback")
SCAN_COUNTERS = ("scan_rows", "objects_scanned", "objects_matched",
                 "vectorized_accepts")


def plan_execute(tr, plan, ctx, tgt, cons, window):
    """``execute_plan`` under a span; plan-node actuals become children."""
    from repro.query.planner import execute_plan

    if not tr.enabled:
        return execute_plan(plan, ctx, tgt, cons, window=window)
    before = ctx.obs.snapshot()
    with tr.span("query.execute") as span:
        count = execute_plan(plan, ctx, tgt, cons, window=window)
    delta = ctx.obs.since(before)
    parts = harness.stage_parts(delta, ("index_build", "preagg_lookup"))
    geo = plan.root.find("GeometricSubquery")
    if geo is not None and geo.actual_seconds:
        parts.append(("query.geometric_subquery", geo.actual_seconds))
    for op in ("SerialScan", "GridScan", "SliverScan"):
        node = plan.root.find(op)
        if node is not None and node.actual_seconds:
            parts.append(("query.scan", node.actual_seconds))
            tr.add_counters({"scan_rows": node.actual_rows or 0,
                             "objects_matched": count}, ("scan_rows", "objects_matched"))
    tr.derive(span, parts)
    tr.add_counters(delta, CONTEXT_COUNTERS)
    return count


def run(cfg) -> harness.Report:
    size = SIZES[cfg.size]
    path = cfg.input_path("moft")
    worlds.generate(worlds.write_waypoint_file, path, size["blocks"], size["objects"],
                    size["instants"], cfg.seed)
    world = cfg.setup(lambda: World(path, size))
    report = harness.Report("adhoc_scan", cfg.seed)
    ops = make_ops(world, worlds.query_rng(cfg.seed), size["instants"])
    samples, elapsed = cfg.drive(ops, len(BLOCK))
    extras = {
        "mo.load_ms": (world.load_s * 1000, "ms", 1),
        "mo.bytes_per_sample": (worlds.bytes_per_sample(world.moft), "B", len(world.moft)),
    }
    report = cfg.finish(report, samples, elapsed, extras, [world.context.obs])
    worlds.discard(path)
    return report

"""``dashboard_preagg``: a dashboard repeating a fixed panel on stores.

World: the 6x6-block city with its schools and stores promoted to POI
discs (``install_city_pois``), 100 random-waypoint objects over 100
hourly instants (``FM``, 10k samples) and 80 POI-hopping objects
(``stop_biased_moft``, ``FMpoi``, 8k samples); movement from the seed,
written by the generator (in a child process) as columnar files.

Set-up (counted in ``setup_s``): load the world, precompute the overlay
relations of the neighbourhoods, build a day-granule
``PreAggStore`` over the 36 neighbourhoods of ``FM`` and a day-granule
``PoiVisitStore`` over ``FMpoi``, and register both.

Load: closed loop, one client, cycling a seeded panel of 22 distinct
questions in blocks of 42 operations:

* 8 planned counts over granule-aligned windows (pure cell reads),
* 8 ``count_objects_through`` calls over misaligned windows (covered
  granule run from the store plus a sliver scan),
* 6 Piet-QL ``THROUGH RESULT DURING day = ...`` queries (store route),
* 9 Piet-QL POI pipe parts (``VISITS``, ``DISTINCT VISITORS``, ``TOP k``)
  and 6 ``PoiQueryBuilder`` reads, all served from the POI store,
* 2 sub-granule windows (pre-agg misses, answered by a scan) and 3 POI
  parts with a ``MINDWELL`` the POI store was not built with (POI store
  misses, answered by a live store build).  The misses are 7% of the
  operations, so the 95th percentile lands inside them.

Correctness gate: every answer must equal the scan route in canonical
JSON (``use_preagg=False`` counts, serial POI aggregates).
"""

from __future__ import annotations

import time

import numpy as np

import adhoc_scan
import harness
import worlds
from harness import Op, observed

SIZES = {
    "full": dict(blocks=6, objects=100, instants=100, poi_objects=80),
    "tiny": dict(blocks=3, objects=12, instants=48, poi_objects=10),
}

#: Conditions on the neighbourhoods a panel question may carry.
CONDITIONS = (["schools"], ["stores"], ["rivers"], [])
#: Operations per panel block (the closed loop runs whole blocks).
PANEL_OPS = 42


class World:
    def __init__(self, size: dict, fm_path: str, poi_path: str) -> None:
        from repro.gis import POI, POLYGON
        from repro.mo.moft import MOFT
        from repro.pietql import PietQLExecutor
        from repro.poi import PoiVisitStore
        from repro.preagg import PreAggStore
        from repro.query.region import EvaluationContext
        from repro.synth import install_city_pois

        self.city = worlds.build_city(worlds.CITY_SEED, size["blocks"])
        self.pois = install_city_pois(self.city)
        self.time = worlds.hourly_time(size["instants"])
        self.fm = MOFT.load(fm_path)
        self.poi_moft = MOFT.load(poi_path)
        ctx = self.context = EvaluationContext(
            self.city.gis, self.time, {"FM": self.fm, "FMpoi": self.poi_moft})
        worlds.precompute_overlay(ctx, ("neighborhoods",))
        t0 = time.perf_counter()
        self.store = ctx.register_preagg(PreAggStore(
            self.fm, self.time, "day", self.city.gis.layer("Ln").elements(POLYGON),
            layer="Ln", kind=POLYGON, obs=ctx.obs))
        self.preagg_build_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        self.poi_store = ctx.register_preagg(PoiVisitStore(
            self.poi_moft, self.time, "day", self.city.gis.layer("Lp").elements(POI),
            layer="Lp", obs=ctx.obs))
        self.poi_build_s = time.perf_counter() - t0
        self.executor = PietQLExecutor(ctx, worlds.layer_bindings())


def write_inputs(fm_path: str, poi_path: str, size: dict, seed: int) -> None:
    """The generator: waypoint movement (``FM``) and POI hoppers (``FMpoi``)."""
    from repro.synth import install_city_pois, stop_biased_moft

    worlds.write_waypoint_file(fm_path, size["blocks"], size["objects"],
                               size["instants"], seed)
    city = worlds.build_city(worlds.CITY_SEED, size["blocks"])
    stop_biased_moft(install_city_pois(city), size["poi_objects"], size["instants"],
                     seed=seed, name="FMpoi").save(poi_path)


def poi_read(builder, measure: str, k=None):
    """The ``PoiQueryBuilder`` method answering one panel measure."""
    return {"visits": builder.visits, "visitors": builder.distinct_visitors,
            "topk": lambda ctx: builder.top_k(ctx, k)}[measure]


def panel(world: World, rng: np.random.Generator, n_instants: int):
    """The seeded panel: a block of 42 operations over 22 questions."""
    from repro.obs import EvaluationStats
    from repro.pietql import parse
    from repro.query import count_objects_through
    from repro.query.planner import plan_count_objects_through
    from repro.query.poi import PoiQueryBuilder

    ctx = world.context
    n_days = n_instants // 24
    target = ("Ln", "polygon")

    def cons():
        return adhoc_scan.constraints_of(CONDITIONS[int(rng.integers(0, len(CONDITIONS)))])

    def aligned():
        first = int(rng.integers(0, n_days))
        last = int(rng.integers(first, n_days))
        window, cs = (24.0 * first, 24.0 * last + 23.0), cons()

        def run(tr):
            plan = observed(tr, "query.plan", lambda: plan_count_objects_through(
                ctx, target, cs, window=window), ctx.obs, ("geometric_subquery",))
            return adhoc_scan.plan_execute(tr, plan, ctx, target, cs, window)

        return Op("aligned", ("count", tuple(cs), window), run,
                  lambda: count_objects_through(ctx, target, cs, window=window,
                                                use_preagg=False))

    def counted(kind, window):
        cs = cons()

        def run(tr):
            stats = EvaluationStats()
            return observed(
                tr, "query.count_objects_through",
                lambda: count_objects_through(ctx, target, cs, window=window, stats=stats),
                [(ctx.obs, ("index_build", "preagg_lookup"), adhoc_scan.CONTEXT_COUNTERS),
                 (stats, ("geometric_subquery", "elapsed"), adhoc_scan.SCAN_COUNTERS)])

        return Op(kind, ("count", tuple(cs), window), run,
                  lambda: count_objects_through(ctx, target, cs, window=window,
                                                use_preagg=False))

    def misaligned():
        first = int(rng.integers(0, n_days - 1))
        start = 24.0 * first + float(rng.integers(1, 12)) + 0.5
        end = 24.0 * (first + 1) + 23.0 + float(rng.integers(1, 12)) + 0.5
        return counted("misaligned", (start, min(end, n_instants - 1.0)))

    def sub_granule():
        start = float(rng.integers(0, n_instants - 12))
        return counted("preagg_miss", (start, start + float(rng.integers(2, 12))))

    def pietql_day():
        conds = CONDITIONS[int(rng.integers(0, len(CONDITIONS)))]
        return adhoc_scan.pietql_through_op("pietql_through", world.executor,
                                            "neighborhoods", conds,
                                            int(rng.integers(0, n_days)))

    def serial_poi(measure, k=None, min_dwell=0.0):
        builder = PoiQueryBuilder("Lp", "FMpoi").per("day").with_min_dwell(min_dwell).serial()
        return poi_read(builder, measure, k)(ctx)

    def pietql_poi(measure, k=None, min_dwell=0.0, kind="pietql_poi"):
        head = {"visits": "VISITS", "visitors": "DISTINCT VISITORS",
                "topk": f"TOP {k}"}[measure]
        dwell = f" MINDWELL {min_dwell}" if min_dwell else ""
        text = f"SELECT layer.places FROM Dashboard | {head} FROM FMpoi AT layer.places BY day{dwell}"

        def run(tr):
            with tr.span("pietql.parse"):
                query = parse(text)
            return observed(tr, "pietql.execute", lambda: world.executor.execute(query),
                            ctx.obs, adhoc_scan.PIETQL_STAGES).poi_result

        return Op(kind, ("pietql", text), run, lambda: serial_poi(measure, k, min_dwell))

    def builder_poi(measure, k=None):
        def run(tr):
            read = poi_read(PoiQueryBuilder("Lp", "FMpoi").per("day"), measure, k)
            return observed(tr, "poi.read", lambda: read(ctx), ctx.obs)

        return Op("builder_poi", ("poi", measure, k), run, lambda: serial_poi(measure, k))

    k = int(rng.integers(2, 6))
    questions = (
        [aligned() for _ in range(4)] * 2
        + [misaligned() for _ in range(4)] * 2
        + [pietql_day() for _ in range(3)] * 2
        + [pietql_poi(m, k) for m in ("visits", "visitors", "topk")] * 3
        + [builder_poi(m, k) for m in ("visits", "visitors", "topk")] * 2
        + [sub_granule() for _ in range(2)]
        + [pietql_poi(m, k, min_dwell=0.5, kind="poi_miss")
           for m in ("visits", "visitors", "topk")]
    )
    assert len(questions) == PANEL_OPS
    return questions


def make_ops(world: World, rng: np.random.Generator, n_instants: int):
    block = panel(world, rng, n_instants)
    while True:
        for i in rng.permutation(len(block)):
            yield block[i]


def run(cfg) -> harness.Report:
    size = SIZES[cfg.size]
    fm_path, poi_path = cfg.input_path("moft"), cfg.input_path("poi.moft")
    worlds.generate(write_inputs, fm_path, poi_path, size, cfg.seed)
    world = cfg.setup(lambda: World(size, fm_path, poi_path))
    report = harness.Report("dashboard_preagg", cfg.seed)
    ops = make_ops(world, worlds.query_rng(cfg.seed), size["instants"])
    samples, elapsed = cfg.drive(ops, PANEL_OPS)
    extras = {
        "preagg.build_s": (world.preagg_build_s, "s", 1),
        "poi.build_s": (world.poi_build_s, "s", 1),
        "mo.bytes_per_sample": (worlds.bytes_per_sample(world.fm), "B", len(world.fm)),
    }
    report = cfg.finish(report, samples, elapsed, extras, [world.context.obs])
    worlds.discard(fm_path)
    worlds.discard(poi_path)
    return report

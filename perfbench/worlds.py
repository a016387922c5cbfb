"""Seeded input generators shared by the workloads.

Everything here is *input*: city geometry, movement samples, columnar
files and query parameters are drawn from the ``--seed`` the benchmark
was started with, so the same seed always hands the program the same
bytes.  Movement is generated with NumPy (all objects advance one
instant at a time), which keeps generation well under a second at 250k
samples.  Workloads run their generators in a child process
(:func:`generate`) that writes the inputs to files the measured process
then loads.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from datetime import datetime, timedelta
from typing import Callable, Dict, List, Tuple

import numpy as np

#: Seed of the city geometry.  The city is a fixed world (as the paper's
#: Figure 1 is); movement and queries are what ``--seed`` varies.
CITY_SEED = 20060109

#: First instant of every generated world (a Monday, as in the paper).
EPOCH = datetime(2006, 1, 9, 0, 0)

#: Random streams drawn from ``--seed``: movement (made in the generator's
#: child process) and queries (made in the measured process) never share one.
MOVEMENT, QUERIES = 0, 1

#: Random-waypoint speed, in city units per instant.
SPEED = 5.0

#: Piet-QL layer names -> GIS (layer, kind), shared by every workload.
BINDINGS: Dict[str, Tuple[str, str]] = {
    "neighborhoods": ("Ln", "polygon"),
    "cities": ("Lc", "polygon"),
    "places": ("Lp", "poi"),
    "rivers": ("Lr", "polyline"),
    "streets": ("Lst", "polyline"),
    "schools": ("Ls", "node"),
    "stores": ("Lsto", "node"),
    "gas": ("Lg", "node"),
}


def build_city(seed: int, blocks: int):
    """The ``blocks`` x ``blocks`` synthetic city with seeded placements."""
    from repro.synth import CityConfig
    from repro.synth import build_city as synth_city

    return synth_city(CityConfig(cols=blocks, rows=blocks, seed=seed))


def hourly_time(n_instants: int):
    """A Time dimension of ``n_instants`` hourly instants from ``EPOCH``."""
    from repro.temporal.calendar import hourly
    from repro.temporal.timedim import TimeDimension

    return TimeDimension.from_mapping(hourly(EPOCH), range(n_instants))


def waypoint_arrays(
    box, n_objects: int, n_instants: int, speed: float, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Random-waypoint positions, shape ``(n_objects, n_instants)`` each.

    Every object walks at ``speed`` units per instant towards a uniform
    target and draws a new target on arrival.
    """
    w, h = box.max_x - box.min_x, box.max_y - box.min_y
    x = box.min_x + w * rng.random(n_objects)
    y = box.min_y + h * rng.random(n_objects)
    tx = box.min_x + w * rng.random(n_objects)
    ty = box.min_y + h * rng.random(n_objects)
    xs = np.empty((n_objects, n_instants))
    ys = np.empty((n_objects, n_instants))
    for t in range(n_instants):
        xs[:, t] = x
        ys[:, t] = y
        dx, dy = tx - x, ty - y
        dist = np.hypot(dx, dy)
        arrived = dist <= speed
        step = np.where(arrived, 1.0, speed / np.maximum(dist, 1e-12))
        x = x + dx * step
        y = y + dy * step
        n = int(arrived.sum())
        tx[arrived] = box.min_x + w * rng.random(n)
        ty[arrived] = box.min_y + h * rng.random(n)
    return xs, ys


def object_ids(n_objects: int) -> List[str]:
    return [f"car{i}" for i in range(n_objects)]


def columns(xs: np.ndarray, ys: np.ndarray):
    """``(oids, ts, xs, ys)`` columns, object-major, of position arrays."""
    n_objects, n_instants = xs.shape
    return (
        np.repeat(object_ids(n_objects), n_instants).tolist(),
        np.tile(np.arange(n_instants, dtype=float), n_objects),
        xs.ravel(),
        ys.ravel(),
    )


def save_columns(path: str, xs: np.ndarray, ys: np.ndarray) -> None:
    """Write position arrays as one columnar MOFT file named ``FM``."""
    from repro.mo.moft import MOFT

    MOFT.from_columns(*columns(xs, ys), name="FM", validate=False).save(path)


def write_waypoint_file(path: str, blocks: int, n_objects: int, n_instants: int,
                        seed: int) -> None:
    """Generate random-waypoint movement on the city and save it to ``path``."""
    rng = np.random.default_rng([seed, MOVEMENT])
    box = build_city(CITY_SEED, blocks).bounding_box
    save_columns(path, *waypoint_arrays(box, n_objects, n_instants, SPEED, rng))


def generate(fn: Callable[..., None], *args) -> None:
    """Run the input generator ``fn(*args)`` in a child process and wait.

    Generators write their inputs to files; running them in a child keeps
    their memory out of the measured process's ``peak_rss_mb``.  The child
    is a fresh interpreter, so ``fn`` must be a module-level function and
    ``args`` JSON values.
    """
    code = ("import importlib, json, sys; sys.path[:0] = json.loads(sys.argv[1]); "
            "fn = getattr(importlib.import_module(sys.argv[2]), sys.argv[3]); "
            "fn(*json.loads(sys.argv[4]))")
    subprocess.run([sys.executable, "-c", code, json.dumps(sys.path), fn.__module__,
                    fn.__name__, json.dumps(args)], check=True)


#: How a condition on another layer reads in a query's ``WHERE``.
CONDITIONS: Dict[str, str] = {
    "rivers": "intersects",
    "streets": "intersects",
    "schools": "contains",
    "stores": "contains",
    "gas": "contains",
}


def precompute_overlay(context, targets) -> None:
    """Section 5, step 1: precompute the overlay relations between each
    target layer and every condition layer (both ways for ``intersects``),
    so no timed query pays for materialising one."""
    for target in targets:
        a = BINDINGS[target]
        for condition, predicate in CONDITIONS.items():
            b = BINDINGS[condition]
            context.geometry_pairs(*a, predicate, *b)
            if predicate == "intersects":
                context.geometry_pairs(*b, predicate, *a)


def layer_bindings():
    """:data:`BINDINGS` as the ``LayerBinding`` map a Piet-QL executor takes."""
    from repro.pietql import LayerBinding

    return {name: LayerBinding(*ref) for name, ref in BINDINGS.items()}


def query_rng(seed: int) -> np.random.Generator:
    """The random stream of query parameters and operation order."""
    return np.random.default_rng([seed, QUERIES])


def log_uniform_int(lo: float, hi: float, u: float) -> int:
    """Map ``u`` in [0, 1) to an integer log-uniformly spread over [lo, hi]."""
    return int(round(float(np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo))))))


def day_member(day_index: int) -> str:
    """The Time dimension's ``day`` member of the ``day_index``-th day."""
    return (EPOCH + timedelta(days=day_index)).date().isoformat()


def bytes_per_sample(moft) -> float:
    """Bytes of the MOFT's (oid, t, x, y) columns per sample."""
    t, x, y = moft.as_arrays()
    return (t.nbytes + x.nbytes + y.nbytes + moft.oid_column().nbytes) / len(moft)


def discard(path: str) -> None:
    """Remove a generated input file (and SQLite side files) if present."""
    for suffix in ("", "-wal", "-shm", "-journal"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)

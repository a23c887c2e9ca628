"""Per-layer metrics of the traced run, named after the ``repro`` modules.

Two sources feed them:

- the spans of :mod:`spans` (self times, busy times, per-request
  queue/execution timings, syscall and byte counts measured at each
  layer boundary);
- the program's own cumulative books (``CacheStats``,
  ``SchedulerStats``, ``TierStats``, ``DataPlaneStats`` and the
  per-lane backend stats), read before and after the timed steps.

Everything is per training step unless the name says otherwise
(ratios, per-submit costs and request percentiles are not per step).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

import numpy as np

from spans import Span, Tracer, busy_time, outermost, self_times

#: Scheduler priority classes with per-class request timings.
PRIORITY_CLASSES = ("STORE", "DEMOTION", "PREFETCH_LOAD", "BLOCKING_LOAD")

_CACHE_FIELDS = (
    "stored_tensors", "stored_bytes", "kept_tensors", "loaded_tensors",
    "forwarded_tensors", "unpack_waits", "unpack_wait_s", "cancelled_stores",
    "promoted_loads", "prefetch_issued",
)
_SCHED_FIELDS = (
    "submitted", "executed", "cancelled", "promotions", "retries", "failed",
    "deadline_abandons", "hedges_issued", "hedges_won",
)
_TIER_FIELDS = (
    "demotions", "ssd_loads", "promotions", "cancelled_demotions", "cpu_hits",
    "demotion_forward_hits",
)


def read_books(session) -> Dict[str, float]:
    """Flat snapshot of the engine's cumulative counters (empty on keep)."""
    books: Dict[str, float] = defaultdict(float)
    if session.cache is None:
        return books
    cache = session.cache.stats
    for name in _CACHE_FIELDS:
        books[f"cache.{name}"] = getattr(cache, name)
    sched = session.scheduler.stats_snapshot()
    for name in _SCHED_FIELDS:
        books[f"sched.{name}"] = getattr(sched, name)
    engine = session.engine.stats()
    books["dataplane.copies"] = engine.dataplane.copies
    books["dataplane.bytes_copied"] = engine.dataplane.bytes_copied
    books["dataplane.arena_leases"] = engine.dataplane.arena_leases
    books["dataplane.arena_hits"] = engine.dataplane.arena_hits
    if engine.tiers is not None:
        for name in _TIER_FIELDS:
            books[f"tiered.{name}"] = getattr(engine.tiers, name)
    for lane in engine.io_lanes.values():
        books["backend.syscalls"] += lane.syscalls
        books["backend.batches"] += lane.batches
        books["backend.reap_lag_s"] += lane.reap_lag_s
    return books


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def main_thread_breakdown(spans: List[Span], main_thread: int) -> Dict[str, float]:
    """Main-thread self seconds per layer over the traced steps.  The
    ``train.step`` entry is the self time of the step span itself; the
    step wall time minus every other entry is ``train.unaccounted_ms``."""
    selfs = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for s in spans:
        if s.thread == main_thread:
            totals[s.layer] += selfs[s.sid]
    return dict(totals)


def per_layer_metrics(
    tracer: Tracer,
    main_thread: int,
    before: Dict[str, float],
    after: Dict[str, float],
    walls: List[float],
    cpus: List[float],
    untraced_p50_s: float,
) -> Dict[str, float]:
    """Every per-layer metric, keyed by its BENCHMARK.json name."""
    steps = len(walls)
    spans = tracer.spans
    delta = {key: after.get(key, 0.0) - before.get(key, 0.0) for key in after}

    def per_step(key: str, scale: float = 1.0) -> float:
        return delta.get(key, 0.0) * scale / steps

    breakdown = main_thread_breakdown(spans, main_thread)

    def main_ms(layer: str) -> float:
        return breakdown.get(layer, 0.0) * 1e3 / steps

    def layer_ms(layer: str) -> float:
        return sum(s.end - s.start for s in outermost(spans, layer)) * 1e3 / steps

    def layer_n(layer: str) -> float:
        return sum(s.n for s in outermost(spans, layer)) / steps

    main_submits = [
        s for s in spans if s.layer == "sched.submit" and s.thread == main_thread
    ]
    loads = delta.get("cache.loaded_tensors", 0.0)
    tier_loads = sum(
        delta.get(f"tiered.{name}", 0.0)
        for name in ("cpu_hits", "ssd_loads", "demotion_forward_hits")
    )
    m: Dict[str, float] = {
        "tensor.fwd_self_ms": main_ms("tensor.fwd"),
        "tensor.bwd_self_ms": main_ms("tensor.bwd"),
        "tensor.ops": sum(1 for s in spans if s.layer == "tensor.fwd") / steps,
        "optim.step_ms": main_ms("optim.step"),
        "cache.pack_self_ms": main_ms("cache.pack"),
        "cache.pack_calls": sum(1 for s in spans if s.layer == "cache.pack") / steps,
        "cache.unpack_self_ms": main_ms("cache.unpack"),
        "cache.step_end_ms": main_ms("cache.step_end"),
        "cache.hooks_self_ms": main_ms("cache.hooks"),
        "cache.unpack_wait_ms": per_step("cache.unpack_wait_s", 1e3),
        "cache.unpack_waits": per_step("cache.unpack_waits"),
        "cache.forwarded": per_step("cache.forwarded_tensors"),
        "cache.cancelled_stores": per_step("cache.cancelled_stores"),
        "cache.promoted_loads": per_step("cache.promoted_loads"),
        "cache.prefetch_issued": per_step("cache.prefetch_issued"),
        "cache.forward_ratio": _ratio(
            delta.get("cache.forwarded_tensors", 0.0),
            delta.get("cache.stored_tensors", 0.0),
        ),
        "cache.prefetch_hit_ratio": _ratio(
            loads - delta.get("cache.unpack_waits", 0.0), loads
        ),
        "offload.store_busy_ms": busy_time(outermost(spans, "offload.store")) * 1e3 / steps,
        "offload.load_busy_ms": busy_time(outermost(spans, "offload.load")) * 1e3 / steps,
        "offload.stored_mb": layer_n("offload.store") / 1e6,
        "tiered.demotions": per_step("tiered.demotions"),
        "tiered.ssd_loads": per_step("tiered.ssd_loads"),
        "tiered.promotions": per_step("tiered.promotions"),
        "tiered.cancelled_demotions": per_step("tiered.cancelled_demotions"),
        "tiered.cpu_hit_ratio": _ratio(delta.get("tiered.cpu_hits", 0.0), tier_loads),
        "dataplane.copies": per_step("dataplane.copies"),
        "dataplane.copied_mb": per_step("dataplane.bytes_copied", 1e-6),
        "dataplane.arena_hit_ratio": _ratio(
            delta.get("dataplane.arena_hits", 0.0),
            delta.get("dataplane.arena_leases", 0.0),
        ),
        "sched.submit_us": _ratio(
            sum(s.end - s.start for s in main_submits) * 1e6, len(main_submits)
        ),
        "sched.submitted": per_step("sched.submitted"),
        "sched.cancelled": per_step("sched.cancelled"),
        "sched.promotions": per_step("sched.promotions"),
        "sched.retries": per_step("sched.retries"),
        "sched.failed": per_step("sched.failed"),
        "sched.deadline_abandons": per_step("sched.deadline_abandons"),
        "sched.hedges_issued": per_step("sched.hedges_issued"),
        "sched.hedge_win_ratio": _ratio(
            delta.get("sched.hedges_won", 0.0), delta.get("sched.hedges_issued", 0.0)
        ),
        "backend.run_batch_ms": layer_ms("backend.run_batch"),
        "backend.syscalls": per_step("backend.syscalls"),
        "backend.batches": per_step("backend.batches"),
        "backend.reap_lag_ms": per_step("backend.reap_lag_s", 1e3),
        "store.write_ms": layer_ms("store.write"),
        "store.read_ms": layer_ms("store.read"),
        "store.write_syscalls": layer_n("store.write"),
        "store.read_syscalls": layer_n("store.read"),
        "train.step_ms": float(np.mean(walls)) * 1e3,
        "train.main_cpu_ms": float(np.mean(cpus)) * 1e3,
        "train.gil_gap_ms": float(np.mean(walls) - np.mean(cpus)) * 1e3,
        "train.unaccounted_ms": float(np.mean(walls)) * 1e3 - sum(
            main_ms(layer) for layer in breakdown if layer != "train.step"
        ),
        "train.trace_overhead_pct": (
            float(np.median(walls)) / untraced_p50_s - 1.0
        ) * 100.0,
    }
    waits: Dict[str, List[float]] = defaultdict(list)
    execs: Dict[str, List[float]] = defaultdict(list)
    for cls, _rid, submitted, started, finished in tracer.requests:
        waits[cls].append((started - submitted) * 1e3)
        execs[cls].append((finished - started) * 1e3)
    for cls in PRIORITY_CLASSES:
        key = cls.lower()
        m[f"sched.queue_wait_ms.{key}.p50"] = _percentile(waits[cls], 50)
        m[f"sched.queue_wait_ms.{key}.p99"] = _percentile(waits[cls], 99)
        m[f"sched.exec_ms.{key}.p50"] = _percentile(execs[cls], 50)
    return m


def step_shape(before: Dict[str, float], after: Dict[str, float], steps: int) -> Dict[str, float]:
    """A workload's measured per-step shape (recorded in spec.json)."""
    def d(key: str) -> float:
        return (after.get(key, 0.0) - before.get(key, 0.0)) / steps

    return {
        "records": d("cache.stored_tensors") + d("cache.kept_tensors"),
        "offloaded_mb": d("cache.stored_bytes") / 1e6,
        "sched_requests": d("sched.submitted"),
        "demotions": d("tiered.demotions"),
        "forwards": d("cache.forwarded_tensors"),
    }


def top_ops(spans: List[Span], main_thread: int, steps: int, limit: int = 8) -> List[tuple]:
    """The costliest compute ops by main-thread self time per step:
    (layer, op name, ms per step, calls per step)."""
    selfs = self_times(spans)
    cost: Dict[tuple, List[float]] = defaultdict(lambda: [0.0, 0])
    for s in spans:
        if s.thread == main_thread and s.layer in ("tensor.fwd", "tensor.bwd"):
            entry = cost[(s.layer, s.name)]
            entry[0] += selfs[s.sid]
            entry[1] += 1
    ranked = sorted(cost.items(), key=lambda kv: -kv[1][0])[:limit]
    return [(layer, name, total * 1e3 / steps, calls / steps)
            for (layer, name), (total, calls) in ranked]

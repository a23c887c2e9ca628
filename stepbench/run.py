#!/usr/bin/env python3
"""Training-step benchmark of the SSDTrain reproduction.

One run trains the benchmark GPT for one workload (see
``workloads.py``) in a closed loop -- each step starts when the previous
one returns -- for ``--seconds`` of timed steps after set-up and
warm-up, then checks the outputs and prints one JSON object as the last
line of standard output::

    python3 stepbench/run.py --workload train-ssd --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` reports its per-layer metrics instead: an untraced session
(for the tracing overhead) is followed by a traced one whose spans are
written as Chrome trace-event JSON under ``.stepbench/``.

Output checks, every run: each step's loss equals, bit for bit, that of
a keep run of the same seed and steps; after drain the scheduler's
books reconcile (``submitted == executed + failed + cancelled``); after
shutdown the thread count, open descriptors and store directory are
back to their pre-run state.  A step that raises or fails the loss
check, a broken reconciliation and each kind of leak count as failed
operations; any failure exits with status 1.

Steadiness mode runs each workload repeatedly on consecutive seeds in
child processes and prints every end-to-end metric's median and
quartiles against its bound::

    python3 stepbench/run.py --steady 10 [--workload NAME] [--seed 1]
        [--save first.json] [--against first.json]

The default seed is 1; seed 2 is held out for checking claims.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".stepbench"
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 5


# --------------------------------------------------------------------------
# resources and leak checks
# --------------------------------------------------------------------------


def open_fds() -> int:
    """Descriptors open in this process (probed with fstat)."""
    soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    limit = min(soft if soft > 0 else 4096, 65536)
    count = 0
    for fd in range(limit):
        try:
            os.fstat(fd)
        except OSError:
            continue
        count += 1
    return count


def files_under(path: Path) -> List[str]:
    if not path.exists():
        return []
    return sorted(
        str(Path(dirpath, name).relative_to(path))
        for dirpath, _dirs, names in os.walk(path)
        for name in names
    )


def resources(store_root: Path) -> Dict[str, object]:
    return {
        "threads": threading.active_count(),
        "fds": open_fds(),
        "store_files": files_under(store_root),
    }


def leaks(before: Dict[str, object], after: Dict[str, object]) -> List[str]:
    found = []
    if after["threads"] != before["threads"]:
        found.append(f"threads {before['threads']} -> {after['threads']}")
    if after["fds"] != before["fds"]:
        found.append(f"open fds {before['fds']} -> {after['fds']}")
    if after["store_files"] != before["store_files"]:
        extra = len(after["store_files"]) - len(before["store_files"])
        found.append(f"store files left behind: {extra}")
    return found


def rss_peak_mb() -> float:
    """Process peak resident set size (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------


class Outcome:
    """What one run observed: metrics plus the operation books."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}

    def fail(self, problem: str, operations: int = 1) -> None:
        self.failed += operations
        self.problems.append(problem)


def timed_steps(session, seconds: float, outcome: Outcome, tracer=None) -> dict:
    """Train closed-loop until ``seconds`` have passed (at least one step)."""
    walls: List[float] = []
    cpus: List[float] = []
    peaks: List[int] = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        batch = session.next_batch()
        t0, c0 = time.perf_counter(), time.thread_time()
        try:
            if tracer is not None:
                result = tracer.region("train.step", "Trainer.train_step", session.train, batch)
            else:
                result = session.train(batch)
        except Exception:
            traceback.print_exc()
            outcome.attempted += 1
            outcome.fail(f"step {len(session.losses)} raised")
            break
        c1, t1 = time.thread_time(), time.perf_counter()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        peaks.append(result.activation_peak_bytes)
        if t1 >= deadline:
            break
    return {
        "walls": walls,
        "cpus": cpus,
        "peaks": peaks,
        "window_s": time.perf_counter() - start,
    }


def check_books(session, outcome: Outcome) -> Optional[object]:
    """Scheduler books after drain: submitted == executed+failed+cancelled."""
    if session.scheduler is None:
        return None
    books = session.scheduler.stats_snapshot()
    if books.submitted != books.executed + books.failed + books.cancelled:
        outcome.fail(
            f"scheduler books do not reconcile: submitted {books.submitted} != "
            f"executed {books.executed} + failed {books.failed} + "
            f"cancelled {books.cancelled}"
        )
    return books


def check_losses(label: str, losses: List[float], reference: List[float],
                 outcome: Outcome) -> None:
    mismatched = [
        i for i, (got, want) in enumerate(zip(losses, reference)) if got != want
    ]
    if mismatched:
        i = mismatched[0]
        outcome.fail(
            f"{label}: {len(mismatched)} step loss(es) differ from keep, first at "
            f"step {i}: {losses[i]!r} != {reference[i]!r}",
            operations=len(mismatched),
        )


def keep_reference(workloads, seed: int, steps: int, store: Path):
    """Losses (and step walls) of a keep run of the same seed and steps."""
    session = workloads.Session("train-keep", seed, store)
    walls = []
    try:
        while len(session.losses) < steps:
            t0 = time.perf_counter()
            session.step()
            walls.append(time.perf_counter() - t0)
    finally:
        session.close()
    return session.losses, walls


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; expected one of {workloads.WORKLOADS}")
    outcome = Outcome()
    store_root = WORK_DIR / f"run-{os.getpid()}"
    store_root.mkdir(parents=True, exist_ok=True)
    try:
        before = resources(store_root)
        if trace:
            losses = run_traced(workloads, workload, seed, seconds, store_root, outcome)
        else:
            losses = run_untraced(workloads, workload, seed, seconds, store_root, outcome)
        gc.collect()
        for problem in leaks(before, resources(store_root)):
            outcome.fail(f"leak after engine shutdown: {problem}")
        outcome.attempted += sum(len(steps) for steps in losses)
        reference, keep_walls = keep_reference(
            workloads, seed, max(len(steps) for steps in losses),
            store_root / "keep-reference",
        )
        for i, steps in enumerate(losses):
            check_losses(f"session {i}", steps, reference, outcome)
        if not trace:
            report_overhead(workload, seed, outcome, keep_walls)
    finally:
        shutil.rmtree(store_root, ignore_errors=True)
    return outcome


def run_untraced(workloads, workload, seed, seconds, store_root, outcome):
    """End-to-end metrics: ``SETUPS`` set-ups, then the timed steps on
    the last one.  Returns each session's losses."""
    losses = []
    setups = []
    for i in range(SETUPS):
        session = workloads.Session(workload, seed, store_root / f"store-{i}")
        losses.append(session.losses)
        setups.append(session.setup_s)
        if i < SETUPS - 1:
            session.close()
            check_books(session, outcome)
            # Sessions hold reference cycles (module hooks): free this one
            # before the next is built, so peak RSS sees one at a time.
            del session
            gc.collect()
    steps = timed_steps(session, seconds, outcome)
    rss = rss_peak_mb()
    session.close()
    books = check_books(session, outcome)
    walls = steps["walls"]
    ok_share = 1.0
    if books is not None and books.submitted:
        ok_share = (books.submitted - books.failed) / books.submitted
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "tokens_per_s": len(walls) * workloads.TOKENS_PER_STEP / steps["window_s"],
        "step_ms_p50": statistics.median(walls) * 1e3 if walls else float("nan"),
        "act_peak_mb": statistics.mean(steps["peaks"]) / 1e6 if walls else float("nan"),
        "host_rss_peak_mb": rss,
        "io_ok_share": ok_share,
    }
    print(f"{workload} seed {seed}: {len(walls)} timed steps in "
          f"{steps['window_s']:.2f} s; set-ups "
          + ", ".join(f"{s:.3f}" for s in setups) + " s")
    return losses


def report_overhead(workload, seed, outcome, keep_walls) -> None:
    """The derived row: offload overhead over keep for the same seed."""
    if not keep_walls or "step_ms_p50" not in outcome.metrics:
        return
    keep_ms = statistics.median(keep_walls) * 1e3
    ms = outcome.metrics["step_ms_p50"]
    print(f"offload overhead over keep (seed {seed}, in-process keep run): "
          f"{workload} {ms:.1f} ms vs keep {keep_ms:.1f} ms = "
          f"{ms - keep_ms:+.1f} ms ({(ms / keep_ms - 1) * 100:+.1f}%)")


def run_traced(workloads, workload, seed, seconds, store_root, outcome):
    """Per-layer metrics: an untraced session for the tracing overhead,
    then a traced one.  Returns each session's losses."""
    import layers
    from spans import Tracer

    plain = workloads.Session(workload, seed, store_root / "store-plain")
    try:
        gc.collect()
        untraced = timed_steps(plain, seconds, outcome)
    finally:
        plain.close()
    check_books(plain, outcome)
    losses = [plain.losses]
    del plain
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        traced = workloads.Session(workload, seed, store_root / "store-traced")
        try:
            if traced.scheduler is not None:
                traced.scheduler.add_listener(tracer.on_io_event)
            before = layers.read_books(traced)
            origin = time.perf_counter()
            tracer.enabled = True
            try:
                steps = timed_steps(traced, seconds, outcome, tracer=tracer)
            finally:
                tracer.enabled = False
            after = layers.read_books(traced)
        finally:
            traced.close()
    finally:
        tracer.uninstall()
    check_books(traced, outcome)
    losses.append(traced.losses)

    walls = steps["walls"]
    if not walls or not untraced["walls"]:
        return losses
    main = threading.get_ident()
    untraced_p50 = statistics.median(untraced["walls"])
    outcome.metrics = layers.per_layer_metrics(
        tracer, main, before, after, walls, steps["cpus"], untraced_p50
    )
    trace_path = WORK_DIR / f"trace-{workload}-seed{seed}.json"
    tracer.write_chrome_trace(str(trace_path), origin)
    print_anatomy(workload, seed, tracer, main, walls, outcome.metrics, before, after,
                  trace_path)
    return losses


def print_anatomy(workload, seed, tracer, main, walls, metrics, before, after,
                  trace_path) -> None:
    """The step anatomy: main-thread self time per layer, summing to the
    step wall time, plus the costliest ops and the per-step shape."""
    import layers

    steps = len(walls)
    breakdown = layers.main_thread_breakdown(tracer.spans, main)
    print(f"{workload} seed {seed}: traced {steps} steps, {len(tracer.spans)} spans "
          f"-> {trace_path.relative_to(ROOT)}")
    if tracer.missing:
        print("  wrap targets absent from the program: " + ", ".join(tracer.missing))
    print(f"  tracing overhead: traced step_ms_p50 {statistics.median(walls) * 1e3:.1f} ms, "
          f"{metrics['train.trace_overhead_pct']:+.1f}% over untraced")
    print("  main-thread step anatomy (self ms/step):")
    rows = {layer: secs * 1e3 / steps for layer, secs in breakdown.items()
            if layer != "train.step"}
    rows["train.unaccounted_ms"] = metrics["train.unaccounted_ms"]
    for layer, ms in sorted(rows.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<32} {ms:9.2f}")
    print(f"    {'sum = mean step wall':<32} {sum(rows.values()):9.2f}")
    print("  costliest ops (main-thread self ms/step, calls/step):")
    for layer, name, ms, calls in layers.top_ops(tracer.spans, main, steps):
        print(f"    {layer}:{name:<24} {ms:9.2f} {calls:7.1f}")
    shape = layers.step_shape(before, after, steps)
    print("  per-step shape: " + ", ".join(f"{k} {v:.4g}" for k, v in shape.items()))


# --------------------------------------------------------------------------
# steadiness mode
# --------------------------------------------------------------------------


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def steady(args) -> int:
    """Run each workload ``args.steady`` times on seeds seed, seed+1, ...
    and judge each end-to-end metric's spread against its bound."""
    bench = load_benchmark()
    names = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    values: Dict[str, Dict[str, List[float]]] = {}
    ok = True
    for name in names:
        values[name] = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.steady):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed + i), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                print(f"{name} seed {args.seed + i}: run failed (exit {proc.returncode})")
                sys.stdout.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                ok = False
                continue
            for metric, entry in result["metrics"].items():
                values[name][metric].append(entry["value"])
            print(f"{name} seed {args.seed + i}: " + ", ".join(
                f"{m} {e['value']:.5g}" for m, e in result["metrics"].items()), flush=True)
    reference = None
    if args.against:
        with open(args.against) as fh:
            reference = json.load(fh)
    print(f"\n{'workload':<16} {'metric':<17} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for name in names:
        for spec in bench["end_to_end"]:
            vals = values[name][spec["name"]]
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = spec["bound"]
            verdict = "steady" if spread <= bound / 3 else (
                "within bound" if spread <= bound else "UNSTEADY")
            if spread > bound and spec["name"] != "setup_s":
                ok = False
            if reference is not None and reference.get(name, {}).get(spec["name"]):
                first = statistics.median(reference[name][spec["name"]])
                worse = (median - first) / first if spec["better"] == "lower" else (
                    (first - median) / first)
                verdict += f"; vs first median {first:.5g}: {worse * 100:+.1f}% worse"
                if worse > bound:
                    verdict += " REGRESSED"
                    ok = False
            print(f"{name:<16} {spec['name']:<17} {median:>10.5g} {q1:>10.5g} {q3:>10.5g} "
                  f"{spread:>7.3f} {bound:>6.2f}  {verdict}")
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(values, fh, indent=1)
    return 0 if ok else 1


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out for checking claims)")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0,
                        help="steadiness mode: runs per workload")
    parser.add_argument("--save", help="steadiness mode: write the values here")
    parser.add_argument("--against", help="steadiness mode: compare medians to a saved set")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program's sources (src/repro) are missing under {ROOT}",
              file=sys.stderr)
        return 2
    if args.steady:
        return steady(args)
    if args.workload is None:
        parser.error("--workload is required")
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    sys.path.insert(0, str(ROOT / "src"))
    WORK_DIR.mkdir(exist_ok=True)

    outcome = run(args.workload, args.seed, seconds, bool(args.trace))

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if outcome.metrics and set(outcome.metrics) != set(units):
        outcome.fail("measured metrics differ from BENCHMARK.json: "
                     f"{sorted(set(outcome.metrics) ^ set(units))}")
    if not outcome.metrics:
        outcome.fail("no metrics measured")
    if not args.trace:
        print("end-to-end: " + ", ".join(
            f"{name} {value:.5g} {units.get(name, '')}"
            for name, value in outcome.metrics.items()))
    else:
        spec = json.loads((BENCH_DIR / "spec.json").read_text())["per_layer"]
        if set(spec) != set(units):
            outcome.fail("spec.json and BENCHMARK.json name different per-layer "
                         f"metrics: {sorted(set(spec) ^ set(units))}")
        for name, value in outcome.metrics.items():
            moves = spec.get(name, {}).get("moves", "")
            print(f"  {name:<36} {value:12.5g} {units.get(name, ''):<6} -> {moves}")
    for problem in outcome.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": outcome.failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

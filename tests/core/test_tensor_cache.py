"""Integration tests for the SSDTrain tensor cache (Sec. III-B / III-C).

These exercise the full mechanism on real models with real file I/O:
correctness (identical losses/gradients), memory release, deduplication,
weight exclusion, data forwarding, budget capping, micro-batch switching,
and failure injection.
"""

import gc
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import (
    CPUOffloader,
    OffloadPolicy,
    PolicyConfig,
    SSDOffloader,
    TensorCache,
)
from repro.core.policy import KeepReason
from repro.core.tensor_cache import RecordState
from repro.device import MemoryTag
from repro.models import GPT
from repro.nn.linear import Linear
from repro.tensor import ops
from repro.tensor.tensor import Tensor


def _run_model_step(model, gpu, cache=None, seed=42):
    rng = np.random.default_rng(seed)
    vocab = model.config.vocab_size
    seq = model.config.seq_len
    tokens = Tensor(rng.integers(0, vocab, (2, seq)).astype(np.int64), device=gpu)
    targets = Tensor(rng.integers(0, vocab, (2, seq)).astype(np.int64), device=gpu)
    gpu.ledger.reset_peak()
    if cache is not None:
        with cache:
            loss = model(tokens, targets)
            cache.on_backward_begin()
            loss.backward()
            cache.on_backward_end()
        cache.on_step_end()
    else:
        loss = model(tokens, targets)
        loss.backward()
    gc.collect()
    grads = {n: p.grad.data.copy() for n, p in model.named_parameters()}
    model.zero_grad()
    return loss.item(), grads, gpu.ledger.peak(MemoryTag.ACTIVATIONS)


def _fresh_model(gpu, tiny_gpt_config, seed=0):
    return GPT(tiny_gpt_config, rng=np.random.default_rng(seed)).to(gpu)


# ----------------------------------------------------------------- correctness
def test_offloaded_step_bitwise_identical(gpu, tiny_gpt_config, make_cache):
    baseline_model = _fresh_model(gpu, tiny_gpt_config)
    loss0, grads0, _ = _run_model_step(baseline_model, gpu)

    model = _fresh_model(gpu, tiny_gpt_config)
    cache = make_cache()
    cache.register_weights(model)
    cache.attach(model)
    loss1, grads1, _ = _run_model_step(model, gpu, cache)

    assert loss0 == pytest.approx(loss1, abs=1e-7)
    for name in grads0:
        assert np.array_equal(grads0[name], grads1[name]), name


def test_cache_actually_offloads(gpu, tiny_gpt_config, make_cache):
    model = _fresh_model(gpu, tiny_gpt_config)
    cache = make_cache()
    cache.register_weights(model)
    cache.attach(model)
    _run_model_step(model, gpu, cache)
    assert cache.stats.stored_tensors > 10
    assert cache.stats.stored_bytes > 0
    assert cache.offloader.file_store.bytes_written > 0


def test_activation_peak_reduced(gpu, tiny_gpt_config, make_cache):
    config = tiny_gpt_config.scaled(num_layers=3, seq_len=32)
    baseline = _fresh_model(gpu, config)
    _, _, peak_base = _run_model_step(baseline, gpu)

    model = _fresh_model(gpu, config)
    cache = make_cache(prefetch_window=4)
    cache.register_weights(model)
    cache.attach(model)
    # Step 0 profiles; step 1 has keep-last active.
    _run_model_step(model, gpu, cache)
    _, _, peak_off = _run_model_step(model, gpu, cache)
    assert peak_off < 0.7 * peak_base  # at least 30% reduction


def test_multi_step_stability(gpu, tiny_gpt_config, make_cache):
    model = _fresh_model(gpu, tiny_gpt_config)
    cache = make_cache()
    cache.register_weights(model)
    cache.attach(model)
    losses = [
        _run_model_step(model, gpu, cache, seed=s)[0] for s in range(4)
    ]
    assert all(np.isfinite(l) for l in losses)


# --------------------------------------------------------------------- weights
def test_weights_never_offloaded(gpu, tiny_gpt_config, make_cache):
    model = _fresh_model(gpu, tiny_gpt_config)
    cache = make_cache()
    cache.register_weights(model)
    cache.attach(model)
    _run_model_step(model, gpu, cache)
    weight_shapes = {tuple(p.shape) for p in model.parameters()}
    weight_shapes |= {tuple(reversed(s)) for s in weight_shapes if len(s) == 2}
    for table in cache._microbatches.values():
        for tid in table.records:
            assert tid.shape not in weight_shapes or len(tid.shape) != 2, (
                f"weight-shaped tensor {tid} was managed"
            )


def test_small_tensors_pass_through(gpu, make_cache):
    layer = Linear(8, 8, rng=np.random.default_rng(0)).to(gpu)
    cache = make_cache(min_offload_numel=10**9)  # nothing qualifies
    cache.register_weights(layer)
    cache.attach(layer)
    x = Tensor(np.ones((2, 8), dtype=np.float32), device=gpu, requires_grad=True)
    with cache:
        layer(x).sum().backward()
    assert cache.stats.stored_tensors == 0
    assert cache.stats.passed_tensors > 0


# ----------------------------------------------------------------------- dedup
def test_dedup_prevents_redundant_io(gpu, make_cache):
    """A tensor saved by two consumers is stored once."""
    cache = make_cache()
    x = Tensor(
        np.random.default_rng(0).standard_normal((32, 32)).astype(np.float32),
        device=gpu,
        requires_grad=True,
    )
    with cache:
        # gelu and mul both save (a view of) their input x.
        y = (ops.gelu(x) + ops.mul(x, x)).sum()
        cache.on_backward_begin()
        y.backward()
        cache.on_backward_end()
    assert cache.stats.dedup_hits >= 1
    stored_for_x = [
        1
        for table in cache._microbatches.values()
        for tid in table.records
        if tid.shape == (32, 32)
    ]
    cache.on_step_end()
    assert cache.stats.stored_tensors <= 2  # x (+ x*x output), never 3


# ------------------------------------------------------------------ forwarding
def test_data_forwarding_on_slow_store(gpu, tmp_path):
    """With a slow SSD, backward begins while stores are in flight; the
    cache must return the in-memory reference instead of loading."""
    offloader = SSDOffloader(tmp_path / "slow", throttle_bytes_per_s=2e6)
    cache = TensorCache(
        offloader,
        policy=OffloadPolicy(PolicyConfig(min_offload_numel=64)),
        num_store_workers=1,
    )
    try:
        layer = Linear(64, 64, rng=np.random.default_rng(0)).to(gpu)
        cache.register_weights(layer)
        cache.attach(layer)
        x = Tensor(
            np.ones((16, 64), dtype=np.float32), device=gpu, requires_grad=True
        )
        with cache:
            loss = ops.gelu(layer(x)).sum()
            cache.on_backward_begin()
            loss.backward()  # stores still in flight: must forward
            cache.on_backward_end()
        assert cache.stats.forwarded_tensors >= 1
        assert x.grad is not None
        cache.on_step_end()
    finally:
        cache.shutdown()


def test_forwarding_preserves_values(gpu, tmp_path, tiny_gpt_config):
    """Slow-store runs must still produce identical gradients."""
    baseline = _fresh_model(gpu, tiny_gpt_config)
    loss0, grads0, _ = _run_model_step(baseline, gpu)

    offloader = SSDOffloader(tmp_path / "fwd", throttle_bytes_per_s=5e5)
    cache = TensorCache(
        offloader, policy=OffloadPolicy(PolicyConfig(min_offload_numel=64))
    )
    try:
        model = _fresh_model(gpu, tiny_gpt_config)
        cache.register_weights(model)
        cache.attach(model)
        loss1, grads1, _ = _run_model_step(model, gpu, cache)
        assert loss0 == pytest.approx(loss1, abs=1e-6)
        for name in grads0:
            assert np.array_equal(grads0[name], grads1[name])
    finally:
        cache.shutdown()


# ---------------------------------------------------------------------- budget
def test_offload_budget_caps_stored_bytes(gpu, tiny_gpt_config, make_cache):
    budget = 50_000
    cache = make_cache(policy_kwargs=dict(offload_budget_bytes=budget))
    model = _fresh_model(gpu, tiny_gpt_config)
    cache.register_weights(model)
    cache.attach(model)
    _run_model_step(model, gpu, cache)
    # Budget is checked before each store; overshoot is at most one tensor.
    assert cache.stats.stored_bytes <= budget + 64 * 1024
    assert cache.stats.kept_tensors > 0


# ----------------------------------------------------------------- micro-batch
def test_microbatch_records_are_separate(gpu, tiny_gpt_config, make_cache):
    model = _fresh_model(gpu, tiny_gpt_config)
    cache = make_cache()
    cache.register_weights(model)
    cache.attach(model)
    rng = np.random.default_rng(0)
    vocab, seq = tiny_gpt_config.vocab_size, tiny_gpt_config.seq_len
    with cache:
        losses = []
        for mb in range(2):
            cache.set_microbatch(mb)
            tokens = Tensor(rng.integers(0, vocab, (1, seq)).astype(np.int64), device=gpu)
            targets = Tensor(rng.integers(0, vocab, (1, seq)).astype(np.int64), device=gpu)
            loss = model(tokens, targets)
            cache.on_backward_begin()
            loss.backward()
            cache.on_backward_end()
            losses.append(loss.item())
    assert len(cache._microbatches) == 2
    cache.on_step_end()
    assert all(np.isfinite(l) for l in losses)


# -------------------------------------------------------------------- keep-last
def test_keep_last_module_after_profiling(gpu, tiny_gpt_config, make_cache):
    model = _fresh_model(gpu, tiny_gpt_config)
    cache = make_cache()
    cache.register_weights(model)
    cache.attach(model)
    _run_model_step(model, gpu, cache)  # profiling step
    assert cache._last_segment_id is not None
    kept_before = cache.stats.kept_tensors
    _run_model_step(model, gpu, cache)
    assert cache.stats.kept_tensors > kept_before


def test_keep_hint_stops_offloading(gpu, make_cache):
    cache = make_cache()
    layer = Linear(64, 64, rng=np.random.default_rng(0)).to(gpu)
    cache.register_weights(layer)
    cache.attach(layer)
    cache.hint_keep_remaining(True)
    x = Tensor(np.ones((16, 64), dtype=np.float32), device=gpu, requires_grad=True)
    with cache:
        loss = ops.gelu(layer(x)).sum()
        cache.on_backward_begin()
        loss.backward()
        cache.on_backward_end()
    assert cache.stats.stored_tensors == 0
    assert cache.stats.kept_tensors > 0


# ---------------------------------------------------------------- forward tail
def _step_table(model, gpu, cache, seed=42):
    """Run one step and return the record table it used."""
    table = cache.current
    _run_model_step(model, gpu, cache, seed=seed)
    return table


def _forward_reasons(table):
    return [table.records[tid].keep_reason for tid in table.pack_order[: table.forward_records]]


def _cached_model(gpu, config, make_cache, **cache_kwargs):
    model = _fresh_model(gpu, config)
    cache = make_cache(**cache_kwargs)
    cache.register_weights(model)
    cache.attach(model)
    return model, cache


def test_forward_tail_is_kept_from_step_one(gpu, tiny_gpt_config, make_cache):
    """From step 1 the last ``prefetch_window`` forward records, which
    backward would reload at once, stay resident; the rest offload."""
    model, cache = _cached_model(gpu, tiny_gpt_config, make_cache, prefetch_window=4)
    _step_table(model, gpu, cache)  # profiling step
    stored, kept = cache.stats.stored_tensors, cache.stats.kept_tensors
    table = _step_table(model, gpu, cache)
    reasons = _forward_reasons(table)
    assert len(reasons) > 4
    assert reasons[-4:] == [KeepReason.LAST_MODULE] * 4
    assert reasons[:-4] == [None] * (len(reasons) - 4)
    assert cache.stats.kept_tensors - kept == 4
    assert cache.stats.stored_tensors - stored == len(reasons) - 4


def test_profiling_step_keeps_no_tail(gpu, tiny_gpt_config, make_cache):
    """Step 0 has no measured record count and no profiled last segment,
    so it keeps nothing."""
    model, cache = _cached_model(gpu, tiny_gpt_config, make_cache, prefetch_window=4)
    table = _step_table(model, gpu, cache)
    assert set(_forward_reasons(table)) == {None}
    assert cache.stats.kept_tensors == 0
    assert cache._forward_records == {0: table.forward_records}


def test_forward_tail_follows_keep_last_module(gpu, tiny_gpt_config, make_cache):
    model, cache = _cached_model(
        gpu, tiny_gpt_config, make_cache, policy_kwargs={"keep_last_module": False}
    )
    for _ in range(2):
        table = _step_table(model, gpu, cache)
    assert set(_forward_reasons(table)) == {None}
    assert cache.stats.kept_tensors == 0


def test_zero_prefetch_window_has_no_tail(gpu, tiny_gpt_config, make_cache):
    """Only the last-segment rule keeps anything: the loss head's input,
    not the logits CrossEntropy saves after the head exits."""
    model, cache = _cached_model(gpu, tiny_gpt_config, make_cache, prefetch_window=0)
    _step_table(model, gpu, cache)
    table = _step_table(model, gpu, cache)
    reasons = _forward_reasons(table)
    assert reasons[-2] is KeepReason.LAST_MODULE
    assert set(reasons[:-2] + reasons[-1:]) == {None}
    assert cache.stats.kept_tensors == 1


def test_window_wider_than_forward_keeps_every_record(gpu, tiny_gpt_config, make_cache):
    model, cache = _cached_model(gpu, tiny_gpt_config, make_cache, prefetch_window=1000)
    _step_table(model, gpu, cache)
    stored = cache.stats.stored_tensors
    table = _step_table(model, gpu, cache)
    assert set(_forward_reasons(table)) == {KeepReason.LAST_MODULE}
    assert cache.stats.stored_tensors == stored


def test_recompute_packs_do_not_shift_the_tail(gpu, tiny_gpt_config, make_cache):
    """Checkpointed layers re-pack their activations inside backward;
    those records are not forward records and must not move the tail."""
    config = tiny_gpt_config.scaled(recompute=True)
    model, cache = _cached_model(gpu, config, make_cache, prefetch_window=3)
    first = _step_table(model, gpu, cache)
    table = _step_table(model, gpu, cache)
    assert table.forward_records == first.forward_records
    recomputed = table.pack_order[table.forward_records :]
    assert recomputed  # backward did re-pack
    assert {table.records[tid].keep_reason for tid in recomputed} == {KeepReason.IN_BACKWARD}
    reasons = _forward_reasons(table)
    assert reasons[-3:] == [KeepReason.LAST_MODULE] * 3
    assert set(reasons[:-3]) == {None}


@pytest.mark.parametrize("target", ["ssd", "cpu", "tiered"])
def test_forward_tail_keeps_losses_bit_exact(gpu, tmp_path, tiny_gpt_config, target):
    from repro.core import EngineConfig, build_engine

    baseline = _fresh_model(gpu, tiny_gpt_config)
    expected = [_run_model_step(baseline, gpu, seed=s)[:2] for s in range(3)]

    engine = build_engine(
        EngineConfig(
            target=target,
            store_dir=tmp_path,
            cpu_pool_bytes=1 << 14 if target == "tiered" else None,
            policy=OffloadPolicy(PolicyConfig(min_offload_numel=64)),
            prefetch_window=4,
        )
    )
    try:
        cache = engine.cache()
        model = _fresh_model(gpu, tiny_gpt_config)
        cache.register_weights(model)
        cache.attach(model)
        for seed, (loss0, grads0) in enumerate(expected):
            loss1, grads1, _ = _run_model_step(model, gpu, cache, seed=seed)
            assert loss1 == loss0
            for name in grads0:
                assert np.array_equal(grads0[name], grads1[name]), name
        assert cache.stats.stored_tensors > 0
        assert cache.stats.kept_tensors == 2 * 4
    finally:
        engine.shutdown()


# ----------------------------------------------------------- prefetch walk
def _spy_walks(cache):
    walks = []
    walk = cache._walk_prefetch_window

    def spy(table, cursor, window):
        walks.append((cursor, window))
        walk(table, cursor, window)

    cache._walk_prefetch_window = spy
    return walks


def test_prefetch_walks_each_cursor_position_once(gpu, tiny_gpt_config, make_cache):
    model, cache = _cached_model(gpu, tiny_gpt_config, make_cache, prefetch_window=4)
    calls = []
    prefetch = cache._prefetch_ahead
    cache._prefetch_ahead = lambda table: (calls.append(1), prefetch(table))
    walks = _spy_walks(cache)
    _run_model_step(model, gpu, cache)
    assert walks and len(walks) == len(set(walks))
    assert len(calls) > len(walks)  # backward re-enters unchanged windows


def _packed_table(gpu, cache, n=6):
    with cache:
        for x in _activations(gpu, n, shape=(16, 16)):
            cache.pack_hook(x)
    assert cache.scheduler.drain(10)
    return cache.current


def test_prefetch_rewalks_after_a_window_change(gpu, make_cache):
    from types import SimpleNamespace

    cache = make_cache(prefetch_window=2)
    table = _packed_table(gpu, cache)
    walks = _spy_walks(cache)
    cache.on_backward_begin()
    cache._prefetch_ahead(table)
    assert walks == [(6, 2)]
    cache.apply_autotune(SimpleNamespace(prefetch_window=4))
    cache._prefetch_ahead(table)
    assert walks == [(6, 2), (6, 4)]
    states = [table.records[tid].state for tid in table.pack_order]
    assert states[:2] == [RecordState.OFFLOADED] * 2  # outside the wider window


def test_prefetch_rewalks_after_a_brownout_clears(gpu, make_cache):
    cache = make_cache(prefetch_window=2)
    table = _packed_table(gpu, cache)
    walks = _spy_walks(cache)
    cache.scheduler.health.mark_slow("ssd")
    cache.on_backward_begin()
    assert walks == [] and cache.stats.prefetch_shed == 1
    cache.scheduler.health.revive("ssd")
    cache._prefetch_ahead(table)
    assert walks == [(6, 2)]
    assert cache.stats.prefetch_issued == 2


# --------------------------------------------------------------------- cleanup
def test_step_end_releases_records_and_files(gpu, tiny_gpt_config, make_cache):
    model = _fresh_model(gpu, tiny_gpt_config)
    cache = make_cache()
    cache.register_weights(model)
    cache.attach(model)
    _run_model_step(model, gpu, cache)
    store_dir = cache.offloader.file_store.root
    assert list(store_dir.glob("*.bin")) == []  # files deleted at step end
    assert all(not t.records for t in cache._microbatches.values())


def test_shutdown_idempotent(gpu, tiny_gpt_config, make_cache):
    cache = make_cache()
    model = _fresh_model(gpu, tiny_gpt_config)
    cache.register_weights(model)
    cache.attach(model)
    _run_model_step(model, gpu, cache)
    cache.shutdown()
    cache.shutdown()


# -------------------------------------------------------------- cpu offloader
def test_cpu_offloader_end_to_end(gpu, tiny_gpt_config):
    baseline = _fresh_model(gpu, tiny_gpt_config)
    loss0, grads0, _ = _run_model_step(baseline, gpu)

    cache = TensorCache(
        CPUOffloader(), policy=OffloadPolicy(PolicyConfig(min_offload_numel=64))
    )
    try:
        model = _fresh_model(gpu, tiny_gpt_config)
        cache.register_weights(model)
        cache.attach(model)
        loss1, grads1, _ = _run_model_step(model, gpu, cache)
        assert loss0 == pytest.approx(loss1, abs=1e-6)
        for name in grads0:
            assert np.array_equal(grads0[name], grads1[name])
        assert cache.stats.stored_tensors > 0
    finally:
        cache.shutdown()


def test_cpu_offloader_pool_profiling(gpu, tiny_gpt_config):
    offloader = CPUOffloader()
    cache = TensorCache(
        offloader, policy=OffloadPolicy(PolicyConfig(min_offload_numel=64))
    )
    try:
        model = _fresh_model(gpu, tiny_gpt_config)
        cache.register_weights(model)
        cache.attach(model)
        _run_model_step(model, gpu, cache)
        assert offloader.pool.high_watermark > 0
        capacity = offloader.pool.fit_to_high_watermark()
        assert capacity >= offloader.pool.high_watermark
        # Subsequent identical steps fit in the profiled pool.
        _run_model_step(model, gpu, cache)
    finally:
        cache.shutdown()


# ------------------------------------------------------------ failure injection
def test_load_failure_surfaces_as_runtime_error(gpu, make_cache):
    cache = make_cache()
    layer = Linear(64, 64, rng=np.random.default_rng(0)).to(gpu)
    cache.register_weights(layer)
    cache.attach(layer)
    x = Tensor(np.ones((16, 64), dtype=np.float32), device=gpu, requires_grad=True)
    with cache:
        loss = ops.gelu(layer(x)).sum()
        cache.scheduler.drain()
        # Sabotage: delete the offloaded files so loads fail.
        cache.offloader.file_store.clear()
        cache.on_backward_begin()
        with pytest.raises((RuntimeError, FileNotFoundError)):
            loss.backward()


def test_failed_store_recovery_reverses_offload_accounting(gpu, make_cache):
    """Review regression: a store that failed terminally but was
    recovered by keeping the tensor resident must not consume offload
    budget or report store traffic that never moved."""
    from repro.io.faults import FaultPlan, inject_faults

    cache = make_cache()
    inject_faults(cache.offloader, FaultPlan.dead(after_ops=0))
    x = Tensor(np.ones((64, 64), dtype=np.float32), device=gpu, requires_grad=True)
    with cache:
        tid = cache.pack_hook(x)
        cache.scheduler.drain(5)
        assert cache.unpack_hook(tid) is x  # resident, no error raised
    assert cache.stats.store_failures == 1
    assert cache.stats.stored_tensors == 0  # reversed: nothing was stored
    assert cache.stats.stored_bytes == 0
    assert cache.stats.kept_tensors == 1    # re-booked as kept
    assert cache.stats.kept_bytes == x.nbytes
    assert cache.accounting.offloaded_bytes == 0  # no budget consumed
    assert cache.accounting.kept_bytes == x.nbytes


# ---------------------------------------------------------------- store window
def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.005)


def _activations(gpu, n, shape=(64, 64)):
    rng = np.random.default_rng(0)
    return [Tensor(rng.standard_normal(shape).astype(np.float32), device=gpu) for _ in range(n)]


def _gate_stores(offloader):
    """Make every store wait for one ``release()`` of the returned gate."""
    gate = threading.Semaphore(0)
    store = offloader.store

    def gated(tid, data):
        gate.acquire()
        store(tid, data)

    offloader.store = gated
    return gate


def test_store_window_blocks_pack_until_a_store_completes(gpu, make_cache):
    """One store per lane worker may be outstanding; the pack that fills
    the window waits, and one completion lets forward go on."""
    cache = make_cache(num_store_workers=1, num_load_workers=1)
    assert cache.store_window == 2 == cache.scheduler.workers_per_lane
    gate = _gate_stores(cache.offloader)
    xs = _activations(gpu, 3)
    packed = []
    forward = threading.Thread(
        target=lambda: packed.extend(cache.pack_hook(x) for x in xs), daemon=True
    )
    try:
        forward.start()
        _wait_until(lambda: cache.stats.store_waits == 1)
        time.sleep(0.05)
        assert forward.is_alive()  # the second pack holds at the window
        gate.release()  # one store completes ...
        _wait_until(lambda: cache.stats.store_waits == 2)  # ... the third waits
        assert forward.is_alive()
        gate.release()
        forward.join(10)
        assert not forward.is_alive()
        assert len(packed) == 3
        assert cache.stats.store_wait_s > 0
    finally:
        for _ in range(len(xs)):
            gate.release()
    assert cache.scheduler.drain(10)
    assert cache.stats.stored_tensors == 3


def test_store_window_survives_failing_stores(gpu, make_cache):
    """Failed stores (the keep-resident recovery path) free their slots."""
    from repro.io.faults import FaultPlan, inject_faults

    cache = make_cache(num_store_workers=1, num_load_workers=1)
    inject_faults(cache.offloader, FaultPlan.dead(after_ops=0))
    xs = _activations(gpu, 6)
    tids = []
    forward = threading.Thread(
        target=lambda: tids.extend(cache.pack_hook(x) for x in xs), daemon=True
    )
    forward.start()
    forward.join(10)
    assert not forward.is_alive()
    assert cache.scheduler.drain(10)
    assert cache.stats.store_failures == 6
    assert all(cache.unpack_hook(tid) is x for tid, x in zip(tids, xs))  # kept resident


def test_store_window_ignores_stores_parked_by_a_quota(gpu, tmp_path):
    """Parked stores are not admitted and nothing completes them while
    forward runs, so they must not hold window slots."""
    from repro.io.scheduler import IOScheduler
    from repro.io.tenancy import TenantRegistry

    tenants = TenantRegistry()
    tenants.register("default", byte_quota=0, over_quota="park")
    scheduler = IOScheduler(num_store_workers=1, num_load_workers=1, tenants=tenants)
    cache = TensorCache(
        SSDOffloader(tmp_path / "parked"),
        policy=OffloadPolicy(PolicyConfig(min_offload_numel=64)),
        scheduler=scheduler,
    )
    xs = _activations(gpu, 5)
    forward = threading.Thread(target=lambda: [cache.pack_hook(x) for x in xs], daemon=True)
    try:
        forward.start()
        forward.join(10)
        assert not forward.is_alive()
        assert scheduler.parked() == 5
        assert cache.stats.store_waits == 0
    finally:
        cache.shutdown()  # cancels the parked stores
    assert scheduler.parked() == 0


def test_pack_after_shutdown_raises_instead_of_waiting(gpu, make_cache):
    cache = make_cache(num_store_workers=1, num_load_workers=1)
    x, y = _activations(gpu, 2)
    cache.pack_hook(x)
    cache.shutdown()
    with pytest.raises(RuntimeError, match="shut down"):
        cache.pack_hook(y)
    assert cache._stores_in_flight == {"ssd": set()}


def test_store_window_keeps_losses_bit_exact(gpu, tmp_path, tiny_gpt_config):
    """A throttled device fills the window on every step; what forward
    waits for must not change what it computes."""
    baseline = _fresh_model(gpu, tiny_gpt_config)
    loss0, grads0, _ = _run_model_step(baseline, gpu)

    cache = TensorCache(
        SSDOffloader(tmp_path / "paced", throttle_bytes_per_s=2e6),
        policy=OffloadPolicy(PolicyConfig(min_offload_numel=64)),
        num_store_workers=1,
        num_load_workers=1,
    )
    try:
        model = _fresh_model(gpu, tiny_gpt_config)
        cache.register_weights(model)
        cache.attach(model)
        loss1, grads1, _ = _run_model_step(model, gpu, cache)
        assert cache.stats.store_waits > 0
        assert loss1 == loss0
        for name in grads0:
            assert np.array_equal(grads0[name], grads1[name]), name
    finally:
        cache.shutdown()


# ----------------------------------------------------------------- load books
def test_concurrent_loads_book_every_load(gpu, make_cache):
    """Regression: lane workers booked ``loaded_tensors`` without a lock,
    so concurrent loads could lose an update."""
    cache = make_cache(num_store_workers=1, num_load_workers=7, prefetch_window=96)
    xs = _activations(gpu, 96, shape=(16, 16))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # preempt lane workers as often as possible
    try:
        with cache:
            tids = [cache.pack_hook(x) for x in xs]
            assert cache.scheduler.drain(10)
            stores = cache.scheduler.stats_snapshot().executed
            cache.on_backward_begin()  # prefetches the whole window at once
            for tid, x in zip(reversed(tids), reversed(xs)):
                assert np.array_equal(cache.unpack_hook(tid).data, x.data)
        assert cache.scheduler.drain(10)
    finally:
        sys.setswitchinterval(interval)
    books = cache.scheduler.stats_snapshot()
    assert books.failed == 0 and books.cancelled == 0
    executed_loads = books.executed - stores
    assert executed_loads == len(xs)
    assert cache.stats.loaded_tensors == executed_loads
    assert cache.stats.loaded_bytes == sum(x.nbytes for x in xs)

"""Step-level discrete-event simulation of the three placement strategies.

A model is lowered to a list of :class:`SegmentSpec` (embedding segment,
one per transformer layer, LM-head segment).  The simulator plays one
training step over three serial resources — the GPU compute stream, the
SSD store channel, and the SSD load channel (the two thread pools of
Sec. III-C2) — making offload decisions with the *same*
:class:`~repro.core.policy.OffloadPolicy` the functional tensor cache uses:

- forward: at each segment's completion its activations are packed; kept
  tensors stay resident until their backward; offloaded tensors enqueue on
  the store channel and release memory when the store completes;
- backward: loads are issued in reverse order with a bounded segment
  look-ahead; a segment's backward stalls the GPU if its activations are
  not resident yet (this is where a slow SSD shows up as overhead);
- data forwarding: if the store is still in flight when the tensor is
  needed, the in-memory reference is adopted — no load, memory never
  released in between;
- recompute: only segment inputs are kept; backward replays the forward
  (executed FLOPs grow, algorithmic FLOPs do not);
- tiered offload: with ``cpu_pool_bytes`` set, a bounded pinned-CPU pool
  absorbs offloads on dedicated ``cpu_store``/``cpu_load`` lanes at PCIe
  bandwidth and only the spill beyond the pool pays SSD bandwidth —
  the simulator analogue of
  :class:`~repro.core.tiered.TieredOffloader` (placement only; demotion
  traffic is a functional-engine concern);
- I/O scheduling: ``io_mode`` picks the SSD-channel contention model
  (see :data:`IO_MODES`) — ``"fifo"`` vs ``"priority"`` quantifies what
  the functional :class:`~repro.io.scheduler.IOScheduler`'s
  blocking-load-first dequeue buys at equal bandwidth;
- failures: :class:`FaultScenario` / :func:`simulate_fault_run` play the
  functional failure model's throughput side — transient-retry tax,
  latency spikes, and a mid-run SSD death drained via host-memory
  failover (see :data:`FAULT_KINDS`).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.perf_model import (
    ActivationTensor,
    embedding_activation_bytes,
    logits_activation_bytes,
    model_param_count,
    transformer_layer_perf,
    weight_update_time,
)
from repro.core.autotune import AutotuneController, ControllerDecision, StepObservation
from repro.core.policy import Decision, OffloadPolicy, StepAccounting, Tier
from repro.device.gpu import A100_PCIE_40GB, GPUSpec, KernelTimingModel
from repro.device.pcie import GPU_LINK_GEN4_X16
from repro.models.config import ModelConfig
from repro.sim.timeline import Timeline
from repro.train.parallel import ParallelismConfig
from repro.train.trainer import PlacementStrategy


#: SSD-channel contention models (the functional counterpart is the
#: :class:`~repro.io.scheduler.IOScheduler`'s ``fifo`` flag):
#:
#: - ``"duplex"``  — the paper's two independent pools: stores and loads
#:   never contend (an idealisation of deep NVMe queues);
#: - ``"fifo"``    — one shared serial channel, strict submission order:
#:   a backward load queues behind the whole store backlog (the
#:   priority-inversion failure mode);
#: - ``"priority"``— the same shared channel, but loads overtake queued
#:   stores (blocking-load-first dequeue).  Deferred stores finish in
#:   the gaps; their recorded completion times are lower bounds.
IO_MODES = ("duplex", "fifo", "priority")


@dataclass(frozen=True)
class SegmentSpec:
    """One schedulable forward/backward unit (a "module" of Fig. 2)."""

    name: str
    forward_time_s: float
    backward_time_s: float
    forward_flops: float
    activations: Tuple[ActivationTensor, ...]
    #: bytes of the segment *input*, what recomputation keeps resident.
    input_bytes: int

    @property
    def activation_bytes(self) -> int:
        return sum(t.nbytes for t in self.activations)


@dataclass
class SimResult:
    """Outputs of one simulated training step."""

    strategy: PlacementStrategy
    step_time_s: float
    forward_time_s: float
    backward_time_s: float
    weight_update_time_s: float
    io_stall_time_s: float
    activation_peak_bytes: int
    offloaded_bytes: int
    loaded_bytes: int
    forwarded_bytes: int
    algorithmic_flops: float
    executed_flops: float
    timeline: Timeline = field(repr=False, default_factory=Timeline)
    #: Tiered runs: bytes absorbed by the pinned-CPU pool vs spilled to SSD
    #: (``offloaded_bytes`` is their sum), and the pool's occupancy peak.
    offloaded_cpu_bytes: int = 0
    offloaded_ssd_bytes: int = 0
    cpu_pool_peak_bytes: int = 0
    #: Eligible activation bytes the policy KEPT resident (budget reached,
    #: keep-last scope); ``offloaded_bytes + kept_bytes`` is the step's
    #: eligible activation volume — the budget formula's input.
    kept_bytes: int = 0

    def model_throughput_tflops(self) -> float:
        return self.algorithmic_flops / self.step_time_s / 1e12

    def required_write_bandwidth_gbps(self) -> float:
        """Table III row 3: offloaded bytes over half the step time."""
        return self.offloaded_bytes / (self.step_time_s / 2.0) / 1e9

    def required_ssd_write_bandwidth_gbps(self) -> float:
        """Tiered variant of Table III row 3: only the bytes that actually
        spill past the CPU pool demand SSD write bandwidth (with no CPU
        tier configured every offloaded byte is an SSD byte)."""
        return self.offloaded_ssd_bytes / (self.step_time_s / 2.0) / 1e9


def build_segments(
    config: ModelConfig,
    batch: int,
    gpu: GPUSpec = A100_PCIE_40GB,
    parallelism: Optional[ParallelismConfig] = None,
    timing: Optional[KernelTimingModel] = None,
) -> List[SegmentSpec]:
    """Lower a model config to its forward segment list."""
    par = parallelism if parallelism is not None else ParallelismConfig()
    model = timing if timing is not None else KernelTimingModel(gpu)
    dt = config.dtype_bytes
    bsh_bytes = batch * config.seq_len * config.hidden * dt
    segments: List[SegmentSpec] = []

    emb_bytes = embedding_activation_bytes(config, batch)
    emb_flops = 2.0 * batch * config.seq_len * config.hidden  # lookups+add
    emb_time = model.kernel_time(emb_flops, 2 * emb_bytes, batch_size=batch)
    segments.append(
        SegmentSpec(
            name="embed",
            forward_time_s=emb_time,
            backward_time_s=2 * emb_time,
            forward_flops=emb_flops,
            activations=(ActivationTensor("emb_out", emb_bytes),),
            input_bytes=batch * config.seq_len * 8,  # token ids (int64)
        )
    )

    num_cross = config.num_decoder_layers if config.arch == "t5" else 0
    num_plain = config.num_layers - num_cross
    plain_perf = transformer_layer_perf(config, batch, gpu, par, model)
    for i in range(num_plain):
        segments.append(
            SegmentSpec(
                name=f"layer{i}",
                forward_time_s=plain_perf.forward_time_s,
                backward_time_s=plain_perf.backward_time_s,
                forward_flops=plain_perf.forward_flops,
                activations=plain_perf.inventory,
                input_bytes=bsh_bytes,
            )
        )
    if num_cross:
        cross_perf = transformer_layer_perf(
            config, batch, gpu, par, model, cross_attention=True
        )
        for i in range(num_cross):
            segments.append(
                SegmentSpec(
                    name=f"declayer{i}",
                    forward_time_s=cross_perf.forward_time_s,
                    backward_time_s=cross_perf.backward_time_s,
                    forward_flops=cross_perf.forward_flops,
                    activations=cross_perf.inventory,
                    input_bytes=bsh_bytes,
                )
            )

    head_bytes = logits_activation_bytes(config, batch)
    head_flops = 2.0 * batch * config.seq_len * config.hidden * config.vocab_size / par.tp
    head_time = model.kernel_time(head_flops, head_bytes, batch_size=batch)
    segments.append(
        SegmentSpec(
            name="head",
            forward_time_s=head_time,
            backward_time_s=2 * head_time,
            forward_flops=head_flops,
            activations=(ActivationTensor("logits", head_bytes),),
            input_bytes=bsh_bytes,
        )
    )
    return segments


class StepSimulator:
    """Simulates one training step for a segment list and a strategy."""

    def __init__(
        self,
        segments: List[SegmentSpec],
        strategy: PlacementStrategy,
        write_bandwidth: float,
        read_bandwidth: float,
        policy: Optional[OffloadPolicy] = None,
        num_microbatches: int = 1,
        prefetch_segments: int = 2,
        keep_last_segments: int = 2,
        prefetch_budget_bytes: Optional[int] = None,
        recompute_workspace_factor: float = 2.0,
        io_latency_s: float = 20e-6,
        dtype_bytes: int = 2,
        cpu_pool_bytes: Optional[int] = None,
        cpu_write_bandwidth: Optional[float] = None,
        cpu_read_bandwidth: Optional[float] = None,
        io_mode: str = "duplex",
    ) -> None:
        if write_bandwidth <= 0 or read_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if num_microbatches < 1:
            raise ValueError("num_microbatches must be >= 1")
        if io_mode not in IO_MODES:
            raise ValueError(f"unknown io_mode {io_mode!r}; expected one of {IO_MODES}")
        self.segments = segments
        self.strategy = strategy
        self.write_bw = write_bandwidth
        self.read_bw = read_bandwidth
        self.policy = policy if policy is not None else OffloadPolicy()
        self.num_microbatches = num_microbatches
        self.prefetch_segments = prefetch_segments
        # Fig. 2 marker 4: the last module's backward begins immediately
        # after its forward, so its activations are kept.  The functional
        # cache keeps the final top-level segment plus the forward tail:
        # the last ``prefetch_window`` records, counted per record, not
        # per segment.  Keeping whole segments only approximates that
        # (2, the default, also keeps the final transformer layer as in
        # the Fig. 2 sketch).
        self.keep_last_segments = keep_last_segments
        # Recomputation transient: the recomputed activations coexist with
        # the gradient buffers of the segment's backward.
        self.recompute_workspace_factor = recompute_workspace_factor
        # Bound on prefetched-but-unconsumed bytes, the simulator analogue
        # of the tensor cache's bounded look-ahead window: a prefetch may
        # run ahead of consumption by at most this many bytes.  Defaults to
        # half the largest segment's activation footprint (the adaptive
        # sizing scales the window with the workload).
        if prefetch_budget_bytes is None:
            prefetch_budget_bytes = max(s.activation_bytes for s in segments) // 2
        self.prefetch_budget_bytes = prefetch_budget_bytes
        self.io_latency_s = io_latency_s
        self.dtype_bytes = dtype_bytes
        # Tiered offloading: a bounded pinned-CPU pool absorbs offloads at
        # PCIe speed; only the spill beyond it pays SSD bandwidth.  The
        # pool occupies host (not GPU) memory, so its residents do not
        # count toward the activation peak.  ``None`` disables the tier
        # (every offload targets the SSD, the paper's configuration).
        self.cpu_pool_bytes = cpu_pool_bytes
        self.io_mode = io_mode
        link_bw = GPU_LINK_GEN4_X16.bandwidth
        self.cpu_write_bw = cpu_write_bandwidth if cpu_write_bandwidth is not None else link_bw
        self.cpu_read_bw = cpu_read_bandwidth if cpu_read_bandwidth is not None else link_bw
        if self.cpu_pool_bytes is not None and (
            self.cpu_write_bw <= 0 or self.cpu_read_bw <= 0
        ):
            raise ValueError("CPU-tier bandwidths must be positive")

    def run(self, weight_update_s: float = 0.0) -> SimResult:
        timeline = Timeline()
        accounting = StepAccounting()
        gpu_t = 0.0
        store_t = 0.0
        load_t = 0.0
        cpu_store_t = 0.0
        cpu_load_t = 0.0
        io_stall = 0.0
        offloaded = loaded = forwarded = 0
        off_cpu = off_ssd = 0
        cpu_used = 0
        cpu_peak = 0
        alg_flops = exec_flops = 0.0
        fwd_total = bwd_total = 0.0

        keep_last = self.policy.config.keep_last_module

        for mb in range(self.num_microbatches):
            # ------------------------------------------------------ forward
            # store_end[i][j]: completion time of activation j of segment i
            # (None = kept resident).
            store_end: List[List[Optional[float]]] = []
            freed_at_store: List[List[bool]] = []
            # Landing tier of each offloaded activation (None = kept).
            store_tier: List[List[Optional[Tier]]] = []
            for si, seg in enumerate(self.segments):
                seg_start = gpu_t
                gpu_t += seg.forward_time_s
                fwd_total += seg.forward_time_s
                alg_flops += seg.forward_flops
                exec_flops += seg.forward_flops
                timeline.record("gpu", f"F{si}", seg_start, gpu_t)
                ends: List[Optional[float]] = []
                freed: List[bool] = []
                tiers: List[Optional[Tier]] = []
                in_keep_scope = (
                    keep_last
                    and si >= len(self.segments) - self.keep_last_segments
                )

                if self.strategy is PlacementStrategy.RECOMPUTE and si > 0:
                    # Only the segment input survives; approximate it as one
                    # resident tensor per segment (freed after backward).
                    timeline.alloc(seg_start, seg.input_bytes)
                    store_end.append([None] * len(seg.activations))
                    freed_at_store.append([False] * len(seg.activations))
                    store_tier.append([None] * len(seg.activations))
                    continue

                count = len(seg.activations)
                for aj, act in enumerate(seg.activations):
                    # Tensors are produced progressively as the segment's
                    # ops finish; offloading "starts once the operator
                    # producing it finishes" (Fig. 2 marker 1).
                    produced = seg_start + (aj + 1) / count * seg.forward_time_s
                    timeline.alloc(produced, act.nbytes)
                    if self.strategy is not PlacementStrategy.OFFLOAD:
                        ends.append(None)
                        freed.append(False)
                        tiers.append(None)
                        continue
                    decision = self.policy.decide(
                        is_weight=False,
                        is_cpu=False,
                        numel=act.nbytes // self.dtype_bytes,
                        nbytes=act.nbytes,
                        in_backward=False,
                        in_keep_scope=in_keep_scope,
                        accounting=accounting,
                    )
                    if decision is Decision.OFFLOAD:
                        cpu_free = (
                            self.cpu_pool_bytes - cpu_used
                            if self.cpu_pool_bytes is not None
                            else None
                        )
                        tier = self.policy.place(
                            nbytes=act.nbytes, cpu_free_bytes=cpu_free
                        )
                        if tier is Tier.CPU:
                            start = max(cpu_store_t, produced)
                            done = (
                                start
                                + self.io_latency_s
                                + act.nbytes / self.cpu_write_bw
                            )
                            cpu_store_t = done
                            timeline.record("cpu_store", f"c{si}", start, done)
                            cpu_used += act.nbytes
                            cpu_peak = max(cpu_peak, cpu_used)
                            off_cpu += act.nbytes
                        else:
                            start = max(store_t, produced)
                            if self.io_mode != "duplex":
                                # Shared SSD channel: a store cannot start
                                # while a load occupies it.
                                start = max(start, load_t)
                            done = (
                                start + self.io_latency_s + act.nbytes / self.write_bw
                            )
                            store_t = done
                            timeline.record("store", f"s{si}", start, done)
                            off_ssd += act.nbytes
                        accounting.offloaded_bytes += act.nbytes
                        offloaded += act.nbytes
                        ends.append(done)
                        freed.append(True)
                        tiers.append(tier)
                        timeline.free(done, act.nbytes)
                    else:
                        accounting.kept_bytes += act.nbytes
                        ends.append(None)
                        freed.append(False)
                        tiers.append(None)
                store_end.append(ends)
                freed_at_store.append(freed)
                store_tier.append(tiers)

            # ----------------------------------------------------- backward
            n = len(self.segments)
            load_end: Dict[Tuple[int, int], float] = {}
            bwd_start_of: List[Optional[float]] = [None] * n

            def issue_loads(
                si: int,
                trigger: float,
                credit_state: Optional[List[float]] = None,
                consumption_rate: float = 0.0,
                deadline_window_s: float = 0.0,
            ) -> None:
                """Issue loads for segment ``si``'s activations.

                ``credit_state`` is a one-element list holding the
                cumulative prefetched bytes of this backward entry; loads
                beyond ``prefetch_budget_bytes`` wait until consumption of
                the current segment (at ``consumption_rate`` bytes/s) has
                earned them credit.
                """
                nonlocal load_t, store_t, cpu_load_t, cpu_used, loaded, forwarded, io_stall
                seg = self.segments[si]
                for aj in range(len(seg.activations) - 1, -1, -1):
                    # Consumption is last-produced-first, so load in
                    # reverse production order.
                    act = seg.activations[aj]
                    if (si, aj) in load_end:
                        continue
                    tier = store_tier[si][aj]
                    read_bw = self.cpu_read_bw if tier is Tier.CPU else self.read_bw
                    paced_trigger = trigger
                    if credit_state is not None:
                        overdraft = credit_state[0] + act.nbytes - self.prefetch_budget_bytes
                        if overdraft > 0 and consumption_rate > 0:
                            paced_trigger = trigger + overdraft / consumption_rate
                        credit_state[0] += act.nbytes
                        # Never let the budget push a load past its need
                        # time: it must complete before the consuming
                        # segment's backward begins (deadline - duration).
                        load_duration = self.io_latency_s + act.nbytes / read_bw
                        deadline_start = trigger + deadline_window_s - 1.2 * load_duration
                        paced_trigger = max(trigger, min(paced_trigger, deadline_start))
                    end = store_end[si][aj]
                    if end is None:
                        load_end[(si, aj)] = trigger  # resident (kept)
                        continue
                    # The backing copy is dropped once the tensor is back
                    # on the GPU; pool residents return their bytes then.
                    if tier is Tier.CPU:
                        cpu_used -= act.nbytes
                    if end > paced_trigger and not freed_at_store[si][aj]:
                        load_end[(si, aj)] = end
                        continue
                    if end > paced_trigger:
                        # Store still in flight at prefetch time: data
                        # forwarding — adopt the in-memory copy, cancel the
                        # free that the store completion would have done.
                        forwarded += act.nbytes
                        timeline.alloc(end, act.nbytes)  # undo the free
                        load_end[(si, aj)] = paced_trigger
                        continue
                    if tier is Tier.CPU:
                        start = max(cpu_load_t, end, paced_trigger)
                        done = start + self.io_latency_s + act.nbytes / read_bw
                        cpu_load_t = done
                        timeline.record("cpu_load", f"cl{si}", start, done)
                    else:
                        start = max(load_t, end, paced_trigger)
                        if self.io_mode == "fifo":
                            # FIFO shared channel: the load waits for the
                            # whole store backlog submitted ahead of it.
                            start = max(start, store_t)
                        done = start + self.io_latency_s + act.nbytes / read_bw
                        load_t = done
                        if self.io_mode != "duplex":
                            # The shared channel was busy with this load;
                            # under "priority" that is the load overtaking
                            # queued stores, which resume afterwards.
                            store_t = max(store_t, done)
                        timeline.record("load", f"l{si}", start, done)
                    timeline.alloc(start, act.nbytes)
                    loaded += act.nbytes
                    load_end[(si, aj)] = done

            for si in range(n - 1, -1, -1):
                seg = self.segments[si]
                # Entering segment si's backward triggers prefetch of the
                # next ``prefetch_segments`` segments (Sec. III-C2); the
                # byte budget is earned back as this segment's backward
                # consumes its own activations.
                issue_loads(si, gpu_t)
                credit = [0.0]
                rate = (
                    seg.activation_bytes / seg.backward_time_s
                    if seg.backward_time_s > 0
                    else 0.0
                )
                for ahead in range(1, self.prefetch_segments + 1):
                    if si - ahead >= 0:
                        issue_loads(
                            si - ahead,
                            gpu_t,
                            credit_state=credit,
                            consumption_rate=rate,
                            deadline_window_s=ahead * seg.backward_time_s,
                        )

                if self.strategy is PlacementStrategy.RECOMPUTE and si > 0:
                    # Replay forward, then backward.
                    start = gpu_t
                    recompute_peak = int(
                        self.recompute_workspace_factor
                        * sum(a.nbytes for a in seg.activations)
                    )
                    timeline.alloc(start, recompute_peak)
                    gpu_t = start + seg.forward_time_s + seg.backward_time_s
                    exec_flops += seg.forward_flops
                    timeline.record("gpu", f"R{si}", start, start + seg.forward_time_s)
                    timeline.record("gpu", f"B{si}", start + seg.forward_time_s, gpu_t)
                    timeline.free(gpu_t, recompute_peak + seg.input_bytes)
                else:
                    ready = max(
                        [gpu_t]
                        + [load_end[(si, aj)] for aj in range(len(seg.activations))]
                    )
                    io_stall += ready - gpu_t
                    start = ready
                    gpu_t = start + seg.backward_time_s
                    timeline.record("gpu", f"B{si}", start, gpu_t)
                    # Backward consumes the segment's saved tensors
                    # progressively (last-produced first); each is released
                    # as its consuming node finishes (SavedTensor.clear +
                    # scope exit in the functional cache).
                    count = len(seg.activations)
                    for aj, act in enumerate(seg.activations):
                        frac = (count - aj) / count
                        timeline.free(start + frac * seg.backward_time_s, act.nbytes)
                bwd_total += gpu_t - start
                alg_flops += 2 * seg.forward_flops
                exec_flops += 2 * seg.forward_flops

        step_time = gpu_t + weight_update_s
        return SimResult(
            strategy=self.strategy,
            step_time_s=step_time,
            forward_time_s=fwd_total,
            backward_time_s=bwd_total,
            weight_update_time_s=weight_update_s,
            io_stall_time_s=io_stall,
            activation_peak_bytes=timeline.memory_peak(),
            offloaded_bytes=offloaded,
            loaded_bytes=loaded,
            forwarded_bytes=forwarded,
            algorithmic_flops=alg_flops,
            executed_flops=exec_flops,
            timeline=timeline,
            offloaded_cpu_bytes=off_cpu,
            offloaded_ssd_bytes=off_ssd,
            cpu_pool_peak_bytes=cpu_peak,
            kept_bytes=accounting.kept_bytes,
        )


def simulate_strategy(
    config: ModelConfig,
    batch: int,
    strategy: PlacementStrategy,
    write_bandwidth: float,
    read_bandwidth: float,
    gpu: GPUSpec = A100_PCIE_40GB,
    parallelism: Optional[ParallelismConfig] = None,
    policy: Optional[OffloadPolicy] = None,
    num_microbatches: int = 1,
    timing: Optional[KernelTimingModel] = None,
    cpu_pool_bytes: Optional[int] = None,
    cpu_write_bandwidth: Optional[float] = None,
    cpu_read_bandwidth: Optional[float] = None,
    io_mode: str = "duplex",
) -> SimResult:
    """Convenience wrapper: build segments, add weight-update time, run."""
    par = parallelism if parallelism is not None else ParallelismConfig()
    segments = build_segments(config, batch, gpu, par, timing)
    params_per_gpu = par.params_per_gpu(model_param_count(config))
    update = weight_update_time(params_per_gpu, gpu, dtype_bytes=config.dtype_bytes)
    sim = StepSimulator(
        segments,
        strategy,
        write_bandwidth=write_bandwidth,
        read_bandwidth=read_bandwidth,
        policy=policy,
        num_microbatches=num_microbatches,
        dtype_bytes=config.dtype_bytes,
        cpu_pool_bytes=cpu_pool_bytes,
        cpu_write_bandwidth=cpu_write_bandwidth,
        cpu_read_bandwidth=cpu_read_bandwidth,
        io_mode=io_mode,
    )
    return sim.run(weight_update_s=update)


#: Bandwidth/workload drift shapes for multi-step adaptive runs:
#:
#: - ``"static"``     — nothing changes (the control arm);
#: - ``"step"``       — bandwidth drops by ``write_factor``/``read_factor``
#:   at ``drift_step`` and stays there (a co-tenant job lands on the
#:   array, a RAID member dies);
#: - ``"ramp"``       — the same drop applied linearly over ``ramp_steps``
#:   (thermal throttling, an SLC cache filling up);
#: - ``"microbatch"`` — bandwidth holds but the micro-batch count changes
#:   at ``drift_step`` (a data-pipeline resize mid-run), shifting the
#:   activation volume and the forward/backward windows instead.
DRIFT_KINDS = ("static", "step", "ramp", "microbatch")


@dataclass(frozen=True)
class DriftScenario:
    """A per-step schedule of bandwidths and micro-batch counts.

    The step simulator models one step at fixed bandwidth; a scenario
    strings ``steps`` of them together and answers "what does the
    hardware look like during step ``i``" — the moving target the online
    adaptive controller has to track and a static budget cannot.
    """

    steps: int
    write_bandwidth: float
    read_bandwidth: float
    kind: str = "static"
    drift_step: int = 0
    write_factor: float = 1.0
    read_factor: float = 1.0
    ramp_steps: int = 1
    num_microbatches: int = 1
    drift_microbatches: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in DRIFT_KINDS:
            raise ValueError(f"unknown drift kind {self.kind!r}; expected one of {DRIFT_KINDS}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1: {self.steps}")
        if self.write_bandwidth <= 0 or self.read_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if self.write_factor <= 0 or self.read_factor <= 0:
            raise ValueError("drift factors must be positive")
        if self.ramp_steps < 1:
            raise ValueError(f"ramp_steps must be >= 1: {self.ramp_steps}")

    # ------------------------------------------------------------ constructors
    @classmethod
    def static(cls, write_bandwidth: float, read_bandwidth: float, steps: int,
               num_microbatches: int = 1) -> "DriftScenario":
        return cls(steps, write_bandwidth, read_bandwidth,
                   num_microbatches=num_microbatches)

    @classmethod
    def step_drop(cls, write_bandwidth: float, read_bandwidth: float, steps: int,
                  drift_step: int, write_factor: float = 0.5,
                  read_factor: float = 1.0, num_microbatches: int = 1) -> "DriftScenario":
        """Step-function degradation: bandwidth falls off a cliff at
        ``drift_step`` (``write_factor=0.5`` is the 2x write drop of the
        acceptance scenario)."""
        return cls(steps, write_bandwidth, read_bandwidth, kind="step",
                   drift_step=drift_step, write_factor=write_factor,
                   read_factor=read_factor, num_microbatches=num_microbatches)

    @classmethod
    def ramp(cls, write_bandwidth: float, read_bandwidth: float, steps: int,
             drift_step: int, ramp_steps: int, write_factor: float = 0.5,
             read_factor: float = 1.0, num_microbatches: int = 1) -> "DriftScenario":
        """Linear degradation starting at ``drift_step`` (the first
        affected step, carrying ``1/ramp_steps`` of the drop) and
        reaching the terminal factors at ``drift_step + ramp_steps - 1``."""
        return cls(steps, write_bandwidth, read_bandwidth, kind="ramp",
                   drift_step=drift_step, write_factor=write_factor,
                   read_factor=read_factor, ramp_steps=ramp_steps,
                   num_microbatches=num_microbatches)

    @classmethod
    def microbatch_resize(cls, write_bandwidth: float, read_bandwidth: float,
                          steps: int, drift_step: int, before: int = 1,
                          after: int = 2) -> "DriftScenario":
        """Mid-run micro-batch resize: the activation volume and windows
        change while the hardware stays put."""
        return cls(steps, write_bandwidth, read_bandwidth, kind="microbatch",
                   drift_step=drift_step, num_microbatches=before,
                   drift_microbatches=after)

    # ----------------------------------------------------------------- queries
    def _progress(self, step: int) -> float:
        """Fraction of the drift applied at ``step`` (0 before, 1 after)."""
        if self.kind in ("static", "microbatch") or step < self.drift_step:
            return 0.0
        if self.kind == "step":
            return 1.0
        return min(1.0, (step - self.drift_step + 1) / self.ramp_steps)

    def write_bandwidth_at(self, step: int) -> float:
        p = self._progress(step)
        return self.write_bandwidth * (1.0 + p * (self.write_factor - 1.0))

    def read_bandwidth_at(self, step: int) -> float:
        p = self._progress(step)
        return self.read_bandwidth * (1.0 + p * (self.read_factor - 1.0))

    def microbatches_at(self, step: int) -> int:
        if (
            self.kind == "microbatch"
            and self.drift_microbatches is not None
            and step >= self.drift_step
        ):
            return self.drift_microbatches
        return self.num_microbatches


@dataclass
class AdaptiveRunResult:
    """Outputs of a multi-step (static or adaptive) simulated run."""

    scenario: DriftScenario
    results: List[SimResult]
    #: The offload budget in force *during* each step (None = uncapped).
    budgets: List[Optional[int]]
    #: Controller decisions taken *after* each step (empty without one).
    decisions: List[ControllerDecision]

    def stall_time_s(self, start: int = 0, stop: Optional[int] = None) -> float:
        """Total backward stall over the step range ``[start, stop)``."""
        return sum(r.io_stall_time_s for r in self.results[start:stop])

    @property
    def total_stall_s(self) -> float:
        return self.stall_time_s()

    @property
    def total_offloaded_bytes(self) -> int:
        return sum(r.offloaded_bytes for r in self.results)


def _observation_from_sim(result: SimResult) -> StepObservation:
    """Translate one simulated step into the controller's feed.

    Bandwidth is *observed* the same way the engine observes it —
    bytes moved over channel-busy seconds off the timeline — so the
    controller sees the per-op latency tax, not the configured constant.
    CPU-tier lanes are merged in when present (the controller's budget
    then reflects the blended drain rate the workload actually gets).
    """
    timeline = result.timeline
    write_busy = timeline.lane_busy_time("store") + timeline.lane_busy_time("cpu_store")
    read_busy = timeline.lane_busy_time("load") + timeline.lane_busy_time("cpu_load")
    stored_tensors = sum(
        1 for e in timeline.events if e.lane in ("store", "cpu_store")
    )
    read_count = sum(1 for e in timeline.events if e.lane in ("load", "cpu_load"))
    return StepObservation(
        forward_time_s=result.forward_time_s,
        backward_time_s=result.backward_time_s,
        activation_bytes=result.offloaded_bytes + result.kept_bytes,
        write_bytes=result.offloaded_bytes,
        write_busy_s=write_busy,
        read_bytes=result.loaded_bytes,
        read_busy_s=read_busy,
        read_count=read_count,
        stored_tensors=stored_tensors,
        stored_bytes=result.offloaded_bytes,
        stall_time_s=result.io_stall_time_s,
    )


#: Failure shapes for multi-step fault runs (the simulator counterpart of
#: the functional :class:`~repro.io.faults.FaultPlan`):
#:
#: - ``"transient"``   — a seeded fraction of transfers fails once and is
#:   retried: effective bandwidth drops by the replay factor and every op
#:   pays the expected backoff latency;
#: - ``"latency_spike"`` — a seeded fraction of transfers stalls an extra
#:   ``latency_spike_s`` (device hiccups that are slow, not wrong);
#: - ``"lane_death"``  — at ``death_step`` the SSD lane bricks and every
#:   offload fails over to host memory at ``failover_bandwidth`` (the
#:   tiered engine's CPU tier), the analytic view of
#:   :meth:`~repro.core.tiered.TieredOffloader` failover.
FAULT_KINDS = ("transient", "latency_spike", "lane_death")


@dataclass(frozen=True)
class FaultScenario:
    """A seeded per-step schedule of I/O failures.

    The functional chaos harness injects *individual* faults and proves
    bit-exact recovery; this scenario answers the throughput question —
    what do retries, latency spikes, and a mid-run device death cost in
    step time and stall — using an expected-value model: a per-op fault
    at ``fault_rate`` replays the transfer once (bandwidth derated by
    ``1 + rate``) and pays the retry backoff, with the rate jittered
    per-step by the seed so runs have texture but stay reproducible.
    """

    steps: int
    write_bandwidth: float
    read_bandwidth: float
    kind: str = "transient"
    seed: int = 0
    #: Expected fraction of transfers hit per step.
    fault_rate: float = 0.02
    #: Backoff paid per faulted transfer before its retry.
    retry_backoff_s: float = 0.002
    #: Extra per-op stall of the latency_spike kind.
    latency_spike_s: float = 0.02
    #: lane_death: first step the SSD lane is gone (None = alive forever).
    death_step: Optional[int] = None
    #: Post-death drain rate (defaults to the PCIe link: host memory).
    failover_bandwidth: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1: {self.steps}")
        if self.write_bandwidth <= 0 or self.read_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be in [0, 1]: {self.fault_rate}")
        if self.retry_backoff_s < 0 or self.latency_spike_s < 0:
            raise ValueError("fault latencies must be >= 0")
        if self.kind == "lane_death" and self.death_step is None:
            raise ValueError("lane_death needs a death_step")

    # ------------------------------------------------------------ constructors
    @classmethod
    def transient(cls, write_bandwidth: float, read_bandwidth: float, steps: int,
                  fault_rate: float = 0.02, seed: int = 0) -> "FaultScenario":
        return cls(steps, write_bandwidth, read_bandwidth, kind="transient",
                   fault_rate=fault_rate, seed=seed)

    @classmethod
    def latency(cls, write_bandwidth: float, read_bandwidth: float, steps: int,
                fault_rate: float = 0.02, spike_s: float = 0.02,
                seed: int = 0) -> "FaultScenario":
        return cls(steps, write_bandwidth, read_bandwidth, kind="latency_spike",
                   fault_rate=fault_rate, latency_spike_s=spike_s, seed=seed)

    @classmethod
    def lane_death(cls, write_bandwidth: float, read_bandwidth: float, steps: int,
                   death_step: int, failover_bandwidth: Optional[float] = None,
                   seed: int = 0) -> "FaultScenario":
        return cls(steps, write_bandwidth, read_bandwidth, kind="lane_death",
                   death_step=death_step, failover_bandwidth=failover_bandwidth,
                   seed=seed)

    # ----------------------------------------------------------------- queries
    def ssd_alive_at(self, step: int) -> bool:
        return not (
            self.kind == "lane_death"
            and self.death_step is not None
            and step >= self.death_step
        )

    def fault_rate_at(self, step: int) -> float:
        """Seeded per-step jitter of the fault rate in [0.5x, 1.5x]."""
        if self.fault_rate <= 0:
            return 0.0
        draw = random.Random((self.seed << 16) ^ step).random()
        return min(1.0, self.fault_rate * (0.5 + draw))

    def _failover_bw(self) -> float:
        if self.failover_bandwidth is not None:
            return self.failover_bandwidth
        return GPU_LINK_GEN4_X16.bandwidth

    def write_bandwidth_at(self, step: int) -> float:
        if not self.ssd_alive_at(step):
            return self._failover_bw()
        if self.kind == "transient":
            # A faulted transfer replays once: the channel moves the same
            # bytes twice for rate of the ops.
            return self.write_bandwidth / (1.0 + self.fault_rate_at(step))
        return self.write_bandwidth

    def read_bandwidth_at(self, step: int) -> float:
        if not self.ssd_alive_at(step):
            return self._failover_bw()
        if self.kind == "transient":
            return self.read_bandwidth / (1.0 + self.fault_rate_at(step))
        return self.read_bandwidth

    def io_latency_at(self, step: int, base_latency_s: float) -> float:
        """Expected per-op latency including the fault tax."""
        rate = self.fault_rate_at(step)
        if self.kind == "transient" and self.ssd_alive_at(step):
            return base_latency_s + rate * self.retry_backoff_s
        if self.kind == "latency_spike":
            return base_latency_s + rate * self.latency_spike_s
        return base_latency_s


@dataclass
class FaultRunResult:
    """Outputs of a multi-step fault-scenario run, with its clean twin."""

    scenario: FaultScenario
    results: List[SimResult]
    #: The same steps at nominal bandwidth/latency (the A/B baseline).
    fault_free: List[SimResult]
    #: First step that ran in failover mode (None = SSD alive throughout).
    failover_step: Optional[int]

    @property
    def total_stall_s(self) -> float:
        return sum(r.io_stall_time_s for r in self.results)

    @property
    def fault_free_stall_s(self) -> float:
        return sum(r.io_stall_time_s for r in self.fault_free)

    @property
    def step_time_overhead(self) -> float:
        """Relative step-time cost of the faults vs the clean run."""
        clean = sum(r.step_time_s for r in self.fault_free)
        if clean <= 0:
            return 0.0
        return sum(r.step_time_s for r in self.results) / clean - 1.0


def simulate_fault_run(
    segments: List[SegmentSpec],
    scenario: FaultScenario,
    policy: Optional[OffloadPolicy] = None,
    io_mode: str = "fifo",
    io_latency_s: float = 20e-6,
    num_microbatches: int = 1,
    weight_update_s: float = 0.0,
    dtype_bytes: int = 2,
) -> FaultRunResult:
    """Play ``scenario.steps`` steps under the fault schedule, plus the
    fault-free twin at nominal conditions for the A/B.

    ``io_mode`` defaults to ``"fifo"`` (shared contended channel): retry
    replays and latency spikes land on the same channel backward's loads
    need, which is where the fault tax actually hurts.
    """

    def run_step(step: int, faulted: bool) -> SimResult:
        if faulted:
            write_bw = scenario.write_bandwidth_at(step)
            read_bw = scenario.read_bandwidth_at(step)
            latency = scenario.io_latency_at(step, io_latency_s)
        else:
            write_bw, read_bw, latency = (
                scenario.write_bandwidth,
                scenario.read_bandwidth,
                io_latency_s,
            )
        sim = StepSimulator(
            segments,
            PlacementStrategy.OFFLOAD,
            write_bandwidth=write_bw,
            read_bandwidth=read_bw,
            policy=policy if policy is not None else OffloadPolicy(),
            num_microbatches=num_microbatches,
            io_latency_s=latency,
            dtype_bytes=dtype_bytes,
            io_mode=io_mode,
        )
        return sim.run(weight_update_s=weight_update_s)

    results: List[SimResult] = []
    failover_step: Optional[int] = None
    # The nominal conditions are constant across steps, so one clean run
    # stands in for every step of the fault-free twin.
    clean = run_step(0, faulted=False)
    fault_free = [clean] * scenario.steps
    for step in range(scenario.steps):
        if failover_step is None and not scenario.ssd_alive_at(step):
            failover_step = step
        results.append(run_step(step, faulted=True))
    return FaultRunResult(
        scenario=scenario,
        results=results,
        fault_free=fault_free,
        failover_step=failover_step,
    )


def simulate_adaptive_run(
    segments: List[SegmentSpec],
    scenario: DriftScenario,
    policy: Optional[OffloadPolicy] = None,
    controller: Optional[AutotuneController] = None,
    io_mode: str = "fifo",
    keep_last_segments: int = 2,
    prefetch_segments: int = 2,
    weight_update_s: float = 0.0,
    dtype_bytes: int = 2,
    cpu_pool_bytes: Optional[int] = None,
) -> AdaptiveRunResult:
    """Play ``scenario.steps`` training steps, optionally closing the loop.

    Without a controller this is the static arm: whatever budget the
    policy carries stays in force for the whole run (the paper's one-shot
    sizing).  With a controller, each step's timeline is folded into the
    EWMA estimators and a re-tuned budget is installed into the (shared,
    mutable) policy before the next step — the same
    ``observe -> choose_offload_budget -> install`` loop the functional
    engine runs, minus the engine.

    ``io_mode`` defaults to ``"fifo"`` (one shared, contended SSD
    channel): that is where a stale budget hurts — the over-committed
    store backlog lands in front of backward's loads.
    """
    policy = policy if policy is not None else OffloadPolicy()
    results: List[SimResult] = []
    budgets: List[Optional[int]] = []
    decisions: List[ControllerDecision] = []
    for step in range(scenario.steps):
        sim = StepSimulator(
            segments,
            PlacementStrategy.OFFLOAD,
            write_bandwidth=scenario.write_bandwidth_at(step),
            read_bandwidth=scenario.read_bandwidth_at(step),
            policy=policy,
            num_microbatches=scenario.microbatches_at(step),
            prefetch_segments=prefetch_segments,
            keep_last_segments=keep_last_segments,
            dtype_bytes=dtype_bytes,
            cpu_pool_bytes=cpu_pool_bytes,
            io_mode=io_mode,
        )
        budgets.append(policy.config.offload_budget_bytes)
        result = sim.run(weight_update_s=weight_update_s)
        results.append(result)
        if controller is not None:
            decision = controller.observe(_observation_from_sim(result))
            decisions.append(decision)
            if decision.retuned:
                policy.install_budget(decision.offload_budget_bytes)
    return AdaptiveRunResult(
        scenario=scenario, results=results, budgets=budgets, decisions=decisions
    )


# --------------------------------------------------------------------------
# Multi-tenant contention harness
# --------------------------------------------------------------------------

#: Default virtual device bandwidth of the tenant harness (bytes per
#: virtual second).  The absolute value is immaterial — every metric the
#: harness reports is a ratio over it.
DEFAULT_TENANT_DEVICE_BW = 256e6


@dataclass(frozen=True)
class TenantJobSpec:
    """One tenant's synthetic offload burst for :class:`MultiTenantHarness`.

    ``num_tensors`` store requests of ``tensor_bytes`` each are submitted
    back-to-back; quotas forward to the tenant's
    :class:`~repro.io.tenancy.TenantContext`.
    """

    name: str
    weight: float = 1.0
    num_tensors: int = 32
    tensor_bytes: int = 64 << 10
    byte_quota: Optional[int] = None
    over_quota: str = "reject"

    @property
    def total_bytes(self) -> int:
        return self.num_tensors * self.tensor_bytes


@dataclass
class TenantRunMetrics:
    """Per-tenant outputs of one harness run (virtual-clock time base)."""

    name: str
    weight: float
    submitted_bytes: int
    executed_bytes: int
    rejected_bytes: int
    #: Virtual time at which the tenant's last byte landed on the device.
    finish_time_s: float
    #: executed bytes / finish time — completion bandwidth.
    bandwidth: float
    #: Bytes this tenant moved while *every* tenant still had queued work
    #: (up to the first tenant's completion) — the contended-window share
    #: that fair-share scheduling equalises and FIFO does not.
    contended_bytes: int


@dataclass
class MultiTenantRunResult:
    """Outputs of one :class:`MultiTenantHarness` run."""

    fair: bool
    device_bandwidth: float
    tenants: Dict[str, TenantRunMetrics]
    #: Jain's fairness index over the weight-normalised contended-window
    #: byte shares (1.0 = perfectly proportional service).
    contended_jain: float
    #: Jain's index over weight-normalised completion bandwidths.
    bandwidth_jain: float
    #: Per-tenant scheduler books (TenantStats snapshot after drain).
    tenant_stats: Dict[str, object] = field(default_factory=dict)


class VirtualDevice:
    """A serial device on a virtual clock.

    Service order is whatever the scheduler dequeues; each write advances
    the virtual clock by ``nbytes / bandwidth`` under a lock, so byte
    shares and finish times are deterministic — no wall-clock jitter, no
    sleeps.  The ``start`` gate holds the lane worker until every tenant
    has its burst queued, creating the contended window the fairness
    metrics are defined over.  Shared by the multi-tenant fairness
    harness below and the serving tests' scheduler-priority probes.
    """

    def __init__(self, bandwidth: float) -> None:
        self.bandwidth = bandwidth
        self.start = threading.Event()
        self._lock = threading.Lock()
        self.clock = 0.0
        #: (tenant, nbytes, virtual completion time) in service order.
        self.served: List[Tuple[str, int, float]] = []

    def write(self, tenant: str, nbytes: int) -> None:
        self.start.wait()
        with self._lock:
            self.clock += nbytes / self.bandwidth
            self.served.append((tenant, nbytes, self.clock))


#: Backwards-compatible alias from when the device was harness-private.
_VirtualDevice = VirtualDevice


class MultiTenantHarness:
    """Drive N tenant bursts through one shared-lane scheduler and measure
    who got what.

    The A/B axis is ``fair``: ``True`` runs the scheduler's weighted
    deficit-round-robin dequeue (one
    :class:`~repro.io.tenancy.TenantRegistry` shared with admission);
    ``False`` runs the same registry over the legacy FIFO heap — the
    naive baseline whose head-of-line bias the fairness suite quantifies.
    All service lands on a single-worker virtual device, so results are
    deterministic run to run.
    """

    def __init__(
        self,
        jobs: List[TenantJobSpec],
        device_bandwidth: float = DEFAULT_TENANT_DEVICE_BW,
        fair: bool = True,
        quantum_bytes: Optional[int] = None,
    ) -> None:
        if not jobs:
            raise ValueError("need at least one tenant job")
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        if device_bandwidth <= 0:
            raise ValueError(f"device_bandwidth must be positive: {device_bandwidth}")
        self.jobs = jobs
        self.device_bandwidth = device_bandwidth
        self.fair = fair
        self.quantum_bytes = quantum_bytes

    def run(self) -> MultiTenantRunResult:
        from repro.io.scheduler import IORequest, IOScheduler, Priority
        from repro.io.tenancy import (
            DEFAULT_DRR_QUANTUM_BYTES,
            TenantQuotaError,
            TenantRegistry,
            jain_index,
        )

        registry = TenantRegistry(
            quantum_bytes=(
                self.quantum_bytes
                if self.quantum_bytes is not None
                else DEFAULT_DRR_QUANTUM_BYTES
            )
        )
        for job in self.jobs:
            registry.register(
                job.name,
                weight=job.weight,
                byte_quota=job.byte_quota,
                over_quota=job.over_quota,
            )
        device = VirtualDevice(self.device_bandwidth)
        scheduler = IOScheduler(
            num_store_workers=1,
            num_load_workers=1,
            lanes=("ssd",),
            fifo=not self.fair,
            coalesce_bytes=0,
            tenants=registry,
            name="tenant-harness",
        )
        rejected: Dict[str, int] = {job.name: 0 for job in self.jobs}
        try:
            for job in self.jobs:
                for i in range(job.num_tensors):
                    request = IORequest(
                        lambda t=job.name, n=job.tensor_bytes: device.write(t, n),
                        kind="store",
                        priority=Priority.STORE,
                        tensor_id=f"{job.name}:{i}",
                        nbytes=job.tensor_bytes,
                        lane="ssd",
                        tenant=job.name,
                    )
                    try:
                        scheduler.submit(request)
                    except TenantQuotaError:
                        rejected[job.name] += job.tensor_bytes
            device.start.set()
            scheduler.drain()
        finally:
            device.start.set()  # never leave the worker gated on error
            scheduler.shutdown()

        served = device.served
        finish: Dict[str, float] = {}
        executed: Dict[str, int] = {job.name: 0 for job in self.jobs}
        for tenant, nbytes, at in served:
            executed[tenant] = executed.get(tenant, 0) + nbytes
            finish[tenant] = at
        # The contended window closes when the first tenant runs dry —
        # beyond it the survivors split idle capacity, which says nothing
        # about fairness under contention.
        active = [t for t, done in finish.items() if executed.get(t, 0) > 0]
        window_end = min((finish[t] for t in active), default=0.0)
        contended: Dict[str, int] = {job.name: 0 for job in self.jobs}
        for tenant, nbytes, at in served:
            if at <= window_end + 1e-12:
                contended[tenant] = contended.get(tenant, 0) + nbytes

        metrics: Dict[str, TenantRunMetrics] = {}
        for job in self.jobs:
            done_at = finish.get(job.name, 0.0)
            done_bytes = executed.get(job.name, 0)
            metrics[job.name] = TenantRunMetrics(
                name=job.name,
                weight=job.weight,
                submitted_bytes=job.total_bytes - rejected[job.name],
                executed_bytes=done_bytes,
                rejected_bytes=rejected[job.name],
                finish_time_s=done_at,
                bandwidth=(done_bytes / done_at) if done_at > 0 else 0.0,
                contended_bytes=contended.get(job.name, 0),
            )
        contended_jain = jain_index(
            [m.contended_bytes / m.weight for m in metrics.values() if m.executed_bytes]
        )
        bandwidth_jain = jain_index(
            [m.bandwidth / m.weight for m in metrics.values() if m.executed_bytes]
        )
        return MultiTenantRunResult(
            fair=self.fair,
            device_bandwidth=self.device_bandwidth,
            tenants=metrics,
            contended_jain=contended_jain,
            bandwidth_jain=bandwidth_jain,
            tenant_stats=registry.stats_snapshot(),
        )

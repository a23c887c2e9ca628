"""The four training workloads of the step benchmark.

Every workload trains the same GPT (H=256, L=4, seq 128, batch 4) through
the public ``build_engine`` -> ``Engine.cache()`` -> ``Trainer.train_step``
path; they differ only in the engine configuration:

- ``train-keep``      -- ``PlacementStrategy.KEEP``, no engine (the
  compute-only reference and the denominator of offload overhead);
- ``train-ssd``       -- the paper's configuration: one file per tensor,
  thread backend, no tenants, no deadlines, unpaced device;
- ``train-tiered``    -- GPU -> 4 MiB pinned pool -> 1 MiB-chunked SSD
  store, uring backend, single-tenant DRR, deadlines plus hedged reads;
- ``train-ssd-paced`` -- ``train-ssd`` on a device paced so that stores
  and loads fill most of the compute window.

The seed is the benchmark's argument: it draws the model init and the
synthetic corpus, and nothing else.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.core import EngineConfig, OffloadPolicy, PolicyConfig, build_engine
from repro.data import SyntheticCorpus, TokenBatchLoader
from repro.device import GPU
from repro.io.tenancy import TenantRegistry
from repro.models import GPT, ModelConfig
from repro.optim import SGD
from repro.train import PlacementStrategy, StepResult, Trainer

MODEL = ModelConfig(
    arch="gpt", hidden=256, num_layers=4, vocab_size=1024, seq_len=128, head_dim=32
)
BATCH = 4
TOKENS_PER_STEP = BATCH * MODEL.seq_len
LEARNING_RATE = 5e-3

#: Alg. 1's default threshold (2**20 elements) offloads nothing at this
#: size.  The quickstart uses 1024 for H=128, seq 64; activations here
#: are 4x larger (H x seq), so the threshold scales by 4 too.
MIN_OFFLOAD_NUMEL = 4096

#: Warm-up steps run before timing.  Step 0 also runs the cache's
#: first-step profiling, so it costs about three steady steps; its cost
#: is charged to set-up time.
WARMUP_STEPS = 1

#: The pinned pool of ``train-tiered``: far below the ~36 MB of
#: activations per step, so nearly every tensor is demoted to the SSD.
TIERED_POOL_BYTES = 4 << 20
TIERED_CHUNK_BYTES = 1 << 20
#: Generous per-class deadlines: they start the watchdog without ever
#: abandoning a healthy request (a step takes well under a second).
TIERED_DEADLINES_S = {
    "BLOCKING_LOAD": 5.0,
    "PREFETCH_LOAD": 5.0,
    "DEMOTION": 5.0,
    "STORE": 5.0,
}
#: Device pace of ``train-ssd-paced``, per transfer (so per lane worker).
PACED_BYTES_PER_S = 50e6

WORKLOADS = ("train-keep", "train-ssd", "train-tiered", "train-ssd-paced")


def engine_config(workload: str, store_dir: Path) -> Optional[EngineConfig]:
    """The engine a workload trains with (``None`` for keep)."""
    policy = OffloadPolicy(PolicyConfig(min_offload_numel=MIN_OFFLOAD_NUMEL))
    if workload == "train-keep":
        return None
    if workload == "train-ssd":
        return EngineConfig(target="ssd", store_dir=store_dir, policy=policy)
    if workload == "train-ssd-paced":
        return EngineConfig(
            target="ssd",
            store_dir=store_dir,
            policy=policy,
            throttle_bytes_per_s=PACED_BYTES_PER_S,
        )
    if workload == "train-tiered":
        return EngineConfig(
            target="tiered",
            store_dir=store_dir,
            policy=policy,
            cpu_pool_bytes=TIERED_POOL_BYTES,
            chunk_bytes=TIERED_CHUNK_BYTES,
            io_backend="uring",
            tenants=TenantRegistry(),
            io_deadlines=dict(TIERED_DEADLINES_S),
            hedge_reads=True,
        )
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


class Session:
    """One model + engine + trainer, trained step by step.

    Construction builds everything and runs the warm-up steps;
    ``setup_s`` is the wall time that took.  ``losses`` holds every
    step's loss, warm-up included, so two sessions of one seed compare
    step for step.
    """

    def __init__(self, workload: str, seed: int, store_dir: Path) -> None:
        begin = time.perf_counter()
        self.workload = workload
        self.store_dir = store_dir
        self.gpu = GPU()
        model = GPT(MODEL, rng=np.random.default_rng(2 * seed)).to(self.gpu)
        self.optimizer = SGD(model.parameters(), lr=LEARNING_RATE)
        config = engine_config(workload, store_dir)
        self.engine = None
        self.cache = None
        if config is not None:
            store_dir.mkdir(parents=True, exist_ok=True)
            self.engine = build_engine(config)
            self.cache = self.engine.cache()
        self.scheduler = self.cache.scheduler if self.cache is not None else None
        self.trainer = Trainer(
            model,
            self.optimizer,
            self.gpu,
            strategy=(
                PlacementStrategy.OFFLOAD if self.cache else PlacementStrategy.KEEP
            ),
            cache=self.cache,
        )
        self.loader = TokenBatchLoader(
            SyntheticCorpus(vocab_size=MODEL.vocab_size, seed=2 * seed + 1),
            batch_size=BATCH,
            seq_len=MODEL.seq_len,
            device=self.gpu,
        )
        self.losses: List[float] = []
        self._closed = False
        try:
            for _ in range(WARMUP_STEPS):
                self.step()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - begin

    def next_batch(self):
        return self.loader.next_batch()

    def train(self, batch) -> StepResult:
        """One closed-loop training step on ``batch``."""
        result = self.trainer.train_step([batch])
        self.losses.append(result.loss)
        return result

    def step(self) -> StepResult:
        return self.train(self.next_batch())

    def close(self) -> None:
        """Shut the trainer and the engine down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.trainer.close()
        if self.engine is not None:
            self.engine.shutdown()

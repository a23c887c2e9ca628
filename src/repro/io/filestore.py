"""File-backed tensor persistence (the functional-mode "SSD").

Writes tensor bytes to files under a directory (one file per tensor
identifier, like the paper's ``/mnt/md1/t1.pt`` in Fig. 4) and reads them
back.  Optional throttling emulates a bandwidth-limited device so tests can
exercise stalls, backpressure, and forwarding races; writes/reads are also
recorded against an optional :class:`~repro.device.ssd.RAID0Array` for wear
accounting.

Every file carries a **checksum frame** so silent corruption surfaces as
a typed :class:`~repro.io.errors.IntegrityError` instead of wrong
numerics::

    ┌───────┬────────────┬───────┬───────────────────┐
    │ magic │ payload len│ crc32 │      payload      │
    │ 4 B   │ 8 B (LE)   │ 4 B   │ raw tensor bytes  │
    └───────┴────────────┴───────┴───────────────────┘

``read`` verifies the magic, the length (catches short/torn writes) and
the crc32 of the payload (catches bit-rot) before any bytes reach the
caller.  An ``IntegrityError`` is classified retryable
(:func:`~repro.io.errors.is_retryable`): a transient read-path flip
heals on re-read; corruption at rest exhausts the retry budget and
surfaces.  All byte accounting (stats, throttle, wear model) stays on
the payload — the 16-byte frame is bookkeeping, not traffic.

**One write body, one read body.**  ``write`` moves the whole frame —
16-byte header plus the tensor's contiguous ``memoryview`` — with one
``pwritev`` (no ``tobytes()`` temporary, no header+payload
concatenation; crc32 computed over the view), so the file is
bit-identical to :func:`frame_payload`.  ``read`` scatters one
``preadv`` into the header, the destination array and a one-byte probe
(one disk-to-array transfer; the probe replaces an ``fstat`` torn-write
check).  The only branch is where the descriptor comes from: the lane's
:class:`~repro.io.aio.FDTable` when a backend installed an
:class:`~repro.io.aio.IOContext` (so a read after a write on the same
lane skips the ``open``/``close`` pair), or a transient ``open``/
``close`` for callers outside a lane.  Under a context the write also
honours ``O_DIRECT`` descriptors (staged aligned write) and GDS-sim
bounce routing (registered storages skip the host staging copy).
:class:`~repro.io.buffers.CopyCounter` telemetry (``copy_stats``) and
the per-store ``write_syscalls``/``read_syscalls`` counters make copies
and kernel round-trips printed numbers.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from repro.device.ssd import RAID0Array, SSD
from repro.io.aio import (
    IOContext,
    count_syscalls,
    current_io_context,
    preadv_full,
    pwritev_full,
    read_descriptor,
    syscall_tape,
    write_descriptor,
)
from repro.io.buffers import DIRECT_ALIGNMENT, CopyCounter
from repro.io.errors import IntegrityError

#: Checksum-frame header: magic, payload length (LE u64), crc32 (LE u32).
FRAME_MAGIC = b"RPRO"
_FRAME_HEADER = struct.Struct("<4sQI")
FRAME_HEADER_BYTES = _FRAME_HEADER.size


def frame_payload(payload: bytes) -> bytes:
    """Prepend the checksum frame to raw tensor bytes."""
    return _FRAME_HEADER.pack(FRAME_MAGIC, len(payload), zlib.crc32(payload)) + payload


def contiguous_view(data: np.ndarray) -> Tuple[np.ndarray, bool]:
    """C-contiguous form of ``data`` plus whether materializing it copied."""
    contiguous = np.ascontiguousarray(data)
    return contiguous, contiguous is not data


def parse_frame_header(header: bytes, label: str) -> Tuple[int, int]:
    """Validate a frame header prefix; returns ``(payload_len, crc32)``.

    The single source of truth for the fixed 16-byte header, so a
    frame-format change has one site.  Raises :class:`IntegrityError` on
    a short header or bad magic.
    """
    if len(header) < FRAME_HEADER_BYTES:
        raise IntegrityError(
            f"torn write: {label} holds {len(header)} bytes, shorter than the frame header"
        )
    magic, length, crc = _FRAME_HEADER.unpack_from(header)
    if magic != FRAME_MAGIC:
        raise IntegrityError(f"corrupt frame header for {label}: bad magic {magic!r}")
    return length, crc


class TensorFileStore:
    """Stores numpy arrays as raw files, one per tensor id.

    Args:
        root: directory for tensor files (created if missing).
        throttle_bytes_per_s: if set, sleep so that transfers do not exceed
            this bandwidth — used to emulate slow SSDs in tests.
        array: optional SSD/RAID0 model charged with the traffic.
    """

    def __init__(
        self,
        root: Union[str, Path],
        throttle_bytes_per_s: Optional[float] = None,
        array: Optional[Union[SSD, RAID0Array]] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if throttle_bytes_per_s is not None and throttle_bytes_per_s <= 0:
            raise ValueError(f"throttle must be positive: {throttle_bytes_per_s}")
        self.throttle_bytes_per_s = throttle_bytes_per_s
        self.array = array
        self.copy_stats = CopyCounter()
        #: The FD table of the last lane backend that drove this store
        #: (self-attached by ``write``/``read``) — ``delete``/
        #: ``clear`` invalidate its cached descriptors so a reopened
        #: path never resurrects stale bytes.
        self.fd_table = None
        self._lock = threading.Lock()
        self._bytes_written = 0
        self._bytes_read = 0
        self._write_count = 0
        self._read_count = 0
        self._write_syscalls = 0
        self._read_syscalls = 0

    # ------------------------------------------------------------------ stats
    @property
    def bytes_written(self) -> int:
        with self._lock:
            return self._bytes_written

    @property
    def bytes_read(self) -> int:
        with self._lock:
            return self._bytes_read

    @property
    def write_count(self) -> int:
        with self._lock:
            return self._write_count

    @property
    def read_count(self) -> int:
        with self._lock:
            return self._read_count

    @property
    def write_syscalls(self) -> int:
        """Kernel round-trips spent writing (open/pwritev/close/ftruncate)."""
        with self._lock:
            return self._write_syscalls

    @property
    def read_syscalls(self) -> int:
        """Kernel round-trips spent reading (open/preadv/close)."""
        with self._lock:
            return self._read_syscalls

    def reset_stats(self) -> None:
        with self._lock:
            self._bytes_written = 0
            self._bytes_read = 0
            self._write_count = 0
            self._read_count = 0
            self._write_syscalls = 0
            self._read_syscalls = 0

    # ------------------------------------------------------------------- I/O
    def path_for(self, tensor_id: str) -> Path:
        return self.root / f"{tensor_id}.bin"

    def _throttle(self, nbytes: int, start: float) -> None:
        if self.throttle_bytes_per_s is None:
            return
        required = nbytes / self.throttle_bytes_per_s
        elapsed = time.monotonic() - start
        if elapsed < required:
            time.sleep(required - elapsed)

    def write(self, tensor_id: str, data: np.ndarray) -> Path:
        """Persist ``data``; returns the file path.

        One ``pwritev`` carries the 16-byte header and the tensor's
        contiguous view (crc32 computed over the same view; no
        ``tobytes()`` temporary, no header+payload concatenation), so
        the file is bit-identical to ``frame_payload(data.tobytes())``.
        The descriptor comes from the lane's FD table under an
        :class:`~repro.io.aio.IOContext` (a reused one is
        ``ftruncate``\\ d so no stale tail survives), else from a
        transient open.  A GDS-sim context routes by registration:
        registered source arrays go straight to disk (the direct lane),
        unregistered ones are staged through a host bounce lease first;
        an ``O_DIRECT`` descriptor takes the aligned staged write.

        Contract: ``data`` must not mutate during the call.  The zero-copy
        path reads the source twice (crc pass, write pass) — a concurrent
        mutation would frame a checksum that can never match the payload,
        i.e. a file that is unreadable rather than merely stale.  The
        engine honors this by construction: activations are immutable
        once packed, and mutable buffers (weights) never reach a store.
        """
        start = time.monotonic()
        path = self.path_for(tensor_id)
        contiguous, copied = contiguous_view(data)
        nbytes = contiguous.nbytes
        if copied:
            self.copy_stats.count_copy(nbytes)
        ctx = current_io_context()
        if ctx is not None:
            self.fd_table = ctx.fds
        payload = memoryview(contiguous.reshape(-1)).cast("B")
        lease = None
        if ctx is not None and ctx.gds is not None:
            if ctx.gds.is_array_registered(data):
                ctx.note_bounce(skipped=True)
            elif ctx.arena is not None:
                lease = ctx.arena.lease(nbytes)
                staged = lease.view((nbytes,), np.uint8)
                staged[:] = np.frombuffer(payload, dtype=np.uint8)
                self.copy_stats.count_copy(nbytes)
                ctx.note_bounce(skipped=False)
                payload = memoryview(staged)
        tape = syscall_tape()
        try:
            with tape, write_descriptor(str(path), ctx) as (fd, direct, cached):
                header = _FRAME_HEADER.pack(FRAME_MAGIC, nbytes, zlib.crc32(payload))
                total = FRAME_HEADER_BYTES + nbytes
                if not (direct and self._pwrite_direct(fd, header, payload, total, ctx)):
                    if direct:
                        # O_DIRECT open succeeded but the write path
                        # refused (or no staging arena): demote this
                        # path's descriptor to buffered and carry on.
                        fd = ctx.fds.acquire_read(str(path))
                        cached = True
                    pwritev_full(fd, [header, payload])
                    if cached:
                        # A fresh descriptor opened with O_TRUNC; a
                        # reused one must drop any longer stale frame.
                        os.ftruncate(fd, total)
                        count_syscalls(1)
        finally:
            if lease is not None:
                lease.release()
        self._throttle(nbytes, start)
        with self._lock:
            self._bytes_written += nbytes
            self._write_count += 1
            self._write_syscalls += tape.count
        if self.array is not None:
            self.array.record_write(nbytes)
        return path

    def _pwrite_direct(
        self, fd: int, header: bytes, payload: memoryview, total: int, ctx: IOContext
    ) -> bool:
        """``O_DIRECT`` write: stage the frame into an aligned arena
        lease, zero-pad to the alignment unit, ``pwrite`` the padded
        block, then ``ftruncate`` to the true frame length — the on-disk
        bytes stay bit-identical to the buffered path.  Returns False to
        demote (no staging arena, or the device refused the write).
        """
        if ctx.arena is None:
            return False
        padded = -(-total // DIRECT_ALIGNMENT) * DIRECT_ALIGNMENT
        lease = ctx.arena.lease(padded, aligned=True)
        try:
            buf = lease.view((padded,), np.uint8)
            buf[:FRAME_HEADER_BYTES] = np.frombuffer(header, dtype=np.uint8)
            if total > FRAME_HEADER_BYTES:
                buf[FRAME_HEADER_BYTES:total] = np.frombuffer(payload, dtype=np.uint8)
            buf[total:] = 0
            # The aligned staging copy is the O_DIRECT tax; counted so
            # copy telemetry never under-reports.
            self.copy_stats.count_copy(total - FRAME_HEADER_BYTES)
            mv = memoryview(buf)
            offset = 0
            while offset < padded:
                try:
                    written = os.pwrite(fd, mv[offset:], offset)
                except OSError:
                    if offset:
                        raise  # partial direct write: surface, don't demote
                    ctx.note_direct_fallback()
                    return False
                count_syscalls(1)
                if written <= 0:
                    raise OSError(f"pwrite made no progress at offset {offset}")
                offset += written
            os.ftruncate(fd, total)
            count_syscalls(1)
            return True
        finally:
            lease.release()

    def read(self, tensor_id: str, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """Read a tensor back as a fresh array of ``shape``/``dtype``.

        One ``preadv`` scatter fills the header, the destination array
        and a one-byte probe: one disk-to-array transfer, and the only
        allocation is the returned array itself — the ownership copy the
        GPU-reinstate boundary demands.  The descriptor is the lane's
        cached one under an :class:`~repro.io.aio.IOContext`, else a
        transient open.

        Validation happens before the payload is trusted: overshooting
        into the probe means the file holds more than the frame claims,
        a shortfall means a torn write (both retryable
        :class:`IntegrityError`), a frame that is whole but sized for a
        different tensor is the caller's shape/dtype bug (non-retryable
        ``ValueError``), and the crc32 catches bit-rot.
        """
        start = time.monotonic()
        path = self.path_for(tensor_id)
        ctx = current_io_context()
        if ctx is not None:
            self.fd_table = ctx.fds
        dtype = np.dtype(dtype)
        numel = int(np.prod(shape, dtype=np.int64))
        expected = numel * dtype.itemsize
        label = f"tensor {tensor_id!r} at {path}"
        flat = np.empty(numel, dtype)
        header = bytearray(FRAME_HEADER_BYTES)
        probe = bytearray(1)
        tape = syscall_tape()
        with tape:
            try:
                with read_descriptor(str(path), ctx) as fd:
                    got = preadv_full(fd, [header, memoryview(flat), probe])
            except FileNotFoundError:
                raise FileNotFoundError(f"no offloaded tensor at {path}") from None
        length, crc = parse_frame_header(
            bytes(header[: min(got, FRAME_HEADER_BYTES)]), label
        )
        payload_got = got - FRAME_HEADER_BYTES
        if length == expected:
            if payload_got != length:
                found = payload_got if payload_got < length else f"over {length}"
                raise IntegrityError(
                    f"torn write: {label} frames {length} payload bytes, found {found}"
                )
        elif (length < expected and payload_got == length) or (
            length > expected and payload_got == expected + 1
        ):
            # Header and file agree with each other but not with the
            # caller: a deterministic shape/dtype bug — fail fast
            # (ValueError is non-retryable).
            raise ValueError(
                f"{label} holds {length} payload bytes, caller expected {expected}"
            )
        else:
            raise IntegrityError(
                f"torn write: {label} frames {length} payload bytes, "
                f"found {max(0, payload_got)}"
            )
        if zlib.crc32(memoryview(flat)) != crc:
            raise IntegrityError(f"checksum mismatch for {label}: bit-rot or torn write")
        data = flat.reshape(shape)
        self.copy_stats.count_copy(data.nbytes)
        self._throttle(data.nbytes, start)
        with self._lock:
            self._bytes_read += data.nbytes
            self._read_count += 1
            self._read_syscalls += tape.count
        if self.array is not None:
            self.array.record_read(data.nbytes)
        return data

    def delete(self, tensor_id: str) -> None:
        """Best-effort removal of an offloaded tensor file."""
        path = self.path_for(tensor_id)
        table = self.fd_table
        if table is not None:
            table.invalidate(str(path))
        try:
            path.unlink()
        except FileNotFoundError:
            pass

    def clear(self) -> None:
        """Remove every tensor file (used between steps/tests)."""
        table = self.fd_table
        for path in self.root.glob("*.bin"):
            if table is not None:
                table.invalidate(str(path))
            try:
                path.unlink()
            except FileNotFoundError:
                pass

"""The async zero-copy data plane: pooled delivery buffers + event loop.

Delivery is a first-class, accounted stage (the QuickVideo-style overlap
of decode → prefetch → delivery):

* :class:`BufferPool` — recycled delivery buffers.  Assembly's fused
  epilogue writes the final batch bytes straight into a pooled buffer
  (:class:`BatchLease`); that one lease travels, one owner at a time,
  through the prefetcher's ready queue, across the socket, or into the
  trainer's hands (``source.get_batch_lease(...)`` is the in-process
  API: ~0 bytes copied per batch), and the buffer returns to the pool
  when its owner releases it (client ACK, disconnect, or an explicit
  ``release``).  ``detach`` removes a buffer from the pool for good —
  how ``get_batch`` hands the trainer an owned array with zero copies.
  Whoever must learn that the buffer left the lease (the coordinator's
  admission ticket) hangs one ``on_release`` hook on it.  The lease
  also books its own deliveries (a socket send, a POSIX copy) to the
  engine that assembled it.
* :class:`AsyncBatchServer` — an asyncio front end serving ``get_batch``
  to many concurrent trainer connections over a Unix-domain or TCP
  socket, speaking :mod:`repro.core.wire`.  A batch that is *ready* is
  leased inline on the loop (``wait=False``: see :class:`NotReady`);
  only a miss pays the hop to the executor.  The frame goes out as one
  ``sendmsg`` of header+prefix and a ``memoryview`` of the leased
  buffer — no intermediate ``bytes``, no pickling — and the lease is
  held until the client ACKs (or sends its next request, or
  disconnects), so a buffer is never recycled with bytes in flight.
* :class:`BatchSocketClient` — the synchronous remote client (receives
  into one buffer, decodes the array as a zero-copy ``np.frombuffer``
  view, checks the reply answers the request).

Backpressure rules: the pool never blocks ``acquire`` (assembly pace is
bounded upstream by the prefetcher's depth and the engine's
memory-pressure probe, which both count leased bytes), the server
pipelines at most one outstanding batch per connection, and queued
leases count toward engine memory accounting exactly as owned arrays
did.  Every frame either side reads is bounded by
``wire.DEFAULT_MAX_PAYLOAD``.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import os
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

import numpy as np

import repro.core.wire as wire
from repro.analysis.locks import make_lock, sanitizers_enabled
from repro.analysis.sanitizers import EventLoopStallMonitor, buffer_sanitizer
from repro.faults.errors import TransientDecodeError
from repro.storage.objectstore import TransientStorageError

Address = Union[str, Tuple[str, int]]

# Failures a client can retry: a fresh attempt re-runs the engine's own
# bounded retry loop against a transient fault.  Anything else is a hard
# bug and must surface as such.
_RETRYABLE = (TransientStorageError, TransientDecodeError)

# Recycled buffers a pool keeps per (shape, dtype).
MAX_FREE_PER_SHAPE = 8


class DataPlaneError(RuntimeError):
    """Misuse of the data plane (lease lifecycle, bad requests)."""


class BatchServerError(DataPlaneError):
    """A wire-level ERR frame, surfaced client-side.

    ``retryable`` mirrors the server's classification: transient
    storage/decode faults that a fresh ``get_batch`` may outlive.
    """

    def __init__(self, message: str, retryable: bool = False):
        super().__init__(message)
        self.retryable = retryable


class NotReady(Exception):
    """``get_batch_lease(..., wait=False)``: serving this batch now would
    wait (a contended lock, a window roll, admission) or do real work.
    Raised before anything has changed, so asking again with
    ``wait=True`` is exactly the call that was never tried."""


# -- buffer pool -------------------------------------------------------------


class BatchLease:
    """One delivery buffer checked out of a :class:`BufferPool`.

    Single-owner: whoever holds the lease ends it once, by
    :meth:`release` (the buffer re-enters the pool's free list) or by
    :meth:`detach` (the buffer leaves the pool for good: the owned-array
    path).  Both are idempotent and thread-safe; a release after a
    detach is a no-op.

    ``charge``, stamped by the engine that assembled the batch, is that
    engine's delivery ledger: :meth:`book_send` and :meth:`book_copy`
    charge it one delivery of these bytes (a lease from a bare pool
    books nothing).  ``on_release``, when set, is called exactly once,
    outside the pool lock, when the buffer leaves the lease.
    """

    __slots__ = ("_pool", "array", "_held", "_detached", "on_release", "charge")

    def __init__(self, pool: "BufferPool", array: np.ndarray):
        self._pool = pool
        self.array = array
        self._held = True
        self._detached = False
        self.on_release: Optional[Callable[[], None]] = None
        self.charge: Optional[Callable[[int, bool], None]] = None

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)

    def book_send(self) -> None:
        """Charge one socket write of this buffer to its engine."""
        if self.charge is not None:
            self.charge(self.nbytes, True)

    def book_copy(self) -> None:
        """Charge one non-socket trainer-boundary copy (a POSIX blob
        encode) of this buffer to its engine."""
        if self.charge is not None:
            self.charge(self.nbytes, False)

    def release(self) -> None:
        """Return the buffer to the pool (idempotent; no-op after detach)."""
        pool = self._pool
        with pool._lock:
            if not self._held:
                return
            self._held = False
        pool._reclaim(self.array)
        self._left()

    def detach(self) -> np.ndarray:
        """Take the buffer out of the pool for good and return it."""
        pool = self._pool
        with pool._lock:
            if self._detached:
                return self.array
            if not self._held:
                raise DataPlaneError("detach() after the lease was released")
            self._held = False
            self._detached = True
            pool._outstanding -= 1
            pool._detached_count += 1
        self._left()
        return self.array

    def _left(self) -> None:
        # Reached once per lease: by the release or the detach that
        # ended the hold, never both.
        if self.on_release is not None:
            self.on_release()

    def __enter__(self) -> "BatchLease":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


Served = Tuple[BatchLease, Dict[str, Any]]  # what ``get_batch_lease`` returns


class BufferPool:
    """Shape/dtype-keyed free lists of delivery buffers.

    ``acquire`` never blocks and never zeroes: the caller overwrites
    every byte (assembly writes the full batch).  Reuse is bounded per
    shape so a burst of odd shapes cannot pin memory forever.  All
    ledger accounting stays *logical* (the engine charges
    ``bytes_allocated`` per batch exactly as before pooling), so
    prefetch-on and prefetch-off runs report identical traffic ledgers;
    physical allocation vs. reuse lives in :meth:`report` instead.
    """

    def __init__(self, name: str = "delivery"):
        self.name = name
        self._lock = make_lock(f"dataplane.pool.{name}")
        self._free: Dict[Tuple[Tuple[int, ...], str], List[np.ndarray]] = {}
        self._outstanding = 0
        self._issued = 0
        self._allocations = 0
        self._reuses = 0
        self._returned = 0
        self._detached_count = 0

    def acquire(self, shape: Tuple[int, ...], dtype: Any) -> BatchLease:
        """Lease a buffer of ``shape``/``dtype`` (recycled or fresh)."""
        key = (tuple(int(d) for d in shape), np.dtype(dtype).str)
        with self._lock:
            stack = self._free.get(key)
            array = stack.pop() if stack else None
            self._issued += 1
            self._outstanding += 1
            if array is None:
                self._allocations += 1
            else:
                self._reuses += 1
        if array is None:
            array = np.empty(key[0], dtype=np.dtype(dtype))
        return BatchLease(self, array)

    def _reclaim(self, array: np.ndarray) -> None:
        sanitizer = buffer_sanitizer()
        if sanitizer is not None:
            # The buffer is about to be legitimately rewritten by its
            # next lease; drop any write-after-share sentinels guarding
            # batch slots inside it so reuse is not a false positive.
            sanitizer.release_region(array)
        key = (array.shape, array.dtype.str)
        with self._lock:
            self._outstanding -= 1
            self._returned += 1
            stack = self._free.setdefault(key, [])
            if len(stack) < MAX_FREE_PER_SHAPE:
                stack.append(array)

    @property
    def leases_outstanding(self) -> int:
        with self._lock:
            return self._outstanding

    def report(self) -> Dict[str, int]:
        with self._lock:
            free = sum(len(stack) for stack in self._free.values())
            return {
                "leases_issued": self._issued,
                "leases_outstanding": self._outstanding,
                "buffers_allocated": self._allocations,
                "buffers_reused": self._reuses,
                "buffers_returned": self._returned,
                "buffers_detached": self._detached_count,
                "free_buffers": free,
            }

    def note_leaks(self, held: int = 0) -> None:
        """Report still-outstanding leases to the leak sanitizer, beyond
        the ``held`` ones the caller can account for."""
        sanitizer = buffer_sanitizer()
        if sanitizer is None:
            return
        with self._lock:
            outstanding = self._outstanding - held
        if outstanding > 0:
            sanitizer.note_leak(
                f"buffer-pool leak: {outstanding} delivery lease(s) from "
                f"pool {self.name!r} never released or detached"
            )


# -- async server ------------------------------------------------------------


class AsyncBatchServer:
    """Event-loop front end serving ``get_batch`` over the wire protocol.

    One asyncio task per connection.  Per connection the protocol is::

        client HELLO  -> server HELLO          (version handshake)
        client GET_BATCH {task,epoch,iteration[,tenant]}
        server BATCH (header+meta naming the same key, leased buffer)
               | ERR {error,message,retryable}
        client ACK                             (server releases the lease)
        ...    PING/PONG, STATS any time

    A new GET_BATCH implicitly ACKs the previous batch; disconnect (or
    cancellation) releases whatever is pending.  ``source`` is any
    object whose ``get_batch_lease(task, epoch, iteration[, tenant=],
    wait=)`` returns ``(lease, metadata)`` and, asked with
    ``wait=False``, raises :class:`NotReady` rather than wait or work.
    Every GET_BATCH is first asked that way *on the loop*; only after a
    ``NotReady`` does the same call, without ``wait``, go to the bounded
    executor — so the loop itself never blocks, and ``report()`` tells
    the two ways apart (``served_inline`` / ``served_executor``).
    Each send is booked on the lease it writes (:meth:`BatchLease.book_send`).
    """

    def __init__(
        self,
        source: Any,
        unix_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        executor_workers: int = 8,
    ):
        if not hasattr(source, "get_batch_lease"):
            raise TypeError(f"{type(source).__name__} does not expose get_batch_lease")
        self._source = source
        self._unix_path = unix_path
        self._host = host
        self._port = int(port)
        if executor_workers < 1:
            raise ValueError(f"executor_workers must be >= 1, got {executor_workers}")
        self._executor_workers = int(executor_workers)
        self._sock: Optional[socket.socket] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._accept_task: Optional[asyncio.Task] = None
        self._conn_tasks: Set["asyncio.Task[None]"] = set()
        self._bg_loop: Optional[asyncio.AbstractEventLoop] = None
        self._bg_thread: Optional[threading.Thread] = None
        self._stall_monitor: Optional[EventLoopStallMonitor] = None
        self.address: Optional[Address] = None
        self._stats_lock = make_lock("dataplane.server-stats")
        # ``served_inline`` / ``served_executor``: which way each lease
        # came (ready on the loop, or a miss through the executor).
        # ``executor_queue_depth``: engine calls submitted and not yet
        # completed; beyond the worker count, misses are queueing — the
        # first thing a shard coordinator saturates.
        self._counts = dict.fromkeys(
            ("connections", "sends", "bytes_sent", "errs_sent", "acks",
             "served_inline", "served_executor",
             "executor_queue_depth", "executor_queue_high_water"), 0)

    # -- lifecycle (in-loop) -------------------------------------------------
    async def start(self) -> Address:
        """Bind, listen, and start accepting on the running loop."""
        if self._sock is not None:
            assert self.address is not None
            return self.address
        loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self._executor_workers,
            thread_name_prefix="sand-dataplane",
        )
        if self._unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.bind(self._unix_path)
            self.address = self._unix_path
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self._host, self._port))
            self.address = sock.getsockname()
        sock.listen(128)
        sock.setblocking(False)
        self._sock = sock
        if sanitizers_enabled():
            self._stall_monitor = EventLoopStallMonitor(loop, label="AsyncBatchServer loop")
            self._stall_monitor.start()
        self._accept_task = loop.create_task(self._accept_loop())
        return self.address

    async def stop(self) -> None:
        """Stop accepting, cancel connections, release everything."""
        monitor, self._stall_monitor = self._stall_monitor, None
        if monitor is not None:
            monitor.stop()
        accept, self._accept_task = self._accept_task, None
        if accept is not None:
            accept.cancel()
            try:
                await accept
            except asyncio.CancelledError:
                pass
        tasks = list(self._conn_tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()
        # Shutdown path: every connection task is already cancelled, so
        # the loop is serving no one while these two teardown calls
        # block it.
        if self._unix_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self._unix_path)  # sandlint: ignore[blocking-in-async]
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)  # sandlint: ignore[blocking-in-async]

    # -- lifecycle (background thread, for sync callers) ----------------------
    def start_background(self) -> Address:
        """Run the server's event loop on a daemon thread; returns the
        bound address once listening (the sync-test / CLI entry point)."""
        if self._bg_thread is not None:
            assert self.address is not None
            return self.address
        ready = threading.Event()
        startup_error: List[BaseException] = []

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._bg_loop = loop
            try:
                try:
                    loop.run_until_complete(self.start())
                except BaseException as exc:  # surfaced to the caller
                    startup_error.append(exc)
                    return
                finally:
                    ready.set()
                loop.run_forever()
            finally:
                try:
                    loop.run_until_complete(self.stop())
                finally:
                    loop.close()
                    self._bg_loop = None

        thread = threading.Thread(target=_run, name="sand-dataplane-loop", daemon=True)
        self._bg_thread = thread
        thread.start()
        ready.wait(timeout=30)
        if startup_error:
            self._bg_thread = None
            thread.join(timeout=5)
            raise startup_error[0]
        assert self.address is not None
        return self.address

    def shutdown(self) -> None:
        """Stop a background server started with :meth:`start_background`."""
        loop = self._bg_loop
        thread, self._bg_thread = self._bg_thread, None
        if loop is None or thread is None:
            return
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)

    def __enter__(self) -> "AsyncBatchServer":
        self.start_background()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- stats ----------------------------------------------------------------
    def report(self) -> Dict[str, int]:
        with self._stats_lock:
            return {**self._counts, "executor_workers": self._executor_workers}

    # -- serving ---------------------------------------------------------------
    async def _accept_loop(self) -> None:
        assert self._sock is not None
        loop = asyncio.get_running_loop()
        while True:
            conn, _addr = await loop.sock_accept(self._sock)
            conn.setblocking(False)
            task = loop.create_task(self._serve_connection(conn))
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)

    async def _serve_connection(self, conn: socket.socket) -> None:
        loop = asyncio.get_running_loop()
        pending: Optional[BatchLease] = None
        sndbuf = 0  # the largest frame SO_SNDBUF was last sized for
        self._count(connections=1)
        try:
            ftype, payload = await self._read_frame(loop, conn)
            if ftype != wire.FrameType.HELLO:
                await self._send_err(
                    loop, conn, wire.WireError(f"expected HELLO, got {ftype.name}")
                )
                return
            await loop.sock_sendall(
                conn,
                wire.json_frame(
                    wire.FrameType.HELLO,
                    {"server": "sand-dataplane", "protocol": wire.PROTOCOL_VERSION},
                ),
            )
            while True:
                try:
                    ftype, payload = await self._read_frame(loop, conn)
                except wire.WireEOFError:
                    break
                if ftype == wire.FrameType.ACK:
                    if pending is not None:
                        pending.release()
                        pending = None
                        self._count(acks=1)
                elif ftype == wire.FrameType.PING:
                    await loop.sock_sendall(
                        conn, wire.control_frame(wire.FrameType.PONG, payload)
                    )
                elif ftype == wire.FrameType.STATS:
                    await loop.sock_sendall(
                        conn,
                        wire.json_frame(wire.FrameType.STATS, self._stats_payload()),
                    )
                elif ftype == wire.FrameType.GET_BATCH:
                    # A new request implicitly ACKs the previous batch.
                    if pending is not None:
                        pending.release()
                        pending = None
                    try:
                        request = wire.parse_json(payload)
                        lease, metadata = await self._get_lease(loop, request)
                    except Exception as exc:
                        await self._send_err(loop, conn, exc)
                        continue
                    pending = lease
                    # Counted before the write so a snapshot taken by a
                    # client that already received the batch can never
                    # run ahead of these counters.
                    self._count(sends=1, bytes_sent=lease.nbytes)
                    lease.book_send()
                    parts = wire.batch_frame_parts(metadata, lease.array)
                    sndbuf = await self._send_batch(loop, conn, parts, sndbuf)
                else:
                    await self._send_err(
                        loop, conn, wire.WireError(f"unexpected frame type {ftype.name}")
                    )
        except (wire.WireError, OSError):
            # Corrupt framing or a vanished peer: drop the connection;
            # the finally block returns any in-flight lease to the pool
            # (as it does when the task is cancelled).
            pass
        finally:
            if pending is not None:
                pending.release()
            conn.close()

    async def _get_lease(
        self, loop: asyncio.AbstractEventLoop, request: Dict[str, Any]
    ) -> Served:
        try:
            task = request["task"]
            epoch = int(request["epoch"])
            iteration = int(request["iteration"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataPlaneError(f"malformed GET_BATCH request: {exc}") from exc
        # Only multi-tenant sources (the coordinator) accept the keyword;
        # a plain engine rejects it loudly, not silently unaccounted.
        tenant = request.get("tenant")
        who = {} if tenant is None else {"tenant": str(tenant)}
        get = self._source.get_batch_lease
        try:
            # Inline, on the loop: a ready batch (bounded memcpy or a
            # queue pop, every contended lock a miss) never leaves it.
            served: Served = get(task, epoch, iteration, wait=False, **who)
        except NotReady:
            pass  # nothing has changed: the executor call is the first
        else:
            self._count(served_inline=1)
            return served
        assert self._executor is not None
        call = functools.partial(get, task, epoch, iteration, **who)
        self._count(served_executor=1, executor_queue_depth=1)
        future: "asyncio.Future[Served]" = loop.run_in_executor(self._executor, call)
        future.add_done_callback(self._note_exec_done)
        try:
            return await future
        except asyncio.CancelledError:
            # The engine call cannot be interrupted; make sure a lease
            # that lands after cancellation still returns to the pool.
            future.add_done_callback(_release_orphan)
            raise

    def _note_exec_done(self, _future: "asyncio.Future[Any]") -> None:
        self._count(executor_queue_depth=-1)

    def _count(self, **deltas: int) -> None:
        with self._stats_lock:
            counts = self._counts
            for name, delta in deltas.items():
                counts[name] += delta
            counts["executor_queue_high_water"] = max(
                counts["executor_queue_high_water"], counts["executor_queue_depth"]
            )

    async def _read_frame(
        self, loop: asyncio.AbstractEventLoop, conn: socket.socket
    ) -> Tuple[wire.FrameType, bytearray]:
        header = await self._recv_exact(loop, conn, wire.HEADER_SIZE)
        ftype, length = wire.unpack_header(header)
        return ftype, await self._recv_exact(loop, conn, length)

    @staticmethod
    async def _recv_exact(
        loop: asyncio.AbstractEventLoop, conn: socket.socket, n: int
    ) -> bytearray:
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            received = await loop.sock_recv_into(conn, view[got:])
            if received == 0:
                raise _eof("peer", got, n)
            got += received
        return buf

    async def _send_err(
        self, loop: asyncio.AbstractEventLoop, conn: socket.socket, exc: BaseException
    ) -> None:
        self._count(errs_sent=1)
        info = {
            "error": type(exc).__name__,
            "message": str(exc),
            "retryable": isinstance(exc, _RETRYABLE),
        }
        await loop.sock_sendall(conn, wire.json_frame(wire.FrameType.ERR, info))

    def _stats_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"server": self.report()}
        reporter = getattr(self._source, "dataplane_report", None)
        if reporter is not None:
            payload["source"] = reporter()
        return payload

    @staticmethod
    async def _send_batch(
        loop: asyncio.AbstractEventLoop,
        conn: socket.socket,
        parts: List[wire.Payload],
        sndbuf: int,
    ) -> int:
        """Write one BATCH frame, in one go when the kernel takes it.

        A frame over the send buffer parks ``sock_sendall`` mid-batch
        and ping-pongs with the reader, so the buffer is grown to the
        frame being sent (once per larger size; the kernel caps it) and
        all parts go down in one ``sendmsg``; ``sock_sendall`` sends any
        rest.  Returns the frame size the buffer is now sized for.
        """
        total = sum(len(part) for part in parts)
        if total > sndbuf:
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, total)
            sndbuf = total
        try:
            sent = conn.sendmsg(parts)  # non-blocking socket: never waits
        except (BlockingIOError, InterruptedError):
            sent = 0
        for part in parts:
            if sent < len(part):
                await loop.sock_sendall(conn, memoryview(part)[sent:])
            sent = max(0, sent - len(part))
        return sndbuf


def _eof(who: str, got: int, n: int) -> wire.WireEOFError:
    where = f" mid-frame ({got}/{n} bytes)" if got else ""
    return wire.WireEOFError(f"{who} closed the connection{where}")


def _release_orphan(future: "asyncio.Future[Served]") -> None:
    if future.cancelled() or future.exception() is not None:
        return
    lease, _metadata = future.result()
    lease.release()


# -- synchronous remote client -----------------------------------------------


class BatchSocketClient:
    """Blocking trainer-side client for :class:`AsyncBatchServer`.

    ``address`` is a Unix socket path (str) or a ``(host, port)`` pair.
    The constructor performs the HELLO handshake; :meth:`get_batch`
    receives the whole BATCH frame into one buffer and returns the array
    as a zero-copy view of it, then ACKs so the server can recycle its
    delivery buffer.
    """

    def __init__(self, address: Address, timeout: float = 60.0):
        if isinstance(address, str):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(address)
        else:
            host, port = address
            sock = socket.create_connection((host, int(port)), timeout=timeout)
        self._sock = sock
        self._send(
            wire.json_frame(
                wire.FrameType.HELLO,
                {"client": "sand-trainer", "protocol": wire.PROTOCOL_VERSION},
            )
        )
        ftype, payload = self._read_frame()
        if ftype != wire.FrameType.HELLO:
            self.close()
            raise wire.WireError(f"expected HELLO from server, got {ftype.name}")
        self.server_info: Dict[str, Any] = wire.parse_json(payload)

    # -- requests --------------------------------------------------------------
    def get_batch(
        self,
        task: str,
        epoch: int,
        iteration: int,
        tenant: Optional[str] = None,
    ) -> Tuple[np.ndarray, Dict[str, Any]]:
        key = (task, int(epoch), int(iteration))
        request: Dict[str, Any] = {"task": task, "epoch": key[1], "iteration": key[2]}
        if tenant is not None:
            request["tenant"] = str(tenant)
        try:
            self._send(wire.json_frame(wire.FrameType.GET_BATCH, request))
            ftype, payload = self._read_frame()
            if ftype == wire.FrameType.ERR:
                info = wire.parse_json(payload)
                raise BatchServerError(
                    f"{info.get('error', 'Error')}: {info.get('message', '')}",
                    retryable=bool(info.get("retryable")),
                )
            if ftype != wire.FrameType.BATCH:
                raise wire.WireError(f"expected BATCH or ERR, got {ftype.name}")
            metadata, array = wire.decode_batch_payload(payload)
            answers = tuple(metadata.get(name) for name in ("task", "epoch", "iteration"))
            if answers != key:
                raise wire.WireError(f"BATCH answers {answers}, not the request {key}")
            # The server holds the delivery lease until this ACK lands.
            self._send(wire.control_frame(wire.FrameType.ACK))
        except (OSError, wire.WireError):
            # Bytes of some reply may sit unread, for the next call to
            # decode as its own: closed is unusable, which beats wrong.
            self.close()
            raise
        return array, metadata

    def get_batch_with_retry(
        self,
        task: str,
        epoch: int,
        iteration: int,
        retries: int = 3,
        tenant: Optional[str] = None,
    ) -> Tuple[np.ndarray, Dict[str, Any]]:
        """``get_batch`` retrying server-declared-transient failures."""
        for _ in range(retries):
            try:
                return self.get_batch(task, epoch, iteration, tenant=tenant)
            except BatchServerError as exc:
                if not exc.retryable:
                    raise
        return self.get_batch(task, epoch, iteration, tenant=tenant)

    def ping(self) -> bool:
        self._send(wire.control_frame(wire.FrameType.PING, b"ping"))
        ftype, payload = self._read_frame()
        return ftype == wire.FrameType.PONG

    def stats(self) -> Dict[str, Any]:
        self._send(wire.control_frame(wire.FrameType.STATS))
        ftype, payload = self._read_frame()
        if ftype != wire.FrameType.STATS:
            raise wire.WireError(f"expected STATS, got {ftype.name}")
        stats: Dict[str, Any] = wire.parse_json(payload)
        return stats

    # -- plumbing --------------------------------------------------------------
    def _send(self, frame: bytes) -> None:
        self._sock.sendall(frame)

    def _read_frame(self) -> Tuple[wire.FrameType, bytearray]:
        header = self._recv_exact(wire.HEADER_SIZE)
        ftype, length = wire.unpack_header(header)
        return ftype, self._recv_exact(length)

    def _recv_exact(self, n: int) -> bytearray:
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            received = self._sock.recv_into(view[got:])
            if received == 0:
                raise _eof("server", got, n)
            got += received
        return buf

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - defensive
            pass

    def __enter__(self) -> "BatchSocketClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

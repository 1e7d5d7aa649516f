"""Out-of-process execution of custom augmentation ops (paper S5.5).

    "SAND addresses this by offering an RPC service mechanism, enabling
    custom functions to be executed in separate processes."

:class:`RpcAugmentService` owns one worker process, started with
:mod:`multiprocessing`'s ``spawn`` context, and talks to it over a
``Pipe``: each request is ``(op_path, config, clip, params)``, each reply
``(True, result)`` or ``(False, "Type: message")``.  :class:`RemoteOp` is
an :class:`~repro.augment.ops.AugmentOp` whose :meth:`apply` delegates to
the service, so external-library transforms plug into pipelines without
loading their dependencies into the SAND service process.

The worker imports ops by dotted path (``package.module:ClassName``).
A spawned child starts with the parent's ``sys.path`` and re-imports the
parent's main script as ``__main__`` (so that script must guard its
entry point with ``if __name__ == "__main__"``), which makes any op the
parent can import importable in the worker too — including one defined
in the main script itself, named ``f"{__name__}:ClassName"``.
"""

from __future__ import annotations

import importlib
import multiprocessing
import pickle
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.analysis.locks import make_lock
from repro.augment.ops import AugmentOp, Params


class RpcError(RuntimeError):
    """Raised when the worker fails or returns an error response."""


def _load_op(dotted_path: str, config: Dict[str, Any]) -> AugmentOp:
    module_name, _, class_name = dotted_path.partition(":")
    if not module_name or not class_name:
        raise RpcError(f"op path must be 'module:Class', got {dotted_path!r}")
    module = importlib.import_module(module_name)
    op_cls = getattr(module, class_name)
    if not issubclass(op_cls, AugmentOp):
        raise RpcError(f"{dotted_path} is not an AugmentOp subclass")
    return op_cls(config)


def _serve(conn: Connection) -> None:
    """The worker loop: apply requests until the parent closes its end."""
    ops: Dict[Tuple[str, bytes], AugmentOp] = {}
    while True:
        try:
            op_path, config, clip, params = conn.recv()
        except EOFError:
            return
        try:
            key = (op_path, pickle.dumps(config))
            if key not in ops:
                ops[key] = _load_op(op_path, config)
            conn.send((True, ops[key].apply(clip, params)))
        except Exception as exc:  # noqa: BLE001 - sent back to the parent
            conn.send((False, f"{type(exc).__name__}: {exc}"))


class RpcAugmentService:
    """Client side: owns the worker process and serializes calls."""

    def __init__(self) -> None:
        self._proc: Optional[BaseProcess] = None
        self._conn: Optional[Connection] = None
        self._lock = make_lock("augment-rpc")

    def start(self) -> None:
        with self._lock:
            self._start()

    def _start(self) -> Connection:
        if self._conn is None:
            ctx = multiprocessing.get_context("spawn")
            conn, child = ctx.Pipe()
            # Daemonic, so interpreter exit ends it: multiprocessing joins the
            # other children at exit, and the worker of a service never
            # stopped (RemoteOp's shared one) would wait for requests forever.
            proc = ctx.Process(
                target=_serve, args=(child,), name="sand-augment-rpc", daemon=True
            )
            try:
                proc.start()
            finally:
                child.close()  # only the worker holds its end: its exit is our EOF
            self._proc, self._conn = proc, conn
        return self._conn

    def apply(
        self, op_path: str, config: Dict[str, Any], clip: np.ndarray, params: Params
    ) -> np.ndarray:
        with self._lock:
            conn = self._start()
            try:
                conn.send((op_path, config, clip, params))
                ok, result = conn.recv()
            except (EOFError, OSError) as exc:
                self._stop()
                raise RpcError(f"worker process died ({type(exc).__name__})") from exc
        if not ok:
            raise RpcError(result)
        return result

    def stop(self) -> None:
        with self._lock:
            self._stop()

    def _stop(self) -> None:
        proc, conn = self._proc, self._conn
        self._proc = self._conn = None
        if proc is None or conn is None:
            return
        conn.close()  # the worker sees EOF and returns
        proc.join(timeout=5)
        proc.kill()  # a no-op unless the worker is still running
        proc.join()

    def __enter__(self) -> "RpcAugmentService":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


class RemoteOp(AugmentOp):
    """An op applied in the RPC worker instead of in-process.

    ``config`` must contain ``op_path`` (``module:Class``) plus the wrapped
    op's own configuration under ``op_config``.  Sampling stays local (it
    needs no external dependencies); only ``apply`` crosses the process
    boundary.
    """

    name = "remote"
    deterministic = False  # conservatively assume the wrapped op is stochastic

    _shared_service: Optional[RpcAugmentService] = None
    _shared_lock = make_lock("augment-rpc.shared")

    def validate_config(self) -> None:
        if "op_path" not in self.config:
            raise ValueError("remote op needs 'op_path' (module:Class)")

    @classmethod
    def service(cls) -> RpcAugmentService:
        with cls._shared_lock:
            if cls._shared_service is None:
                cls._shared_service = RpcAugmentService()
            return cls._shared_service

    def apply(self, clip: np.ndarray, params: Params) -> np.ndarray:
        op_config = dict(self.config.get("op_config") or {})
        return self.service().apply(self.config["op_path"], op_config, clip, params)

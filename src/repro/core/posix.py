"""The user-facing POSIX facade (paper Table 2, Fig 6).

Everything an application needs is four calls — ``open``, ``read``,
``getxattr``, ``close`` — against view paths.  :class:`SandClient` binds
those calls to a VFS with a SAND service mounted, and adds the two-line
convenience (`read_batch`) that decodes the batch blob into an array, so
a PyTorch-style ``__getitem__`` is genuinely under ten lines (Table 3).
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import TaskConfig
from repro.core.service import SandService
from repro.core.sharding import ShardCoordinator
from repro.core.views import BatchView
from repro.storage.blobs import decode_array
from repro.vfs.filesystem import VirtualFileSystem

DEFAULT_MOUNT = "/sand"


def mount_sand(
    service: Union[SandService, ShardCoordinator],
    vfs: Optional[VirtualFileSystem] = None,
    mount_point: str = DEFAULT_MOUNT,
) -> VirtualFileSystem:
    """Mount a SAND front end into a VFS (the FUSE-mount equivalent); a
    plain service is mounted as the front end over one shard."""
    if isinstance(service, SandService):
        service = ShardCoordinator([service])
    vfs = vfs or VirtualFileSystem()
    vfs.mount(mount_point, service)
    return vfs


class SandClient:
    """POSIX-call access to SAND views, plus array decoding helpers."""

    def __init__(self, vfs: VirtualFileSystem, mount_point: str = DEFAULT_MOUNT):
        self.vfs = vfs
        self.mount_point = mount_point.rstrip("/")

    @classmethod
    def create(
        cls,
        tasks: Sequence[TaskConfig],
        dataset,
        mount_point: str = DEFAULT_MOUNT,
        **service_kwargs,
    ) -> Tuple["SandClient", SandService]:
        """One-call setup: service + its front end's VFS mount + client."""
        service = SandService(tasks, dataset, **service_kwargs)
        vfs = mount_sand(service, mount_point=mount_point)
        return cls(vfs, mount_point), service

    # -- Table 2 calls ---------------------------------------------------------
    def open(self, view_path: str) -> int:
        return self.vfs.open(self.mount_point + view_path)

    def read(self, fd: int, size: int = -1) -> bytes:
        return self.vfs.read(fd, size)

    def getxattr(self, view_path: str, name: str) -> bytes:
        return self.vfs.getxattr(self.mount_point + view_path, name)

    def close(self, fd: int) -> None:
        self.vfs.close(fd)

    # -- conveniences --------------------------------------------------------------
    def read_batch(
        self, task: str, epoch: int, iteration: int
    ) -> Tuple[np.ndarray, Dict]:
        """The Fig 6 pattern: open/read/getxattr/close on a batch view."""
        path = BatchView(task, epoch, iteration).path()
        fd = self.open(path)
        try:
            batch = decode_array(self.read(fd))
        finally:
            self.close(fd)
        metadata = {
            "timestamps": json.loads(self.getxattr(path, "timestamps")),
            "labels": json.loads(self.getxattr(path, "labels")),
            "videos": json.loads(self.getxattr(path, "videos")),
        }
        return batch, metadata

    def read_array(self, view_path: str) -> np.ndarray:
        fd = self.open(view_path)
        try:
            return decode_array(self.read(fd))
        finally:
            self.close(fd)

    def begin_task(self, task: str) -> int:
        """Open the task control fd (signals task start)."""
        return self.open(f"/{task}/ctrl")

    def finish_task(self, ctrl_fd: int) -> None:
        """Close the control fd (signals task end)."""
        self.close(ctrl_fd)

"""Append-only packed blob segments: the small-object I/O fast path.

The per-object disk layout (blob + ``.key`` + ``.sum`` sidecars) costs
three file creations and four writes per object — ruinous for the tiny
frame/augmentation blobs that dominate SAND's materialized cache.  This
module packs sub-threshold blobs into append-only *segment files*
(WebDataset/Petastorm-style sharding, adapted to a mutable cache):

* one record per blob — ``MAGIC | key_len | data_len | crc32 | key |
  payload`` — self-describing, so the segment index rebuilds from a
  single sequential walk at scan time;
* appends are batched by a **write-behind flusher**: ``put`` stages the
  record in memory and returns immediately, a background thread (or the
  next inline flush) appends the whole batch in one filesystem write, so
  the materializer never blocks on per-object durability;
* reads are zero-copy: segments are ``mmap``-ed once and records are
  served as :class:`memoryview` slices over the mapping;
* a torn tail (the process died mid-append) is detected structurally at
  scan — the damaged *record* is quarantined and the segment truncated
  back to its last whole record, so every earlier record in the same
  segment survives.

Integrity policy mirrors the per-object layout: scan catches structural
damage (torn/truncated records); content rot (bit flips) is caught by
the per-record CRC-32 at ``get``/``verify`` time, not at scan.

Fault injection: :data:`SITE_STORE_FLUSH` fires inside the flusher
(transient errors are absorbed — the batch stays staged and retries;
torn-write tears the appended batch like a crash mid-append) and
:data:`SITE_PACK_READ` fires on every record read (transient errors
propagate so the materializer degrades to recomputation; bit-flips
corrupt the payload in flight, caught by the caller's CRC).
"""

from __future__ import annotations

import mmap
import os
import struct
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.analysis.locks import make_lock
from repro.faults.schedule import (
    SITE_PACK_COMPACT,
    SITE_PACK_READ,
    SITE_STORE_FLUSH,
    FaultSchedule,
    FaultSpec,
)
from repro.storage.objectstore import TransientStorageError

__all__ = [
    "MAGIC",
    "SITE_PACK_COMPACT",
    "SITE_PACK_READ",
    "SITE_STORE_FLUSH",
    "CompactionResult",
    "PackLocation",
    "PackManager",
    "PackStats",
    "ScannedRecord",
    "TornRecord",
    "encode_record",
    "record_length",
]

MAGIC = b"SPK1"
_HEADER = struct.Struct("<4sIII")  # magic, key_len, data_len, crc32(payload)

# Deletion tombstone: zero-length payload stamped with a checksum no real
# empty payload can carry (crc32(b"") == 0), appended on delete so a
# restart's scan does not resurrect deleted keys from the append-only log.
TOMBSTONE_CRC = 0xFFFFFFFF

SEGMENT_PREFIX = "seg-"
SEGMENT_SUFFIX = ".pack"

# Compaction staging suffix.  Deliberately outside the scan glob
# (``seg-*.pack``): a half-written compacted copy is invisible to scan,
# so a crash before the atomic swap leaves the store exactly as it was.
COMPACT_SUFFIX = ".compact"

# An fs-op callback receives one of these tags per physical operation.
FS_CREATE = "create"
FS_WRITE = "write"
FS_READ = "read"
FS_DELETE = "delete"
_FsNote = Callable[[str], None]


@dataclass(frozen=True)
class PackLocation:
    """Where one record lives inside a segment file."""

    segment: int
    record_offset: int
    payload_offset: int
    payload_length: int
    record_length: int


@dataclass(frozen=True)
class TornRecord:
    """A structurally damaged record found at scan time.

    ``key`` is ``None`` when the tear cut into the header or key bytes
    (the record's identity is unrecoverable); ``data`` preserves the
    damaged bytes for forensics.
    """

    segment: int
    offset: int
    key: Optional[str]
    data: bytes


@dataclass(frozen=True)
class ScannedRecord:
    """One whole record recovered by a segment walk."""

    key: str
    checksum: int
    location: PackLocation

    @property
    def tombstone(self) -> bool:
        return self.location.payload_length == 0 and self.checksum == TOMBSTONE_CRC


@dataclass
class PackStats:
    """Lifetime counters for one :class:`PackManager`."""

    appends: int = 0
    flush_batches: int = 0
    flush_retries: int = 0
    records_flushed: int = 0
    torn_records: int = 0
    segments_created: int = 0
    segments_removed: int = 0
    pending_bytes_high_water: int = 0
    compactions: int = 0
    compaction_reclaimed_bytes: int = 0
    tombstones_carried: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "appends": self.appends,
            "flush_batches": self.flush_batches,
            "flush_retries": self.flush_retries,
            "records_flushed": self.records_flushed,
            "torn_records": self.torn_records,
            "segments_created": self.segments_created,
            "segments_removed": self.segments_removed,
            "pending_bytes_high_water": self.pending_bytes_high_water,
            "compactions": self.compactions,
            "compaction_reclaimed_bytes": self.compaction_reclaimed_bytes,
            "tombstones_carried": self.tombstones_carried,
        }


def encode_record(key: str, data: bytes, checksum: int) -> bytes:
    """Serialize one record (header + key + payload)."""
    key_bytes = key.encode()
    header = _HEADER.pack(MAGIC, len(key_bytes), len(data), checksum & 0xFFFFFFFF)
    return b"".join((header, key_bytes, data))


def record_length(key: str, data: bytes) -> int:
    return _HEADER.size + len(key.encode()) + len(data)


@dataclass
class _Segment:
    """Mutable bookkeeping for one segment file."""

    segment_id: int
    size: int = 0  # logical end: flushed + pending bytes
    flushed: int = 0  # bytes durably appended so far
    live_records: int = 0
    dead_bytes: int = 0
    tombstones: int = 0


@dataclass(frozen=True)
class CompactionResult:
    """What one :meth:`PackManager.compact_segment` call accomplished."""

    segment: int
    target: Optional[int]
    relocated: Dict[str, PackLocation]
    carried_tombstones: int
    reclaimed_bytes: int


@dataclass
class _Pending:
    """One staged (not yet flushed) record."""

    location: PackLocation
    record: bytes = field(repr=False)


class PackManager:
    """Owns the segment files of one store directory.

    Thread safe; the write-behind flusher (when enabled) is a daemon
    thread that sleeps until an append stages a record, then drains
    staged appends ``flush_interval_s`` later (again one interval later
    while a failed flush leaves records staged).  With
    write-behind off, every :meth:`append` flushes inline — still one
    batched append per call instead of three file creations per blob.
    """

    def __init__(
        self,
        directory: Path,
        segment_bytes: int = 4 * 1024 * 1024,
        write_behind: bool = False,
        flush_interval_s: float = 0.002,
        fault_schedule: Optional[FaultSchedule] = None,
        fs_note: Optional[_FsNote] = None,
    ) -> None:
        if segment_bytes <= 0:
            raise ValueError(f"segment_bytes must be positive, got {segment_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = int(segment_bytes)
        self.write_behind = bool(write_behind)
        self.flush_interval_s = float(flush_interval_s)
        self.fault_schedule = fault_schedule
        self._fs_note: _FsNote = fs_note if fs_note is not None else (lambda _tag: None)
        self.stats = PackStats()

        self._lock = make_lock("storage.packs")
        self._segments: Dict[int, _Segment] = {}
        self._active_id = 0
        self._pending: List[_Pending] = []
        self._pending_payload: Dict[Tuple[int, int], bytes] = {}
        self._mmaps: Dict[int, mmap.mmap] = {}

        self._stop = threading.Event()
        self._staged = threading.Event()  # wakes the flusher
        self._flusher: Optional[threading.Thread] = None
        if self.write_behind:
            self._flusher = threading.Thread(
                target=self._flusher_loop, name="sand-pack-flusher", daemon=True
            )
            self._flusher.start()

    # -- paths ---------------------------------------------------------------
    def segment_path(self, segment_id: int) -> Path:
        return self.directory / f"{SEGMENT_PREFIX}{segment_id:06d}{SEGMENT_SUFFIX}"

    def segment_ids(self) -> List[int]:
        return sorted(self._segments)

    def pending_bytes(self) -> int:
        with self._lock:
            return sum(len(p.record) for p in self._pending)

    # -- append / flush ------------------------------------------------------
    def append(self, key: str, data: bytes, checksum: int) -> PackLocation:
        """Stage one record; returns its (reserved) location.

        The record is immediately readable (from memory) and becomes
        durable at the next flush.  Rolls to a fresh segment when the
        active one is full.
        """
        record = encode_record(key, data, checksum)
        key_len = len(key.encode())
        with self._lock:
            active = self._segments.get(self._active_id)
            if active is None:
                active = _Segment(self._active_id)
                self._segments[self._active_id] = active
            if active.size > 0 and active.size + len(record) > self.segment_bytes:
                self._active_id += 1
                active = _Segment(self._active_id)
                self._segments[self._active_id] = active
            location = PackLocation(
                segment=active.segment_id,
                record_offset=active.size,
                payload_offset=active.size + _HEADER.size + key_len,
                payload_length=len(data),
                record_length=len(record),
            )
            active.size += len(record)
            active.live_records += 1
            self._pending.append(_Pending(location, record))
            self._pending_payload[(location.segment, location.record_offset)] = data
            self.stats.appends += 1
            pending = sum(len(p.record) for p in self._pending)
            if pending > self.stats.pending_bytes_high_water:
                self.stats.pending_bytes_high_water = pending
        if self.write_behind:
            self._staged.set()
        else:
            self.flush()
        return location

    def append_tombstone(self, key: str) -> PackLocation:
        """Append a deletion marker so scan won't resurrect ``key``."""
        location = self.append(key, b"", TOMBSTONE_CRC)
        # The marker is bookkeeping, not a live object.
        with self._lock:
            segment = self._segments.get(location.segment)
            if segment is not None:
                segment.live_records = max(0, segment.live_records - 1)
                segment.tombstones += 1
        return location

    def flush(self) -> int:
        """Append all staged records to their segment files.

        Never raises: an injected (or real) transient failure leaves the
        affected batch staged — still served from memory — and retried
        on the next flush cycle.  Returns records made durable.
        """
        with self._lock:
            pending, self._pending = self._pending, []
            by_segment: Dict[int, List[_Pending]] = {}
            for item in pending:
                by_segment.setdefault(item.location.segment, []).append(item)
            flushed = 0
            for segment_id in sorted(by_segment):
                batch = by_segment[segment_id]
                batch.sort(key=lambda p: p.location.record_offset)
                payload_specs: List[FaultSpec] = []
                if self.fault_schedule is not None:
                    try:
                        payload_specs = self.fault_schedule.apply(
                            SITE_STORE_FLUSH, f"seg-{segment_id}"
                        )
                    except TransientStorageError:
                        # Batch stays staged; retry on the next cycle.
                        self._pending.extend(batch)
                        self.stats.flush_retries += 1
                        continue
                blob = b"".join(p.record for p in batch)
                torn = next(
                    (spec for spec in payload_specs if spec.kind == "torn-write"), None
                )
                if torn is not None:
                    # Crash mid-append: only a prefix of the batch ever
                    # reaches the device; the staged copies are gone.
                    blob = blob[: int(len(blob) * torn.tear_fraction)]
                path = self.segment_path(segment_id)
                segment = self._segments[segment_id]
                if segment.flushed == 0 and not path.exists():
                    self.stats.segments_created += 1
                    self._fs_note(FS_CREATE)
                with open(path, "r+b" if path.exists() else "wb") as handle:
                    handle.seek(segment.flushed)
                    handle.write(blob)
                self._fs_note(FS_WRITE)
                segment.flushed += len(blob)
                for item in batch:
                    self._pending_payload.pop(
                        (item.location.segment, item.location.record_offset), None
                    )
                # The mapping (if any) predates this append; remap lazily.
                self._drop_mmap(segment_id)
                flushed += len(batch)
                self.stats.flush_batches += 1
                self.stats.records_flushed += len(batch)
            if self._pending:  # re-arm the flusher: it retries one interval on
                self._staged.set()
            return flushed

    def _flusher_loop(self) -> None:
        while True:
            self._staged.wait()
            if self._stop.wait(self.flush_interval_s):
                break
            self._staged.clear()
            self.flush()
        self.flush()

    def close(self) -> None:
        """Stop the flusher, drain staged appends, release mappings."""
        self._stop.set()
        self._staged.set()
        flusher = self._flusher
        if flusher is not None and flusher is not threading.current_thread():
            flusher.join(timeout=10)
        self._flusher = None
        self.flush()
        with self._lock:
            for segment_id in list(self._mmaps):
                self._drop_mmap(segment_id)

    # -- reads ---------------------------------------------------------------
    def read(self, location: PackLocation) -> Optional[memoryview]:
        """Zero-copy payload of one record; ``None`` if physically lost.

        Staged records are served from memory.  Flushed records come as
        a :class:`memoryview` over the segment's ``mmap`` — valid until
        the record is overwritten or its segment is removed; callers
        that outlive store mutations must copy.
        """
        if self.fault_schedule is not None:
            payload_specs = self.fault_schedule.apply(
                SITE_PACK_READ, f"seg-{location.segment}@{location.record_offset}"
            )
        else:
            payload_specs = []
        with self._lock:
            staged = self._pending_payload.get(
                (location.segment, location.record_offset)
            )
            if staged is not None:
                view: memoryview = memoryview(staged)
            else:
                mapping = self._mmap_locked(location.segment)
                if mapping is None or len(mapping) < (
                    location.payload_offset + location.payload_length
                ):
                    # Torn flush or external damage: the bytes never made
                    # it to the device.  The caller treats this as loss.
                    return None
                view = memoryview(mapping)[
                    location.payload_offset : location.payload_offset
                    + location.payload_length
                ]
        for spec in payload_specs:
            if spec.kind == "bit-flip" and len(view) and self.fault_schedule is not None:
                rng = self.fault_schedule.rng(
                    f"pack-flip|{location.segment}|{location.record_offset}"
                )
                mutated = bytearray(view)
                position = rng.randrange(len(mutated))
                mutated[position] ^= 1 << rng.randrange(8)
                view = memoryview(bytes(mutated))
        return view

    def _mmap_locked(self, segment_id: int) -> Optional[mmap.mmap]:
        mapping = self._mmaps.get(segment_id)
        if mapping is not None:
            return mapping
        path = self.segment_path(segment_id)
        try:
            with open(path, "rb") as handle:
                mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):
            return None
        self._mmaps[segment_id] = mapping
        self._fs_note(FS_READ)
        return mapping

    def _drop_mmap(self, segment_id: int) -> None:
        mapping = self._mmaps.pop(segment_id, None)
        if mapping is not None:
            try:
                mapping.close()
            except BufferError:
                # A memoryview over the mapping is still alive somewhere;
                # the mapping stays valid for it and is GC'd later.
                pass

    # -- mutation ------------------------------------------------------------
    def overwrite_payload(self, location: PackLocation, data: bytes) -> bool:
        """Overwrite a record's payload region in place (fault injection).

        Emulates device-level damage below the checksum layer: the bytes
        are padded/truncated to the record's physical payload region so
        segment framing stays intact and only the record's CRC breaks.
        """
        mutated = data[: location.payload_length]
        mutated += b"\x00" * (location.payload_length - len(mutated))
        with self._lock:
            staged_key = (location.segment, location.record_offset)
            if staged_key in self._pending_payload:
                self._pending_payload[staged_key] = mutated
                for item in self._pending:
                    if item.location == location:
                        head = _HEADER.size + (
                            location.payload_offset - location.record_offset - _HEADER.size
                        )
                        item.record = item.record[:head] + mutated
                return True
            path = self.segment_path(location.segment)
            if not path.exists():
                return False
            with open(path, "r+b") as handle:
                handle.seek(location.payload_offset)
                handle.write(mutated)
            self._fs_note(FS_WRITE)
            self._drop_mmap(location.segment)
            return True

    def delete(self, location: PackLocation) -> None:
        """Mark one record dead; remove its segment once fully dead."""
        with self._lock:
            staged_key = (location.segment, location.record_offset)
            if staged_key in self._pending_payload:
                self._pending_payload.pop(staged_key)
                self._pending = [
                    p for p in self._pending if p.location != location
                ]
            segment = self._segments.get(location.segment)
            if segment is None:
                return
            segment.live_records = max(0, segment.live_records - 1)
            segment.dead_bytes += location.record_length
            if (
                segment.live_records == 0
                and segment.tombstones == 0
                and location.segment != self._active_id
            ):
                # A fully-dead segment with tombstones must NOT be
                # unlinked here: its tombstones may guard deleted keys
                # whose stale records still exist in earlier segments
                # (removal would resurrect them at the next scan).
                # Compaction retires those via carry-forward instead.
                self._remove_segment_locked(location.segment)

    def note_dead(self, location: PackLocation) -> None:
        """Account a superseded record (duplicate key found at scan)."""
        self.delete(location)

    def _remove_segment_locked(self, segment_id: int) -> None:
        self._drop_mmap(segment_id)
        path = self.segment_path(segment_id)
        if path.exists():
            path.unlink()
            self._fs_note(FS_DELETE)
            self.stats.segments_removed += 1
        self._segments.pop(segment_id, None)

    # -- compaction ----------------------------------------------------------
    def compactable_segments(self, min_dead_bytes: int = 1) -> List[int]:
        """Sealed segments worth compacting (dead bytes or tombstones)."""
        with self._lock:
            pending_segments = {p.location.segment for p in self._pending}
            return sorted(
                s.segment_id
                for s in self._segments.values()
                if s.segment_id != self._active_id
                and s.segment_id not in pending_segments
                and s.flushed == s.size
                and (s.dead_bytes >= min_dead_bytes or s.tombstones > 0)
            )

    def compact_segment(
        self,
        segment_id: int,
        live_offsets: Mapping[int, str],
        keep_tombstone: Callable[[str], bool],
        interrupt: Optional[Callable[[str], None]] = None,
    ) -> Optional[CompactionResult]:
        """Rewrite one sealed segment without its dead records.

        Crash-safe by construction — copy-live-records, fsync, atomic
        swap, unlink — and restartable at any interruption point:

        1. **copy** — live records (``live_offsets`` maps each live
           record's offset to its key; the caller owns the key index)
           plus carried tombstones (``keep_tombstone(key)`` says whether
           a tombstone still guards stale records elsewhere) are written
           to ``seg-T.pack.compact``, where ``T`` orders after every
           existing segment.  The staging name is outside the scan glob,
           so a crash here changes nothing: scan deletes the half-copy
           and the source segment is untouched.
        2. **fsync** — the staged bytes are forced down before the swap
           can publish them.
        3. **swap** — ``os.replace`` to ``seg-T.pack``.  A crash between
           swap and unlink leaves *both* segments; scan's
           last-occurrence-wins duplicate rule adopts the compacted
           copies (T orders last) and accounts the source's records
           dead, so the next compaction retires the source.
        4. **unlink** — the source segment is removed.

        Future appends are re-pointed past ``T`` so later writes and
        tombstones keep ordering after the compacted copies.

        ``interrupt`` (test hook) is called after each named step; tests
        simulate crashes by raising from it.  Returns ``None`` when the
        segment is not sealed on disk (active, staged records, or
        already gone).
        """
        self.flush()
        if self.fault_schedule is not None:
            # Transient faults abort the pass cleanly before any I/O;
            # the caller retries on its next background cycle.
            self.fault_schedule.apply(SITE_PACK_COMPACT, f"seg-{segment_id}")
        with self._lock:
            if segment_id == self._active_id:
                return None
            if any(p.location.segment == segment_id for p in self._pending):
                return None
            source = self.segment_path(segment_id)
            if not source.exists():
                return None
            raw = source.read_bytes()
            self._fs_note(FS_READ)
            _end, records, _torn = self._walk_segment(segment_id, raw)
            out = bytearray()
            relocated: Dict[str, PackLocation] = {}
            carried = 0
            target = max([self._active_id, *self._segments]) + 1
            for record in records:
                if record.tombstone:
                    if keep_tombstone(record.key):
                        out += encode_record(record.key, b"", TOMBSTONE_CRC)
                        carried += 1
                    continue
                offset = record.location.record_offset
                if live_offsets.get(offset) != record.key:
                    continue  # dead duplicate: drop
                payload = raw[
                    record.location.payload_offset : record.location.payload_offset
                    + record.location.payload_length
                ]
                new_offset = len(out)
                out += encode_record(record.key, payload, record.checksum)
                relocated[record.key] = PackLocation(
                    segment=target,
                    record_offset=new_offset,
                    payload_offset=new_offset + _HEADER.size + len(record.key.encode()),
                    payload_length=record.location.payload_length,
                    record_length=record.location.record_length,
                )
            reclaimed = len(raw) - len(out)
            if not out:
                # Nothing survives: the unlink is the whole compaction.
                self._remove_segment_locked(segment_id)
                self.stats.compactions += 1
                self.stats.compaction_reclaimed_bytes += reclaimed
                if interrupt is not None:
                    interrupt("unlink")
                return CompactionResult(segment_id, None, {}, 0, reclaimed)
            final = self.segment_path(target)
            staging = final.with_name(final.name + COMPACT_SUFFIX)
            with open(staging, "wb") as handle:
                handle.write(bytes(out))
                self._fs_note(FS_CREATE)
                self._fs_note(FS_WRITE)
                if interrupt is not None:
                    interrupt("copy")
                handle.flush()
                os.fsync(handle.fileno())
            if interrupt is not None:
                interrupt("fsync")
            os.replace(staging, final)
            if interrupt is not None:
                interrupt("swap")
            self._segments[target] = _Segment(
                target,
                size=len(out),
                flushed=len(out),
                live_records=len(relocated),
                tombstones=carried,
            )
            # Re-point appends past the compacted copy so future writes
            # (and tombstones) keep ordering after it at scan time.
            self._active_id = target + 1
            self._remove_segment_locked(segment_id)
            self.stats.compactions += 1
            self.stats.compaction_reclaimed_bytes += reclaimed
            self.stats.tombstones_carried += carried
            if interrupt is not None:
                interrupt("unlink")
            return CompactionResult(segment_id, target, relocated, carried, reclaimed)

    def segment_report(self) -> Dict[str, int]:
        """Aggregate live/dead occupancy across segments (for health)."""
        with self._lock:
            live_records = sum(s.live_records for s in self._segments.values())
            dead_bytes = sum(s.dead_bytes for s in self._segments.values())
            total_bytes = sum(s.size for s in self._segments.values())
            return {
                "segments": len(self._segments),
                "live_records": live_records,
                "tombstones": sum(s.tombstones for s in self._segments.values()),
                "total_bytes": total_bytes,
                "dead_bytes": dead_bytes,
                "live_bytes": max(0, total_bytes - dead_bytes),
            }

    # -- scan ----------------------------------------------------------------
    def scan(self) -> Tuple[List[ScannedRecord], List[TornRecord]]:
        """Walk every segment; rebuild bookkeeping; report torn records.

        A torn tail is truncated away (the file ends at its last whole
        record afterwards) and reported so the store can quarantine the
        damaged record's bytes.  Duplicate keys are the *caller's*
        problem: records are yielded in (segment, offset) order, so the
        last occurrence of a key is the authoritative one.
        """
        self.flush()
        records: List[ScannedRecord] = []
        torn: List[TornRecord] = []
        with self._lock:
            for segment_id in list(self._mmaps):
                self._drop_mmap(segment_id)
            self._segments.clear()
            self._pending.clear()
            self._pending_payload.clear()
            # Abandoned compaction staging files (crash before the atomic
            # swap) are garbage by construction: the source segment is
            # still whole, so the half-copy carries no unique data.
            for stale in self.directory.glob(f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}{COMPACT_SUFFIX}"):
                stale.unlink(missing_ok=True)
                self._fs_note(FS_DELETE)
            max_id = -1
            for path in sorted(self.directory.glob(f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}")):
                stem = path.name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
                try:
                    segment_id = int(stem)
                except ValueError:
                    continue
                max_id = max(max_id, segment_id)
                raw = path.read_bytes()
                self._fs_note(FS_READ)
                good_end, seg_records, seg_torn = self._walk_segment(segment_id, raw)
                records.extend(seg_records)
                torn.extend(seg_torn)
                if good_end < len(raw):
                    # Truncate the damaged tail so future appends land on
                    # a clean record boundary.
                    with open(path, "r+b") as handle:
                        handle.truncate(good_end)
                    self._fs_note(FS_WRITE)
                    self.stats.torn_records += len(seg_torn)
                segment = _Segment(
                    segment_id,
                    size=good_end,
                    flushed=good_end,
                    live_records=len(seg_records),
                    tombstones=sum(1 for r in seg_records if r.tombstone),
                )
                self._segments[segment_id] = segment
                if not seg_records and good_end == 0:
                    self._remove_segment_locked(segment_id)
            self._active_id = max_id + 1 if max_id >= 0 else 0
        return records, torn

    def _walk_segment(
        self, segment_id: int, raw: bytes
    ) -> Tuple[int, List[ScannedRecord], List[TornRecord]]:
        """Parse one segment's bytes; returns (clean_end, records, torn)."""
        records: List[ScannedRecord] = []
        torn: List[TornRecord] = []
        pos = 0
        while pos < len(raw):
            remaining = len(raw) - pos
            if remaining < _HEADER.size:
                torn.append(TornRecord(segment_id, pos, None, raw[pos:]))
                return pos, records, torn
            magic, key_len, data_len, checksum = _HEADER.unpack_from(raw, pos)
            if magic != MAGIC:
                torn.append(TornRecord(segment_id, pos, None, raw[pos:]))
                return pos, records, torn
            total = _HEADER.size + key_len + data_len
            if remaining < _HEADER.size + key_len:
                torn.append(TornRecord(segment_id, pos, None, raw[pos:]))
                return pos, records, torn
            key_bytes = raw[pos + _HEADER.size : pos + _HEADER.size + key_len]
            try:
                key = key_bytes.decode()
            except UnicodeDecodeError:
                torn.append(TornRecord(segment_id, pos, None, raw[pos:]))
                return pos, records, torn
            if remaining < total:
                # Torn tail with a readable identity: quarantine exactly
                # this record; everything before it survives.
                torn.append(TornRecord(segment_id, pos, key, raw[pos:]))
                return pos, records, torn
            records.append(
                ScannedRecord(
                    key=key,
                    checksum=checksum,
                    location=PackLocation(
                        segment=segment_id,
                        record_offset=pos,
                        payload_offset=pos + _HEADER.size + key_len,
                        payload_length=data_len,
                        record_length=total,
                    ),
                )
            )
            pos += total
        return pos, records, torn

"""The blessed lock API and the lock-order sanitizer.

Every lock in the system is created through :func:`make_lock` /
:func:`make_rlock` with a *name* — the lock's rank class in the global
acquisition order ("engine.materializers", "materializer",
"anchor-cache", ...).  With sanitizers off (the default) these return
plain ``threading`` primitives with zero overhead.  With sanitizers on
(``SAND_SANITIZERS=1``, or :func:`set_sanitizers`), locks are wrapped so
every acquisition records *held-before* edges into a process-global
graph; acquiring a lock whose name can already reach a currently-held
name through that graph is a lock-order inversion — the classic ABBA
deadlock precursor — and fails immediately with :class:`LockOrderError`
instead of deadlocking once in a thousand runs.

This module is the one place raw ``threading`` locks may be constructed
(the ``raw-lock`` sandlint pass enforces that); it is deliberately
stdlib-only so every other module can import it.
"""

from __future__ import annotations

import os
import threading
from types import TracebackType
from typing import Dict, List, Optional, Protocol, Set, Tuple, Type

_ENV_FLAG = "SAND_SANITIZERS"
_TRUTHY = {"1", "true", "on", "yes"}

_forced: Optional[bool] = None


def sanitizers_enabled() -> bool:
    """Are runtime sanitizers active (env flag or programmatic override)?"""
    if _forced is not None:
        return _forced
    return os.environ.get(_ENV_FLAG, "").strip().lower() in _TRUTHY


def set_sanitizers(enabled: Optional[bool]) -> None:
    """Force sanitizers on/off; ``None`` returns control to the env flag."""
    global _forced
    _forced = enabled


class LockOrderError(RuntimeError):
    """Two lock classes were acquired in contradictory orders."""


class AbstractLock(Protocol):
    """What callers may assume about a blessed lock."""

    def acquire(self, blocking: bool = ..., timeout: float = ...) -> bool: ...

    def release(self) -> None: ...

    def __enter__(self) -> bool: ...

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> Optional[bool]: ...


class LockOrderMonitor:
    """Process-global acquisition-order graph and inversion detector.

    Edges are by lock *name* (the rank class), not instance: observing
    "materializer" held while acquiring "anchor-cache" commits the
    system to that order everywhere.  Reentrant acquisition of the same
    instance records nothing; nesting two *different* instances of the
    same name is flagged (same-rank nesting deadlocks just as surely).
    """

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self._mutex = threading.Lock()
        self._edges: Dict[str, Set[str]] = {}
        self._holds = threading.local()
        self.violations: List[str] = []

    # -- per-thread hold stack ----------------------------------------------
    def _stack(self) -> List[Tuple[int, str, bool]]:
        stack = getattr(self._holds, "stack", None)
        if stack is None:
            stack = []
            self._holds.stack = stack
        return stack

    # -- graph --------------------------------------------------------------
    def _reaches(self, src: str, dst: str) -> bool:
        """Is ``dst`` reachable from ``src`` (src == dst counts)?"""
        if src == dst:
            return True
        seen = {src}
        frontier = [src]
        while frontier:
            node = frontier.pop()
            for succ in self._edges.get(node, ()):
                if succ == dst:
                    return True
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        return False

    def note_acquire(self, lock: "SanitizedLock", waited: bool = True) -> None:
        """Record one acquisition; raises on inversion when strict.

        Called *after* the inner lock is taken; on violation the caller
        must release the inner lock before propagating.  A try-acquire
        (``waited=False``) cannot be the waiting edge of a deadlock
        cycle, so it is neither checked nor entered as an ordering; the
        lock still counts as held for whatever is acquired under it.
        """
        stack = self._stack()
        reentrant = any(entry[0] == id(lock) for entry in stack)
        if waited and not reentrant:
            held_names = {entry[1] for entry in stack}
            with self._mutex:
                for held in held_names:
                    if self._reaches(lock.name, held):
                        message = (
                            f"lock-order inversion: acquiring {lock.name!r} "
                            f"while holding {held!r}, but {lock.name!r} -> "
                            f"{held!r} order was already observed"
                        )
                        self.violations.append(message)
                        if self.strict:
                            raise LockOrderError(message)
                    else:
                        self._edges.setdefault(held, set()).add(lock.name)
        stack.append((id(lock), lock.name, reentrant))

    def note_release(self, lock: "SanitizedLock") -> None:
        stack = self._stack()
        for position in range(len(stack) - 1, -1, -1):
            if stack[position][0] == id(lock):
                del stack[position]
                return

    # -- reporting -----------------------------------------------------------
    def edges(self) -> Dict[str, Set[str]]:
        with self._mutex:
            return {name: set(succs) for name, succs in self._edges.items()}

    def report(self) -> List[str]:
        with self._mutex:
            return list(self.violations)

    def reset(self) -> None:
        with self._mutex:
            self._edges.clear()
            self.violations.clear()


LOCK_MONITOR = LockOrderMonitor()


class SanitizedLock:
    """A named lock that reports every acquisition to the monitor."""

    def __init__(
        self,
        name: str,
        inner: AbstractLock,
        monitor: Optional[LockOrderMonitor] = None,
    ) -> None:
        self.name = name
        self._inner = inner
        self._monitor = monitor if monitor is not None else LOCK_MONITOR

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            try:
                self._monitor.note_acquire(self, waited=blocking)
            except LockOrderError:
                self._inner.release()
                raise
        return acquired

    def release(self) -> None:
        self._monitor.note_release(self)
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SanitizedLock({self.name!r})"


def make_lock(name: str, monitor: Optional[LockOrderMonitor] = None) -> AbstractLock:
    """A non-reentrant lock of rank class ``name``."""
    if monitor is None and not sanitizers_enabled():
        return threading.Lock()
    return SanitizedLock(name, threading.Lock(), monitor)


def make_rlock(name: str, monitor: Optional[LockOrderMonitor] = None) -> AbstractLock:
    """A reentrant lock of rank class ``name``."""
    if monitor is None and not sanitizers_enabled():
        return threading.RLock()
    return SanitizedLock(name, threading.RLock(), monitor)


def make_condition(name: str) -> threading.Condition:
    """A condition variable of rank class ``name``.

    Conditions are excluded from the order graph: ``wait()`` releases the
    underlying lock mid-hold, which the held-before model cannot express
    without false positives.  The blessed constructor still gives every
    condition a name (for debugging) and keeps raw ``threading.Condition``
    construction confined to this module, as the ``raw-lock`` lint pass
    requires.
    """
    condition = threading.Condition(threading.Lock())
    condition.name = name  # type: ignore[attr-defined]
    return condition

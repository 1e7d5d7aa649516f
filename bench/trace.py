"""Outside-in spans: wrap the program's public callables, record, analyse.

No span lives inside ``src/``.  ``Tracer.install`` replaces each callable
named in ``adapter.TRACE_TARGETS`` with a wrapper that records one span
per call — layer, name, start, end, span id, parent id (thread-local
stack), thread, request id — into an in-memory list.  ``analyse`` turns
the spans of the timed section into the per-layer metrics; ``dump``
writes them as JSON lines.

Request identity.  The trainer brackets each wait with ``open_stall`` /
``close_stall``; the stall is itself a span (layer ``trainer``) and the
root of everything that happens on the trainer's thread while it waits,
so its self time is the unattributed remainder.  A server-side entry
point that starts on an executor thread has no stall on its stack: it
takes ``srv:<tenant>:<task>/<epoch>/<iteration>`` from its arguments and
``analyse`` re-parents it under the client span of the same key whose
interval contains it, which makes the client span's self time the hop
itself.  Spans with neither (pre-materialization, prefetch, write-behind
and the server's loop thread) carry no request: they count towards
``self_ms_per_batch`` but not ``stall_share``.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from trainer import percentile

# (layer, name, start_ns, end_ns, span_id, parent_id, thread, request)
Span = Tuple[str, str, int, int, int, int, str, Optional[str]]

SERVER_LOOP_THREAD = "sand-dataplane-loop"


class NullTracer:
    """What the trainer talks to on untraced runs."""

    def open_stall(self, request: str, ready_ns: int) -> None:
        pass

    def close_stall(self, got_ns: int) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing_targets = 0
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- installation -----------------------------------------------------------
    def install(self, targets: Dict[str, List[str]], entry_points: Tuple[str, ...]) -> None:
        for layer, dotted_names in targets.items():
            for dotted in dotted_names:
                resolved = _resolve(dotted)
                if resolved is None:
                    self.missing_targets += 1
                    continue
                container, attr, fn = resolved
                name = dotted.split(":", 1)[1]
                wrapper = self._wrap(layer, name, fn, dotted in entry_points)
                self._undo.append((container, attr, fn))
                setattr(container, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            container, attr, fn = self._undo.pop()
            setattr(container, attr, fn)

    def _state(self) -> Any:
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack = []
            tls.request = None
            tls.thread = threading.current_thread().name
        return tls

    def _wrap(self, layer: str, name: str, fn: Callable, entry: bool) -> Callable:
        spans, ids, clock, state = self.spans, self._ids, time.perf_counter_ns, self._state

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            tls = state()
            opened = entry and tls.request is None
            if opened:
                # (self, task, epoch, iteration[, tenant])
                tenant = kwargs.get("tenant", args[4] if len(args) > 4 else "")
                tls.request = f"srv:{tenant}:{args[1]}/{args[2]}/{args[3]}"
            stack = tls.stack
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (layer, name, start, end, span_id, parent, tls.thread, tls.request)
                )
                if opened:
                    tls.request = None

        return traced

    # -- the trainer's side -----------------------------------------------------
    def open_stall(self, request: str, ready_ns: int) -> None:
        tls = self._state()
        tls.request = request
        tls.stall = (next(self._ids), ready_ns)
        tls.stack.append(tls.stall[0])

    def close_stall(self, got_ns: int) -> None:
        tls = self._state()
        span_id, ready_ns = tls.stall
        tls.stack.pop()
        self.spans.append(
            ("trainer", "stall", ready_ns, got_ns, span_id, 0, tls.thread, tls.request)
        )
        tls.request = None

    # -- output -----------------------------------------------------------------
    def dump(self, path: Any) -> None:
        with open(path, "w") as out:
            for layer, name, start, end, span_id, parent, thread, request in self.spans:
                out.write(json.dumps({
                    "layer": layer, "name": name, "start_us": start / 1e3,
                    "end_us": end / 1e3, "id": span_id, "parent": parent,
                    "thread": thread, "request": request,
                }) + "\n")


def _resolve(dotted: str) -> Optional[Tuple[Any, str, Callable]]:
    """``module:attr.path`` -> (container, attribute, plain function) or None."""
    module_name, _, path = dotted.partition(":")
    try:
        container: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for owner in owners:
        container = getattr(container, owner, None)
        if container is None:
            return None
    fn = vars(container).get(attr)
    return (container, attr, fn) if inspect.isfunction(fn) else None


def _join_server_roots(spans: List[Span]) -> List[Span]:
    """Re-parent executor-thread entry spans under their client span."""
    clients: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span[1] == "BatchSocketClient.get_batch" and span[7]:
            clients[span[7]].append(span)
    by_key: Dict[str, List[Span]] = defaultdict(list)  # "<task>/<e>/<i>" -> clients
    for request, group in clients.items():
        by_key[request.split(":", 1)[1]].extend(group)
    starts: Dict[str, List[int]] = {}
    for key, group in by_key.items():
        group.sort(key=lambda s: s[2])
        starts[key] = [client[2] for client in group]
    joined = []
    for span in spans:
        request = span[7]
        if span[5] == 0 and request and request.startswith("srv:"):
            _, tenant, key = request.split(":", 2)
            at = bisect.bisect_right(starts.get(key, []), span[2])
            for client in reversed(by_key[key][:at]):
                if client[3] >= span[3] and (not tenant or client[7] == f"{tenant}:{key}"):
                    span = span[:5] + (client[4],) + span[6:]
                    break
        joined.append(span)
    return joined


def analyse(
    spans: List[Span], start_ns: int, end_ns: int, batches: int, layers: Tuple[str, ...]
) -> Dict[str, float]:
    """Per-layer metrics of the timed section ``[start_ns, end_ns]``."""
    spans = [s for s in spans if s[2] >= start_ns and s[3] <= end_ns]
    spans = _join_server_roots(spans)
    by_id = {s[4]: s for s in spans}
    child_ns: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span[5]:
            child_ns[span[5]] += span[3] - span[2]

    def self_ns(span: Span) -> int:
        return max(0, span[3] - span[2] - child_ns[span[4]])

    stalls = [s for s in spans if s[0] == "trainer"]
    stall_ns = sum(s[3] - s[2] for s in stalls) or 1
    per_batch = 1.0 / max(1, batches)
    out: Dict[str, float] = {}
    calls: Dict[str, int] = defaultdict(int)
    busy: Dict[str, int] = defaultdict(int)
    waited: Dict[str, int] = defaultdict(int)
    bg_busy = 0
    for span in spans:
        layer, own = span[0], self_ns(span)
        calls[layer] += 1
        busy[layer] += own
        if span[7]:
            waited[layer] += own
        elif span[6] != SERVER_LOOP_THREAD:
            bg_busy += own
    for layer in layers:
        out[f"{layer}.calls_per_batch"] = calls[layer] * per_batch
        out[f"{layer}.self_ms_per_batch"] = busy[layer] / 1e6 * per_batch
        out[f"{layer}.stall_share"] = waited[layer] / stall_ns
    out["engine.bg_busy_ms_per_batch"] = bg_busy / 1e6 * per_batch
    out["trace.attributed_share"] = 1.0 - waited["trainer"] / stall_ns

    builds = [s for s in spans if s[1] == "build_plan_window" and s[7]]
    rolls = [by_id[s[5]] for s in builds if s[5] in by_id]
    out["plan.rolls"] = float(len(builds))
    out["plan.roll_ms_p50"] = percentile([(r[3] - r[2]) / 1e6 for r in rolls], 50)
    out["tenancy.admit_us_p50"] = percentile(
        [(s[3] - s[2]) / 1e3 for s in spans if s[0] == "tenancy"], 50
    )
    # The hop: what the trainer waited beyond the server-side entry span.
    hops = []
    for span in spans:
        client = by_id.get(span[5])
        if client is not None and client[1] == "BatchSocketClient.get_batch" and span[6] != client[6]:
            stall = by_id.get(client[5], client)
            hops.append(((stall[3] - stall[2]) - (span[3] - span[2])) / 1e6)
    out["dataplane.hop_ms_p50"] = percentile(hops, 50)
    return out

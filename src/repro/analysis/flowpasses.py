"""Flow-sensitive sandlint passes: CFG + dataflow powered invariants.

The per-node passes in :mod:`repro.analysis.passes` judge one statement
at a time.  The invariants here are *path* properties — they need the
:mod:`repro.analysis.cfg` control-flow graph and the
:mod:`repro.analysis.dataflow` fixpoint solver:

========================  ====================================================
``must-release``          a pooled :class:`BatchLease` / lock / file handle
                          acquired on some path but not released, closed,
                          detached, or ownership-transferred on *every* path
                          to the function exit (the static twin of the data
                          plane's runtime lease-leak gate)
``blocking-in-async``     calls that block the thread (``time.sleep``, raw
                          socket ops, ``Lock.acquire``, direct file I/O)
                          reachable inside ``async def`` bodies on the event
                          loop's serving path
``lock-across-await``     a blessed ``make_lock()`` lock held over an
                          ``await`` — every other task on the loop then
                          contends with arbitrary suspension time
``wire-exhaustiveness``   an ``if``/``match`` dispatch over
                          ``wire.FrameType`` that covers only a subset of the
                          protocol's variants with no explicit default: the
                          next protocol revision would be silently dropped
========================  ====================================================

Ownership transfer (``must-release``) is deliberately conservative: a
resource that is returned, yielded, stored into a container/attribute,
aliased, or passed to another call *escapes* and is the recipient's
problem; only a handle that provably stays local to the function must be
closed on every path.  Method calls *on* the resource (``f.read()``,
``lease.nbytes``) are uses, not escapes — the classic
``f = open(p); return f.read()`` leak is exactly what this pass exists
to catch.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.cfg import (
    BasicBlock,
    Branch,
    ControlFlowGraph,
    Event,
    ForIter,
    WithEnter,
    WithExit,
    build_cfg,
    iter_functions,
    terminates_abruptly,
)
from repro.analysis.dataflow import MapLattice, SetUnionLattice, solve_forward
from repro.analysis.findings import Finding
from repro.analysis.lint import LintPass, register_pass
from repro.analysis.passes import _canonical, _collect_aliases, _last_segment

Aliases = Dict[str, str]


class FlowPass(LintPass):
    """A lint pass that analyzes one function CFG at a time.

    ``run`` keeps the engine-facing :class:`LintPass` contract; the
    subclass hook is :meth:`check_function`, which receives the built
    CFG plus the module's import-alias map.
    """

    def run(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        aliases = _collect_aliases(tree)
        for func in iter_functions(tree):
            cfg = build_cfg(func)
            yield from self.check_function(cfg, aliases, path)

    def check_function(
        self, cfg: ControlFlowGraph, aliases: Aliases, path: str
    ) -> Iterator[Finding]:
        raise NotImplementedError


# -- shared helpers ----------------------------------------------------------

_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _walk_shallow(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested function/class
    scopes: what executes *in this frame* is what flow passes judge."""
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, _NESTED_SCOPES):
                continue
            stack.append(child)


def _event_exprs(event: Event) -> List[ast.AST]:
    """The AST payload(s) of one CFG event, for scanning."""
    if isinstance(event, Branch):
        return [event.test]
    if isinstance(event, ForIter):
        return [event.iter, event.target]
    if isinstance(event, (WithEnter, WithExit)):
        return [event.item.context_expr]
    if isinstance(event, _NESTED_SCOPES):
        return []  # opaque: nested scopes get their own CFG
    return [event]


def _calls_in(event: Event) -> Iterator[ast.Call]:
    for root in _event_exprs(event):
        for node in _walk_shallow(root):
            if isinstance(node, ast.Call):
                yield node


# -- must-release ------------------------------------------------------------

# States a tracked resource can be in along a path.
_OPEN = "open"
_CLOSED = "closed"
_ESCAPED = "escaped"

_RELEASE_METHODS = {"close", "release", "detach", "shutdown"}
_ACQUIRE_METHODS = {"acquire"}
_OPEN_CALLS = {"open", "io.open", "os.fdopen"}


@dataclass
class _Resource:
    key: str
    node: ast.AST  # acquisition site, for the finding location
    what: str  # human label ("delivery lease", "file handle", "lock")
    name: Optional[str]  # bound local name, if any
    receiver: Optional[str]  # dump of `x` in `x.acquire(...)`, if any


def _receiver_dump(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return ast.dump(call.func.value)
    return None


def _acquisition(call: ast.Call, aliases: Aliases) -> Optional[str]:
    """A human label if ``call`` acquires a trackable resource."""
    target = _canonical(call.func, aliases)
    if target in _OPEN_CALLS:
        return "file handle"
    if isinstance(call.func, ast.Attribute) and call.func.attr in _ACQUIRE_METHODS:
        return "lease/lock"
    return None


class _ReleaseScan:
    """Per-event effect extraction for the must-release transfer."""

    def __init__(self, resources: List[_Resource]) -> None:
        self.by_name = {r.name: r for r in resources if r.name is not None}
        self.by_receiver: Dict[str, List[_Resource]] = {}
        for resource in resources:
            if resource.receiver is not None:
                self.by_receiver.setdefault(resource.receiver, []).append(resource)

    def effects(self, event: Event) -> Dict[str, FrozenSet[str]]:
        out: Dict[str, FrozenSet[str]] = {}

        def mark(resource: _Resource, state: str) -> None:
            have = out.get(resource.key, frozenset())
            out[resource.key] = have | {state}

        released: Set[str] = set()
        for call in _calls_in(event):
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in _RELEASE_METHODS
            ):
                receiver = call.func.value
                if isinstance(receiver, ast.Name) and receiver.id in self.by_name:
                    resource = self.by_name[receiver.id]
                    mark(resource, _CLOSED)
                    released.add(resource.key)
                for resource in self.by_receiver.get(ast.dump(receiver), ()):
                    mark(resource, _CLOSED)
                    released.add(resource.key)
        for name in self._escaping_names(event):
            resource = self.by_name.get(name)
            if resource is not None and resource.key not in released:
                mark(resource, _ESCAPED)
        if isinstance(event, WithEnter):
            # `with lease:` / `with handle:` — the context manager owns
            # the release from here on.
            expr = event.item.context_expr
            if isinstance(expr, ast.Name) and expr.id in self.by_name:
                mark(self.by_name[expr.id], _CLOSED)
        return out

    def _escaping_names(self, event: Event) -> Set[str]:
        """Tracked names leaving this function's custody in ``event``."""
        escaping: Set[str] = set()
        if not self.by_name:
            return escaping

        def note(node: ast.AST) -> None:
            for sub in _walk_shallow(node):
                if isinstance(sub, ast.Name) and sub.id in self.by_name:
                    escaping.add(sub.id)

        def note_aliasing(value: ast.AST) -> None:
            # A bare name (or a name directly inside a container
            # literal) on an RHS re-homes the handle; `x.attr` / `x[i]`
            # reads do not.
            if isinstance(value, ast.Name) and value.id in self.by_name:
                escaping.add(value.id)
            elif isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                for element in value.elts:
                    note_aliasing(element)
            elif isinstance(value, ast.Dict):
                for sub in list(value.keys) + list(value.values):
                    if sub is not None:
                        note_aliasing(sub)
            elif isinstance(value, ast.Starred):
                note_aliasing(value.value)
            elif isinstance(value, (ast.IfExp,)):
                note_aliasing(value.body)
                note_aliasing(value.orelse)

        for root in _event_exprs(event):
            for sub in _walk_shallow(root):
                if isinstance(sub, (ast.Return, ast.Yield, ast.YieldFrom)):
                    if sub.value is not None:
                        note(sub.value)
                elif isinstance(sub, ast.Await):
                    note(sub.value)
                elif isinstance(sub, ast.Call):
                    for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
                        note(arg)
                elif isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    if sub.value is not None:
                        note_aliasing(sub.value)
                elif isinstance(sub, ast.NamedExpr):
                    note_aliasing(sub.value)
        return escaping


@register_pass
class MustReleasePass(FlowPass):
    pass_id = "must-release"
    description = (
        "a lease/lock/file handle acquired on some path but not released "
        "on every path to the function exit"
    )

    def check_function(
        self, cfg: ControlFlowGraph, aliases: Aliases, path: str
    ) -> Iterator[Finding]:
        resources = self._discover(cfg, aliases)
        if not resources:
            return
        scan = _ReleaseScan(resources)
        acquire_sites = {id(r.node): r for r in resources}
        lattice: MapLattice[str, FrozenSet[str]] = MapLattice(SetUnionLattice())

        def transfer(
            block: BasicBlock, fact: Mapping[str, FrozenSet[str]]
        ) -> Mapping[str, FrozenSet[str]]:
            state = dict(fact)
            for event in block.events:
                for key, flags in scan.effects(event).items():
                    state[key] = flags  # strong update along this path
                site = self._acquire_in(event)
                if site is not None and id(site) in acquire_sites:
                    state[acquire_sites[id(site)].key] = frozenset({_OPEN})
            return state

        facts = solve_forward(cfg, lattice, transfer, lattice.bottom())
        exit_facts = facts.get(cfg.exit.index)
        if exit_facts is None:  # exit unreachable (infinite loop)
            return
        at_exit = exit_facts[0]
        for resource in resources:
            if _OPEN in at_exit.get(resource.key, frozenset()):
                yield self.finding(
                    path,
                    resource.node,
                    f"{resource.what} acquired here may never be released: "
                    "some path to the function exit skips "
                    "release()/close()/detach(); release in a finally "
                    "block or transfer ownership explicitly",
                )

    @staticmethod
    def _acquire_in(event: Event) -> Optional[ast.AST]:
        """The acquisition call of ``event``, if it is one."""
        if isinstance(event, ast.Assign) and isinstance(event.value, ast.Call):
            return event.value
        if isinstance(event, ast.Expr) and isinstance(event.value, ast.Call):
            return event.value
        return None

    def _discover(
        self, cfg: ControlFlowGraph, aliases: Aliases
    ) -> List[_Resource]:
        resources: Dict[str, _Resource] = {}
        for event in cfg.events_in_order():
            if isinstance(event, ast.Assign) and isinstance(event.value, ast.Call):
                what = _acquisition(event.value, aliases)
                if what is None or len(event.targets) != 1:
                    continue
                target = event.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                key = f"name:{target.id}"
                if key not in resources:
                    label = (
                        "file handle"
                        if what == "file handle"
                        else f"lease {target.id!r}"
                    )
                    resources[key] = _Resource(
                        key=key,
                        node=event.value,
                        what=label,
                        name=target.id,
                        receiver=_receiver_dump(event.value),
                    )
            elif isinstance(event, ast.Expr) and isinstance(event.value, ast.Call):
                call = event.value
                if (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr == "acquire"
                ):
                    receiver = ast.dump(call.func.value)
                    key = f"recv:{receiver}"
                    if key not in resources:
                        resources[key] = _Resource(
                            key=key,
                            node=call,
                            what=f"lock {ast.unparse(call.func.value)!r}",
                            name=None,
                            receiver=receiver,
                        )
        return list(resources.values())


# -- blocking-in-async -------------------------------------------------------

_BLOCKING_CALLS = {
    "time.sleep": "blocks the event loop; use `await asyncio.sleep(...)`",
    "socket.create_connection": (
        "performs a blocking connect on the loop thread; use "
        "`loop.sock_connect` or open the connection off-loop"
    ),
    "socket.getaddrinfo": "blocking DNS resolution; use `loop.getaddrinfo`",
    "subprocess.run": "blocks until the child exits; use `asyncio.create_subprocess_exec`",
    "subprocess.call": "blocks until the child exits; use `asyncio.create_subprocess_exec`",
    "subprocess.check_call": "blocks until the child exits; use `asyncio.create_subprocess_exec`",
    "subprocess.check_output": "blocks until the child exits; use `asyncio.create_subprocess_exec`",
    "os.fsync": "blocking disk flush; offload to an executor",
    "os.unlink": "filesystem metadata op that can block the loop; offload to an executor",
    "os.remove": "filesystem metadata op that can block the loop; offload to an executor",
    "os.replace": "filesystem metadata op that can block the loop; offload to an executor",
    "open": "direct file I/O on the loop thread; offload to an executor",
    "io.open": "direct file I/O on the loop thread; offload to an executor",
    "shutil.rmtree": "blocking recursive delete; offload to an executor",
}

# Method names that are blocking when invoked directly (the async
# spellings go through `loop.sock_*` / awaitable wrappers instead).
_BLOCKING_METHODS = {
    "accept": "use `loop.sock_accept`",
    "recv": "use `loop.sock_recv`",
    "recv_into": "use `loop.sock_recv_into`",
    "sendall": "use `loop.sock_sendall`",
    "acquire": (
        "a threading lock blocks the whole loop; keep critical sections "
        "lock-free on the loop or use an asyncio.Lock"
    ),
    "shutdown": "joining worker threads stalls every connection on the loop",
}


@register_pass
class BlockingInAsyncPass(FlowPass):
    pass_id = "blocking-in-async"
    description = (
        "blocking calls (sleep, socket ops, lock acquire, file I/O) "
        "reachable inside async def bodies"
    )

    def check_function(
        self, cfg: ControlFlowGraph, aliases: Aliases, path: str
    ) -> Iterator[Finding]:
        if not cfg.is_async:
            return
        awaited: Set[int] = set()
        for node in _walk_shallow(cfg.func):
            if isinstance(node, ast.Await):
                awaited.add(id(node.value))
        reachable = cfg.reachable()
        for block in cfg.blocks:
            if block.index not in reachable:
                continue
            for event in block.events:
                for call in _calls_in(event):
                    if id(call) in awaited:
                        continue  # awaitable wrappers are the fix, not the bug
                    complaint = self._complaint(call, aliases)
                    if complaint is not None:
                        yield self.finding(
                            path,
                            call,
                            f"{complaint[0]} inside async def "
                            f"{cfg.func.name!r}: {complaint[1]}",
                        )

    @staticmethod
    def _complaint(call: ast.Call, aliases: Aliases) -> Optional[Tuple[str, str]]:
        target = _canonical(call.func, aliases)
        if target in _BLOCKING_CALLS:
            return f"{target}()", _BLOCKING_CALLS[target]
        if isinstance(call.func, ast.Attribute):
            method = call.func.attr
            if method in _BLOCKING_METHODS:
                receiver = _last_segment(call.func.value)
                if method in {"accept", "recv", "recv_into", "sendall"}:
                    # loop.sock_* / stream wrappers carry distinct names,
                    # so a bare socket method here is the blocking one.
                    return (
                        f".{method}() (blocking socket op)",
                        _BLOCKING_METHODS[method],
                    )
                if method == "acquire" and receiver is not None:
                    return f"{receiver}.acquire()", _BLOCKING_METHODS[method]
                if method == "shutdown" and call.keywords:
                    waits = any(
                        kw.arg == "wait"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                        for kw in call.keywords
                    )
                    if waits:
                        return (
                            f".{method}(wait=True)",
                            _BLOCKING_METHODS[method],
                        )
        return None


# -- lock-across-await -------------------------------------------------------


def _lock_like(expr: ast.expr, aliases: Aliases) -> Optional[str]:
    """A short label if ``expr`` names (or constructs) a blessed lock."""
    if isinstance(expr, ast.Call):
        target = _canonical(expr.func, aliases)
        if target is not None and target.rsplit(".", 1)[-1] in {
            "make_lock",
            "make_rlock",
        }:
            return ast.unparse(expr)
        return None
    segment = _last_segment(expr)
    if segment is not None and (
        "lock" in segment.lower() or "mutex" in segment.lower()
    ):
        return segment
    return None


@register_pass
class LockAcrossAwaitPass(FlowPass):
    pass_id = "lock-across-await"
    description = "a make_lock() lock held across an await expression"

    def check_function(
        self, cfg: ControlFlowGraph, aliases: Aliases, path: str
    ) -> Iterator[Finding]:
        if not cfg.is_async:
            return
        yield from self._with_blocks(cfg, aliases, path)
        yield from self._explicit_acquires(cfg, aliases, path)

    # A sync `with lock:` whose body awaits: structural, since the body
    # is lexically scoped.  (`async with` is the asyncio-lock idiom and
    # is exempt — those locks are made to be held across awaits.)
    def _with_blocks(
        self, cfg: ControlFlowGraph, aliases: Aliases, path: str
    ) -> Iterator[Finding]:
        for node in _walk_shallow(cfg.func):
            if not isinstance(node, ast.With):
                continue
            held = [
                label
                for item in node.items
                if (label := _lock_like(item.context_expr, aliases)) is not None
            ]
            if not held:
                continue
            for stmt in node.body:
                for sub in _walk_shallow(stmt):
                    if isinstance(sub, ast.Await):
                        yield self.finding(
                            path,
                            sub,
                            f"await while holding lock {held[0]!r}: every "
                            "other task on the loop blocks on this lock "
                            "for the await's full duration; release "
                            "before awaiting",
                        )

    # Explicit lock.acquire() ... await ... lock.release() sequences:
    # a forward may-analysis over the CFG (held on *any* path in).
    def _explicit_acquires(
        self, cfg: ControlFlowGraph, aliases: Aliases, path: str
    ) -> Iterator[Finding]:
        lattice: SetUnionLattice[str] = SetUnionLattice()

        def step(
            event: Event,
            held: FrozenSet[str],
            report: Optional[List[Tuple[ast.Await, str]]],
        ) -> FrozenSet[str]:
            if held and report is not None:
                for root in _event_exprs(event):
                    for sub in _walk_shallow(root):
                        if isinstance(sub, ast.Await):
                            report.append((sub, sorted(held)[0]))
            for call in _calls_in(event):
                if not isinstance(call.func, ast.Attribute):
                    continue
                label = _lock_like(call.func.value, aliases)
                if label is None:
                    continue
                if call.func.attr == "acquire":
                    held = held | {label}
                elif call.func.attr == "release":
                    held = held - {label}
            return held

        def transfer(block: BasicBlock, fact: FrozenSet[str]) -> FrozenSet[str]:
            for event in block.events:
                fact = step(event, fact, None)
            return fact

        facts = solve_forward(cfg, lattice, transfer, lattice.bottom())
        findings: List[Tuple[ast.Await, str]] = []
        reachable = cfg.reachable()
        for block in cfg.blocks:
            if block.index not in reachable:
                continue
            fact = facts[block.index][0]
            for event in block.events:
                fact = step(event, fact, findings)
        for await_node, label in findings:
            yield self.finding(
                path,
                await_node,
                f"await while lock {label!r} is held (acquired without "
                "release on this path): release before awaiting",
            )


# -- wire-exhaustiveness -----------------------------------------------------


@dataclass
class _Dispatch:
    """One ``subject == FrameType.X`` arm of a dispatch."""

    stmt: ast.If
    member: str
    parent: Sequence[ast.stmt]
    index: int


def _frametype_member(expr: ast.expr, variants: Set[str]) -> Optional[str]:
    """``FrameType.X`` (under any import alias) -> ``"X"``."""
    if not isinstance(expr, ast.Attribute) or expr.attr not in variants:
        return None
    owner = _last_segment(expr.value)
    return expr.attr if owner == "FrameType" else None


@register_pass
class WireExhaustivenessPass(FlowPass):
    pass_id = "wire-exhaustiveness"
    description = (
        "a FrameType dispatch covering only some protocol variants with "
        "no explicit default"
    )

    def _variants(self) -> Optional[Set[str]]:
        # Lazy, like the fault-site pass: lint must stay loadable even
        # when the wire module (or numpy underneath it) cannot import.
        try:
            from repro.core.wire import FrameType
        except Exception:  # pragma: no cover - defensive
            return None
        return {member.name for member in FrameType}

    def check_function(
        self, cfg: ControlFlowGraph, aliases: Aliases, path: str
    ) -> Iterator[Finding]:
        variants = self._variants()
        if not variants:
            return
        func = cfg.func
        groups: Dict[str, List[_Dispatch]] = {}
        defaults: Set[str] = set()
        self._scan(func.body, variants, groups, defaults)
        yield from self._judge_matches(func, variants, path)
        for subject, arms in groups.items():
            covered = {arm.member for arm in arms}
            if len(covered) < 2 or covered >= variants:
                continue
            if subject in defaults or self._has_default(arms):
                continue
            missing = ", ".join(sorted(variants - covered))
            yield self.finding(
                path,
                arms[-1].stmt,
                f"dispatch on wire.FrameType handles only "
                f"{{{', '.join(sorted(covered))}}} and silently ignores "
                f"{{{missing}}}: handle every variant or add an explicit "
                "default that raises/reports",
            )

    def _scan(
        self,
        body: Sequence[ast.stmt],
        variants: Set[str],
        groups: Dict[str, List[_Dispatch]],
        defaults: Set[str],
    ) -> None:
        for index, stmt in enumerate(body):
            if isinstance(stmt, ast.If):
                arm = self._dispatch_arm(stmt, variants, body, index)
                if arm is not None:
                    subject, dispatch = arm
                    groups.setdefault(subject, []).append(dispatch)
            for child_body in self._child_bodies(stmt):
                self._scan(child_body, variants, groups, defaults)

    @staticmethod
    def _child_bodies(stmt: ast.stmt) -> Iterator[Sequence[ast.stmt]]:
        for attr in ("body", "orelse", "finalbody"):
            child = getattr(stmt, attr, None)
            if child and isinstance(child, list) and isinstance(child[0], ast.stmt):
                yield child
        for handler in getattr(stmt, "handlers", []) or []:
            yield handler.body

    def _dispatch_arm(
        self,
        stmt: ast.If,
        variants: Set[str],
        parent: Sequence[ast.stmt],
        index: int,
    ) -> Optional[Tuple[str, _Dispatch]]:
        test = stmt.test
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Eq, ast.Is))
            and len(test.comparators) == 1
        ):
            return None
        member = _frametype_member(test.comparators[0], variants)
        subject: Optional[ast.expr] = test.left
        if member is None:
            member = _frametype_member(test.left, variants)
            subject = test.comparators[0] if member is not None else None
        if member is None or subject is None:
            return None
        return ast.dump(subject), _Dispatch(stmt, member, parent, index)

    def _has_default(self, arms: List[_Dispatch]) -> bool:
        # (a) an if/elif chain ending in a real else.
        for arm in arms:
            node: ast.If = arm.stmt
            while True:
                orelse = node.orelse
                if len(orelse) == 1 and isinstance(orelse[0], ast.If):
                    node = orelse[0]
                    continue
                if orelse and any(
                    not isinstance(s, ast.Pass) for s in orelse
                ):
                    return True
                break
        # (b) sequential `if ...: ... continue/return` arms with a
        # trailing fall-through handler in the same statement list.
        last = arms[-1]
        if all(terminates_abruptly(arm.stmt.body) for arm in arms):
            trailing = [
                s
                for s in last.parent[last.index + 1 :]
                if not isinstance(s, ast.Pass)
            ]
            if trailing:
                return True
        return False

    def _judge_matches(
        self, func: ast.AST, variants: Set[str], path: str
    ) -> Iterator[Finding]:
        for node in _walk_shallow(func):
            if not isinstance(node, ast.Match):
                continue
            covered: Set[str] = set()
            has_default = False
            for case in node.cases:
                if (
                    isinstance(case.pattern, ast.MatchAs)
                    and case.pattern.pattern is None
                ):
                    has_default = any(
                        not isinstance(s, ast.Pass) for s in case.body
                    )
                    continue
                member = self._case_member(case.pattern, variants)
                if member is not None:
                    covered.add(member)
            if len(covered) >= 2 and covered < variants and not has_default:
                missing = ", ".join(sorted(variants - covered))
                yield self.finding(
                    path,
                    node,
                    f"match on wire.FrameType handles only "
                    f"{{{', '.join(sorted(covered))}}} and silently ignores "
                    f"{{{missing}}}: add the remaining cases or a "
                    "`case _:` default that raises/reports",
                )

    @staticmethod
    def _case_member(pattern: ast.pattern, variants: Set[str]) -> Optional[str]:
        if isinstance(pattern, ast.MatchValue):
            return _frametype_member(pattern.value, variants)
        return None

"""Spans around the public entry points of each layer, recorded from the benchmark's side.

:func:`install_server_side` and :func:`install_client_side` replace each entry
point with a wrapper at the place its caller looks it up (a class attribute,
or a module global of the calling module).  A span is ``(id, parent, name,
layer, start, end, cpu, note)``; the parent is the innermost open span of the
same thread.  Spans stay in memory and are written when the process ends.

Clocks: ``time.perf_counter`` is CLOCK_MONOTONIC on Linux, one clock for all
processes of the machine, so spans of the server process can be placed inside
the client's fetch that caused them (:func:`link_processes`).

A layer's self time is its span's duration minus the part of that interval
its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import hashlib
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    id: str
    parent: Optional[str]
    name: str
    layer: str
    start: float
    end: float
    cpu: float
    note: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store of one process."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, layer: str, name: str, note: Optional[Dict[str, object]] = None) -> Iterator[Dict]:
        """Record one span around the ``with`` body; the yielded dict becomes its note."""
        stack = self._stack()
        span_id = f"{self.process}:{next(self._ids)}"
        parent = stack[-1] if stack else None
        note = dict(note or {})
        stack.append(span_id)
        cpu = time.thread_time()
        start = time.perf_counter()
        try:
            yield note
        except BaseException as error:
            note["error"] = type(error).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, layer, start, end, time.thread_time() - cpu, note))

    def wrap(self, layer: str, name: str, fn: Callable, describe: Optional[Callable] = None) -> Callable:
        """*fn* recording a span per call; ``describe(args, result)`` fills the note."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, name) as note:
                result = fn(*args, **kwargs)
                if describe is not None:
                    note.update(describe(args, result))
                return result

        traced.__wrapped_by_bench__ = True
        return traced

    def dump(self) -> List[Dict[str, object]]:
        return [span.__dict__ for span in self.spans]


class NullRecorder(Recorder):
    """The recorder of an untraced run: spans cost one context switch and keep nothing."""

    @contextlib.contextmanager
    def span(self, layer: str, name: str, note: Optional[Dict[str, object]] = None) -> Iterator[Dict]:
        yield {}


def _patch(recorder: Recorder, owner: object, attribute: str, layer: str, name: str, describe=None) -> None:
    original = getattr(owner, attribute)
    if getattr(original, "__wrapped_by_bench__", False):
        return
    setattr(owner, attribute, recorder.wrap(layer, name, original, describe))


class JsonShim:
    """Stands in for the ``json`` module inside one program module.

    ``loads`` can record the length and a digest of every body it parses
    (the wire bytes of a response), and both ``loads`` and ``dumps`` can be
    traced; every other attribute is the real module's.
    """

    def __init__(self) -> None:
        self.loads_hook: Optional[Callable] = None
        self.dumps_hook: Optional[Callable] = None
        self.last_body: Optional[Tuple[int, bytes]] = None

    def __getattr__(self, name: str):
        return getattr(json, name)

    def loads(self, raw, *args, **kwargs):
        if isinstance(raw, (bytes, bytearray)):
            self.last_body = (len(raw), hashlib.blake2b(raw, digest_size=16).digest())
        if self.loads_hook is not None:
            return self.loads_hook(raw, *args, **kwargs)
        return json.loads(raw, *args, **kwargs)

    def dumps(self, obj, *args, **kwargs):
        if self.dumps_hook is not None:
            return self.dumps_hook(obj, *args, **kwargs)
        return json.dumps(obj, *args, **kwargs)


def install_body_recorder() -> JsonShim:
    """Record every body the client transport parses (sizes and byte identity)."""
    import repro.client.transport as transport

    if not isinstance(transport.json, JsonShim):
        transport.json = JsonShim()
    return transport.json


def _solve_note(args, raw) -> Dict[str, object]:
    return {"iterations": raw.iterations or 0, "warm": bool(raw.warm), "cold_retry": bool(raw.cold_retry)}


def install_server_side(recorder: Recorder) -> None:
    """Wrap the engine, pipeline, LP, service and HTTP entry points."""
    import repro.core.robust as robust
    import repro.service.http as http
    from repro.core.lp import ConstraintStructure
    from repro.core.solver import HighsNativeSession, ScipySolverSession
    from repro.server.engine import ForestEngine
    from repro.server.messages import PrivacyForestResponse
    from repro.service.service import CORGIService

    for session in (ScipySolverSession, HighsNativeSession):
        _patch(recorder, session, "solve", "core.solver", "solve", _solve_note)
    _patch(recorder, ConstraintStructure, "inequality_matrix", "core.lp", "refresh")
    _patch(recorder, ConstraintStructure, "__init__", "core.lp", "structure_build")
    _patch(recorder, robust, "reserved_privacy_budget_approx", "core.robust", "rpb")
    _patch(
        recorder,
        ForestEngine,
        "build_forest_traced",
        "server.engine",
        "build",
        lambda args, result: {"cached": bool(result[1])},
    )
    _patch(recorder, CORGIService, "handle", "service", "handle")
    _patch(recorder, CORGIService, "publish_priors", "service", "publish")
    _patch(recorder, PrivacyForestResponse, "to_dict", "service.encode", "to_dict")
    for method in ("do_POST", "do_GET"):
        _patch(
            recorder,
            http.CORGIRequestHandler,
            method,
            "service.http",
            "request",
            lambda args, result: {"path": args[0].path},
        )
    if not isinstance(http.json, JsonShim):
        http.json = JsonShim()
    http.json.dumps_hook = recorder.wrap("service.encode", "json_dumps", json.dumps)


def install_client_side(recorder: Recorder) -> None:
    """Wrap the client, transport, policy, customization and tree entry points."""
    import repro.client.client as client
    import repro.core.precision as precision
    import repro.core.pruning as pruning
    from repro.client.transport import HTTPTransport
    from repro.core.matrix import ObfuscationMatrix
    from repro.server.messages import PrivacyForestResponse
    from repro.tree.location_tree import LocationTree

    _patch(recorder, client.CORGIClient, "obfuscate", "client", "obfuscate")
    _patch(recorder, HTTPTransport, "fetch_forest", "client.fetch", "fetch_forest")
    _patch(recorder, HTTPTransport, "publish_priors", "client.fetch", "publish_priors")
    _patch(recorder, PrivacyForestResponse, "from_dict", "client.decode", "from_dict")
    install_body_recorder().loads_hook = recorder.wrap("client.decode", "json_loads", json.loads)
    _patch(recorder, client, "evaluate_preferences", "policy", "evaluate")
    for module in (client, pruning):
        _patch(recorder, module, "prune_matrix", "core.pruning", "prune")
    for module in (client, precision):
        _patch(recorder, module, "precision_reduction", "core.precision", "reduce")
    _patch(recorder, ObfuscationMatrix, "sample", "core.matrix", "sample")
    _patch(recorder, LocationTree, "leaf_for_latlng", "tree", "leaf_lookup")


# ---------------------------------------------------------------------- #
# Analysis
# ---------------------------------------------------------------------- #


def load(records: List[Dict[str, object]]) -> List[Span]:
    return [Span(**record) for record in records]


def link_processes(client: List[Span], server: List[Span]) -> List[Span]:
    """Give each top-level server span the client fetch span whose interval holds it.

    Server spans outside every fetch (set-up, the benchmark's own checks)
    are dropped.  Fetches never overlap: one connection, closed loop.
    """
    fetches = sorted((span for span in client if span.layer == "client.fetch"), key=lambda span: span.start)
    starts = [span.start for span in fetches]
    kept_roots = set()
    for span in server:
        if span.parent is not None:
            continue
        position = bisect.bisect_right(starts, span.start) - 1
        if position >= 0 and fetches[position].end >= span.end:
            span.parent = fetches[position].id
            kept_roots.add(span.id)
    by_id = {span.id: span for span in server}

    def root_of(span: Span) -> str:
        while span.parent in by_id:
            span = by_id[span.parent]
        return span.id

    return client + [span for span in server if root_of(span) in kept_roots]


def measured(spans: List[Span], root_layer: str = "bench") -> List[Span]:
    """The spans under the benchmark's measured operations (roots in *root_layer*)."""
    by_id = {span.id: span for span in spans}

    def under_measured_root(span: Span) -> bool:
        while span.parent in by_id:
            span = by_id[span.parent]
        return span.parent is None and span.layer == root_layer

    return [span for span in spans if under_measured_root(span)]


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Per span id: duration minus the union of its children's intervals (clipped to it)."""
    children: Dict[str, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, []), key=lambda c: c.start):
            begin, end = max(child.start, cursor), min(child.end, span.end)
            if end > begin:
                covered += end - begin
                cursor = end
        result[span.id] = span.duration - covered
    return result


def layer_self_times(spans: List[Span]) -> Dict[str, float]:
    """Total self time per layer, in seconds."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0.0) + own[span.id]
    return totals

"""Per-layer wall-clock spans, recorded from outside the program.

:class:`SpanRecorder` wraps the functions listed in :data:`LAYERS` at the
name each caller resolves: a method is replaced on its class, a function
imported by name is replaced in every importing module's globals. Each
call of a wrapped function records one span (name, start, end, parent)
into flat in-memory arrays; nothing is written until the run is over.

A span's self time is its duration minus the time its child spans cover.
A layer's self time is the self time of all its spans; ``core`` is the
traced round's wall time that no layer covers (site protocol logic,
message objects and kernel dispatch), so the layer shares and the
``core`` share add up to the round's wall time.

Binary span dump (``write_spans``/``read_spans``): a JSON header line
holding the span-name table and the span count, then four packed arrays
of that length — name index (int32), parent index (int32, -1 for a top
level span), start and end (float64, ``time.perf_counter`` seconds).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

#: layer -> (module, target) pairs. A target is a function name, a
#: ``Class.method`` name, or ``Class.*`` for every public method the class
#: itself defines (properties excluded: they are attribute reads).
LAYERS: dict[str, list[tuple[str, str]]] = {
    "sim.network": [("repro.sim.network", "Network.send")],
    "locking": [
        ("repro.locking.manager", "LockManager.*"),
        ("repro.locking.table", "LockTable.*"),
    ],
    "deadlock": [
        ("repro.deadlock.wfg", "WaitForGraph.*"),
        ("repro.core.detector", "DeadlockDetector.on_response"),
    ],
    "protocols": [
        ("repro.protocols.xdgl", "XDGLProtocol.lock_spec_for_query"),
        ("repro.protocols.xdgl", "XDGLProtocol.lock_spec_for_update"),
    ],
    "xpath": [
        ("repro.xpath.parser", "parse_xpath"),
        ("repro.xpath.evaluator", "evaluate"),
        ("repro.xpath.evaluator", "evaluate_values"),
        ("repro.xpath.guide", "match_structure"),
    ],
    "dataguide": [
        ("repro.dataguide.guide", "DataGuide.build"),
        ("repro.dataguide.guide", "DataGuide.add_document_node"),
        ("repro.dataguide.guide", "DataGuide.remove_document_node"),
        ("repro.dataguide.guide", "DataGuide.apply_change"),
        ("repro.dataguide.guide", "DataGuide.undo_change"),
    ],
    "update": [
        ("repro.update.applier", "apply_update"),
        ("repro.update.undo", "UndoLog.rollback"),
    ],
    "xml": [
        ("repro.xml.serializer", "serialize_document"),
        ("repro.xml.serializer", "serialize_element"),
        ("repro.xml.parser", "parse_document"),
        ("repro.xml.parser", "parse_fragment"),
    ],
    "storage": [
        ("repro.storage.memory", "InMemoryStore.*"),
        ("repro.storage.datamanager", "DataManager.*"),
    ],
    "distribution": [
        ("repro.distribution.replication", "UpdateLog.*"),
        ("repro.distribution.replication", "ReplicationPolicy.*"),
        ("repro.distribution.quorum", "majority"),
        ("repro.distribution.quorum", "version_frontier"),
        ("repro.distribution.quorum", "choose_read_replica"),
        ("repro.distribution.quorum", "QuorumSpec.*"),
    ],
    "views": [
        ("repro.views", "ViewManager.serve"),
        ("repro.views", "ViewManager.ingest_delta"),
        ("repro.views", "ViewManager.install_snapshot"),
    ],
    "workload": [
        ("repro.workload.xmark", "generate_xmark"),
        ("repro.workload.xmark", "xmark_fragments"),
        ("repro.workload.generator", "DTXTester.*"),
    ],
    # Instrumentation of the traced run itself (repro.obs spans and the
    # kernel-event recorder), kept out of ``core`` so that ``core`` stays
    # comparable between traced runs of different instrumentation density.
    "obs": [
        ("repro.obs.tracer", "Tracer.*"),
        ("repro.verify.schedule_digest", "TraceRecorder._record"),
    ],
}

#: Span names whose return value feeds a per-layer counter.
STORE_SPAN = "InMemoryStore.store"
SERVE_SPAN = "ViewManager.serve"


class SpanRecorder:
    """Installs span wrappers, records spans, aggregates them per layer."""

    def __init__(self, extra_modules: tuple = ()) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._extra_modules = extra_modules
        #: sum of InMemoryStore.store return values (bytes stored)
        self.bytes_stored = 0
        #: ViewManager.serve calls that answered (ok=True)
        self.serves_ok = 0

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for module_name, target in targets:
                module = importlib.import_module(module_name)
                if "." in target:
                    cls_name, attr = target.split(".", 1)
                    cls = getattr(module, cls_name)
                    attrs = _public_methods(cls) if attr == "*" else [attr]
                    for name in attrs:
                        self._patch_method(layer, cls, name)
                else:
                    self._patch_function(layer, getattr(module, target))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch_method(self, layer: str, cls: type, name: str) -> None:
        raw = cls.__dict__[name]
        label = f"{cls.__name__}.{name}"
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(layer, label, raw.__func__))
        else:
            wrapped = self._wrap(layer, label, raw)
        self._patches.append((cls, name, raw))
        setattr(cls, name, wrapped)

    def _patch_function(self, layer: str, fn) -> None:
        wrapped = self._wrap(layer, fn.__name__, fn)
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "repro" or n.startswith("repro.")
        ]
        modules.extend(self._extra_modules)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def _wrap(self, layer: str, label: str, fn):
        if inspect.isgeneratorfunction(fn):
            # A generator's body runs at iteration, outside the call.
            raise TypeError(f"cannot time generator function {label}")
        nid = len(self.names)
        self.names.append(label)
        self.layer_of.append(layer)
        names, parents = self.name_idx.append, self.parent.append
        starts, ends = self.start, self.end
        start_append, end_append = starts.append, ends.append
        stack = self._stack
        push, pop = stack.append, stack.pop
        clock = time.perf_counter

        if label == STORE_SPAN or label == SERVE_SPAN:
            count = self._count_store if label == STORE_SPAN else self._count_serve

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                idx = len(starts)
                names(nid)
                parents(stack[-1])
                push(idx)
                end_append(0.0)
                start_append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    pop()
                count(result)
                return result

            return counted

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(starts)
            names(nid)
            parents(stack[-1])
            push(idx)
            end_append(0.0)
            start_append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                pop()

        return span

    def _count_store(self, size: int) -> None:
        self.bytes_stored += size

    def _count_serve(self, answer: tuple) -> None:
        self.serves_ok += bool(answer[0])

    # -- aggregation -----------------------------------------------------

    def aggregate(self) -> tuple[dict, dict, list[str]]:
        """Per-name (calls, self seconds) and per-layer totals.

        Returns ``(by_name, by_layer, errors)``; ``errors`` lists spans
        that are not nested inside their parent or never ended.
        """
        n = len(self.start)
        start, end, parent, name_idx = self.start, self.end, self.parent, self.name_idx
        child = [0.0] * n
        errors: list[str] = []
        for i in range(n):
            s, e, p = start[i], end[i], parent[i]
            if e < s:
                errors.append(f"span {i} ({self.names[name_idx[i]]}) ends before it starts")
            elif p >= 0:
                if s < start[p] or e > end[p]:
                    errors.append(f"span {i} is not nested inside its parent {p}")
                child[p] += e - s
            if len(errors) > 10:
                break
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = name_idx[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i]
        by_name = {
            label: {"layer": self.layer_of[k], "calls": calls[k], "self_s": self_s[k]}
            for k, label in enumerate(self.names)
            if calls[k]
        }
        by_layer = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for k, layer in enumerate(self.layer_of):
            by_layer[layer]["calls"] += calls[k]
            by_layer[layer]["self_s"] += self_s[k]
        return by_name, by_layer, errors

    # -- output ----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        header = {"names": self.names, "layers": self.layer_of, "count": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_idx, self.parent, self.start, self.end):
                arr.tofile(fh)


def read_spans(path: Path) -> tuple[dict, list[tuple[str, int, float, float]]]:
    """Load a span dump: ``(header, [(name, parent, start, end), ...])``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    names = header["names"]
    name_idx, parent, start, end = arrays
    return header, [
        (names[name_idx[i]], parent[i], start[i], end[i]) for i in range(n)
    ]


def _public_methods(cls: type) -> list[str]:
    return [
        name
        for name, raw in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod)))
    ]

"""Span tracing from outside ``src/``: timing wrappers around layer entry points.

The traced run patches the public functions each layer exposes (the
table in :data:`TARGETS`) with wrappers that record one span per call:
name, start, end and parent, kept in memory as flat integer arrays and
written out once at the end.  Generator functions (the file-system ops,
the Darshan observe hook, the connector listener, the slow-lane publish)
get one span per *resume* of the generator, so a simulated process that
waits on the engine is never charged for the wait.

The simulator is single-threaded and every resume is a synchronous
nested call, so spans nest strictly: a stack gives each span its parent.
A span's self time is its duration minus the durations of its direct
children, all in integer nanoseconds, so

    Σ self times of all layer spans + self time of the root == root duration

holds exactly; :meth:`SpanRecorder.summary` reports the root's self time
as the residual.  That identity holds by construction, so the summary
also checks what could go wrong: every span lies, by its own timestamps,
inside its parent's, and the root span brackets the wall the caller
measured with its own clock readings, with at most
:data:`ROOT_SLACK_NS` to spare.

Install wrappers *before* building the ``World``: the pipeline captures
bound methods (bus subscriber lists, periodic ticks) at construction.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter_ns

__all__ = ["BUCKETS", "CALL_COUNTS", "MissingTargetError", "SpanRecorder",
           "TARGETS", "install", "uninstall"]

#: ``(module, qualified attribute, bucket)`` for every wrapped callable.
#: A bucket is the per-layer self-time metric the span's self time adds
#: to.  A target missing from the tree fails the traced rep (see
#: :func:`install`): a renamed entry point must be renamed here too, or
#: its time would silently move into its caller's bucket.
TARGETS = (
    ("repro.sim.engine", "Environment.run", "sim.self_s"),
    ("repro.fs.base", "FileSystem.open", "fs.self_s"),
    ("repro.fs.base", "FileSystem.close", "fs.self_s"),
    ("repro.fs.base", "FileSystem.read", "fs.self_s"),
    ("repro.fs.base", "FileSystem.write", "fs.self_s"),
    ("repro.fs.base", "FileSystem.fsync", "fs.self_s"),
    ("repro.fs.base", "FileSystem.stat", "fs.self_s"),
    ("repro.fs.base", "FileSystem.unlink", "fs.self_s"),
    ("repro.darshan.modules", "ModuleHook.after_op", "darshan.observe_s"),
    ("repro.darshan.runtime", "DarshanRuntime.observe", "darshan.observe_s"),
    ("repro.core.connector", "DarshanLdmsConnector.on_io_event",
     "core.on_io_event_s"),
    ("repro.core.json_format", "MessageBuilder.format", "core.format_s"),
    ("repro.core.json_format", "MessageBuilder.format_columnar",
     "core.format_s"),
    ("repro.core.batch", "ColumnarSpine.append", "spine.append_s"),
    ("repro.core.batch", "ColumnarSpine.advance", "spine.append_s"),
    ("repro.core.batch", "ColumnarSpine.drain_all", "spine.append_s"),
    ("repro.ldms.daemon", "Ldmsd.publish", "ldms.publish_s"),
    ("repro.ldms.daemon", "Ldmsd.publish_prepaid", "ldms.publish_s"),
    ("repro.ldms.daemon", "Ldmsd.publish_prepaid_message", "ldms.publish_s"),
    ("repro.ldms.daemon", "Ldmsd.publish_now", "ldms.publish_s"),
    ("repro.ldms.streams", "StreamsBus.publish", "ldms.bus_publish_s"),
    ("repro.ldms.streams", "StreamsBus.publish_batch", "ldms.bus_publish_s"),
    ("repro.ldms.daemon", "Ldmsd.receive", "ldms.receive_s"),
    ("repro.ldms.daemon", "Ldmsd.receive_batch", "ldms.receive_s"),
    ("repro.dsos.store_plugin", "DsosStreamStore.on_message", "dsos.ingest_s"),
    ("repro.dsos.cluster", "DsosCluster.insert", "dsos.ingest_s"),
    ("repro.dsos.cluster", "DsosCluster.insert_many", "dsos.ingest_s"),
    ("repro.dsos.cluster", "DsosCluster.insert_replicated", "dsos.ingest_s"),
    ("repro.dsos.index", "SortedIndex._materialize",
     "dsos.index_materialize_s"),
    ("repro.dsos.index", "SortedIndex.range", "dsos.query_s"),
    ("repro.dsos.index", "SortedIndex.prefix_range", "dsos.query_s"),
    ("repro.dsos.daemon", "Dsosd.query_shard", "dsos.query_s"),
    ("repro.dsos.query", "Query.execute", "dsos.query_s"),
    ("repro.dsos.client", "DsosClient.query", "dsos.query_s"),
    ("repro.telemetry.collector", "TraceCollector.begin", "telemetry.hop_s"),
    ("repro.telemetry.collector", "TraceCollector.hop", "telemetry.hop_s"),
    ("repro.telemetry.collector", "TraceCollector.open_hop", "telemetry.hop_s"),
    ("repro.telemetry.collector", "TraceCollector.close_hop",
     "telemetry.hop_s"),
    ("repro.telemetry.collector", "TraceCollector.hop_batch",
     "telemetry.hop_s"),
    ("repro.telemetry.collector", "TraceCollector.close_hop_batch",
     "telemetry.hop_s"),
    ("repro.diagnosis.engine", "DiagnosisEngine.tick", "diagnosis.tick_s"),
    ("repro.telemetry.flightrec", "FlightRecorder.tick", "flightrec.tick_s"),
    ("repro.webservices.grafana", "Dashboard.render", "webservices.render_s"),
    ("repro.webservices.grafana", "DsosDataSource.query",
     "webservices.render_s"),
    ("repro.webservices.analysis", "op_counts_with_ci",
     "webservices.analysis_s"),
    ("repro.webservices.analysis", "ops_per_node", "webservices.analysis_s"),
    ("repro.webservices.analysis", "duration_stats_per_job",
     "webservices.analysis_s"),
    ("repro.webservices.analysis", "timeline", "webservices.analysis_s"),
    ("repro.webservices.analysis", "throughput_series",
     "webservices.analysis_s"),
)

#: Every self-time bucket, in report order; the root's self time is the
#: residual and is reported separately.
BUCKETS = tuple(dict.fromkeys(bucket for _, _, bucket in TARGETS))

#: Call counters reported per layer: metric -> wrapped names it sums.
CALL_COUNTS = {
    "fs.op_calls": tuple(
        f"FileSystem.{op}"
        for op in ("open", "close", "read", "write", "fsync", "stat", "unlink")
    ),
    "darshan.observe_calls": ("DarshanRuntime.observe",),
    "core.format_calls": (
        "MessageBuilder.format", "MessageBuilder.format_columnar",
    ),
    "ldms.publish_calls": (
        "Ldmsd.publish", "Ldmsd.publish_prepaid",
        "Ldmsd.publish_prepaid_message", "Ldmsd.publish_now",
    ),
    "ldms.receive_calls": ("Ldmsd.receive", "Ldmsd.receive_batch"),
    "dsos.ingest_calls": (
        "DsosCluster.insert", "DsosCluster.insert_many",
        "DsosCluster.insert_replicated",
    ),
    "dsos.query_calls": ("Query.execute",),
    "telemetry.hop_calls": (
        "TraceCollector.begin", "TraceCollector.hop",
        "TraceCollector.open_hop", "TraceCollector.close_hop",
        "TraceCollector.hop_batch", "TraceCollector.close_hop_batch",
    ),
    "diagnosis.tick_calls": ("DiagnosisEngine.tick",),
}

ROOT = "bench.rep"

#: How much longer than the caller's own measured wall the root span may
#: be: the root opens just before the caller's first clock reading and
#: closes just after its last.
ROOT_SLACK_NS = 1_000_000


class SpanRecorder:
    """In-memory span store: parallel ``array`` columns, one row per span."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self._name_ids: dict[str, int] = {ROOT: 0}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.calls: dict[str, int] = {}
        self._stack: list[int] = []
        #: Post-call observers: wrapped name -> fn(result).
        self.on_result: dict[str, object] = {}

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span stack corrupted: closed {idx}, top {top}")

    # -- root span ------------------------------------------------------

    def begin_root(self) -> None:
        if self._stack or len(self.start):
            raise RuntimeError("root span must be the first span")
        self.open(0)

    def end_root(self) -> None:
        self.close(0)
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans left open")

    # -- analysis -------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Per-span self time: duration minus direct children's durations."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        parent = self.parent
        for i in range(1, n):
            if parent[i] >= 0:
                own[parent[i]] -= dur[i]
        return own

    def summary(self, bucket_of: dict[str, str], wall_begin_ns: int,
                wall_end_ns: int) -> dict:
        """Per-bucket self seconds, the residual and the ledger checks.

        ``wall_begin_ns``/``wall_end_ns`` are the caller's own
        ``perf_counter_ns`` readings just inside the root span.
        """
        own = self.self_times_ns()
        start, end, parent = self.start, self.end, self.parent
        root_ns = end[0] - start[0]
        wall_ns = wall_end_ns - wall_begin_ns
        per_bucket_ns = {b: 0 for b in BUCKETS}
        name_bucket = [bucket_of.get(n) for n in self.names]
        for i in range(1, len(own)):
            per_bucket_ns[name_bucket[self.name_id[i]]] += own[i]
        residual_ns = own[0]
        # Nesting by timestamps, independent of the stack that assigned
        # the parents.
        misnested = sum(
            1 for i in range(1, len(own))
            if parent[i] < 0 or start[i] < start[parent[i]]
            or end[i] > end[parent[i]]
        )
        brackets = (start[0] <= wall_begin_ns and wall_end_ns <= end[0]
                    and root_ns - wall_ns <= ROOT_SLACK_NS)
        return {
            "root_ns": root_ns,
            "wall_ns": wall_ns,
            "residual_ns": residual_ns,
            "bucket_ns": per_bucket_ns,
            "spans": len(own),
            "misnested": misnested,
            "root_brackets_wall": brackets,
            "reconciles": (
                misnested == 0 and brackets
                and sum(per_bucket_ns.values()) + residual_ns == root_ns
            ),
        }

    def write(self, path) -> None:
        """Write every span as one JSON document (name table + columns)."""
        import json

        base = self.start[0] if len(self.start) else 0
        doc = {
            "names": self.names,
            "columns": ["name_id", "start_ns", "end_ns", "parent"],
            "name_id": self.name_id.tolist(),
            "start_ns": [s - base for s in self.start],
            "end_ns": [e - base for e in self.end],
            "parent": self.parent.tolist(),
        }
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))


class _TimedGenerator:
    """Generator proxy timing every resume of the wrapped generator."""

    __slots__ = ("_gen", "_rec", "_nid")

    def __init__(self, gen, rec: SpanRecorder, nid: int):
        self._gen = gen
        self._rec = rec
        self._nid = nid

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        rec = self._rec
        idx = rec.open(self._nid)
        try:
            return self._gen.send(value)
        finally:
            rec.close(idx)

    def throw(self, *exc):
        rec = self._rec
        idx = rec.open(self._nid)
        try:
            return self._gen.throw(*exc)
        finally:
            rec.close(idx)

    def close(self):
        self._gen.close()

    @property
    def __name__(self):
        return getattr(self._gen, "__name__", "process")


def _wrap(fn, rec: SpanRecorder, name: str):
    nid = rec.intern(name)
    calls = rec.calls
    calls.setdefault(name, 0)
    observe = rec.on_result.get(name)
    if inspect.isgeneratorfunction(fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return _TimedGenerator(fn(*args, **kwargs), rec, nid)
    elif observe is not None:
        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = rec.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            observe(result)
            return result
    else:
        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = rec.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


class MissingTargetError(LookupError):
    """Some trace targets do not exist in the tree under test."""


def _resolve(module_name: str, qualname: str):
    """``(owner, attr, original)`` for one target; raises if it is missing."""
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    return owner, attr, original


def install(rec: SpanRecorder, targets=TARGETS):
    """Patch every target; returns ``(undo, bucket_of)``.

    ``undo`` is a list of ``(owner, attr, original)`` for
    :func:`uninstall`; ``bucket_of`` maps span names to buckets.  Every
    target is resolved before any is patched: if one is missing, this
    raises :class:`MissingTargetError` naming all that are, and patches
    nothing.
    """
    resolved, missing = [], []
    for module_name, qualname, bucket in targets:
        try:
            resolved.append((qualname, bucket,
                             _resolve(module_name, qualname)))
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}:{qualname}")
    if missing:
        raise MissingTargetError(
            "trace targets not in this tree: " + ", ".join(missing))
    undo = []
    bucket_of = {ROOT: None}
    for qualname, bucket, (owner, attr, original) in resolved:
        setattr(owner, attr, _wrap(original, rec, qualname))
        undo.append((owner, attr, original))
        bucket_of[qualname] = bucket
    return undo, bucket_of


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)

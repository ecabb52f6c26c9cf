"""Spans around calls into the program's layers, and the per-layer metrics.

:class:`Tracer` wraps public functions of the program's modules (store
primitives, the store write path, the storage codec, the WAL engine,
view maintenance, the scale generator) with span recorders, from this
file and without touching the program.  A span is ``(name, start, end, parent)``;
spans are kept in flat arrays until the run ends, and a span's self time
is its duration minus the time its child spans cover.

Counts the program already keeps (pipeline stage timers, cache and
memo counters, EXPLAIN ANALYZE operator trees, view maintenance events,
MVCC chain sizes) are collected by :class:`LayerStats`, which also turns
everything into the ``per_layer`` metrics listed in :data:`PER_LAYER`.

OID and ``Variable`` hashing are deliberately not wrapped: a Python
wrapper around ``__hash__`` would cost more than the work it times.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

STORE_PRIMITIVES = (
    "extent", "explicit_cell", "invoke_kinded", "classes_of",
    "individual_universe",
)
STORE_WRITES = (
    "create_object", "purge_object", "set_attr", "set_attr_set",
    "add_to_set", "unset_attr",
)
JOURNAL_NOTES = (
    "note_options", "note_class", "note_signature", "note_resolution",
    "note_object", "note_membership", "note_cell", "note_purge",
    "note_relation", "note_tuple", "note_index",
)
OPERATORS = (
    "ExtentScan", "RestrictedScan", "IndexProbe", "PathEval", "Filter",
    "Quantify", "Aggregate", "HashJoin", "SemiJoin", "PointerJoin",
    "NestedLoop", "Project", "SetOp",
)
STAGES = ("parse", "normalize", "analyze", "plan", "execute")
DELTA_KINDS = ("irrelevant", "targeted", "refresh", "rebuild")


def _per_layer() -> List[Tuple[str, str]]:
    metrics = [(f"pipeline.{s}_ms", "ms/stmt") for s in STAGES]
    metrics += [
        ("pipeline.cache_hit_ratio", "ratio"),
        ("pipeline.cache_invalidated", "count"),
        ("paths.memo_hit_ratio", "ratio"),
        ("paths.path_hit_ratio", "ratio"),
        ("paths.memo_evictions", "count"),
    ]
    for op in OPERATORS:
        metrics += [
            (f"operators.{op}.self_ms", "ms/read"),
            (f"operators.{op}.rows_out", "rows/read"),
        ]
    metrics += [
        ("operators.rows_examined_per_row", "ratio"),
        ("costplan.est_error_mean", "ratio"),
        ("costplan.est_error_max", "ratio"),
    ]
    for prim in STORE_PRIMITIVES:
        metrics += [
            (f"store.{prim}.calls", "calls/op"),
            (f"store.{prim}.ms", "ms/op"),
        ]
    metrics += [
        ("store.write_ms", "ms/op"),
        ("versions.chain_entries_max", "count"),
        ("versions.pins_max", "count"),
    ]
    metrics += [(f"views.delta.{k}", "count") for k in DELTA_KINDS]
    metrics += [
        ("views.sync_ms", "ms/op"),
        ("codec.encode_store_ms", "ms/setup"),
        ("codec.decode_store_ms", "ms/op"),
        ("codec.journal_ms", "ms/op"),
        ("wal.apply_ms", "ms/op"),
        ("wal.bytes_per_write", "B/write"),
        ("wal.checkpoint_ms", "ms/op"),
        ("wal.recovery_ms", "ms/op"),
        ("wal.replayed_records", "records/open"),
        ("generate_ms", "ms/setup"),
        ("trace.overhead", "x"),
    ]
    return metrics


#: Every per-layer metric as ``(name, unit)``, in report order.
PER_LAYER: List[Tuple[str, str]] = _per_layer()


class Tracer:
    """Span recorder plus the monkeypatches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        #: Bytes the WAL engine appended while patched.
        self.wal_bytes = 0

    # -- spans ----------------------------------------------------------

    def _intern(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def _open(self, nid: int) -> int:
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def mark(self) -> int:
        """A position in the span log, to delimit a phase."""
        return len(self.start)

    def wrap(self, fn: Callable, name: str) -> Callable:
        nid = self._intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    # -- patching -------------------------------------------------------

    def patch(self, owner, attr: str, name: str, fn=None) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(fn or original, name))

    def install(self) -> None:
        """Wrap the program's layer entry points (idempotent per phase)."""
        if self._patches:
            return
        import repro.storage as storage
        import repro.storage.codec as codec
        import repro.workloads.scale as scale
        from repro.datamodel.store import ObjectStore
        from repro.datamodel.versions import StoreView
        from repro.storage.codec import StoreJournal
        from repro.storage.wal import LogStructuredEngine
        from repro.views.views import ViewManager

        for cls in (ObjectStore, StoreView):
            for prim in STORE_PRIMITIVES:
                if prim in vars(cls):
                    self.patch(cls, prim, f"store.{prim}")
        for method in STORE_WRITES:
            self.patch(ObjectStore, method, "store.write")
        for method in JOURNAL_NOTES:
            self.patch(StoreJournal, method, "codec.journal")
        # Session.attach_storage and Session.open import these from the
        # package at call time, so both module attributes are patched.
        for module in (storage, codec):
            self.patch(module, "encode_store", "codec.encode_store")
            self.patch(module, "decode_store", "codec.decode_store")
        self.patch(LogStructuredEngine, "__init__", "wal.recovery")
        self.patch(
            LogStructuredEngine,
            "apply",
            "wal.apply",
            self._counting_apply(vars(LogStructuredEngine)["apply"]),
        )
        self.patch(LogStructuredEngine, "checkpoint", "wal.checkpoint")
        # ViewManager.sync runs only when a view is stale; the pipeline's
        # per-statement Session.sync_views check is a no-op otherwise.
        self.patch(ViewManager, "sync", "views.sync")
        self.patch(scale, "generate_scaled", "generate")

    def _counting_apply(self, apply: Callable) -> Callable:
        tracer = self

        @functools.wraps(apply)
        def counted(engine, *args, **kwargs):
            before = engine.wal_size()
            stamp = apply(engine, *args, **kwargs)
            tracer.wal_bytes += engine.wal_size() - before
            return stamp

        return counted

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ----------------------------------------------------

    def totals(
        self, first: int, last: int
    ) -> Dict[str, Tuple[int, float, float]]:
        """Per span name over ``[first, last)``: (calls, self s, total s)."""
        child = defaultdict(float)
        for i in range(first, last):
            parent = self.parent[i]
            if parent >= first:
                child[parent] += self.end[i] - self.start[i]
        out: Dict[str, List[float]] = {}
        for i in range(first, last):
            duration = self.end[i] - self.start[i]
            entry = out.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration - child.get(i, 0.0)
            entry[2] += duration
        return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}


def _walk(tree: dict) -> Iterable[dict]:
    yield tree
    for child in tree.get("children", ()):
        yield from _walk(child)


class LayerStats:
    """Program-kept counts collected alongside the spans of one phase."""

    def __init__(self) -> None:
        self.timers: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self.est_error_total = 0.0
        self.est_error_count = 0
        self.est_error_max = 0.0
        self.op_self_ms: Dict[str, float] = defaultdict(float)
        self.op_rows_out: Dict[str, float] = defaultdict(float)
        self.rows_in_total = 0
        self.rows_returned = 0
        self.reads = 0
        self.deltas: Dict[str, int] = defaultdict(int)
        self.chain_entries_max = 0
        self.pins_max = 0
        self.replayed_records = 0
        self.opens = 0

    def add_session_stats(self, after: dict, before: Optional[dict] = None):
        """Fold one session's ``stats()`` (minus an earlier snapshot)."""
        before = before or {"timers": {}, "counters": {}, "observations": {}}
        for stage in STAGES:
            now = after["timers"].get(stage, {}).get("total", 0.0)
            then = before["timers"].get(stage, {}).get("total", 0.0)
            self.timers[stage] += now - then
        for name, value in after["counters"].items():
            self.counters[name] += value - before["counters"].get(name, 0)
        now = after["observations"].get("cost.estimation_error")
        if now:
            then = before["observations"].get("cost.estimation_error") or {}
            count = now["count"] - then.get("count", 0)
            if count:
                self.est_error_count += count
                self.est_error_total += now["total"] - then.get("total", 0.0)
                # The session keeps one running max; it is attributed
                # here whenever this phase added observations.
                self.est_error_max = max(self.est_error_max, now["max"])

    def add_optree(self, tree: Optional[dict]) -> None:
        """Fold one read's EXPLAIN ANALYZE operator tree."""
        self.reads += 1
        if tree is None:
            return
        self.rows_returned += tree["rows_out"]
        for node in _walk(tree):
            self.op_self_ms[node["operator"]] += node["time_ms"]
            self.op_rows_out[node["operator"]] += node["rows_out"]
            self.rows_in_total += node["rows_in"]

    def add_sync_events(self, events: List[dict]) -> None:
        if not events:
            self.deltas["irrelevant"] += 1
        for event in events:
            self.deltas[event["kind"]] += 1

    def add_version_status(self, status: Dict[str, int]) -> None:
        entries = sum(
            status[k]
            for k in (
                "cell_chain_entries", "membership_chain_entries",
                "known_chain_entries", "relation_chain_entries",
            )
        )
        self.chain_entries_max = max(self.chain_entries_max, entries)
        self.pins_max = max(self.pins_max, status["pins"])

    def add_recovery(self, replayed: int) -> None:
        self.opens += 1
        self.replayed_records += replayed


def _ratio(hit: float, miss: float) -> float:
    return hit / (hit + miss) if hit + miss else 0.0


def layer_metrics(
    tracer: Tracer,
    setup_span: Tuple[int, int],
    setups: int,
    timed_span: Tuple[int, int],
    stats: LayerStats,
    ops: int,
    writes: int,
    overhead: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced set-up and phase."""
    setup = tracer.totals(*setup_span)
    timed = tracer.totals(*timed_span)
    per_op = 1000.0 / max(ops, 1)
    statements = stats.counters.get("statements", 0)
    c = stats.counters
    out: Dict[str, float] = {}
    for stage in STAGES:
        out[f"pipeline.{stage}_ms"] = (
            stats.timers[stage] * 1000.0 / statements if statements else 0.0
        )
    out["pipeline.cache_hit_ratio"] = _ratio(
        c.get("cache.hit", 0), c.get("cache.miss", 0)
    )
    out["pipeline.cache_invalidated"] = c.get("cache.invalidated", 0)
    out["paths.memo_hit_ratio"] = _ratio(
        c.get("cache.memo.hit", 0), c.get("cache.memo.miss", 0)
    )
    out["paths.path_hit_ratio"] = _ratio(
        c.get("cache.path.hit", 0), c.get("cache.path.miss", 0)
    )
    out["paths.memo_evictions"] = c.get("cache.memo.evict", 0) + c.get(
        "cache.path.evict", 0
    )
    reads = max(stats.reads, 1)
    for op in OPERATORS:
        out[f"operators.{op}.self_ms"] = stats.op_self_ms.get(op, 0.0) / reads
        out[f"operators.{op}.rows_out"] = stats.op_rows_out.get(op, 0) / reads
    out["operators.rows_examined_per_row"] = stats.rows_in_total / max(
        stats.rows_returned, 1
    )
    out["costplan.est_error_mean"] = (
        stats.est_error_total / stats.est_error_count
        if stats.est_error_count
        else 0.0
    )
    out["costplan.est_error_max"] = stats.est_error_max

    def self_ms(name: str) -> float:
        return timed.get(name, (0, 0.0, 0.0))[1] * per_op

    for prim in STORE_PRIMITIVES:
        out[f"store.{prim}.calls"] = (
            timed.get(f"store.{prim}", (0, 0.0, 0.0))[0] / max(ops, 1)
        )
        out[f"store.{prim}.ms"] = self_ms(f"store.{prim}")
    out["store.write_ms"] = self_ms("store.write")
    out["versions.chain_entries_max"] = stats.chain_entries_max
    out["versions.pins_max"] = stats.pins_max
    for kind in DELTA_KINDS:
        out[f"views.delta.{kind}"] = stats.deltas.get(kind, 0)
    out["views.sync_ms"] = self_ms("views.sync")
    out["codec.encode_store_ms"] = (
        setup.get("codec.encode_store", (0, 0.0, 0.0))[2]
        * 1000.0
        / max(setups, 1)
    )
    out["codec.decode_store_ms"] = self_ms("codec.decode_store")
    out["codec.journal_ms"] = self_ms("codec.journal")
    out["wal.apply_ms"] = self_ms("wal.apply")
    out["wal.bytes_per_write"] = tracer.wal_bytes / writes if writes else 0.0
    out["wal.checkpoint_ms"] = self_ms("wal.checkpoint")
    out["wal.recovery_ms"] = self_ms("wal.recovery")
    out["wal.replayed_records"] = (
        stats.replayed_records / stats.opens if stats.opens else 0.0
    )
    out["generate_ms"] = (
        setup.get("generate", (0, 0.0, 0.0))[2] * 1000.0 / max(setups, 1)
    )
    out["trace.overhead"] = overhead
    return out

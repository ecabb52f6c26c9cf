"""The three workloads: set-up, priming, op execution and post-run checks.

Every statement runs with ``ExecutionOptions(plan="cost")`` and every
other option at its default, so a change to a default is measured.  Each
op's expected rows come from the plain-Python mirror, computed outside
the op's timing; a raise, wrong rows, or a write that is not there after
recovery counts the op as failed.  An op's time counts towards the
phase's busy time whether it succeeds or fails.

Probes (timed writes and reads that are not ops) give a workload latency
samples of a kind its ops lack.  The traced phase skips them, so the
per-layer metrics hold only the ops' own work.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro.workloads.scale as scale
from repro.oid import Atom, Value
from repro.storage import StorageOptions
from repro.xsql.options import ExecutionOptions
from repro.xsql.session import Session

from perfbench import deck as decks
from perfbench.mirror import Mirror, Recorder, digest, result_rows
from perfbench.tracing import LayerStats, Tracer

OPTIONS = ExecutionOptions(plan="cost")
N_OBJECTS = 10_000
VIEW = "CompSalaries"
PRIME_ROUNDS = 1


class Measurements:
    """Latencies per op kind, failures, and row digests of one phase."""

    def __init__(self) -> None:
        self.latency: Dict[str, List[float]] = defaultdict(list)
        self.by_template: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.digests: List[str] = []
        #: Op time, at the reference host speed.
        self.busy = 0.0
        self.wall = 0.0
        #: Median host-speed factor of the phase (see hostspeed.py).
        self.host_speed = 1.0
        self.rounds = 0
        # Raw times of the current op, until commit() scales them.
        self._pending: List[Tuple[str, str, float]] = []
        self._pending_busy = 0.0

    def sample(self, kind: str, seconds: float, template: str = "") -> None:
        """One latency sample of the current op, in raw seconds."""
        self._pending.append((kind, template, seconds))

    def spend(self, seconds: float) -> None:
        """Op time of the current op, in raw seconds."""
        self._pending_busy += seconds

    def commit(self, factor: float) -> None:
        """Keep the current op's times, scaled to the reference speed."""
        for kind, template, seconds in self._pending:
            self.latency[kind].append(seconds * factor)
            if template:
                self.by_template[template].append(seconds * factor)
        self.busy += self._pending_busy * factor
        self._pending.clear()
        self._pending_busy = 0.0

    def read(self, op: decks.Op, seconds: float) -> None:
        self.sample("read", seconds, op.template)

    def fail(self, what: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{what}: {message}")

    def check(self, op: decks.Op, result, expected) -> None:
        rows = result_rows(result)
        self.digests.append(digest(rows))
        if rows != expected:
            self.fail(
                op.text,
                f"{len(rows)} rows, mirror expects {len(expected)}",
            )


def _cell(store, obj: str, method: str):
    """A stored cell in the mirror's canonical form (None when unset)."""
    cell = store.explicit_cell(Atom(obj), method)
    if cell is None:
        return None
    values = [v.value if isinstance(v, Value) else v.name for v in cell.as_set()]
    if method in ("Salary", "Age", "Name"):
        (value,) = values
        return value
    return frozenset(values)


def _file_digest(path: Path) -> str:
    digest_ = hashlib.sha256()
    for name in ("checkpoint.snap", "wal.log"):
        digest_.update(name.encode())
        digest_.update((path / name).read_bytes())
    return digest_.hexdigest()


def _disk_bytes(path: Path) -> int:
    return sum(
        (path / name).stat().st_size for name in ("checkpoint.snap", "wal.log")
    )


class Workload:
    """One workload's life cycle; subclasses fill in the op kinds."""

    name = ""

    def __init__(
        self, seed: int, workdir: Path, n_objects: int = N_OBJECTS
    ) -> None:
        self.seed = seed
        self.workdir = workdir
        self.spec = scale.ScaleSpec(n_objects=n_objects, seed=seed)
        self.counts = self.spec.counts()
        self.meas = Measurements()
        self.checks: List[str] = []
        self.mirror: Optional[Mirror] = None
        self.tracer: Optional[Tracer] = None
        self.layers = LayerStats()
        self.bytes_per_object = 0.0

    # -- helpers --------------------------------------------------------

    def _fresh_dir(self, name: str) -> Path:
        path = self.workdir / name
        if path.exists():
            shutil.rmtree(path)
        return path

    def _build_mirror(self, tail: List[decks.Op] = ()) -> None:
        recorder = Recorder()
        scale.generate_scaled(self.spec, store=recorder)
        self.mirror = Mirror(recorder)
        for op in tail:
            self.mirror.set_attr(op.target, op.method, op.value)

    def _probe(self, store, op: decks.Op) -> bool:
        """One timed write that is not an op (not in ``ops_per_s``)."""
        if self.tracer is not None:
            return False
        try:
            started = time.perf_counter()
            store.set_attr(Atom(op.target), op.method, op.value)
            self.meas.sample("write", time.perf_counter() - started)
        except Exception as exc:  # a raising write is a failure
            self.meas.fail(repr(op), repr(exc))
            return False
        return True

    def _trace_read(self, compiled) -> None:
        if self.tracer is not None:
            self.layers.add_optree(compiled.last_optree)

    def _trace_session(self, session, before=None) -> None:
        if self.tracer is not None:
            self.layers.add_session_stats(session.stats(), before)

    # -- life cycle -----------------------------------------------------

    def setup(self) -> None:
        """Build the workload's database once (timed as ``setup_s``)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Off the clock: mirror, priming, long-lived sessions."""
        raise NotImplementedError

    def deck(self, rounds: int) -> List[List[decks.Op]]:
        raise NotImplementedError

    def execute(self, op: decks.Op) -> None:
        raise NotImplementedError

    def begin_phase(self) -> None:
        """Called before each measured phase (untraced or traced)."""

    def end_phase(self) -> None:
        """Called after each measured phase."""

    def finish(self) -> None:
        """Off the clock: stationarity and durability checks."""

    def close(self) -> None:
        """Release sessions and files."""


# ----------------------------------------------------------------------
# cold-adhoc
# ----------------------------------------------------------------------


class ColdAdhoc(Workload):
    """A fresh Session per statement over one shared in-memory store."""

    name = "cold-adhoc"

    def setup(self) -> None:
        self.store = None
        gc.collect()
        self.store = scale.generate_scaled(self.spec)

    def prepare(self) -> None:
        self._build_mirror()
        # Priming: every template once, so auto-enabled indexes exist
        # before any op is timed.
        for round_ in self.deck(PRIME_ROUNDS):
            for op in round_:
                if op.kind == "read":
                    session = Session(self.store)
                    session.prepare(op.text, options=OPTIONS).run()
        self.indexes = sorted(map(str, self.store.indexed_methods()))

    def deck(self, rounds: int):
        return decks.cold_deck(self.seed, self.counts, rounds)

    def execute(self, op: decks.Op) -> None:
        meas = self.meas
        if op.kind == "probe":
            if self._probe(self.store, op):
                self.mirror.set_attr(op.target, op.method, op.value)
            return
        expected = self.mirror.expect(op.template, op.args)
        meas.attempted += 1
        started = time.perf_counter()
        try:
            session = Session(self.store)
            opened = time.perf_counter()
            compiled = session.prepare(op.text, options=OPTIONS)
            result = compiled.run()
        except Exception as exc:  # a raising op is a failed op
            meas.fail(op.text, repr(exc))
            return
        finally:
            done = time.perf_counter()
            meas.spend(done - started)
        meas.read(op, done - opened)
        meas.sample("first_answer", done - started)
        meas.check(op, result, expected)
        self._trace_read(compiled)
        self._trace_session(session)
        if self.tracer is not None:
            self.layers.add_version_status(self.store.version_status())

    def finish(self) -> None:
        if sorted(map(str, self.store.indexed_methods())) != self.indexes:
            self.checks.append("indexes changed during the timed phase")
        # bytes_per_object: the same store, checkpointed by the log engine.
        path = self._fresh_dir("image")
        session = Session(self.store)
        session.attach_storage(
            StorageOptions(backend="log", path=str(path), sync="checkpoint")
        )
        session.checkpoint()
        session.close()
        self.bytes_per_object = _disk_bytes(path) / self.mirror.live_objects()


# ----------------------------------------------------------------------
# mixed-oltp
# ----------------------------------------------------------------------


class MixedOltp(Workload):
    """One long-lived WAL-backed session: prepared reads beside writes."""

    name = "mixed-oltp"

    def setup(self) -> None:
        self.session = None
        gc.collect()
        self.path = self._fresh_dir("oltp")
        store = scale.generate_scaled(self.spec)
        session = Session(store)
        session.attach_storage(
            StorageOptions(
                backend="log", path=str(self.path), sync="checkpoint"
            )
        )
        session.checkpoint()
        session.close()

    def _open(self, first: decks.Op) -> Session:
        """``Session.open`` the store and check one statement on it."""
        session = Session.open(str(self.path), sync="checkpoint")
        self.meas.check(
            first,
            session.prepare(first.text, options=OPTIONS).run(),
            self.mirror.expect(first.template, first.args),
        )
        return session

    def prepare(self) -> None:
        self._build_mirror()
        self.plan, _ = decks.oltp_deck(self.seed, self.counts, 0)
        base = [op for op in self.plan.statements if op.template != "VIEW"]
        session = self._open(base[0])
        # Priming: every base statement once (index auto-enable), then
        # the view's own index, then the view.  Enabling CompName before
        # the view exists is what auto-enable would do on the first view
        # read; doing it after forces a full view rebuild (see README).
        for op in base + list(self.plan.pinned):
            session.prepare(op.text, options=OPTIONS).run()
        session.enable_index("CompName")
        session.execute(decks.COMP_SALARIES)
        for op in self.plan.statements:
            self.meas.check(
                op,
                session.prepare(op.text, options=OPTIONS).run(),
                self.mirror.expect(op.template, op.args),
            )
        session.checkpoint()
        self.session = session
        self.indexes = session.indexes()
        self.live = self._live_objects()
        self.view_size = self._view_size()
        self.snap = None
        self.pin_expected: Dict[decks.Op, list] = {}
        self.restore: Dict[str, frozenset] = {}
        self.touched = set()
        self._after_write = False

    def _live_objects(self) -> int:
        """Objects with an explicit class: the population plus the view."""
        store = self.session.store
        return sum(
            1 for o in store.known_objects() if store.explicit_classes_of(o)
        )

    def _view_size(self) -> int:
        return self.session.views.maintenance_status()[VIEW]["objects"]

    def deck(self, rounds: int):
        return decks.oltp_deck(self.seed, self.counts, rounds)[1]

    def begin_phase(self) -> None:
        self._stats_before = self.session.stats()

    def end_phase(self) -> None:
        self._trace_session(self.session, self._stats_before)

    def execute(self, op: decks.Op) -> None:
        meas = self.meas
        meas.attempted += 1
        kind = op.kind
        # Expected rows, off the clock.
        if kind == "read":
            expected = self.mirror.expect(op.template, op.args)
        elif kind == "pinned":
            if op.opens:
                self.pin_expected = {
                    p: self.mirror.expect(p.template, p.args)
                    for p in self.plan.pinned
                }
            expected = self.pin_expected[decks.read(op.template, **op.args)]
        started = time.perf_counter()
        try:
            if kind == "read":
                # The deck's statements all fit in the statement cache:
                # prepare() is a cache lookup, re-planned when stale.
                compiled = self.session.prepare(op.text, options=OPTIONS)
                result = compiled.run()
            elif kind == "pinned":
                if op.opens:
                    self.snap = self.session.snapshot_view()
                compiled = self.snap.prepare(op.text, options=OPTIONS)
                result = compiled.run()
                if op.releases:
                    self.snap.close()
            elif kind == "write":
                store = self.session.store
                with store.journal.batch():
                    self._apply(store, op)
                events = self.session.sync_views()
            else:  # checkpoint
                self.session.checkpoint()
        except Exception as exc:  # a raising op is a failed op
            meas.fail(op.text if op.template else repr(op), repr(exc))
            return
        finally:
            done = time.perf_counter()
            meas.spend(done - started)
        elapsed = done - started
        if kind in ("read", "pinned"):
            meas.read(op, elapsed)
            if kind == "read" and self._after_write:
                # The first answer at a newly committed version: the
                # read that re-plans and refills caches after a write.
                meas.sample("first_answer", elapsed)
                self._after_write = False
            meas.check(op, result, expected)
            self._trace_read(compiled)
            if kind == "pinned" and op.releases:
                self._trace_session(self.snap)
        elif kind == "write":
            meas.sample("write", elapsed)
            self._after_write = True
            self._mirror_write(op)
            if self.tracer is not None:
                self.layers.add_sync_events(events)
        else:
            meas.sample("checkpoint", elapsed)
        if self.tracer is not None:
            self.layers.add_version_status(self.session.version_status())

    def _apply(self, store, op: decks.Op) -> None:
        target = Atom(op.target)
        if op.action == "set":
            store.set_attr(target, op.method, op.value)
        elif op.action == "create":
            name, age, salary = op.value
            store.create_object(target, ["Employee"])
            store.set_attr(target, "Name", name)
            store.set_attr(target, "Age", age)
            store.set_attr(target, "Salary", salary)
        elif op.action == "add":
            if op.target == self.plan.family_owner:
                self.restore[op.target] = self.mirror.members(
                    op.target, op.method
                )
            store.add_to_set(target, op.method, Atom(op.value))
        elif op.action == "restore":
            store.set_attr_set(
                target,
                op.method,
                [Atom(n) for n in sorted(self.restore[op.target])],
            )
        elif op.action == "purge":
            store.purge_object(target)
        else:
            raise ValueError(f"unknown write action {op.action!r}")

    def _mirror_write(self, op: decks.Op) -> None:
        mirror = self.mirror
        if op.action == "set":
            mirror.set_attr(op.target, op.method, op.value)
            self.touched.add((op.target, op.method))
        elif op.action == "create":
            name, age, salary = op.value
            mirror.create(op.target, "Employee")
            for method, value in (
                ("Name", name), ("Age", age), ("Salary", salary)
            ):
                mirror.set_attr(op.target, method, value)
        elif op.action == "add":
            mirror.add_member(op.target, op.method, op.value)
            self.touched.add((op.target, op.method))
        elif op.action == "restore":
            mirror.set_members(
                op.target, op.method, self.restore.pop(op.target)
            )
        elif op.action == "purge":
            mirror.purge(op.target)

    def finish(self) -> None:
        session = self.session
        if self._live_objects() != self.live:
            self.checks.append("live object count changed")
        if self._view_size() != self.view_size:
            self.checks.append("view size changed")
        if session.indexes() != self.indexes:
            self.checks.append("indexes changed during the timed phase")
        self.bytes_per_object = (
            _disk_bytes(self.path) / self.mirror.live_objects()
        )
        session.close()
        self.session = None
        # Durability: every acknowledged write must survive a reopen.
        reopened = self._open(self.plan.statements[0])
        for obj, method in sorted(self.touched):
            if obj in self.mirror.cells:
                want = self.mirror.get(obj, method)
                if _cell(reopened.store, obj, method) != want:
                    self.meas.fail(f"{obj}.{method}", "write lost on reopen")
        for obj in (f"bn{j}" for j in range(decks.CREATES_PER_ROUND)):
            if reopened.store.explicit_cell(Atom(obj), "Name") is not None:
                self.meas.fail(obj, "purged object back after reopen")
        reopened.close()

    def close(self) -> None:
        if self.session is not None:
            self.session.close()


# ----------------------------------------------------------------------
# reopen
# ----------------------------------------------------------------------


class Reopen(Workload):
    """Open a persisted store, answer, verify the WAL tail, close."""

    name = "reopen"

    def setup(self) -> None:
        gc.collect()
        self.path = self._fresh_dir("reopen")
        store = scale.generate_scaled(self.spec)
        session = Session(store)
        session.attach_storage(
            StorageOptions(
                backend="log", path=str(self.path), sync="checkpoint"
            )
        )
        # Priming: every statement template once, so auto-enabled
        # indexes land in the checkpoint image and opens never write.
        for op in decks.reopen_priming(self.seed, self.counts):
            session.prepare(op.text, options=OPTIONS).run()
        session.checkpoint()
        for op in decks.tail_writes(self.seed, self.counts):
            # One WAL batch each.
            session.store.set_attr(Atom(op.target), op.method, op.value)
        self.indexes = session.indexes()
        session.close()

    def prepare(self) -> None:
        tail = decks.tail_writes(self.seed, self.counts)
        self._build_mirror(tail)
        #: Each tail-written cell and its final value.
        self.tail = {
            (op.target, op.method): self.mirror.get(op.target, op.method)
            for op in tail
        }
        self.disk = _file_digest(self.path)
        self.bytes_per_object = (
            _disk_bytes(self.path) / self.mirror.live_objects()
        )
        # The probes go to a copy, so the measured store never changes;
        # the copy stays open for the whole run.
        probe_path = self._fresh_dir("probe")
        shutil.copytree(self.path, probe_path)
        self.probe = Session.open(str(probe_path))

    def deck(self, rounds: int):
        return decks.reopen_deck(self.seed, self.counts, rounds)

    def _read_probe(self, op: decks.Op) -> None:
        """One timed statement on the open copy, not counted as an op."""
        if self.tracer is not None:
            return
        expected = self.mirror.expect(op.template, op.args)
        try:
            started = time.perf_counter()
            result = self.probe.prepare(op.text, options=OPTIONS).run()
            self.meas.read(op, time.perf_counter() - started)
        except Exception as exc:  # a raising read is a failure
            self.meas.fail(op.text, repr(exc))
            return
        self.meas.check(op, result, expected)

    def execute(self, op: decks.Op) -> None:
        if op.kind == "probe":
            self._probe(self.probe.store, op)
            return
        if op.kind == "read-probe":
            self._read_probe(op)
            return
        first = op.args["first"]
        expected = self.mirror.expect(first.template, first.args)
        meas = self.meas
        meas.attempted += 1
        started = time.perf_counter()
        try:
            session = Session.open(str(self.path))
            compiled = session.prepare(first.text, options=OPTIONS)
            result = compiled.run()
            answered = time.perf_counter()
            tail = {key: _cell(session.store, *key) for key in self.tail}
            indexes = session.indexes()
            if self.tracer is not None:
                self._trace_read(compiled)
                self._trace_session(session)
                self.layers.add_recovery(
                    session.storage_engine.recovery.replayed_batches
                )
                self.layers.add_version_status(session.version_status())
            session.close()
        except Exception as exc:  # a raising op is a failed op
            meas.fail(first.text, repr(exc))
            return
        finally:
            meas.spend(time.perf_counter() - started)
        meas.sample("first_answer", answered - started)
        before = meas.failed
        meas.check(first, result, expected)
        if tail != self.tail:
            meas.fail("WAL tail", "a tail write is missing after open")
        if indexes != self.indexes:
            meas.fail("indexes", f"{indexes} after open, set-up had {self.indexes}")
        if meas.failed > before:
            # One op, one failure, however many of its checks missed.
            meas.failed = before + 1

    def finish(self) -> None:
        if _file_digest(self.path) != self.disk:
            self.checks.append("on-disk bytes changed during the timed phase")

    def close(self) -> None:
        probe = getattr(self, "probe", None)
        if probe is not None:
            probe.close()


WORKLOADS = {w.name: w for w in (ColdAdhoc, MixedOltp, Reopen)}

"""Property tests: indexes never change query answers.

Random databases, random write sequences — reverse lookups through the
index must always equal the scan answers, and the incrementally
maintained index must equal one rebuilt from scratch.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datamodel import ObjectStore
from repro.oid import Atom
from repro.xsql.evaluator import Evaluator
from repro.xsql.parser import parse_query

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# a write script: (op, owner, value) over 4 owners / 3 values
write_ops = st.lists(
    st.tuples(
        st.sampled_from(["set", "unset", "add", "replace_set", "purge"]),
        st.integers(0, 3),
        st.integers(0, 2),
    ),
    max_size=25,
)


def apply_script(store: ObjectStore, script) -> None:
    owners = [Atom(f"o{i}") for i in range(4)]
    values = [Atom(f"v{i}") for i in range(3)]
    for op, owner_index, value_index in script:
        owner = owners[owner_index]
        value = values[value_index]
        try:
            if op == "set":
                store.set_attr(owner, "Ref", value)
            elif op == "unset":
                store.unset_attr(owner, "Ref")
            elif op == "add":
                store.add_to_set(owner, "Refs", value)
            elif op == "replace_set":
                store.set_attr_set(owner, "Refs", [value])
            elif op == "purge":
                store.purge_object(owner)
        except Exception:
            # scalar/set arrow conflicts are legal rejections; the index
            # must simply stay consistent with whatever was stored.
            continue


def build_store(script, indexed_from_start: bool) -> ObjectStore:
    store = ObjectStore()
    store.declare_class("N")
    for i in range(4):
        store.create_object(Atom(f"o{i}"), ["N"])
    for i in range(3):
        store.create_object(Atom(f"v{i}"), ["N"])
    if indexed_from_start:
        store.enable_index("Ref")
        store.enable_index("Refs")
    apply_script(store, script)
    if not indexed_from_start:
        store.enable_index("Ref")
        store.enable_index("Refs")
    return store


@given(script=write_ops)
@SETTINGS
def test_incremental_equals_backfilled(script):
    incremental = build_store(script, indexed_from_start=True)
    backfilled = build_store(script, indexed_from_start=False)
    for method in ("Ref", "Refs"):
        for i in range(3):
            value = Atom(f"v{i}")
            assert incremental.lookup_by_value(
                method, value
            ) == backfilled.lookup_by_value(method, value), (method, value)


@given(script=write_ops, target=st.integers(0, 2))
@SETTINGS
def test_indexed_query_equals_scan(script, target):
    indexed = build_store(script, indexed_from_start=True)
    plain = build_store(script, indexed_from_start=False)
    plain.disable_index("Ref")
    plain.disable_index("Refs")
    for method in ("Ref", "Refs"):
        query = parse_query(f"SELECT X WHERE X.{method}[v{target}]")
        with_index = Evaluator(indexed).run(query)
        scan = Evaluator(plain).run(query)
        assert with_index.rows() == scan.rows(), method


def scanned_owners(store: ObjectStore, method: str, value: Atom):
    """Owners whose stored *method* cell holds *value*, by forward scan."""
    return frozenset(
        record.oid
        for record in store.iter_records()
        for (cell_method, _args), cell in record.entries()
        if cell_method == Atom(method) and value in cell.as_set()
    )


@given(script=write_ops)
@SETTINGS
def test_index_equals_scan_after_every_purge(script):
    store = build_store([], indexed_from_start=True)
    for step in script:
        apply_script(store, [step])
        if step[0] != "purge":
            continue
        for method in ("Ref", "Refs"):
            for i in range(3):
                value = Atom(f"v{i}")
                assert store.lookup_by_value(method, value) == (
                    scanned_owners(store, method, value)
                ), (method, value)


def test_purge_touches_only_the_purged_objects_entries():
    # Purging one object must not rebuild the buckets of everybody
    # else: that made each purge O(index size) and bulk purges
    # quadratic.
    store = ObjectStore()
    store.declare_class("N")
    for i in range(50):
        store.create_object(Atom(f"o{i}"), ["N"])
        store.set_attr(Atom(f"o{i}"), "Ref", Atom(f"v{i}"))
    store.enable_index("Ref")
    buckets = dict(store._indexes._entries[Atom("Ref")])
    store.purge_object(Atom("o0"))
    after = store._indexes._entries[Atom("Ref")]
    assert Atom("v0") not in after
    assert all(after[value] is buckets[value] for value in after)
    assert len(after) == 49

"""The independent result oracle: a plain-Python mirror of the database.

The mirror is filled by running the seeded population generator against
:class:`Recorder`, a duck-typed stand-in for the object store that keeps
plain dicts.  From then on every write the benchmark makes is applied to
the mirror as well, and :meth:`Mirror.expect` answers each benchmark
statement with hand-written Python loops.  Nothing here imports
``repro.xsql``; the only shared code is the generator that produces the
data, so a fault in parsing, planning, operators, caches, views, storage
or MVCC shows up as a row mismatch.

Rows are compared in a canonical form: a reference becomes its oid name,
a literal becomes its Python value, and a result is the sorted list of
its distinct row tuples.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.oid import Value

Row = Tuple[object, ...]

#: Attributes whose values are references to other objects.
REF_ATTRS = frozenset(
    {
        "Residence", "OwnedVehicles", "FamMembers", "Dependents",
        "Headquarters", "Divisions", "President", "Location", "Manager",
        "Employees", "Manufacturer", "Drivetrain", "Engine", "Body",
        "Retirees",
    }
)


def _name(oid) -> str:
    return oid.name


class Recorder:
    """Enough of the object-store write API for the generator to fill.

    ``generate_scaled(spec, store=Recorder())`` runs the same seeded
    generator the benchmark's real store is built with, so the mirror
    holds the identical population without reading it back through the
    store.
    """

    def __init__(self) -> None:
        self.parents: Dict[str, List[str]] = {}
        self.classes: Dict[str, str] = {}
        self.cells: Dict[str, Dict[str, object]] = {}

    def declare_class(self, name, parents=()) -> None:
        self.parents[str(name)] = [str(p) for p in parents]

    def declare_signature(self, *args, **kwargs) -> None:
        pass

    def create_object(self, oid, classes=()):
        (cls,) = classes
        self.classes[_name(oid)] = str(cls)
        self.cells[_name(oid)] = {}
        return oid

    def set_attr(self, owner, method, value) -> None:
        self.cells[_name(owner)][method] = (
            _name(value) if method in REF_ATTRS else value
        )

    def set_attr_set(self, owner, method, values) -> None:
        self.cells[_name(owner)][method] = frozenset(_name(v) for v in values)


class Mirror:
    """The database as plain dicts, plus the writes the deck applies."""

    def __init__(self, recorder: Recorder) -> None:
        self.parents = recorder.parents
        self.classes = dict(recorder.classes)
        self.cells = {obj: dict(c) for obj, c in recorder.cells.items()}
        #: Bumped by every write; keys the expected-rows cache.
        self.version = 0
        self._expected: Dict[Tuple[str, int], List[Row]] = {}
        self._extents: Dict[Tuple[str, int], List[str]] = {}
        self._by_name: Dict[Tuple[str, int], Dict[str, str]] = {}
        self._ancestors: Dict[str, Set[str]] = {}

    # -- schema ---------------------------------------------------------

    def ancestors(self, cls: str) -> Set[str]:
        """Strict superclasses of *cls*, ``Object`` included."""
        found = self._ancestors.get(cls)
        if found is None:
            found = {"Object"}
            todo = list(self.parents.get(cls, []))
            while todo:
                parent = todo.pop()
                if parent not in found:
                    found.add(parent)
                    todo.extend(self.parents.get(parent, []))
            self._ancestors[cls] = found
        return found

    def is_a(self, obj: str, cls: str) -> bool:
        own = self.classes[obj]
        return own == cls or cls in self.ancestors(own)

    def extent(self, cls: str) -> List[str]:
        key = (cls, self.version)
        found = self._extents.get(key)
        if found is None:
            found = [o for o in self.classes if self.is_a(o, cls)]
            self._extents[key] = found
        return found

    def named(self, cls: str, name: str) -> Optional[str]:
        """The member of *cls* whose ``Name`` is *name*, if any."""
        key = (cls, self.version)
        index = self._by_name.get(key)
        if index is None:
            index = {}
            for obj in self.extent(cls):
                value = self.cells[obj].get("Name")
                if value is not None:
                    index[value] = obj
            self._by_name[key] = index
        return index.get(name)

    # -- cells ----------------------------------------------------------

    def get(self, obj: str, method: str):
        return self.cells[obj].get(method)

    def members(self, obj: str, method: str) -> FrozenSet[str]:
        value = self.cells[obj].get(method)
        if value is None:
            return frozenset()
        if isinstance(value, frozenset):
            return value
        return frozenset([value])

    # -- writes (mirroring the deck) ------------------------------------

    def _touch(self) -> None:
        self.version += 1
        if len(self._expected) > 4096:
            self._expected.clear()
        self._extents.clear()
        self._by_name.clear()

    def set_attr(self, obj: str, method: str, value) -> None:
        self.cells[obj][method] = value
        self._touch()

    def set_members(self, obj: str, method: str, values: Iterable[str]):
        self.cells[obj][method] = frozenset(values)
        self._touch()

    def add_member(self, obj: str, method: str, value: str) -> None:
        self.cells[obj][method] = self.members(obj, method) | {value}
        self._touch()

    def create(self, obj: str, cls: str) -> None:
        self.classes[obj] = cls
        self.cells[obj] = {}
        self._touch()

    def purge(self, obj: str) -> None:
        # The deck purges only objects it created, which nothing refers to.
        del self.classes[obj]
        del self.cells[obj]
        self._touch()

    def live_objects(self) -> int:
        return len(self.classes)

    # -- answers --------------------------------------------------------

    def expect(self, template: str, params: Dict[str, object]) -> List[Row]:
        key = (template + repr(sorted(params.items())), self.version)
        rows = self._expected.get(key)
        if rows is None:
            rows = canonical(ANSWERS[template](self, **params))
            self._expected[key] = rows
        return rows


def canonical(rows: Iterable[Row]) -> List[Row]:
    """Distinct rows, sorted (the shape :func:`result_rows` produces)."""
    return sorted(set(rows), key=repr)


def result_rows(result) -> List[Row]:
    """A query result in the mirror's canonical form."""
    return canonical(
        tuple(
            item.value if isinstance(item, Value) else item.name
            for item in row
        )
        for row in result
    )


def digest(rows: List[Row]) -> str:
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# One plain-Python answer per statement template (see deck.TEMPLATES).
# ----------------------------------------------------------------------


def _person_named(m: Mirror, k: int) -> Optional[str]:
    return m.named("Person", f"P{k}")


def _employee_named(m: Mirror, name: str) -> Optional[str]:
    return m.named("Employee", name)


def _s(m: Mirror, k: int):
    x = _person_named(m, k)
    return [(x,)] if x else []


def _age(m: Mirror, name: str):
    x = m.named("Person", name)
    return [(m.get(x, "Age"),)] if x else []


def _salary(m: Mirror, name: str):
    x = _employee_named(m, name)
    return [(m.get(x, "Salary"),)] if x else []


def _p3(m: Mirror, k: int, city: str):
    x = _person_named(m, k)
    if x is None:
        return []
    y = m.get(x, "Residence")
    return [(y,)] if y and m.get(y, "City") == city else []


def _engines_of(m: Mirror, x: str) -> Set[str]:
    out = set()
    for v in m.members(x, "OwnedVehicles"):
        dt = m.get(v, "Drivetrain")
        if dt is not None:
            engine = m.get(dt, "Engine")
            if engine is not None:
                out.add(engine)
    return out


def _p4(m: Mirror, s: int):
    return [
        (z,)
        for x in m.extent("Employee")
        if m.get(x, "Salary") < s
        for z in _engines_of(m, x)
    ]


def _p4k(m: Mirror, name: str):
    x = _employee_named(m, name)
    return [(z,) for z in _engines_of(m, x)] if x else []


def _p7(m: Mirror, name: str, a: int):
    x = _employee_named(m, name)
    if x is None:
        return []
    ok = any(m.get(f, "Age") > a for f in m.members(x, "FamMembers"))
    return [(x,)] if ok else []


def _p7name(m: Mirror, name: str, a: int):
    return [(m.get(x, "Name"),) for (x,) in _p7(m, name, a)]


def _a1(m: Mirror, name: str, n: int):
    x = _employee_named(m, name)
    return [(x,)] if x and len(m.members(x, "FamMembers")) > n else []


def _j1(m: Mirror, c: int):
    x = m.named("Company", f"Company{c}")
    if x is None:
        return []
    hq = m.get(x, "Headquarters")
    return [
        (x, y) for y in m.extent("Company") if m.get(y, "Headquarters") == hq
    ]


def _p6(m: Mirror, cls: str):
    return [(c,) for c in m.ancestors(cls)]


def _company_employees(m: Mirror, c: str) -> Set[str]:
    return {
        w
        for d in m.members(c, "Divisions")
        for w in m.members(d, "Employees")
    }


def _p11(m: Mirror, c: int):
    x = m.named("Company", f"Company{c}")
    if x is None:
        return []
    name = m.get(x, "Name")
    return [(name, m.get(w, "Salary")) for w in _company_employees(m, x)]


def _view(m: Mirror, c: int):
    # CompSalaries(X, W) holds one object per (company, employee) pair
    # reached through X.Divisions[Y].Employees[W].
    return [(s,) for (_name, s) in _p11(m, c)]


def _fam(m: Mirror, k: int):
    x = _person_named(m, k)
    return [(y,) for y in m.members(x, "FamMembers")] if x else []


def _div(m: Mirror, div: str, s: int):
    d = m.named("Division", div)
    if d is None:
        return []
    return [
        (w,) for w in m.members(d, "Employees") if m.get(w, "Salary") > s
    ]


def _rich_company(m: Mirror, s: int):
    return [
        (c,)
        for c in m.extent("Company")
        if any(m.get(w, "Salary") > s for w in _company_employees(m, c))
    ]


ANSWERS = {
    "S": _s,
    "AGE": _age,
    "SALARY": _salary,
    "P3": _p3,
    "P4": _p4,
    "P4K": _p4k,
    "P7": _p7,
    "P7NAME": _p7name,
    "A1": _a1,
    "J1": _j1,
    "P6": _p6,
    "P11": _p11,
    "VIEW": _view,
    "FAM": _fam,
    "DIV": _div,
    "RICH": _rich_company,
}

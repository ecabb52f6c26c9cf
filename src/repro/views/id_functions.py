"""Id-functions: reproducible oids for created objects (paper §4.1).

"Associated with the query there is some partial function f, called
id-function, such that the object id of the tuple generated from x and w is
f(x, w).  ...  the function can be stored as a table showing explicitly the
oid created for each pair of object id's."

That table is exactly what :class:`IdFunctionRegistry` keeps: for every
id-function symbol, the set of argument tuples on which it is defined.  The
registry is what lets a path expression with an id-term head such as
``CompSalaries(Y, W)`` enumerate the existing view objects when some
arguments are still unbound.
"""

from __future__ import annotations

import re
from typing import Dict, List, Set, Tuple

from repro.oid import FuncOid, Oid

__all__ = ["IdFunctionRegistry"]

_ADHOC_FUNCTOR = re.compile(r"qf(\d+)\Z")


class IdFunctionRegistry:
    """The stored table of id-function instantiations."""

    def __init__(self) -> None:
        self._instances: Dict[str, Set[Tuple[Oid, ...]]] = {}
        self._counter = 0

    def fresh_functor(self, prefix: str = "qf") -> str:
        """Allocate a new id-function symbol for an ad-hoc creating query.

        "The user does not have to know what the function f is" (§4.1) —
        sessions name ad-hoc query functions ``qf1``, ``qf2``, ...
        """
        self._counter += 1
        return f"{prefix}{self._counter}"

    def record(self, functor: str, args: Tuple[Oid, ...]) -> FuncOid:
        """Record that ``functor(args)`` is defined, returning the oid."""
        self._instances.setdefault(functor, set()).add(tuple(args))
        return FuncOid(functor, tuple(args))

    def forget(self, functor: str) -> None:
        """Drop all instantiations of a functor (view refresh)."""
        self._instances.pop(functor, None)

    def known(self, functor: str) -> bool:
        return functor in self._instances

    def instances(self, functor: str) -> List[Tuple[Oid, ...]]:
        """All argument tuples on which the id-function is defined."""
        return sorted(
            self._instances.get(functor, ()),
            key=lambda args: tuple(str(a) for a in args),
        )

    def oids(self, functor: str) -> List[FuncOid]:
        return [FuncOid(functor, args) for args in self.instances(functor)]

    @classmethod
    def rebuild_from_store(cls, store) -> "IdFunctionRegistry":
        """Reconstruct the id-function table from a store's oids.

        A decoded store carries :class:`FuncOid` values inside the
        object graph but no registry; reusing the pre-swap registry
        would let ``fresh_functor`` collide with a restored ``qfN`` (two
        unrelated creating queries sharing one functor — two descriptions
        of "the same" object, §4.1).  So: scan every known oid, re-record
        each functor application (recursing through nested arguments),
        and reseed the ad-hoc counter past the highest restored ``qfN``.
        """
        registry = cls()
        seen: Set[FuncOid] = set()

        def visit(oid: Oid) -> None:
            if isinstance(oid, FuncOid) and oid not in seen:
                seen.add(oid)
                registry.record(oid.functor, tuple(oid.args))
                for arg in oid.args:
                    visit(arg)

        for oid in store.known_objects():
            visit(oid)
        highest = 0
        for functor in registry._instances:
            match = _ADHOC_FUNCTOR.match(functor)
            if match:
                highest = max(highest, int(match.group(1)))
        registry._counter = highest
        return registry

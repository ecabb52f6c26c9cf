"""Seeded op decks: the statements and writes each workload issues.

A deck is a list of rounds, and a round is a list of :class:`Op`.  Every
random choice comes from one ``random.Random`` seeded by the run's
``--seed``, so two runs with one seed issue the same ops in the same
order.  A run always executes whole rounds: each round leaves the
database as stationary as it found it (creates are purged, set-member
adds are restored, pins are released), so the mix of ops and the amount
of live state are the same however many rounds a run gets through.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.workloads.scale import ScaleCounts

#: Statement text per template; the mirror answers each by name.
TEMPLATES: Dict[str, str] = {
    "S": "SELECT X FROM Person X WHERE X.Name['P{k}']",
    "AGE": "SELECT X.Age FROM Person X WHERE X.Name['{name}']",
    "SALARY": "SELECT X.Salary FROM Employee X WHERE X.Name['{name}']",
    "P3": (
        "SELECT Y FROM Person X "
        "WHERE X.Name['P{k}'] and X.Residence[Y].City['{city}']"
    ),
    "P4": (
        "SELECT Z FROM Employee X "
        "WHERE X.Salary < {s} and X.OwnedVehicles.Drivetrain.Engine[Z]"
    ),
    "P4K": (
        "SELECT Z FROM Employee X "
        "WHERE X.Name['{name}'] and X.OwnedVehicles.Drivetrain.Engine[Z]"
    ),
    "P7": (
        "SELECT X FROM Employee X "
        "WHERE X.Name['{name}'] and X.FamMembers.Age some> {a}"
    ),
    "P7NAME": (
        "SELECT X.Name FROM Employee X "
        "WHERE X.Name['{name}'] and X.FamMembers.Age some> {a}"
    ),
    "A1": (
        "SELECT X FROM Employee X "
        "WHERE X.Name['{name}'] and count(X.FamMembers) > {n}"
    ),
    "J1": (
        "SELECT X, Y FROM Company X, Company Y "
        "WHERE X.Name['Company{c}'] and X.Headquarters =some Y.Headquarters"
    ),
    "P6": "SELECT #X WHERE {cls} subclassOf #X",
    "P11": (
        "SELECT X.Name, W.Salary FROM Company X "
        "WHERE X.Name['Company{c}'] and X.Divisions.Employees[W]"
    ),
    "VIEW": (
        "SELECT V.Salary FROM CompSalaries V WHERE V.CompName['Company{c}']"
    ),
    "FAM": "SELECT Y FROM Person X WHERE X.Name['P{k}'] and X.FamMembers[Y]",
    "DIV": (
        "SELECT W FROM Division D "
        "WHERE D.Name['{div}'] and D.Employees[W] and W.Salary > {s}"
    ),
    "RICH": (
        "SELECT X FROM Company X "
        "WHERE X.Divisions.Employees.Salary some> {s}"
    ),
}

#: The materialized view mixed-oltp maintains (the paper's query (9)).
COMP_SALARIES = """
CREATE VIEW CompSalaries AS SUBCLASS OF Object
SIGNATURE CompName = String, Salary = Numeral
SELECT CompName = X.Name, Salary = W.Salary
FROM Company X
OID FUNCTION OF X, W
WHERE X.Divisions[Y].Employees[W]
"""

CITIES = (
    "newyork", "austin", "sanfrancisco", "sandiego",
    "boston", "chicago", "seattle", "portland", "denver", "atlanta",
)
SCHEMA_CLASSES = (
    "TurboEngine", "DieselEngine", "FourStrokeEngine", "TwoStrokeEngine",
    "Automobile", "Employee",
)


@dataclass(frozen=True)
class Op:
    """One deck entry.

    ``kind`` is ``read`` (a statement), ``write`` (one acknowledged
    write batch), ``pinned`` (a read through a snapshot pin; ``opens``
    and ``releases`` mark the pin's lifetime), ``checkpoint``, or
    ``open`` (reopen's whole open/first-query/verify/close cycle).
    Writes name an ``action`` on ``target``.  A ``probe`` is a timed
    ``Age``/``Salary`` write and a ``read-probe`` a timed statement;
    neither is counted as an op (cold-adhoc and reopen have no write
    ops, and a reopen op has only one statement).
    """

    kind: str
    template: str = ""
    params: Tuple[Tuple[str, object], ...] = ()
    action: str = ""
    target: str = ""
    method: str = ""
    value: object = None
    opens: bool = False
    releases: bool = False

    @property
    def text(self) -> str:
        return TEMPLATES[self.template].format(**dict(self.params))

    @property
    def args(self) -> Dict[str, object]:
        return dict(self.params)


def read(template: str, **params) -> Op:
    return Op("read", template, tuple(sorted(params.items())))


def write(action: str, target: str, method: str = "", value=None) -> Op:
    return Op("write", action=action, target=target, method=method,
              value=value)


def deck_digest(deck: List[List[Op]]) -> str:
    return hashlib.sha256(repr(deck).encode("utf-8")).hexdigest()[:16]


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}")


def _salary(rng: random.Random) -> int:
    return rng.randint(15_000, 320_000)


# ----------------------------------------------------------------------
# cold-adhoc
# ----------------------------------------------------------------------


def probe_writes(
    rng: random.Random, counts: ScaleCounts, n: int
) -> List[Op]:
    """*n* single-attribute writes to random people (``Age``/``Salary``)."""
    ops = []
    for _ in range(n):
        k = rng.randrange(counts.people)
        salary = k < counts.employees and rng.random() < 0.5
        ops.append(
            Op(
                "probe",
                target=f"s_p{k}",
                method="Salary" if salary else "Age",
                value=_salary(rng) if salary else rng.randint(1, 90),
            )
        )
    return ops


def _interleave(reads: List[Op], probes: List[Op]) -> List[Op]:
    """Each read followed by one probe write.

    The first write after other work costs about four times a write
    after a write (its code and data are out of cache); with every probe
    after a read, all write samples are taken alike.
    """
    return [op for pair in zip(reads, probes) for op in pair]


def cold_round(rng: random.Random, counts: ScaleCounts) -> List[Op]:
    """Ten fresh statements in seeded order: P4 twice, the rest once.

    P4 scans the Employee extent (the ``extent()`` hot spot); the other
    templates are point-selective.  With two scans in ten, the median
    read falls among the point statements and the p90 in the middle of
    the scans, never on the step between the two groups.  An in-memory
    probe write follows each statement: cold-adhoc has no write ops, and
    the probes give its write metrics samples spread over the whole run.
    """
    employee = lambda: f"P{rng.randrange(counts.employees)}"  # noqa: E731
    ops = [
        read("S", k=rng.randrange(counts.people)),
        read("P3", k=rng.randrange(counts.people), city=rng.choice(CITIES)),
        read("P4", s=rng.randint(15_000, 40_000)),
        read("P4", s=rng.randint(15_000, 40_000)),
        read("P4K", name=employee()),
        read("P7", name=employee(), a=rng.randint(20, 80)),
        read("A1", name=employee(), n=rng.randint(0, 3)),
        read("J1", c=rng.randrange(counts.companies)),
        read("P6", cls=rng.choice(SCHEMA_CLASSES)),
        read("P11", c=rng.randrange(counts.companies)),
    ]
    rng.shuffle(ops)
    return _interleave(ops, probe_writes(rng, counts, len(ops)))


def cold_deck(seed: int, counts: ScaleCounts, rounds: int) -> List[List[Op]]:
    rng = _rng(seed, "cold-adhoc")
    return [cold_round(rng, counts) for _ in range(rounds)]


# ----------------------------------------------------------------------
# reopen
# ----------------------------------------------------------------------

TAIL_OBJECTS = 20
TAIL_WRITES = 100
REOPEN_READ_REPEATS = 3


def tail_writes(seed: int, counts: ScaleCounts) -> List[Op]:
    """100 single-write batches over 20 people, each written five times.

    Half the people are employees whose ``Salary`` changes, the rest
    change ``Age``; the last write of each wins, so every write's
    effect is checkable by reading the final value.
    """
    rng = _rng(seed, "tail")
    employees = rng.sample(range(counts.employees), TAIL_OBJECTS // 2)
    others = rng.sample(
        range(counts.employees, counts.people), TAIL_OBJECTS // 2
    )
    targets = [(f"s_p{k}", "Salary") for k in employees] + [
        (f"s_p{k}", "Age") for k in others
    ]
    ops = []
    for _ in range(TAIL_WRITES // TAIL_OBJECTS):
        for target, method in targets:
            value = _salary(rng) if method == "Salary" else rng.randint(1, 90)
            ops.append(write("set", target, method, value))
    return ops


def first_queries(seed: int, counts: ScaleCounts) -> List[Op]:
    """The rotating first statement of each reopen op."""
    rng = _rng(seed, "first")
    return [
        read("S", k=rng.randrange(counts.people)),
        read("P6", cls=rng.choice(SCHEMA_CLASSES)),
        read("P11", c=rng.randrange(counts.companies)),
        read("FAM", k=rng.randrange(counts.employees)),
    ]


def _reopen_makers(rng: random.Random, counts: ScaleCounts):
    """One seeded statement maker per template of a reopen read.

    The reads go to a copy that also takes the probe writes, which
    change ``Age`` and ``Salary`` only; none of these templates reads
    either, so every answer stays the mirror's.
    """
    return (
        lambda: read("S", k=rng.randrange(counts.people)),
        lambda: read(
            "P3", k=rng.randrange(counts.people), city=rng.choice(CITIES)
        ),
        lambda: read("P4K", name=f"P{rng.randrange(counts.employees)}"),
        lambda: read("FAM", k=rng.randrange(counts.employees)),
        lambda: read("P6", cls=rng.choice(SCHEMA_CLASSES)),
    )


def reopen_reads(rng: random.Random, counts: ScaleCounts) -> List[Op]:
    """Read probes for the open copy: every template thrice, shuffled.

    The templates are all point-selective (20 to 35 ms at 10k), so the
    p50 and p90 both fall inside one group of similar reads.
    """
    makers = _reopen_makers(rng, counts)
    ops = [make() for make in makers * REOPEN_READ_REPEATS]
    rng.shuffle(ops)
    return [Op("read-probe", op.template, op.params) for op in ops]


def reopen_priming(seed: int, counts: ScaleCounts) -> List[Op]:
    """Every statement template a reopen round uses, once each."""
    makers = _reopen_makers(_rng(seed, "prime"), counts)
    return first_queries(seed, counts) + [make() for make in makers]


def reopen_deck(seed: int, counts: ScaleCounts, rounds: int) -> List[List[Op]]:
    """One open per round, then probe reads and writes on a copy."""
    firsts = first_queries(seed, counts)
    rng = _rng(seed, "reopen")
    rounds_ = []
    for i in range(rounds):
        reads = reopen_reads(rng, counts)
        rounds_.append(
            [Op("open", params=(("first", firsts[i % len(firsts)]),))]
            + _interleave(reads, probe_writes(rng, counts, len(reads)))
        )
    return rounds_


# ----------------------------------------------------------------------
# mixed-oltp
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OltpPlan:
    """The fixed statements and hot keys of one mixed-oltp deck."""

    statements: Tuple[Op, ...]
    pinned: Tuple[Op, ...]
    hot_employees: Tuple[str, ...]
    hot_people: Tuple[str, ...]
    family_owner: str


def oltp_plan(seed: int, counts: ScaleCounts) -> OltpPlan:
    rng = _rng(seed, "oltp-plan")
    emp = rng.sample(range(counts.employees), 12)
    people = rng.sample(range(counts.employees, counts.people), 12)
    k1, k3, k4 = emp[0], emp[1], emp[2]
    company = rng.sample(range(counts.companies), 2)
    division = (
        f"Div{rng.randrange(counts.companies)}_"
        f"{rng.randrange(counts.divisions // counts.companies)}"
    )
    statements = (
        read("SALARY", name=f"P{k1}"),
        read("AGE", name=f"P{people[0]}"),
        read("VIEW", c=company[0]),
        read("VIEW", c=company[1]),
        read("FAM", k=k3),
        read("P4K", name=f"P{k4}"),
        read("DIV", div=division, s=rng.randint(100_000, 250_000)),
        read("P6", cls="DieselEngine"),
        read("SALARY", name="Q0"),
        read("P7NAME", name=f"P{k1}", a=rng.randint(20, 60)),
    )
    # Pinned reads stay clear of selective Name predicates: on a pinned
    # snapshot the cost planner's index auto-enable raises (see README).
    pinned = (
        read("RICH", s=rng.randint(250_000, 318_000)),
        read("P6", cls="TurboEngine"),
    )
    return OltpPlan(
        statements=statements,
        pinned=pinned,
        hot_employees=tuple(f"s_p{k}" for k in emp),
        hot_people=tuple(f"s_p{k}" for k in people),
        family_owner=f"s_p{k3}",
    )


READS_PER_STATEMENT = 7
WRITES_PER_ROUND = 25
PINNED_PER_ROUND = 5
#: Writes sorted by cost: 21 cheap ones (0.1 to 0.7 ms, the create among
#: them), 3 ``Salary`` updates the view maintains (targeted, 2 to 5 ms)
#: and one purge (about 17 ms).  The p50 then falls inside the cheap
#: group and the p90 (22.5th of 25) inside the targeted updates, never
#: on a step between two groups.
VIEW_WRITES = 3
CREATES_PER_ROUND = 1


def oltp_round(rng: random.Random, plan: OltpPlan, counts: ScaleCounts):
    """101 ops: 70 prepared reads, 25 writes, 5 pinned reads, 1 checkpoint."""
    reads = [op for op in plan.statements for _ in range(READS_PER_STATEMENT)]
    person = lambda: f"s_p{rng.randrange(counts.people)}"  # noqa: E731
    ages = WRITES_PER_ROUND - VIEW_WRITES - 4 * CREATES_PER_ROUND - 2
    writes = [
        write("set", rng.choice(plan.hot_employees), "Salary", _salary(rng))
        for _ in range(VIEW_WRITES)
    ] + [
        write("set", rng.choice(plan.hot_people), "Age", rng.randint(1, 90))
        for _ in range(ages)
    ]
    # Per created employee: create, a Salary write outside the view's
    # support set, a set-member add, and the purge, in that order.
    chains = [
        [
            write("create", f"bn{j}", value=(
                f"Q{j}", rng.randint(18, 70), _salary(rng)
            )),
            write("set", f"bn{j}", "Salary", _salary(rng)),
            write("add", f"bn{j}", "FamMembers", person()),
            write("purge", f"bn{j}"),
        ]
        for j in range(CREATES_PER_ROUND)
    ]
    chains.append(
        [
            write("add", plan.family_owner, "FamMembers", person()),
            write("restore", plan.family_owner, "FamMembers"),
        ]
    )
    chained = [op for chain in chains for op in chain]
    assert len(writes) + len(chained) == WRITES_PER_ROUND
    body = reads + writes + chained
    rng.shuffle(body)
    # Put each chain back in order on the slots it was shuffled to.
    for chain in chains:
        slots = [i for i, op in enumerate(body) if any(op is c for c in chain)]
        for slot, op in zip(slots, chain):
            body[slot] = op

    # One pin per round: opened before a write, read after each of the
    # next four writes, released by the last pinned read.
    write_slots = [i for i, op in enumerate(body) if op.kind == "write"]
    first = rng.randrange(WRITES_PER_ROUND - PINNED_PER_ROUND + 1)
    inserts = [write_slots[first]] + [
        write_slots[first + i] + 1 for i in range(PINNED_PER_ROUND - 1)
    ]
    for n, slot in reversed(list(enumerate(inserts))):
        base = plan.pinned[n % len(plan.pinned)]
        body.insert(
            slot,
            Op(
                "pinned",
                base.template,
                base.params,
                opens=n == 0,
                releases=n == PINNED_PER_ROUND - 1,
            ),
        )
    body.append(Op("checkpoint"))
    return body


def oltp_deck(seed: int, counts: ScaleCounts, rounds: int):
    plan = oltp_plan(seed, counts)
    rng = _rng(seed, "oltp")
    return plan, [oltp_round(rng, plan, counts) for _ in range(rounds)]

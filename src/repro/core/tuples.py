"""Tuple instances and tuple identifiers.

The paper: "Each tuple is owned by the process that asserted it and the owner
may be determined by examining the unique tuple identifier associated with
each tuple.  Typically, tuple identifiers are ignored by application programs
but are of interest during debugging and testing."

The dataspace is a *multiset*: two tuples with identical values are distinct
*instances* and carry distinct identifiers.  Retracting one instance of a
tuple may leave other instances of it in the dataspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Iterable, Iterator

from repro.core.values import Identifier, check_value, value_repr
from repro.errors import ArityError

__all__ = ["TupleId", "TupleInstance", "make_tuple"]


class TupleId(Identifier):
    """Unique identifier of a tuple instance: the pair ``(serial, owner)``.

    ``owner`` is the process id (pid) of the asserting process; ``serial`` is
    a dataspace-wide monotonically increasing counter, so identifiers double
    as assertion timestamps.  Environment-created tuples (the initial
    dataspace) carry owner ``0``.

    A ``tuple`` underneath, so hashing, equality and ordering (serial
    first) run in C: the planned join tests ``tid in used_tids`` for every
    candidate.  A ``TupleId`` therefore equals the plain tuple ``(serial,
    owner)``; it is still not an SDL value
    (:class:`~repro.core.values.Identifier`).
    """

    __slots__ = ()

    def __new__(cls, serial: int, owner: int) -> "TupleId":
        return tuple.__new__(cls, (serial, owner))

    serial = property(itemgetter(0), doc="Dataspace-wide assertion counter.")
    owner = property(itemgetter(1), doc="Pid of the asserting process.")

    def __getnewargs__(self) -> tuple[int, int]:
        return (self[0], self[1])

    def __repr__(self) -> str:
        return f"#{self[0]}@{self[1]}"


@dataclass(frozen=True, slots=True)
class TupleInstance:
    """An immutable tuple instance living in (or destined for) a dataspace."""

    tid: TupleId
    values: tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise ArityError("SDL tuples must have at least one field")

    @property
    def arity(self) -> int:
        return len(self.values)

    @property
    def owner(self) -> int:
        return self.tid.owner

    def __getitem__(self, index: int) -> Any:
        return self.values[index]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __repr__(self) -> str:
        body = ",".join(value_repr(v) for v in self.values)
        return f"<{body}>{self.tid!r}"


#: Field types accepted on sight; any other type (a ``str`` or ``int``
#: subclass, a nested tuple) goes through :func:`check_value`.
_PLAIN = frozenset((str, int, float, bool))


def make_tuple(values: Iterable[Any], serial: int, owner: int) -> TupleInstance:
    """Validate *values* against the value domain and wrap them in an
    instance.  A plain ``tuple`` is kept as it is, anything else iterable
    is copied into one; an empty one raises :class:`ArityError`."""
    if type(values) is not tuple:
        values = tuple(values)
    for value in values:
        if type(value) not in _PLAIN:
            check_value(value)
    if not values:
        raise ArityError("SDL tuples must have at least one field")
    return TupleInstance(TupleId(serial, owner), values)

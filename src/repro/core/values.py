"""The SDL value domain.

The paper defines a tuple as "a sequence of values from some domain V (e.g.,
atoms and integers)".  We realise V as:

* **atoms** — interned symbolic constants (:class:`Atom`), printed without
  quotes, e.g. ``year`` or ``not_found``;
* **strings** — ordinary Python ``str`` (useful for application payloads);
* **numbers** — ``int``, ``float`` and ``bool``;
* **positions** — immutable tuples of values (used, e.g., for pixel
  coordinates in the region-labeling programs).

Values must be immutable and hashable because the dataspace builds inverted
indexes keyed on field values.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ValueDomainError

__all__ = ["Atom", "Identifier", "NIL", "is_value", "check_value", "value_repr"]


class Atom(str):
    """A symbolic constant.

    Atoms behave exactly like strings for matching and indexing purposes (an
    atom ``Atom("x")`` equals the string ``"x"``), but render without quotes
    so that traces read like the paper's notation::

        >>> Atom("year")
        year
        >>> Atom("year") == "year"
        True
    """

    __slots__ = ()

    _interned: dict[str, "Atom"] = {}

    def __new__(cls, name: str) -> "Atom":
        cached = cls._interned.get(name)
        if cached is not None:
            return cached
        if not isinstance(name, str) or not name:
            raise ValueDomainError(f"atom name must be a non-empty string, got {name!r}")
        made = super().__new__(cls, name)
        cls._interned[name] = made
        return made

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return str(self)


#: The distinguished atom used by the paper's property-list examples to mark
#: the end of a linked list.
NIL = Atom("nil")


class Identifier(tuple):
    """Base of tuple-shaped identifiers (:class:`~repro.core.tuples.TupleId`).

    A tuple so that hashing and comparison run in C, but metadata rather
    than data — tuple identifiers "are ignored by application programs" —
    so :func:`is_value` rejects it.
    """

    __slots__ = ()


_SCALAR_TYPES = (str, int, float, bool)


def is_value(obj: Any) -> bool:
    """Return True if *obj* belongs to the SDL value domain."""
    if isinstance(obj, _SCALAR_TYPES):
        return True
    if isinstance(obj, tuple) and not isinstance(obj, Identifier):
        return all(is_value(item) for item in obj)
    return False


def check_value(obj: Any) -> Any:
    """Validate *obj* as an SDL value, returning it unchanged.

    Raises :class:`~repro.errors.ValueDomainError` for objects outside the
    domain (lists, dicts, arbitrary objects, ``None``).
    """
    if not is_value(obj):
        raise ValueDomainError(
            f"{obj!r} (type {type(obj).__name__}) is outside the SDL value domain"
        )
    return obj


def value_repr(obj: Any) -> str:
    """Render a value the way the paper prints it inside angle brackets."""
    if isinstance(obj, Atom):
        return str(obj)
    if isinstance(obj, tuple):
        return "(" + ",".join(value_repr(item) for item in obj) + ")"
    return repr(obj)

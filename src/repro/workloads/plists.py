"""Property-list workloads for the Section 3.2 experiments.

A property list is a linked list of four-tuples
``<node_id, property_name, value, next_node_id>`` terminated by the
distinguished atom ``nil``.
"""

from __future__ import annotations

import random
import string
from typing import Any

from repro.core.values import NIL, Atom

__all__ = ["random_property_list", "property_list_rows", "chain_order"]


def random_property_list(
    length: int, seed: int = 0, name_length: int = 6
) -> list[tuple[int, Atom, str, Any]]:
    """A random property list of *length* nodes with distinct property names.

    Node ids are 0..length-1 in chain order; names are random lowercase
    strings (distinct), values are derived from the names.
    """
    if length < 1:
        raise ValueError("property list length must be >= 1")
    rng = random.Random(seed)
    names: set[str] = set()
    while len(names) < length:
        names.add("".join(rng.choices(string.ascii_lowercase, k=name_length)))
    # Sorted first: a set's iteration order depends on the string hash
    # seed, and the list must be a function of *seed* alone.
    ordered = sorted(names)
    rng.shuffle(ordered)
    rows = []
    for index, name in enumerate(ordered):
        nxt: Any = index + 1 if index + 1 < length else NIL
        rows.append((index, Atom(name), f"value-of-{name}", nxt))
    return rows


def property_list_rows(pairs: list[tuple[str, Any]]) -> list[tuple[int, Atom, Any, Any]]:
    """Build list rows from explicit (name, value) pairs, in order."""
    rows = []
    for index, (name, value) in enumerate(pairs):
        nxt: Any = index + 1 if index + 1 < len(pairs) else NIL
        rows.append((index, Atom(name), value, nxt))
    return rows


def chain_order(rows: list[tuple]) -> list[str]:
    """Walk the chain from node 0, returning property names in list order.

    Raises ``ValueError`` on a broken chain (missing node or cycle).
    """
    by_id = {row[0]: row for row in rows}
    order: list[str] = []
    node: Any = 0
    seen: set[Any] = set()
    while node != NIL:
        if node in seen or node not in by_id:
            raise ValueError(f"broken property list chain at node {node!r}")
        seen.add(node)
        row = by_id[node]
        order.append(str(row[1]))
        node = row[3]
    if len(order) != len(rows):
        raise ValueError("property list chain does not cover all nodes")
    return order

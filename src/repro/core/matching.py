"""Backtracking conjunctive-match engine over a window.

Queries bind tuples through an ordered list of atoms.  The engine walks the
atoms left to right, drawing candidates from the window's content-addressing
indexes, extending the binding environment, and backtracking on failure.
Distinct atoms must bind **distinct tuple instances** (multiset semantics:
"retracting one instance of a tuple may leave other instances of it").

Nondeterministic choice ("an arbitrary one of them is selected") is realised
by rotating each candidate list by a seeded-RNG offset, which keeps the
search O(matches) while remaining genuinely arbitrary across seeds.  The
offset is drawn by :func:`rotation_start`, the one arbitration rule: this
walk builds the rotated copy (:func:`_rotated`), the planner
(:mod:`repro.core.plan`) visits the same rows in the same order by
starting at the offset instead of copying.
"""

from __future__ import annotations

import random
from typing import Any, Iterator, Mapping, Sequence

from repro.core.tuples import TupleId, TupleInstance

__all__ = ["iter_joint_matches", "first_joint_match", "rotation_start"]


def rotation_start(n: int, rng: random.Random | None) -> int:
    """The arbitration offset into *n* candidate rows.

    Draws ``rng.randrange(n)`` iff *rng* is set and ``n >= 2``; otherwise
    draws nothing and returns 0.  Every arbitration rotation calls this,
    so every path consumes the RNG stream identically.
    """
    if rng is None or n < 2:
        return 0
    return rng.randrange(n)


def _rotated(items: list, rng: random.Random | None) -> list:
    """Rotate *items* by a random offset (arbitrary but cheap choice order)."""
    start = rotation_start(len(items), rng)
    if start == 0:
        return items
    return items[start:] + items[:start]


def iter_joint_matches(
    window: Any,
    patterns: Sequence[Any],
    bound: Mapping[str, Any],
    rng: random.Random | None = None,
    excluded: frozenset[TupleId] | set[TupleId] = frozenset(),
) -> Iterator[tuple[dict[str, Any], list[TupleInstance]]]:
    """Yield ``(bindings, instances)`` for every joint match of *patterns*.

    * *window* — anything exposing ``candidates(pattern, bound)`` (a
      :class:`~repro.core.views.Window` or a bare
      :class:`~repro.core.dataspace.Dataspace`);
    * *bound* — pre-existing bindings (process parameters, let constants);
    * *excluded* — instances that may not participate (already consumed).

    The yielded ``bindings`` dict contains *bound* plus the new bindings;
    ``instances`` is aligned with *patterns*.
    """
    env: dict[str, Any] = dict(bound)
    used: list[TupleInstance] = []
    used_tids: set[TupleId] = set()

    def search(index: int) -> Iterator[tuple[dict[str, Any], list[TupleInstance]]]:
        if index == len(patterns):
            # *excluded* is consulted live: ∀ enumeration grows it while
            # this generator is suspended, so instances chosen at an outer
            # depth may have been consumed since — prune at the leaf rather
            # than restarting the whole search (the per-depth membership
            # checks only cover the selection moment).  With a static
            # excluded set this re-check can never fire.
            if excluded and not used_tids.isdisjoint(excluded):
                return
            yield dict(env), list(used)
            return
        pat = patterns[index]
        for inst in _rotated(window.candidates(pat, env), rng):
            tid = inst.tid
            if tid in used_tids or tid in excluded:
                continue
            new = pat.match(inst.values, env)
            if new is None:
                continue
            env.update(new)
            used.append(inst)
            used_tids.add(tid)
            yield from search(index + 1)
            used_tids.remove(tid)
            used.pop()
            for key in new:
                del env[key]

    return search(0)


def first_joint_match(
    window: Any,
    patterns: Sequence[Any],
    bound: Mapping[str, Any],
    rng: random.Random | None = None,
    excluded: frozenset[TupleId] | set[TupleId] = frozenset(),
    predicate: Any = None,
) -> tuple[dict[str, Any], list[TupleInstance]] | None:
    """First joint match, optionally filtered by ``predicate(bindings, insts)``."""
    for bindings, instances in iter_joint_matches(window, patterns, bound, rng, excluded):
        if predicate is None or predicate(bindings, instances):
            return bindings, instances
    return None

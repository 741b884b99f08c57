"""Unit tests for the content-addressable dataspace (repro.core.dataspace)."""

import pytest

from repro.core.dataspace import DataspaceChange
from repro.core.patterns import ANY, P
from repro.errors import SDLError


class TestBasicMutation:
    def test_insert_returns_instance(self, space):
        inst = space.insert(("year", 87))
        assert inst.values == ("year", 87)
        assert inst.tid in space
        assert len(space) == 1

    def test_multiset_semantics(self, space):
        a = space.insert(("x", 1))
        b = space.insert(("x", 1))
        assert len(space) == 2
        space.retract(a.tid)
        # "retracting one instance of a tuple may leave other instances"
        assert len(space) == 1
        assert b.tid in space

    def test_retract_returns_instance(self, space):
        inst = space.insert(("x",))
        got = space.retract(inst.tid)
        assert got is inst
        assert inst.tid not in space

    def test_retract_missing_raises(self, space):
        inst = space.insert(("x",))
        space.retract(inst.tid)
        with pytest.raises(SDLError):
            space.retract(inst.tid)

    def test_get_missing_raises(self, space):
        from repro.core.tuples import TupleId

        with pytest.raises(SDLError):
            space.get(TupleId(99, 0))

    def test_serials_monotone(self, space):
        a = space.insert(("x",))
        b = space.insert(("y",))
        assert b.tid.serial > a.tid.serial

    def test_owner_recorded(self, space):
        inst = space.insert(("x",), owner=42)
        assert inst.owner == 42

    def test_insert_many(self, space):
        rows = [("a", i) for i in range(5)]
        out = space.insert_many(rows)
        assert len(out) == 5
        assert len(space) == 5


class TestVersioning:
    def test_version_bumps_on_insert_and_retract(self, space):
        v0 = space.version
        inst = space.insert(("x",))
        assert space.version == v0 + 1
        space.retract(inst.tid)
        assert space.version == v0 + 2

    def test_listener_sees_changes(self, space):
        seen: list[DataspaceChange] = []
        unsubscribe = space.subscribe(seen.append)
        inst = space.insert(("x",))
        space.retract(inst.tid)
        assert [(len(c.asserted), len(c.retracted)) for c in seen] == [(1, 0), (0, 1)]
        unsubscribe()
        space.insert(("y",))
        assert len(seen) == 2


class TestApplyChange:
    def test_a_transaction_is_one_change(self, space):
        a = space.insert(("x", 1))
        b = space.insert(("x", 2))
        seen: list[DataspaceChange] = []
        space.subscribe(seen.append)
        v0 = space.version
        asserted = space.apply_change([b, a], [(1, [("y", 3)]), (2, [("z", 4), ("z", 5)])])
        assert space.version == v0 + 1
        (change,) = seen
        assert change.version == space.version
        assert change.retracted == (b, a)
        assert change.asserted == tuple(asserted)
        assert [(i.values, i.owner) for i in asserted] == [
            (("y", 3), 1), (("z", 4), 2), (("z", 5), 2)
        ]
        assert a.tid not in space and b.tid not in space
        assert repr(change) == f"change +3/-2 @v{space.version}"

    def test_an_empty_effect_changes_nothing(self, space):
        space.insert(("x", 1))
        seen: list[DataspaceChange] = []
        space.subscribe(seen.append)
        v0 = space.version
        assert space.apply_change([], [(1, [])]) == []
        assert space.version == v0 and seen == []


class TestContentAddressing:
    def test_by_arity(self, space):
        space.insert(("a",))
        space.insert(("b", 1))
        space.insert(("c", 1, 2))
        assert len(space.by_arity(2)) == 1
        assert len(space.by_arity(4)) == 0

    def test_by_field(self, space):
        space.insert(("year", 87))
        space.insert(("year", 90))
        space.insert(("day", 87))
        assert len(space.by_field(2, 0, "year")) == 2
        assert len(space.by_field(2, 1, 87)) == 2
        assert len(space.by_field(2, 1, 99)) == 0

    def test_candidates_use_narrowest_index(self, space):
        for i in range(10):
            space.insert(("bulk", i))
        space.insert(("rare", 0))
        # probing on the "rare" constant must not return the bulk tuples
        assert len(space.candidates(P["rare", ANY])) == 1

    def test_candidates_no_constants_fall_back_to_arity(self, space, abc):
        a, b, _ = abc
        space.insert(("x", 1))
        space.insert(("y", 2, 3))
        assert len(space.candidates(P[a, b])) == 1

    def test_candidates_missing_index_short_circuits(self, space):
        space.insert(("x", 1))
        assert space.candidates(P["zzz", ANY]) == []

    def test_candidates_respect_bound_variables(self, space, abc):
        a, b, _ = abc
        space.insert(("x", 1))
        space.insert(("x", 2))
        got = space.candidates(P["x", a], {"a": 2})
        assert [inst.values for inst in got] == [("x", 2)]

    def test_find_and_count_matching(self, year_space, abc):
        a, _, _ = abc
        assert year_space.count_matching(P["year", a]) == 4
        found = year_space.find_matching(P["year", 87])
        assert [inst.values for inst in found] == [("year", 87)]

    def test_index_cleaned_on_retract(self, space):
        inst = space.insert(("x", 1))
        space.retract(inst.tid)
        assert space.candidates(P["x", ANY]) == []
        assert len(space.by_arity(2)) == 0


class TestInspection:
    def test_snapshot_sorted_and_stable(self, space):
        space.insert(("b", 2))
        space.insert(("a", 1))
        space.insert(("a", 1))
        snap = space.snapshot()
        assert snap == sorted(snap, key=lambda v: tuple(map(repr, v)))
        assert len(snap) == 3

    def test_multiset_counts(self, space):
        space.insert(("a", 1))
        space.insert(("a", 1))
        space.insert(("b", 2))
        assert space.multiset() == {("a", 1): 2, ("b", 2): 1}

    def test_repr_small_and_large(self, space):
        space.insert(("x", 1))
        assert "x" in repr(space)
        for i in range(20):
            space.insert(("y", i))
        assert "|D|=" in repr(space)

    def test_heterogeneous_snapshot_does_not_compare_values(self, space):
        # int vs str fields would break a naive sorted(); ours must not
        space.insert((1, 2))
        space.insert(("a", "b"))
        assert len(space.snapshot()) == 2

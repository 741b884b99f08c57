"""Unit tests for tuple instances and identifiers (repro.core.tuples)."""

import enum
import pickle

import pytest

from repro.core.tuples import TupleId, make_tuple
from repro.core.values import Atom, is_value
from repro.errors import ArityError, ValueDomainError


class TestTupleId:
    def test_identity_fields(self):
        tid = TupleId(serial=4, owner=2)
        assert tid.serial == 4
        assert tid.owner == 2

    def test_ids_order_by_serial_first(self):
        assert TupleId(1, 9) < TupleId(2, 0)

    def test_repr_mentions_serial_and_owner(self):
        assert repr(TupleId(3, 7)) == "#3@7"

    def test_hashable_and_equal_by_value(self):
        assert TupleId(1, 1) == TupleId(1, 1)
        assert len({TupleId(1, 1), TupleId(1, 1)}) == 1

    def test_is_the_pair_it_names(self):
        # A tuple underneath: hash, equality and order are the pair's.
        tid = TupleId(5, 2)
        assert isinstance(tid, tuple) and tid == (5, 2)
        assert hash(tid) == hash((5, 2))
        assert TupleId(1, 3) != TupleId(3, 1)
        ids = [TupleId(2, 0), TupleId(1, 9), TupleId(1, 3)]
        assert sorted(ids) == [TupleId(1, 3), TupleId(1, 9), TupleId(2, 0)]

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        clone = pickle.loads(pickle.dumps(TupleId(serial=5, owner=2), protocol))
        assert type(clone) is TupleId
        assert (clone, clone.serial, clone.owner, repr(clone)) == ((5, 2), 5, 2, "#5@2")

    def test_fields_are_read_only(self):
        tid = TupleId(5, 2)
        with pytest.raises(AttributeError):
            tid.serial = 6

    def test_an_identifier_is_not_a_value(self):
        assert not is_value(TupleId(1, 0))
        with pytest.raises(ValueDomainError):
            make_tuple(("x", TupleId(1, 0)), serial=2, owner=0)


class TestMakeTuple:
    def test_basic_construction(self):
        inst = make_tuple(("year", 87), serial=1, owner=5)
        assert inst.values == ("year", 87)
        assert inst.arity == 2
        assert inst.owner == 5

    def test_owner_determined_from_identifier(self):
        # "the owner may be determined by examining the unique tuple identifier"
        inst = make_tuple(("x",), serial=9, owner=3)
        assert inst.tid.owner == inst.owner == 3

    def test_empty_tuple_rejected(self):
        with pytest.raises(ArityError):
            make_tuple((), serial=1, owner=0)

    def test_bad_value_rejected(self):
        with pytest.raises(ValueDomainError):
            make_tuple(("ok", [1, 2]), serial=1, owner=0)

    def test_sequence_protocol(self):
        inst = make_tuple((1, 2, 3), serial=1, owner=0)
        assert len(inst) == 3
        assert inst[1] == 2
        assert list(inst) == [1, 2, 3]

    def test_instances_with_same_values_differ_by_id(self):
        a = make_tuple(("year", 87), serial=1, owner=0)
        b = make_tuple(("year", 87), serial=2, owner=0)
        assert a.values == b.values
        assert a.tid != b.tid


class _Level(enum.IntEnum):
    LOW = 1


class TestMakeTupleValueDomain:
    """``make_tuple`` accepts plain scalars on sight and sends every other
    type through ``check_value``: it must accept and reject exactly what
    ``is_value`` does, with the same error types."""

    ACCEPTED = [
        "s", 7, 2.5, True, Atom("year"), _Level.LOW, (1, ("x", 2.0)), (),
    ]
    REJECTED = [TupleId(1, 0), (1, TupleId(1, 0)), None, [1], {"k": 1}, {1}]

    @pytest.mark.parametrize("value", ACCEPTED + REJECTED, ids=repr)
    def test_agrees_with_is_value(self, value):
        if is_value(value):
            inst = make_tuple(("head", value), serial=1, owner=0)
            assert inst.values[1] is value
        else:
            with pytest.raises(ValueDomainError):
                make_tuple(("head", value), serial=1, owner=0)

    def test_every_listed_value_is_where_it_belongs(self):
        assert all(is_value(value) for value in self.ACCEPTED)
        assert not any(is_value(value) for value in self.REJECTED)

    def test_a_tuple_is_kept_and_other_iterables_are_copied(self):
        values = ("year", 87)
        assert make_tuple(values, serial=1, owner=0).values is values
        listed = make_tuple(["year", 87], serial=2, owner=0)
        assert type(listed.values) is tuple and listed.values == values
        assert make_tuple(iter(values), serial=3, owner=0).values == values

    def test_empty_rejected_whatever_its_type(self):
        for empty in ((), [], iter(())):
            with pytest.raises(ArityError):
                make_tuple(empty, serial=1, owner=0)

    def test_a_bad_field_is_reported_before_the_arity(self):
        with pytest.raises(ValueDomainError):
            make_tuple([None], serial=1, owner=0)

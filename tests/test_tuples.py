"""Unit tests for tuple instances and identifiers (repro.core.tuples)."""

import pickle

import pytest

from repro.core.tuples import TupleId, make_tuple
from repro.core.values import is_value
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

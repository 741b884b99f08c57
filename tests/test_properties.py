"""Property-based tests (hypothesis) for core data structures and invariants."""

import operator

from hypothesis import given, settings, strategies as st

from repro.core.dataspace import JOURNAL_DEPTH, Dataspace
from repro.core.expressions import Var, variables
from repro.core.patterns import ANY, P
from repro.core.query import exists, forall, no
from repro.core.views import FULL_VIEW, View, import_rule
from repro.programs import run_sum3
from repro.workloads import property_list_rows
from repro.programs import run_sort

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

scalars = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.text(alphabet="abcxyz", min_size=1, max_size=4),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)

value_tuples = st.lists(scalars, min_size=1, max_size=4).map(tuple)

# Where-views (configuration-dependent imports): everything is drawn from a
# tiny domain so that heads, ``where`` atoms and data actually join.
small = st.integers(0, 2)
tags = st.sampled_from(["item", "sup"])
rows = st.builds(lambda tag, rest: (tag, *rest), tags, st.lists(small, min_size=1, max_size=2))


@st.composite
def _fields(draw, names, bound):
    """Fields 1.. of an arity-2/3 pattern: wildcards, constants, bare
    variables from *names* (binding on first use, testing thereafter) and
    literal expressions over variables already in *bound*.  Returns the
    fields and the names bound once the pattern has matched."""
    fields, bound = [], set(bound)
    for _ in range(draw(st.integers(1, 2))):
        # bare variables are what joins head and atoms: weight them up
        kind = draw(st.sampled_from(["var", "var", "var", "any", "const", "expr"]))
        if kind == "var":
            name = draw(st.sampled_from(names))
            fields.append(Var(name))
            bound.add(name)
        elif kind == "const":
            fields.append(draw(small))
        elif kind == "expr":
            name = draw(st.sampled_from(sorted(bound)))
            fields.append(Var(name) + draw(st.integers(-1, 1)))
        else:
            fields.append(ANY)
    return fields, bound


@st.composite
def where_rules(draw, min_atoms=0):
    """An import rule with up to two ``where`` atoms sharing variables with
    the head and with each other, and maybe a guard over head variables
    and the process parameter ``p``."""
    head, head_bound = draw(_fields(["x", "y", "p"], {"p"}))
    atoms, bound = [], head_bound
    for _ in range(draw(st.integers(min_atoms, 2))):
        fields, bound = draw(_fields(["x", "y", "z", "p"], bound))
        atoms.append(P[(draw(tags), *fields)])
    guard = None
    if head_bound != {"p"} and draw(st.integers(0, 2)) == 0:
        compare = draw(st.sampled_from([operator.ge, operator.ne, operator.le]))
        left = Var(draw(st.sampled_from(sorted(head_bound - {"p"}))))
        guard = compare(left, draw(st.one_of(small, st.just(Var("p")))))
    return import_rule(draw(tags), *head, guard=guard, where=atoms)


mutations = st.one_of(
    st.tuples(st.just("insert"), rows),
    st.tuples(st.just("insert"), rows),  # twice: keep the dataspace populated
    st.tuples(st.just("insert_many"), st.lists(rows, min_size=1, max_size=4)),
    st.tuples(st.just("retract"), st.integers(0, 99)),
    st.tuples(st.just("retract_many"), st.lists(st.integers(0, 99), min_size=1, max_size=3)),
)


class TestDataspaceProperties:
    @given(st.lists(value_tuples, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_insert_then_full_retract_leaves_empty(self, rows):
        ds = Dataspace()
        instances = [ds.insert(row) for row in rows]
        assert len(ds) == len(rows)
        for inst in instances:
            ds.retract(inst.tid)
        assert len(ds) == 0
        assert ds.snapshot() == []
        # all indexes fully cleaned
        assert not ds._by_arity and not ds._by_field

    @given(st.lists(value_tuples, max_size=25), st.data())
    @settings(max_examples=60, deadline=None)
    def test_multiset_is_insertion_invariant(self, rows, data):
        ds = Dataspace()
        for row in rows:
            ds.insert(row)
        counts: dict = {}
        for row in rows:
            counts[row] = counts.get(row, 0) + 1
        assert ds.multiset() == counts

    @given(st.lists(value_tuples, min_size=1, max_size=25), st.data())
    @settings(max_examples=60, deadline=None)
    def test_candidates_superset_of_matches(self, rows, data):
        ds = Dataspace()
        for row in rows:
            ds.insert(row)
        probe = data.draw(st.sampled_from(rows))
        pat = P[tuple(probe)] if len(probe) == 1 else P[probe]
        matching = {i.tid for i in ds.find_matching(pat)}
        candidates = {i.tid for i in ds.candidates(pat)}
        assert matching <= candidates
        assert len(matching) >= 1  # the probe itself matches

    @given(st.lists(value_tuples, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_version_strictly_monotone(self, rows):
        ds = Dataspace()
        seen = [ds.version]
        for row in rows:
            ds.insert(row)
            seen.append(ds.version)
        assert seen == sorted(set(seen))


class TestPatternProperties:
    @given(value_tuples)
    @settings(max_examples=80, deadline=None)
    def test_all_wildcards_match_anything(self, row):
        pat = P[tuple(ANY for __ in row)]
        assert pat.match(row, {}) == {}

    @given(value_tuples)
    @settings(max_examples=80, deadline=None)
    def test_self_literal_pattern_matches_itself(self, row):
        pat = P[row] if len(row) > 1 else P[row[0]]
        assert pat.match(row, {}) == {}

    @given(value_tuples)
    @settings(max_examples=80, deadline=None)
    def test_variable_pattern_binds_every_field(self, row):
        vs = variables(" ".join(f"v{i}" for i in range(len(row))))
        pat = P[vs if len(vs) > 1 else vs[0]]
        got = pat.match(row, {})
        assert got == {f"v{i}": row[i] for i in range(len(row))}

    @given(value_tuples, value_tuples)
    @settings(max_examples=80, deadline=None)
    def test_arity_mismatch_never_matches(self, a, b):
        if len(a) == len(b):
            return
        pat = P[tuple(ANY for __ in a)]
        assert pat.match(b, {}) is None


class TestQueryProperties:
    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_forall_retract_partitions_dataspace(self, values):
        """∀ with a filter retracts exactly the matching instances."""
        ds = Dataspace()
        for v in values:
            ds.insert(("n", v))
        a = Var("a")
        q = forall(a).match(P["n", a].retract()).such_that(a > 0).build()
        result = q.evaluate(FULL_VIEW.window(ds, {}))
        assert result.success
        positives = [v for v in values if v > 0]
        assert len(result.all_retracted()) == len(positives)
        for inst in result.all_retracted():
            ds.retract(inst.tid)
        assert sorted(i.values[1] for i in ds.instances()) == sorted(
            v for v in values if v <= 0
        )

    @given(st.lists(st.integers(0, 20), max_size=15))
    @settings(max_examples=50, deadline=None)
    def test_no_is_complement_of_exists(self, values):
        ds = Dataspace()
        for v in values:
            ds.insert(("n", v))
        window = FULL_VIEW.window(ds, {})
        present = exists().match(P["n", 7]).build().evaluate(window).success
        absent = no(P["n", 7]).evaluate(window).success
        assert present != absent
        assert present == (7 in values)


class TestViewProperties:
    @given(st.lists(value_tuples, max_size=25), st.integers(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_window_is_subset_of_dataspace(self, rows, arity_pick):
        ds = Dataspace()
        for row in rows:
            ds.insert(row)
        arity = arity_pick + 1
        view = View(imports=[P[tuple(ANY for __ in range(arity))]])
        window = view.window(ds)
        footprint = window.footprint()
        assert footprint <= ds.tids()
        # footprint = exactly the instances of that arity
        assert footprint == {i.tid for i in ds.instances() if i.arity == arity}

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_guarded_import_equals_filter(self, values):
        ds = Dataspace()
        for v in values:
            ds.insert(("n", v))
        a = Var("a")
        view = View(imports=[import_rule("n", a, guard=(a >= 0))])
        window = view.window(ds)
        imported = sorted(i.values[1] for i in window.instances())
        assert imported == sorted(v for v in values if v >= 0)

    @given(
        rules=st.builds(
            lambda first, rest: [first, *rest],
            where_rules(min_atoms=1),
            st.lists(where_rules(), max_size=2),
        ),
        param=small,
        layout=st.sampled_from(
            [(shards, store) for shards in ("single", 2, 4) for store in ("object", "columnar")]
        ),
        initial=st.lists(rows, min_size=2, max_size=8),
        steps=st.lists(st.lists(mutations, min_size=1, max_size=3), min_size=2, max_size=12),
        stride=st.integers(1, 3),
        materialise_at=st.one_of(st.none(), st.integers(0, 12)),
        gap_at=st.one_of(st.none(), st.integers(0, 12)),
    )
    @settings(max_examples=150, deadline=None)
    def test_where_window_maintained_equals_fresh(
        self, rules, param, layout, initial, steps, stride, materialise_at, gap_at
    ):
        """A long-lived window over a ``where``-view, fed only journal
        deltas, decides live instances (those whose serial *stride*
        divides) — and, from *materialise_at* on, reports its footprint —
        exactly as a window built from scratch does, after every step and
        across a journal gap."""
        shards, store = layout
        ds = Dataspace(shards=shards, store=store)
        view = View(imports=rules)
        params = {"p": param}
        window = view.window(ds, params)
        steps = [[("insert_many", initial)], *steps]
        for number, step in enumerate(steps):
            if number == gap_at:  # fall off the journal before this step
                noise = [ds.insert(("noise",)) for _ in range(JOURNAL_DEPTH)]
                ds.retract_many(inst.tid for inst in noise)
            for op, arg in step:
                live = list(ds.instances())
                if op == "insert":
                    ds.insert(arg)
                elif op == "insert_many":
                    ds.insert_many(arg)
                elif live and op == "retract":
                    ds.retract(live[arg % len(live)].tid)
                elif live:
                    ds.retract_many({live[i % len(live)].tid for i in arg})
            fresh = view.window(ds, params)
            for inst in ds.instances():
                if inst.tid.serial % stride == 0:
                    assert window.imports_instance(inst) == fresh.imports_instance(inst)
            if materialise_at is not None and number >= materialise_at:
                assert window.footprint() == fresh.footprint()
        crossed = gap_at is not None and gap_at < len(steps)
        assert window.stats.full_invalidations <= int(crossed)


class TestProgramProperties:
    @given(st.lists(st.integers(-99, 99), min_size=1, max_size=24), st.integers(0, 5))
    @settings(max_examples=25, deadline=None)
    def test_sum3_equals_python_sum(self, values, seed):
        out = run_sum3(values, seed=seed)
        assert out.total == sum(values)
        assert out.result.commits == len(values) - 1

    @given(
        st.lists(
            st.text(alphabet="abcdef", min_size=1, max_size=3),
            min_size=1,
            max_size=7,
            unique=True,
        ),
        st.integers(0, 3),
    )
    @settings(max_examples=15, deadline=None)
    def test_distributed_sort_equals_sorted(self, names, seed):
        rows = property_list_rows([(n, f"v-{n}") for n in names])
        out = run_sort(rows, seed=seed)
        assert out.answer == sorted(names)

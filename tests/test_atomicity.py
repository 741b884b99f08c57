"""All-or-nothing transactions (paper §2.2, SEMANTICS §2 *Effects*).

A transaction is staged, then applied.  An action that raises — a ``let``
body, an assertion template, a spawn argument, or an assertion outside
the process's export set under ``export_policy="error"`` — is met while
staging, so the attempt applies nothing: the multiset, the dataspace
version and, with a write-ahead log, what ``DurableLog.load`` returns all
equal their state before the attempt.  The property covers live and group
commit, the worker pool's staging path, and a consensus composite with
one raising participant (whose peers must not keep their retractions).

No ``max_examples`` is pinned, so ``--hypothesis-profile=ci`` scales the
properties up; the engine's ``SDL_*`` defaults (validation, storage,
workers for the non-pool modes) come from the environment.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, strategies as st

from repro.core.actions import assert_tuple, let, spawn
from repro.core.dataspace import Dataspace
from repro.core.expressions import Var
from repro.core.patterns import ANY, P
from repro.core.process import ProcessDefinition
from repro.core.query import exists, forall
from repro.core.storage import resolve_shards
from repro.core.transactions import TransactionOutcome, apply, consensus, immediate
from repro.errors import ExportViolation, SDLError, TransactionError
from repro.runtime import DurableLog, Engine

x, y = Var("x"), Var("y")

MODES = {
    "live": {"commit": "live"},
    "group": {"commit": "group"},
    "pool": {"commit": "group", "workers": 2, "shards": 4},
}

EXPORTS = [P["dst", ANY], P["dst", ANY, ANY]]

#: The raising actions, by the kind of action that raises.
RAISING = {
    "let": lambda: let("bad", x // 0),
    "assert": lambda: assert_tuple("dst", x // 0),
    "spawn": lambda: spawn("Idle", x // 0),
    "export": lambda: assert_tuple("forbidden", x),
}


def _reader_heads(count: int) -> list[str]:
    """Heads whose tuples live in shards other than ``src``'s and each
    other's, so the pool mode splits a round into disjoint groups."""
    partitioner = resolve_shards(4)
    taken = {partitioner.shard_of_values(("src", 0))}
    heads = []
    for i in range(64):
        head = f"r{i}"
        shard = partitioner.shard_of_values((head, 0, 0, 0))
        if shard not in taken:
            taken.add(shard)
            heads.append(head)
        if len(heads) == count:
            return heads
    raise AssertionError("no free shard")  # pragma: no cover


READERS = _reader_heads(2)


def _plain(kind: str, i: int):
    if kind == "let":
        return let(f"n{i}", x + i)
    if kind == "assert":
        return assert_tuple("dst", x, i)
    return spawn("Idle", x + i)


@st.composite
def action_lists(draw):
    """(quantifier, actions, raising kind): plain actions with one raising
    action at a random position.  ``let`` is ∃-only."""
    quantifier = draw(st.sampled_from(["exists", "forall"]))
    kinds = ["assert", "spawn"] + (["let"] if quantifier == "exists" else [])
    plain = draw(st.lists(st.sampled_from(kinds), max_size=4))
    raising = draw(st.sampled_from(
        [kind for kind in RAISING if kind != "let" or quantifier == "exists"]
    ))
    position = draw(st.integers(min_value=0, max_value=len(plain)))
    actions = [_plain(kind, i) for i, kind in enumerate(plain)]
    actions.insert(position, RAISING[raising]())
    return quantifier, actions, raising


def _engine(definitions, mode: str, wal_dir, rows, seed: int) -> Engine:
    engine = Engine(
        definitions=[*definitions, ProcessDefinition("Idle", params=("v",))],
        seed=seed,
        wal_dir=wal_dir,
        **MODES[mode],
    )
    engine.assert_tuples(rows)
    return engine


def _state(engine: Engine, wal_dir) -> tuple:
    """The multiset, the version and, with a log, what loading it yields."""
    state = (engine.dataspace.multiset(), engine.dataspace.version)
    if wal_dir is None:
        return state
    loaded, report = DurableLog.load(wal_dir)
    assert report.intact
    return state, (loaded.multiset(), loaded.version, report.end_version)


def _run_raising(engine: Engine, kind: str, wal_dir) -> None:
    before = _state(engine, wal_dir)
    with pytest.raises(SDLError) as caught:
        engine.run()
    assert isinstance(caught.value, ExportViolation if kind == "export" else TransactionError)
    assert _state(engine, wal_dir) == before


modes = st.sampled_from(sorted(MODES))
seeds = st.integers(min_value=0, max_value=2**16)


class TestRaisingActionAppliesNothing:
    @given(action_lists(), modes, st.booleans(), seeds)
    def test_single_transaction(self, drawn, mode, durable, seed):
        quantifier, actions, kind = drawn
        query = (exists if quantifier == "exists" else forall)(x)
        main = ProcessDefinition(
            "Main",
            body=[immediate(query.match(P["src", x].retract())).then(*actions)],
            exports=EXPORTS,
        )
        # Read-only peers in other shards: in pool mode they make the
        # round split into shard-disjoint groups, so Main's action list is
        # staged on a worker; they change nothing in any mode.
        reader = ProcessDefinition(
            "Reader",
            params=("h",),
            body=[immediate(exists(y).match(P[Var("h"), y, 0, 0])).then(let("seen", y))],
        )
        rows = [("src", 1), ("src", 2)] + [(head, 0, 0, 0) for head in READERS]
        with tempfile.TemporaryDirectory() as tmp:
            wal_dir = tmp if durable else None
            engine = _engine([main, reader], mode, wal_dir, rows, seed)
            engine.start("Main")
            for head in READERS:
                engine.start("Reader", (head,))
            _run_raising(engine, kind, wal_dir)

    @given(
        st.integers(min_value=2, max_value=4),
        st.data(),
        st.sampled_from(sorted(RAISING)),
        modes,
        st.booleans(),
        seeds,
    )
    def test_consensus_composite(self, size, data, kind, mode, durable, seed):
        raiser = data.draw(st.integers(min_value=0, max_value=size - 1))
        definitions = []
        for i in range(size):
            actions = [assert_tuple("dst", x, i)]
            if i == raiser:
                actions.insert(data.draw(st.integers(0, 1)), RAISING[kind]())
            definitions.append(
                ProcessDefinition(
                    f"Member{i}",
                    body=[
                        consensus(exists(x).match(P["src", i, x].retract()))
                        .then(*actions)
                    ],
                    exports=EXPORTS,
                )
            )
        rows = [("src", i, 10 + i) for i in range(size)]
        with tempfile.TemporaryDirectory() as tmp:
            wal_dir = tmp if durable else None
            engine = _engine(definitions, mode, wal_dir, rows, seed)
            for i in range(size):
                engine.start(f"Member{i}")
            _run_raising(engine, kind, wal_dir)


def test_pool_stages_the_raising_candidate_on_a_worker():
    """The pool mode of the property really takes the worker path: the
    round's candidates split into disjoint groups and come back staged."""
    main = ProcessDefinition(
        "Main",
        body=[immediate(exists(x).match(P["src", x].retract())).then(
            assert_tuple("dst", x), assert_tuple("dst", x // 0)
        )],
    )
    reader = ProcessDefinition(
        "Reader",
        params=("h",),
        body=[immediate(exists(y).match(P[Var("h"), y, 0, 0])).then(let("seen", y))],
    )
    rows = [("src", 1)] + [(head, 0, 0, 0) for head in READERS]
    engine = _engine([main, reader], "pool", None, rows, seed=0)
    engine.start("Main")
    for head in READERS:
        engine.start("Reader", (head,))
    _run_raising(engine, "assert", None)
    assert engine.pool.candidates >= 2
    assert engine.pool.plan_rejects == 0


@pytest.mark.parametrize("twice", [False, True])
def test_apply_checks_every_retraction_before_changing_anything(tmp_path, twice):
    """An effect retracting an instance that is gone (or one instance
    twice) raises with the dataspace, its version, its listeners and its
    write-ahead log untouched: no retraction before the bad one lands."""
    ds = Dataspace()
    log = DurableLog(ds, str(tmp_path))
    a = ds.insert(("x", 1))
    b = ds.insert(("x", 2))
    if twice:
        retracted = [a, a]
    else:
        ds.retract(b.tid)
        retracted = [a, b]
    log.flush()
    seen = []
    ds.subscribe(seen.append)
    before = (ds.multiset(), ds.version, log.wal_frames, log.wal_bytes)
    effect = TransactionOutcome(success=True, retracted=retracted, assertions=[("y", 3)])
    with pytest.raises(SDLError):
        apply([effect], ds)
    assert (ds.multiset(), ds.version, log.wal_frames, log.wal_bytes) == before
    assert seen == []
    assert ds.find_matching(P["x", 1]) == [a]  # still indexed
    log.close()
    loaded, report = DurableLog.load(str(tmp_path))
    assert report.intact and loaded.multiset() == ds.multiset()

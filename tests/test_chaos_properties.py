"""Chaos properties: fault injection never breaks the runtime's invariants.

Three Hypothesis properties back the crash-stop failure model:

* **atomicity** — under *any* fault plan, a transaction is all-or-nothing:
  each item is either still in its community or recorded as done, never
  both and never neither.
* **determinism** — group and serial commit reach the same final state
  under the *same* crash plan (pid-targeted, so the same victim dies at
  the same commit index in both modes).
* **checkpoint fidelity** — the durable log (checkpoints + WAL) reloads
  the live state exactly, for random workloads, intervals, and fault plans.

Unlike the rest of the property suite these tests do **not** pin
``max_examples``: CI scales them up with ``--hypothesis-profile=ci``.

The ``chaos_smoke`` tests read ``SDL_FAULTS`` / ``SDL_COMMIT`` from the
environment (the engine's documented defaults), so a CI matrix can sweep
fault seeds over them with ``pytest -k chaos_smoke``.
"""

import tempfile

from hypothesis import given, strategies as st

from repro.core.actions import assert_tuple
from repro.core.expressions import Var
from repro.core.patterns import P
from repro.core.process import ProcessDefinition
from repro.core.query import exists
from repro.core.transactions import delayed
from repro.runtime import Engine, RestartPolicy

a = Var("a")


def community_worker() -> ProcessDefinition:
    return ProcessDefinition(
        "Worker",
        params=("c",),
        body=[
            delayed(exists(a).match(P[Var("c"), a].retract())).then(
                assert_tuple("done", Var("c"), a)
            )
        ],
    )


seeds = st.integers(min_value=0, max_value=2**32 - 1)
small = st.integers(min_value=1, max_value=3)

_FAULT_POOL = [
    ("pre-commit", "crash"),
    ("pre-commit", "abort-txn"),
    ("post-match", "crash"),
    ("post-match", "abort-txn"),
    ("batch-admit", "kill-round"),
    ("wakeup-deliver", "drop-wake"),
    ("wakeup-deliver", "delay-wake"),
]


@st.composite
def fault_plans(draw):
    """A random plan of 1-3 clauses aimed at the Worker definition."""
    clauses = []
    for __ in range(draw(st.integers(min_value=1, max_value=3))):
        site, action = draw(st.sampled_from(_FAULT_POOL))
        if draw(st.booleans()):
            trigger = f"at={draw(st.integers(min_value=1, max_value=3))}"
        else:
            trigger = f"prob={draw(st.sampled_from(['0.25', '0.5']))}"
        cap = draw(st.integers(min_value=1, max_value=2))
        clauses.append(f"{site}:{action}:name=Worker:{trigger}:max={cap}")
    return f"seed={draw(st.integers(min_value=0, max_value=2**16))}; " + "; ".join(
        clauses
    )


def build_engine(n_comm, n_work, seed, commit, rows, **kw):
    engine = Engine(
        definitions=[community_worker()],
        seed=seed,
        commit=commit,
        on_deadlock="return",
        **kw,
    )
    engine.assert_tuples(rows)
    for c in range(n_comm):
        for __ in range(n_work):
            engine.start("Worker", (f"c{c}",))
    return engine


def assert_atomic(state, n_comm, n_work):
    """Each item either survives in place or became exactly one done record."""
    for c in range(n_comm):
        for i in range(n_work):
            live = state.get((f"c{c}", i), 0)
            done = state.get(("done", f"c{c}", i), 0)
            assert live + done == 1, (c, i, live, done)


class TestAtomicityUnderChaos:
    @given(
        n_comm=small,
        n_work=small,
        seed=seeds,
        commit=st.sampled_from(["live", "serial", "group"]),
        plan=fault_plans(),
    )
    def test_no_partial_transactions(self, n_comm, n_work, seed, commit, plan):
        rows = [(f"c{c}", i) for c in range(n_comm) for i in range(n_work)]
        engine = build_engine(n_comm, n_work, seed, commit, rows, faults=plan)
        result = engine.run()
        assert result.reason in ("completed", "crashed", "deadlock")
        assert_atomic(engine.dataspace.multiset(), n_comm, n_work)

    @given(n_comm=small, n_work=small, seed=seeds, plan=fault_plans())
    def test_atomic_with_supervised_restarts(self, n_comm, n_work, seed, plan):
        rows = [(f"c{c}", i) for c in range(n_comm) for i in range(n_work)]
        engine = build_engine(
            n_comm, n_work, seed, "live", rows,
            faults=plan,
            supervision=RestartPolicy(policy="restart", max_restarts=2),
        )
        result = engine.run()
        assert result.restarts <= result.crashes
        assert_atomic(engine.dataspace.multiset(), n_comm, n_work)


class TestGroupSerialDeterminismUnderChaos:
    @given(
        n_comm=small,
        n_work=small,
        seed=seeds,
        victim=st.integers(min_value=0, max_value=8),
        at=st.integers(min_value=1, max_value=2),
    )
    def test_group_equals_serial_under_identical_crash(
        self, n_comm, n_work, seed, victim, at
    ):
        # Items within a community are indistinguishable, so the final
        # multiset is independent of which worker took which item; a
        # pid-targeted crash kills the same victim at the same commit
        # index in both modes (pre-commit occurrences count per pid).
        pid = 1 + (victim % (n_comm * n_work))
        plan = f"pre-commit:crash:pid={pid}:at={at}:max=1"
        rows = [(f"c{c}", 0) for c in range(n_comm) for __ in range(n_work)]

        def run(commit):
            engine = build_engine(
                n_comm, n_work, seed, commit, rows,
                faults=plan,
                validate="serial" if commit == "group" else None,
            )
            result = engine.run()
            return engine.dataspace.multiset(), result.reason, result.crashes

        group_state, group_reason, group_crashes = run("group")
        serial_state, serial_reason, serial_crashes = run("serial")
        assert group_state == serial_state
        assert group_reason == serial_reason
        assert group_crashes == serial_crashes


class TestCheckpointFidelityUnderChaos:
    @given(
        n_comm=small,
        n_work=small,
        seed=seeds,
        interval=st.integers(min_value=1, max_value=8),
        plan=st.one_of(st.none(), fault_plans()),
    )
    def test_replay_reconstructs_live_state(self, n_comm, n_work, seed, interval, plan):
        rows = [(f"c{c}", i) for c in range(n_comm) for i in range(n_work)]
        with tempfile.TemporaryDirectory() as wal_dir:
            engine = build_engine(
                n_comm, n_work, seed, "live", rows,
                faults=plan,
                checkpoint_interval=interval,
                wal_dir=wal_dir,
            )
            result = engine.run()
            assert result.checkpoints >= 1
            engine.recovery.verify_durable()  # raises RecoveryError on divergence


class TestChaosSmoke:
    """Env-driven smoke tests for the CI fault matrix.

    With no ``SDL_FAULTS``/``SDL_COMMIT`` in the environment these run the
    workloads fault-free; the CI chaos job sweeps seeds and commit modes
    over them via those variables (``pytest -k chaos_smoke``).
    """

    def test_chaos_smoke_communities(self):
        rows = [(f"c{c}", i) for c in range(3) for i in range(3)]
        engine = build_engine(3, 3, seed=11, commit=None, rows=rows)
        result = engine.run()
        assert result.reason in ("completed", "crashed", "deadlock")
        assert_atomic(engine.dataspace.multiset(), 3, 3)

    def test_chaos_smoke_token_counters(self):
        taker = ProcessDefinition(
            "Worker",
            body=[
                delayed(exists(a).match(P["tok", a].retract())).then(
                    assert_tuple("tok", a + 1)
                )
            ],
        )
        engine = Engine(definitions=[taker], seed=13, on_deadlock="return")
        engine.assert_tuples([("tok", 0)] * 2)
        for __ in range(6):
            engine.start("Worker")
        result = engine.run()
        state = engine.dataspace.multiset()
        # conservation: crashes may lose increments, never counters
        assert sum(state.values()) == 2
        total = sum(value * count for (_, value), count in state.items())
        assert total == result.commits

    def test_chaos_smoke_checkpointed(self, tmp_path):
        rows = [(f"c{c}", i) for c in range(2) for i in range(3)]
        engine = build_engine(2, 3, seed=17, commit=None, rows=rows,
                              checkpoint_interval=4, wal_dir=str(tmp_path))
        engine.run()
        engine.recovery.verify_durable()

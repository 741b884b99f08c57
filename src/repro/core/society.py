"""The process society: definitions registry plus live-instance bookkeeping.

"The process society is a set of processes.  Both the dataspace and the
process society undergo continuous change."  The society assigns process
ids (pids), records genealogy (which process spawned which), and tracks
liveness — the consensus engine quantifies over *live* society members.

The live set is kept, not scanned: ``spawn`` adds to it and the two
``mark_*`` methods are the only ways out, each bumping :attr:`generation`.
Finished instances stay inspectable (status, spawner) for the most recent
:data:`RETIRED_DEPTH` of them, so a program that spawns and retires
processes forever runs in bounded memory.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Iterator, Sequence

from repro.core.process import ProcessDefinition, ProcessInstance, ProcessStatus
from repro.errors import ProcessError, UnknownProcessError

__all__ = ["ProcessSociety", "RETIRED_DEPTH"]

#: Finished (terminated, aborted or crashed) instances kept for
#: inspection; older ones are forgotten, oldest first.
RETIRED_DEPTH = 4096


class ProcessSociety:
    """Registry of process definitions and the set of live instances."""

    def __init__(self, definitions: Iterable[ProcessDefinition] = ()) -> None:
        self._definitions: dict[str, ProcessDefinition] = {}
        self._instances: dict[int, ProcessInstance] = {}
        #: pid -> instance for live members, in spawn (= pid) order.
        self._live: dict[int, ProcessInstance] = {}
        #: Bumped whenever the live set changes.
        self.generation = 0
        #: Pids of the kept finished instances, oldest first.
        self._retired: deque[int] = deque()
        self._next_pid = 1
        self._spawn_count = 0
        for definition in definitions:
            self.define(definition)

    # ------------------------------------------------------------------
    # definitions
    # ------------------------------------------------------------------
    def define(self, definition: ProcessDefinition) -> ProcessDefinition:
        if definition.name in self._definitions:
            raise ProcessError(f"process {definition.name!r} is already defined")
        self._definitions[definition.name] = definition
        return definition

    def definition(self, name: str) -> ProcessDefinition:
        try:
            return self._definitions[name]
        except KeyError:
            raise UnknownProcessError(name) from None

    def definitions(self) -> list[ProcessDefinition]:
        return list(self._definitions.values())

    # ------------------------------------------------------------------
    # instances
    # ------------------------------------------------------------------
    def spawn(
        self,
        name: str,
        args: Sequence[Any] = (),
        spawner: int | None = None,
        created_at: int = 0,
    ) -> ProcessInstance:
        definition = self.definition(name)
        pid = self._next_pid
        self._next_pid += 1
        instance = ProcessInstance(pid, definition, args, spawner, created_at)
        self._instances[pid] = instance
        self._live[pid] = instance
        self.generation += 1
        self._spawn_count += 1
        return instance

    def get(self, pid: int) -> ProcessInstance:
        try:
            return self._instances[pid]
        except KeyError:
            raise ProcessError(f"no process with pid {pid}") from None

    def mark_terminated(self, pid: int, aborted: bool = False) -> None:
        instance = self.get(pid)
        instance.status = ProcessStatus.ABORTED if aborted else ProcessStatus.TERMINATED
        self._leave(pid)

    def mark_crashed(self, pid: int) -> None:
        """Record a crash-stop failure: the instance is dead, not aborted.

        Crashed processes leave the live set (consensus no longer waits on
        them) but stay distinguishable from orderly termination so traces,
        supervisors, and the ``"crashed"`` run reason can tell them apart.
        """
        self.get(pid).status = ProcessStatus.CRASHED
        self._leave(pid)

    def _leave(self, pid: int) -> None:
        if self._live.pop(pid, None) is not None:
            self.generation += 1
            retired = self._retired
            retired.append(pid)
            if len(retired) > RETIRED_DEPTH:
                del self._instances[retired.popleft()]

    def live(self) -> list[ProcessInstance]:
        return list(self._live.values())

    def live_pids(self) -> frozenset[int]:
        return frozenset(self._live)

    def find_live(self, pid: int) -> ProcessInstance | None:
        """The live instance with *pid*, or ``None`` if it is not live."""
        return self._live.get(pid)

    def all_instances(self) -> Iterator[ProcessInstance]:
        """The live instances and the last :data:`RETIRED_DEPTH` finished
        ones, in spawn order."""
        return iter(self._instances.values())

    @property
    def total_spawned(self) -> int:
        return self._spawn_count

    def __len__(self) -> int:
        return len(self._live)

    def __repr__(self) -> str:
        live = len(self)
        return f"ProcessSociety(live={live}, total={self._spawn_count})"

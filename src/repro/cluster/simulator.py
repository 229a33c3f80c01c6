"""Execution of iterative phase programs on the simulated cluster.

A distributed iterative application (like Red-Black SOR) is described as
an :class:`IterativeProgram`: a fixed number of iterations, each running
the same sequence of *phases*; a phase gives every processor an amount of
compute work and a set of point-to-point messages exchanged when the
compute finishes.

The simulator advances per-processor clocks through the phases:

* compute finishes when the machine's time-varying capacity has delivered
  the phase's work (:func:`repro.cluster.capacity.completion_time`);
* a message enters the wire when its sender's compute is done and arrives
  after the link's time-varying transfer time;
* a processor is ready for the next phase when its own sends have left
  and all its incoming messages have arrived.

The neighbour coupling reproduces the paper's *skew* (Figure 7):
"accumulating communication delays ... can delay execution of each
iteration by the amount of at most P iterations".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.machine import Machine
from repro.cluster.network import Network
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan

__all__ = ["Message", "Phase", "IterativeProgram", "RunResult", "ClusterSimulator"]


@dataclass(frozen=True)
class Message:
    """A point-to-point transfer of ``nbytes`` from ``src`` to ``dst``."""

    src: int
    dst: int
    nbytes: float

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("a message cannot be sent to its own processor")
        if self.nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {self.nbytes}")


@dataclass(frozen=True)
class Phase:
    """One phase of an iteration: per-processor work, then messages.

    Attributes
    ----------
    name:
        Label used in the per-phase timing breakdown ("red_compute", ...).
    work:
        Grid elements each processor updates in this phase (may be 0).
    messages:
        Transfers performed after the compute part of the phase.
    """

    name: str
    work: tuple[float, ...]
    messages: tuple[Message, ...] = ()

    def __post_init__(self) -> None:
        if any(w < 0 for w in self.work):
            raise ValueError("phase work must be nonnegative")
        n = len(self.work)
        for m in self.messages:
            if not (0 <= m.src < n and 0 <= m.dst < n):
                raise ValueError(f"message {m} references a processor outside 0..{n - 1}")


@dataclass(frozen=True)
class IterativeProgram:
    """A fixed iteration count over a repeated phase sequence."""

    name: str
    phases: tuple[Phase, ...]
    iterations: int

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not self.phases:
            raise ValueError("a program needs at least one phase")
        widths = {len(p.work) for p in self.phases}
        if len(widths) != 1:
            raise ValueError(f"all phases must span the same processors, got widths {widths}")

    @property
    def n_processors(self) -> int:
        """Number of processors the program spans."""
        return len(self.phases[0].work)


@dataclass(frozen=True)
class RunResult:
    """Timing of one simulated execution.

    Attributes
    ----------
    start, end:
        Wall-clock bounds of the run in simulated seconds.
    iteration_ends:
        Time when the slowest processor finished each iteration.
    phase_time:
        Total time attributed to each phase name, summed over iterations,
        measured on the critical (slowest) processor per phase.
    max_skew:
        Largest spread between the fastest and slowest processor's ready
        times observed at any phase boundary (the Figure 7 effect).
    message_retries:
        Deliveries that needed at least one retry (0 on fault-free runs).
    machine_downtime:
        Total machine-down seconds overlapping the run (0 when healthy).
    """

    start: float
    end: float
    iteration_ends: np.ndarray
    phase_time: dict[str, float]
    max_skew: float
    message_retries: int = 0
    machine_downtime: float = 0.0

    @property
    def elapsed(self) -> float:
        """Total execution time in seconds."""
        return self.end - self.start


class ClusterSimulator:
    """Executes :class:`IterativeProgram` on machines + network.

    Parameters
    ----------
    machines, network:
        The execution substrate.
    faults:
        The fault schedule (a :class:`~repro.faults.plan.FaultPlan`, or
        a pre-configured :class:`~repro.faults.injector.FaultInjector`
        when custom retry behaviour is wanted); ``None`` (default) is the
        empty plan, :meth:`FaultPlan.none`.  Every run goes through the
        injector: a crashed machine pauses its compute until restart,
        and message delivery retries on a bounded exponential backoff.
        Under the empty plan no machine crashes and every message is
        delivered on its first attempt.
    """

    def __init__(
        self,
        machines,
        network: Network | None = None,
        *,
        faults: FaultPlan | FaultInjector | None = None,
    ):
        self.machines: list[Machine] = list(machines)
        if not self.machines:
            raise ValueError("a cluster needs at least one machine")
        names = [m.name for m in self.machines]
        if len(set(names)) != len(names):
            raise ValueError(f"machine names must be unique, got {names}")
        self.network = network if network is not None else Network()
        if not isinstance(faults, FaultInjector):
            faults = FaultInjector(faults if faults is not None else FaultPlan.none())
        self.injector = faults

    def run(self, program: IterativeProgram, start_time: float = 0.0) -> RunResult:
        """Simulate ``program`` starting at ``start_time``."""
        n = program.n_processors
        if n != len(self.machines):
            raise ValueError(
                f"program spans {n} processors but the cluster has {len(self.machines)}"
            )
        injector = self.injector

        ready = np.full(n, float(start_time))
        iteration_ends = np.empty(program.iterations)
        phase_time: dict[str, float] = {p.name: 0.0 for p in program.phases}
        max_skew = 0.0
        retries_before = injector.message_retries

        for it in range(program.iterations):
            for phase in program.phases:
                phase_start = float(ready.max())
                comp_end = np.array(
                    [
                        injector.compute_finish(self.machines[p], phase.work[p], float(ready[p]))
                        for p in range(n)
                    ]
                )
                next_ready = comp_end.copy()
                for msg in phase.messages:
                    src_name = self.machines[msg.src].name
                    dst_name = self.machines[msg.dst].name
                    # Half-duplex endpoints: a transfer starts once both the
                    # sender and receiver NICs are free (their compute is done
                    # and earlier transfers have finished), and occupies both
                    # until it completes — so one processor's exchanges
                    # serialize, matching the model's SendLR + ReceLR sum.
                    begin = max(float(next_ready[msg.src]), float(next_ready[msg.dst]))
                    arrive = injector.deliver(self.network, src_name, dst_name, msg.nbytes, begin)
                    next_ready[msg.src] = arrive
                    next_ready[msg.dst] = arrive
                ready = next_ready
                phase_time[phase.name] += float(ready.max()) - phase_start
                max_skew = max(max_skew, float(ready.max() - ready.min()))
            iteration_ends[it] = float(ready.max())

        end = float(ready.max())
        return RunResult(
            start=float(start_time),
            end=end,
            iteration_ends=iteration_ends,
            phase_time=phase_time,
            max_skew=max_skew,
            message_retries=injector.message_retries - retries_before,
            machine_downtime=injector.downtime(
                (m.name for m in self.machines), float(start_time), end
            ),
        )

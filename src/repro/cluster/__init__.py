"""Simulated production cluster: machines, shared network, phase simulator.

This substrate replaces the paper's physical testbed (heterogeneous Sparc
workstations on shared 10 Mbit ethernet).  Machines deliver a dedicated
compute rate scaled by a CPU-availability trace; the network delivers a
dedicated bandwidth scaled by a bandwidth-availability trace; the
simulator executes iterative phase programs with neighbour coupling so
communication skew emerges as in the paper's Figure 7.
"""

from repro.cluster.capacity import completion_time, effective_rate
from repro.cluster.machine import Machine
from repro.cluster.network import Network, SharedEthernet
from repro.cluster.simulator import (
    ClusterSimulator,
    IterativeProgram,
    Message,
    Phase,
    RunResult,
)

__all__ = [
    "completion_time",
    "effective_rate",
    "Machine",
    "Network",
    "SharedEthernet",
    "ClusterSimulator",
    "IterativeProgram",
    "Message",
    "Phase",
    "RunResult",
]

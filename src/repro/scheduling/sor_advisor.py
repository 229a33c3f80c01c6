"""Application-level scheduling for SOR: choosing a decomposition.

The paper's conclusion points at "sophisticated strategies for
scheduling" driven by stochastic predictions; its footnote 2 describes
the mechanism for SOR — "assign more work to processors with greater
capacity, with the goal of having all processors complete at the same
time."  This module is that scheduler: it generates candidate strip
decompositions (equal strips, capacity-balanced on *mean* effective
rates, capacity-balanced on *risk-adjusted* rates, and leave-one-out
subsets that drop a machine entirely), predicts each candidate with the
stochastic SOR model, and picks the winner under a risk-tuned objective
``mean + lam * spread``.

Dropping a machine is the interesting stochastic-only decision: a very
bursty machine can be worth excluding even when its mean capacity is
positive, because the Max over processors inherits its variance.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.group_ops import MaxStrategy
from repro.core.stochastic import StochasticValue, as_stochastic
from repro.sor.decomposition import StripDecomposition, equal_strips, weighted_strips
from repro.structural.expr import EvalPolicy
from repro.structural.sor_model import SORModel, bindings_for_platform
from repro.util.validation import check_nonnegative

__all__ = ["DecompositionCandidate", "AdvisorChoice", "advise_decomposition"]


@dataclass(frozen=True)
class DecompositionCandidate:
    """One evaluated candidate.

    Attributes
    ----------
    label:
        Human-readable candidate name ("equal", "mean-balanced", ...).
    machine_indices:
        Platform machine indices used, in strip order.
    decomposition:
        The strip decomposition over those machines.
    prediction:
        Stochastic execution-time prediction.
    objective:
        ``prediction.mean + lam * prediction.spread`` — the score used
        for selection.
    """

    label: str
    machine_indices: tuple[int, ...]
    decomposition: StripDecomposition
    prediction: StochasticValue
    objective: float


@dataclass(frozen=True)
class AdvisorChoice:
    """The advisor's decision plus the full candidate list (best first)."""

    best: DecompositionCandidate
    candidates: tuple[DecompositionCandidate, ...]


def _effective_rate(machine, load: StochasticValue, lam: float) -> float:
    """Risk-adjusted effective rate: penalise volatile availability."""
    pessimistic = max(load.mean - lam * load.spread, 0.02)
    return machine.elements_per_sec * pessimistic


def _evaluate(
    label: str,
    indices: Sequence[int],
    weights: Sequence[float] | None,
    machines,
    network,
    loads,
    bw_avail,
    n: int,
    iterations: int,
    lam: float,
    policy: EvalPolicy | None,
) -> DecompositionCandidate | None:
    subset = [machines[i] for i in indices]
    if weights is None:
        dec = equal_strips(n, len(subset))
    else:
        if min(weights) <= 0:
            return None
        dec = weighted_strips(n, weights)
    for p, m in enumerate(subset):
        if not m.fits_in_memory(dec.elements(p)):
            return None
    sub_loads = {p: loads[i] for p, i in enumerate(indices)}
    bindings = bindings_for_platform(subset, network, dec, loads=sub_loads, bw_avail=bw_avail)
    model = SORModel(n_procs=len(subset), iterations=iterations)
    pred = model.predict(bindings, policy)
    return DecompositionCandidate(
        label=label,
        machine_indices=tuple(indices),
        decomposition=dec,
        prediction=pred,
        objective=pred.mean + lam * pred.spread,
    )


def advise_decomposition(
    machines,
    network,
    n: int,
    iterations: int,
    loads: dict[int, object],
    *,
    bw_avail: object = 1.0,
    lam: float = 0.0,
    consider_drops: bool = True,
    policy: EvalPolicy | None = None,
) -> AdvisorChoice:
    """Choose a strip decomposition from stochastic load information.

    Parameters
    ----------
    machines, network:
        The platform.
    n, iterations:
        Problem size and iteration count.
    loads:
        Stochastic CPU availability per machine index (e.g. NWS values).
    bw_avail:
        Stochastic/point bandwidth availability.
    lam:
        Risk aversion of the *objective* (and of the risk-balanced
        candidate's weights).
    consider_drops:
        Also evaluate leave-one-out subsets (needs >= 2 machines).
    policy:
        Evaluation policy; defaults to Clark's moment-matched Max so a
        candidate's spread honestly reflects every processor's variance.
        (The selector strategies can hide a volatile machine behind a
        mean tie, which would blind the risk objective.)
    """
    machines = list(machines)
    if not machines:
        raise ValueError("at least one machine is required")
    check_nonnegative(lam, "lam")
    if policy is None:
        policy = EvalPolicy(max_strategy=MaxStrategy.CLARK)
    loads = {i: as_stochastic(v) for i, v in loads.items()}
    for i in range(len(machines)):
        loads.setdefault(i, StochasticValue.point(1.0))

    all_idx = list(range(len(machines)))
    candidates: list[DecompositionCandidate] = []

    def push(label, indices, weights):
        cand = _evaluate(
            label, indices, weights, machines, network, loads, bw_avail,
            n, iterations, lam, policy,
        )
        if cand is not None:
            candidates.append(cand)

    push("equal", all_idx, None)
    push(
        "mean-balanced",
        all_idx,
        [machines[i].elements_per_sec * loads[i].mean for i in all_idx],
    )
    if lam > 0:
        push(
            f"risk-balanced(lam={lam:g})",
            all_idx,
            [_effective_rate(machines[i], loads[i], lam) for i in all_idx],
        )
    if consider_drops and len(machines) > 1:
        for drop in all_idx:
            keep = [i for i in all_idx if i != drop]
            push(
                f"drop {machines[drop].name}",
                keep,
                [machines[i].elements_per_sec * loads[i].mean for i in keep],
            )

    if not candidates:
        raise ValueError("no feasible decomposition candidate (memory limits?)")
    candidates.sort(key=lambda c: c.objective)
    return AdvisorChoice(best=candidates[0], candidates=tuple(candidates))

"""Tests for repro.scheduling.sor_advisor — decomposition selection."""

import math

import pytest

from repro.cluster.machine import Machine
from repro.cluster.network import Network
from repro.core.stochastic import StochasticValue as SV
from repro.scheduling.sor_advisor import advise_decomposition
from repro.workload.traces import Trace


def heterogeneous_machines():
    return [
        Machine("slow", 2.5e5),
        Machine("mid", 5.0e5),
        Machine("fast", 2.0e6),
    ]


DEDICATED = {0: SV.point(1.0), 1: SV.point(1.0), 2: SV.point(1.0)}


class TestCandidates:
    def test_candidate_labels_present(self):
        choice = advise_decomposition(
            heterogeneous_machines(), Network(), 600, 10, DEDICATED, lam=1.0
        )
        labels = {c.label for c in choice.candidates}
        assert "equal" in labels
        assert "mean-balanced" in labels
        assert any(l.startswith("risk-balanced") for l in labels)
        assert any(l.startswith("drop ") for l in labels)

    def test_no_risk_candidate_at_lam_zero(self):
        choice = advise_decomposition(
            heterogeneous_machines(), Network(), 600, 10, DEDICATED, lam=0.0
        )
        assert not any(c.label.startswith("risk-balanced") for c in choice.candidates)

    def test_drops_disabled(self):
        choice = advise_decomposition(
            heterogeneous_machines(), Network(), 600, 10, DEDICATED, consider_drops=False
        )
        assert not any(c.label.startswith("drop ") for c in choice.candidates)

    def test_candidates_sorted_by_objective(self):
        choice = advise_decomposition(
            heterogeneous_machines(), Network(), 600, 10, DEDICATED, lam=1.0
        )
        objectives = [c.objective for c in choice.candidates]
        assert objectives == sorted(objectives)
        assert choice.best is choice.candidates[0]


class TestDecisions:
    def test_balanced_beats_equal_on_heterogeneous(self):
        # Large problem: compute dominates communication, so keeping the
        # slow machine (with a proportionally small strip) wins.
        choice = advise_decomposition(
            heterogeneous_machines(), Network(), 2000, 10, DEDICATED
        )
        by_label = {c.label: c for c in choice.candidates}
        assert (
            by_label["mean-balanced"].prediction.mean < by_label["equal"].prediction.mean
        )
        assert choice.best.label == "mean-balanced"

    def test_small_problem_may_drop_slow_machine(self):
        # Small problem: the slow machine's capacity contribution is not
        # worth the extra exchange phases — a drop candidate can win.
        choice = advise_decomposition(
            heterogeneous_machines(), Network(), 600, 10, DEDICATED
        )
        by_label = {c.label: c for c in choice.candidates}
        assert by_label["drop slow"].prediction.mean < by_label["equal"].prediction.mean

    def test_equal_optimal_for_identical_machines(self):
        machines = [Machine(f"m{i}", 1e5) for i in range(3)]
        loads = {i: SV.point(1.0) for i in range(3)}
        choice = advise_decomposition(machines, Network(), 600, 10, loads)
        by_label = {c.label: c for c in choice.candidates}
        # Equal and mean-balanced coincide; neither drop can win.
        assert by_label["equal"].prediction.mean == pytest.approx(
            by_label["mean-balanced"].prediction.mean
        )
        assert choice.best.label in ("equal", "mean-balanced")

    def test_risk_aversion_can_drop_a_volatile_machine(self):
        # The volatile machine is slightly slower on average (so the Max
        # over computation components inherits its variance) but still
        # fast enough that a risk-neutral advisor keeps it.
        machines = [Machine("stable", 5e5), Machine("volatile", 5e5)]
        loads = {0: SV(0.8, 0.05), 1: SV(0.7, 0.6)}
        neutral = advise_decomposition(machines, Network(), 2000, 10, loads, lam=0.0)
        averse = advise_decomposition(machines, Network(), 2000, 10, loads, lam=3.0)
        assert len(neutral.best.machine_indices) == 2
        assert neutral.best.label == "mean-balanced"
        # The risk-averse pick sidelines the volatile machine — either
        # dropping it or shrinking its strip to the minimum — and its
        # prediction spread collapses accordingly.
        assert averse.best.label in ("drop volatile", "risk-balanced(lam=3)")
        assert averse.best.prediction.spread < 0.5 * neutral.best.prediction.spread

    def test_unlisted_loads_default_dedicated(self):
        choice = advise_decomposition(
            heterogeneous_machines(), Network(), 600, 10, {0: SV(0.5, 0.1)}
        )
        assert choice.best.prediction.mean > 0

    def test_memory_limits_filter_candidates(self):
        machines = [
            Machine("tiny", 1e5, memory_elements=100.0),
            Machine("big", 1e5),
        ]
        loads = {0: SV.point(1.0), 1: SV.point(1.0)}
        choice = advise_decomposition(machines, Network(), 600, 10, loads)
        # Every surviving candidate must avoid overloading "tiny".
        for c in choice.candidates:
            if 0 in c.machine_indices:
                p = c.machine_indices.index(0)
                assert c.decomposition.elements(p) <= 100.0

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError):
            advise_decomposition(heterogeneous_machines(), Network(), 600, 10, DEDICATED, lam=-1)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lam_rejected(self, lam):
        with pytest.raises(ValueError, match="lam must be finite"):
            advise_decomposition(heterogeneous_machines(), Network(), 600, 10, DEDICATED, lam=lam)

    def test_empty_machines_rejected(self):
        with pytest.raises(ValueError):
            advise_decomposition([], Network(), 600, 10, {})

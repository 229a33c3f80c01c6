"""The full structural model for distributed Red-Black SOR.

Section 2.2.1:

    ExTime = sum_{i=1..NumIts} [ Max_p{RedComp_p} + Max_p{RedComm_p}
                               + Max_p{BlackComp_p} + Max_p{BlackComm_p} ]

"the execution time is equal to the sum of the longest running
machine/data pair for each component for each iteration."  With
stationary parameters every iteration contributes the same stochastic
value, so the sum collapses to ``NumIts * (per-iteration time)`` —
multiplication by a point value, which is exact under normal closure and
equivalent to the related-sum of identical terms.

:class:`SORModel` builds the expression; :func:`bindings_for_platform`
derives the compile-time parameter bindings from a simulated platform and
decomposition, leaving ``load[p]`` and ``bw_avail`` as run-time
parameters to rebind per prediction (from NWS forecasts or mode
analysis).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.stochastic import StochasticValue
from repro.sor.decomposition import ELEMENT_BYTES, StripDecomposition
from repro.structural.comm_models import comm_component, dedbw_name
from repro.structural.comp_models import comp_component
from repro.structural.expr import Const, EvalPolicy, Expr, Max, Sum
from repro.structural.parameters import Bindings, param_name

__all__ = ["SORModel", "bindings_for_platform"]


@dataclass(frozen=True)
class SORModel:
    """Structural model of a distributed SOR execution.

    Attributes
    ----------
    n_procs:
        Number of processors / strips.
    iterations:
        The paper's ``NumIts``.
    use_op_count:
        Use the op-count computation model ``Comp^1`` instead of the
        benchmark model ``Comp^2``.
    include_latency:
        Add the per-message ``latency`` parameter to every ``PtToPt``
        term (the Section 2.3.1 latency-aware communication form).
    """

    n_procs: int
    iterations: int
    use_op_count: bool = False
    include_latency: bool = False

    def __post_init__(self) -> None:
        if self.n_procs < 1:
            raise ValueError(f"n_procs must be >= 1, got {self.n_procs}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")

    # ------------------------------------------------------------------
    # Expression construction
    # ------------------------------------------------------------------
    def iteration_expression(self) -> Expr:
        """Per-iteration time: the four Max terms of the paper's equation."""
        procs = range(self.n_procs)
        red_comp = Max(*(comp_component(p, "red", use_op_count=self.use_op_count) for p in procs))
        black_comp = Max(
            *(comp_component(p, "black", use_op_count=self.use_op_count) for p in procs)
        )
        if self.n_procs > 1:
            red_comm: Expr = Max(
                *(
                    comm_component(p, self.n_procs, "red", include_latency=self.include_latency)
                    for p in procs
                )
            )
            black_comm: Expr = Max(
                *(
                    comm_component(p, self.n_procs, "black", include_latency=self.include_latency)
                    for p in procs
                )
            )
            return Sum(red_comp, red_comm, black_comp, black_comm)
        # Single processor: no communication terms.
        return Sum(red_comp, black_comp)

    def expression(self) -> Expr:
        """Full ``ExTime`` expression (``NumIts`` x per-iteration time)."""
        return Const(StochasticValue.point(float(self.iterations))) * self.iteration_expression()

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, bindings: Bindings, policy: EvalPolicy | None = None) -> StochasticValue:
        """Evaluate ``ExTime`` under the bindings (a stochastic value)."""
        return self.expression().evaluate(bindings, policy)

    def component_breakdown(
        self, bindings: Bindings, policy: EvalPolicy | None = None
    ) -> dict[str, StochasticValue]:
        """Per-processor component values for diagnostic reports."""
        out: dict[str, StochasticValue] = {}
        for p in range(self.n_procs):
            comp = comp_component(p, "red", use_op_count=self.use_op_count)
            out[comp.name] = comp.evaluate(bindings, policy)
            if self.n_procs > 1:
                comm = comm_component(p, self.n_procs, "red")
                out[comm.name] = comm.evaluate(bindings, policy)
        return out


def bindings_for_platform(
    machines,
    network,
    decomposition: StripDecomposition,
    *,
    loads: dict[int, object] | None = None,
    bw_avail: object = 1.0,
) -> Bindings:
    """Compile-time bindings from a platform + decomposition.

    Binds per the Section 2.2.1 parameter inventory:

    * ``numelt[p]`` — elements of one colour in strip ``p`` (compile time);
    * ``bm[p]`` — dedicated seconds/element of machine ``p`` (compile time);
    * ``msg_elts[p]`` / ``size_elt`` — ghost-row message shape (compile time);
    * ``dedbw[x,y]`` — dedicated link bandwidth (compile time);
    * ``load[p]`` / ``bw_avail`` — run-time availability parameters,
      defaulting to dedicated (1.0) unless supplied.

    ``loads`` maps processor index to a stochastic (or point) CPU
    availability; ``bw_avail`` is shared across links as in the paper.
    """
    machines = list(machines)
    if len(machines) != decomposition.n_procs:
        raise ValueError(
            f"{len(machines)} machines vs {decomposition.n_procs} strips"
        )
    b = Bindings()
    b.bind("size_elt", float(ELEMENT_BYTES))
    for p, m in enumerate(machines):
        b.bind(param_name("numelt", p), decomposition.elements_per_color(p))
        b.bind(param_name("bm", p), m.benchmark_time)
        b.bind(param_name("msg_elts", p), float(decomposition.interior_cols))
        # Op-count variant parameters (5-point stencil: 4 adds + scale).
        b.bind(param_name("ops_per_elt", p), 6.0)
        b.bind(param_name("cpu_rate", p), 6.0 * m.elements_per_sec)
    max_latency = 0.0
    for p in range(decomposition.n_procs):
        for q in decomposition.neighbors(p):
            if p < q:
                link = network.link(machines[p].name, machines[q].name)
                b.bind(dedbw_name(p, q), link.dedicated_bytes_per_sec)
                max_latency = max(max_latency, link.latency)
    b.bind("latency", max_latency)
    b.bind_runtime("bw_avail", bw_avail)
    for p in range(decomposition.n_procs):
        load = 1.0 if loads is None or p not in loads else loads[p]
        b.bind_runtime(param_name("load", p), load)
    return b

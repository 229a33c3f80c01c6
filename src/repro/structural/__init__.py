"""Structural performance models with stochastic parameters (Section 2.2).

Expressions over named parameters evaluate under the Table 2 stochastic
arithmetic; component models nest; the SOR model implements the paper's
Section 2.2.1 equations verbatim.
"""

from repro.structural.comm_models import comm_component, dedbw_name, pt_to_pt, rece_lr, send_lr
from repro.structural.comp_models import comp_benchmark, comp_component, comp_op_count
from repro.structural.components import ComponentModel
from repro.structural.expr import (
    Add,
    Const,
    Div,
    EvalPolicy,
    Expr,
    Max,
    Min,
    Mul,
    Param,
    Sub,
    Sum,
    as_expr,
)
from repro.structural.engine import (
    CompiledExpr,
    UnsupportedExpressionError,
    UnsupportedPolicyError,
    clear_plan_cache,
    compile_expr,
    plan_cache_stats,
)
from repro.structural.generic import model_from_program, phase_component, program_bindings
from repro.structural.expr import DEFAULT_MC_SAMPLES
from repro.structural.montecarlo import (
    AdaptiveEmpirical,
    ClipSaturationWarning,
    compare_with_closed_form,
    monte_carlo_predict,
    monte_carlo_predict_reference,
    propagate,
)
from repro.structural.parameters import Bindings, ResolveTime, param_name
from repro.structural.repeaters import (
    STOPPING_RULES,
    AdaptiveOutcome,
    AdaptiveOutcomes,
    ChunkChecks,
    ChunkRecord,
    PrecisionTarget,
    RuleVote,
    SequentialProbe,
    chunk_schedule,
)
from repro.structural.skew import max_skew_delay, skew_widened_prediction
from repro.structural.sor_model import SORModel, bindings_for_platform

__all__ = [
    "EvalPolicy",
    "Expr",
    "Const",
    "Param",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Max",
    "Min",
    "Sum",
    "as_expr",
    "Bindings",
    "ResolveTime",
    "param_name",
    "ComponentModel",
    "pt_to_pt",
    "send_lr",
    "rece_lr",
    "comm_component",
    "dedbw_name",
    "comp_op_count",
    "comp_benchmark",
    "comp_component",
    "SORModel",
    "bindings_for_platform",
    "max_skew_delay",
    "skew_widened_prediction",
    "model_from_program",
    "phase_component",
    "program_bindings",
    "monte_carlo_predict",
    "monte_carlo_predict_reference",
    "propagate",
    "compare_with_closed_form",
    "AdaptiveEmpirical",
    "ClipSaturationWarning",
    "DEFAULT_MC_SAMPLES",
    "PrecisionTarget",
    "AdaptiveOutcome",
    "AdaptiveOutcomes",
    "ChunkChecks",
    "ChunkRecord",
    "RuleVote",
    "SequentialProbe",
    "chunk_schedule",
    "STOPPING_RULES",
    "CompiledExpr",
    "compile_expr",
    "clear_plan_cache",
    "plan_cache_stats",
    "UnsupportedPolicyError",
    "UnsupportedExpressionError",
]

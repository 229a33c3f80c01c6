"""Tests for repro.structural.engine — the vectorised evaluation plan.

The contract under test: for every supported policy, compiling an
expression and evaluating a draw batch produces *elementwise-equal*
results to the per-sample reference loop consuming the same RNG stream.
"""

import numpy as np
import pytest

from repro.core.arithmetic import ReciprocalRule, Relatedness
from repro.core.group_ops import MaxStrategy
from repro.core.stochastic import StochasticValue
from repro.structural import engine
from repro.structural.components import ComponentModel
from repro.structural.engine import (
    CompiledExpr,
    UnsupportedPolicyError,
    clear_plan_cache,
    compile_expr,
    plan_cache_stats,
)
from repro.structural.expr import (
    Const,
    EvalPolicy,
    Max,
    Min,
    Param,
    Sub,
    Sum,
)
from repro.structural.montecarlo import (
    monte_carlo_predict,
    monte_carlo_predict_reference,
)
from repro.structural.parameters import Bindings
from repro.structural.sor_model import SORModel


def rich_bindings() -> Bindings:
    """A mix of sampled, bound-stochastic, and point parameters."""
    b = Bindings()
    b.bind("work", 80.0)
    b.bind("fixed", StochasticValue(3.0, 0.8))  # compile time: never sampled
    b.bind_runtime("load", StochasticValue(0.5, 0.1))
    b.bind_runtime("bw", StochasticValue(0.7, 0.12))
    b.bind_runtime("zmean", StochasticValue(0.0, 0.5))  # zero-mean stochastic
    b.bind_runtime("pt", 2.0)  # run time but point: never sampled
    return b


#: Expression shapes covering every node type, plus the awkward cases:
#: non-sampled stochastic operands, zero-mean operands, nested groups.
EXPRESSIONS = {
    "div-chain": Param("work") / Param("load") / Param("pt"),
    "sub-mix": Sub(Param("work") / Param("load"), Param("fixed") * Param("bw")),
    "max-nested": Max(
        Param("work") / Param("load"),
        Param("work") / Param("bw") + Param("fixed"),
        Min(Param("work"), Param("work") * Param("pt")),
    ),
    "sum-terms": Sum(
        Param("load") * Param("work"),
        Param("bw") * 10.0,
        Param("fixed"),
        Param("zmean") * Param("load"),
    ),
    "const-only": Const(StochasticValue(5.0, 1.0)) * 3.0 + 2.0,
    # The inner Max's winner is a point value, so its selected spread
    # must be zero again; the outer Max's endpoint and Clark keys read it.
    "max-of-max": Max(
        Max(Param("fixed") / Param("bw"), Param("work") / Param("load")),
        Param("work") / Param("load") * 1.001,
    ),
    # The SOR shape: equal subtrees under differently named components.
    "shared-components": Sum(
        Max(
            ComponentModel("RedComp[0]", Param("work") / Param("load")),
            ComponentModel("RedComp[1]", Param("fixed") / Param("bw")),
        ),
        ComponentModel("RedComm[0]", Param("zmean") * Param("load") + Param("bw")),
        Max(
            ComponentModel("BlackComp[0]", Param("work") / Param("load")),
            ComponentModel("BlackComp[1]", Param("fixed") / Param("bw")),
        ),
        ComponentModel("BlackComm[0]", Param("zmean") * Param("load") + Param("bw")),
    ),
}

POLICIES = [
    EvalPolicy(relatedness=rel, reciprocal_rule=rec, max_strategy=strat)
    for rel in (Relatedness.RELATED, Relatedness.UNRELATED)
    for rec in (ReciprocalRule.FIRST_ORDER, ReciprocalRule.PAPER_LITERAL)
    for strat in (MaxStrategy.BY_MEAN, MaxStrategy.BY_ENDPOINT, MaxStrategy.CLARK)
]


class TestSeededEquivalence:
    @pytest.mark.parametrize("name", sorted(EXPRESSIONS))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_engines_agree(self, name, policy):
        expr = EXPRESSIONS[name]
        b = rich_bindings()
        vec = monte_carlo_predict(expr, b, n_samples=200, rng=3, policy=policy)
        ref = monte_carlo_predict_reference(expr, b, n_samples=200, rng=3, policy=policy)
        np.testing.assert_allclose(vec.samples, ref.samples, rtol=1e-9, atol=0.0)

    def test_monte_carlo_strategy_falls_back(self):
        expr = EXPRESSIONS["max-nested"]
        b = rich_bindings()
        # The MC Max strategy consumes the policy RNG per evaluation, so
        # it cannot be compiled; monte_carlo_predict must transparently
        # run the reference loop and match it draw for draw.
        vec = monte_carlo_predict(
            expr,
            b,
            n_samples=50,
            rng=4,
            policy=EvalPolicy(max_strategy=MaxStrategy.MONTE_CARLO, mc_rng=np.random.default_rng(9)),
        )
        ref = monte_carlo_predict_reference(
            expr,
            b,
            n_samples=50,
            rng=4,
            policy=EvalPolicy(max_strategy=MaxStrategy.MONTE_CARLO, mc_rng=np.random.default_rng(9)),
        )
        np.testing.assert_array_equal(vec.samples, ref.samples)

    def test_zero_division_parity(self):
        b = Bindings()
        b.bind("c", 1.0)
        b.bind("zero", 0.0)
        expr = Param("c") / Param("zero")
        with pytest.raises(ZeroDivisionError):
            monte_carlo_predict(expr, b, n_samples=10, rng=0)
        with pytest.raises(ZeroDivisionError):
            monte_carlo_predict_reference(expr, b, n_samples=10, rng=0)


class TestDegenerateCases:
    def test_all_point_bindings(self):
        b = Bindings({"x": 3.0, "y": 4.0})
        expr = Param("x") * Param("y") + 1.0
        vec = monte_carlo_predict(expr, b, n_samples=25, rng=0)
        assert np.all(vec.samples == 13.0)

    def test_minimum_sample_count(self):
        b = rich_bindings()
        expr = EXPRESSIONS["div-chain"]
        vec = monte_carlo_predict(expr, b, n_samples=2, rng=5)
        ref = monte_carlo_predict_reference(expr, b, n_samples=2, rng=5)
        np.testing.assert_array_equal(vec.samples, ref.samples)

    def test_constant_only_expression(self):
        vec = monte_carlo_predict(EXPRESSIONS["const-only"], Bindings(), n_samples=30, rng=0)
        ref = monte_carlo_predict_reference(
            EXPRESSIONS["const-only"], Bindings(), n_samples=30, rng=0
        )
        np.testing.assert_array_equal(vec.samples, ref.samples)
        assert np.all(vec.samples == vec.samples[0])

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_predict(
                Param("x"), Bindings({"x": 1.0}), n_samples=10, engine="bogus"
            )


class TestCompileExpr:
    def test_from_bindings_derives_sampled_set(self):
        b = rich_bindings()
        expr = EXPRESSIONS["sub-mix"]
        plan = compile_expr(expr, b)
        assert isinstance(plan, CompiledExpr)
        # Run-time nonzero-spread referenced parameters only.
        assert plan.sampled == ("bw", "load")
        # Everything else referenced stays bound.
        assert set(plan.bound) == {"work", "fixed"}

    def test_explicit_sampled_names(self):
        plan = compile_expr(Param("a") + Param("b"), ["a"])
        out = plan.evaluate({"a": np.array([1.0, 2.0])}, Bindings({"b": 10.0}))
        np.testing.assert_array_equal(out, [11.0, 12.0])

    def test_unknown_sampled_name_rejected(self):
        with pytest.raises(ValueError):
            compile_expr(Param("a"), ["not_referenced"])

    def test_unsupported_policy_raises(self):
        with pytest.raises(UnsupportedPolicyError):
            compile_expr(
                Max(Param("a"), Param("b")),
                ["a"],
                policy=EvalPolicy(max_strategy=MaxStrategy.MONTE_CARLO),
            )

    def test_missing_bound_parameter_errors_like_reference(self):
        plan = compile_expr(Param("a") + Param("b"), ["a"])
        with pytest.raises(KeyError):
            plan.evaluate({"a": np.array([1.0, 2.0])}, Bindings())


class TestPlanCache:
    def test_repeat_compile_hits_cache(self):
        clear_plan_cache()
        expr = EXPRESSIONS["max-nested"]
        p1 = compile_expr(expr, ["load", "bw"])
        p2 = compile_expr(expr, ["load", "bw"])
        assert p1 is p2
        stats = plan_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_structurally_equal_expressions_share_plans(self):
        clear_plan_cache()
        compile_expr(Param("x") / Param("y"), ["x"])
        compile_expr(Param("x") / Param("y"), ["x"])  # a fresh but equal AST
        assert plan_cache_stats()["hits"] == 1

    def test_policy_is_part_of_the_key(self):
        clear_plan_cache()
        expr = Param("x") / Param("y")
        compile_expr(expr, ["x"])
        compile_expr(expr, ["x"], policy=EvalPolicy(relatedness=Relatedness.UNRELATED))
        assert plan_cache_stats()["misses"] == 2

    def test_cached_plan_sees_fresh_bindings(self):
        # The plan must not bake bound-parameter values in at compile
        # time: the Platform 2 loop rebinds NWS forecasts per run while
        # reusing one plan.
        clear_plan_cache()
        expr = Param("work") / Param("load")
        draws = {"load": np.array([0.5, 0.25])}
        plan = compile_expr(expr, ["load"])
        out1 = plan.evaluate(draws, Bindings({"work": 10.0}))
        plan2 = compile_expr(expr, ["load"])
        out2 = plan2.evaluate(draws, Bindings({"work": 20.0}))
        assert plan2 is plan
        np.testing.assert_array_equal(out1, [20.0, 40.0])
        np.testing.assert_array_equal(out2, [40.0, 80.0])


def sor_bindings(n_procs: int = 4) -> Bindings:
    """Compile-time SOR parameters; ``load[p]`` and ``bw_avail`` sampled."""
    b = Bindings({"size_elt": 8.0})
    for p in range(n_procs):
        b.bind(f"numelt[{p}]", 1000.0 * (p + 1))
        b.bind(f"bm[{p}]", 1e-6)
        b.bind(f"msg_elts[{p}]", 600.0)
        b.bind_runtime(f"load[{p}]", StochasticValue(0.6, 0.2))
    for p in range(n_procs - 1):
        b.bind(f"dedbw[{p},{p + 1}]", 1e6 * (p + 1))
    b.bind_runtime("bw_avail", StochasticValue(0.5, 0.1))
    return b


@pytest.fixture
def count_calls(monkeypatch):
    """Count calls of an engine function in plans compiled from here on
    (a plan binds its functions at compile time)."""

    def install(name: str) -> dict:
        calls = {"n": 0}
        fn = getattr(engine, name)

        def wrapped(*args, **kwargs):
            calls["n"] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(engine, name, wrapped)
        return calls

    clear_plan_cache()
    yield install
    clear_plan_cache()


class TestBlocksAndSharing:
    """The plan shares repeated subtrees and runs in blocks of
    ``engine._BLOCK`` draws; neither may change a bit of the answer."""

    @pytest.mark.parametrize("blocks", ["one-block-plus-1", "three-blocks-minus-7"])
    @pytest.mark.parametrize("name", sorted(EXPRESSIONS))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_engines_agree_across_block_boundaries(self, monkeypatch, blocks, name, policy):
        # A small block keeps the per-draw reference loop cheap; the
        # boundaries are crossed exactly as at the real size.
        monkeypatch.setattr(engine, "_BLOCK", 64)
        n = 64 + 1 if blocks == "one-block-plus-1" else 3 * 64 - 7
        expr = EXPRESSIONS[name]
        b = rich_bindings()
        vec = monte_carlo_predict(expr, b, n_samples=n, rng=3, policy=policy)
        ref = monte_carlo_predict_reference(expr, b, n_samples=n, rng=3, policy=policy)
        if policy == EvalPolicy():
            np.testing.assert_array_equal(vec.samples, ref.samples)
        else:
            np.testing.assert_allclose(vec.samples, ref.samples, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("n", [engine._BLOCK + 1, 3 * engine._BLOCK - 7])
    def test_full_size_blocks_equal_one_pass(self, monkeypatch, n):
        expr = SORModel(4, 20).expression()
        b = sor_bindings()
        plan = compile_expr(expr, b)
        rng = np.random.default_rng(5)
        draws = {name: rng.uniform(0.2, 1.0, n) for name in plan.sampled}
        blocked = plan.evaluate(draws, b)
        monkeypatch.setattr(engine, "_BLOCK", n)
        np.testing.assert_array_equal(blocked, plan.evaluate(draws, b))

    def test_full_size_blocks_equal_reference(self):
        n = engine._BLOCK + 1
        expr = EXPRESSIONS["shared-components"]
        b = rich_bindings()
        vec = monte_carlo_predict(expr, b, n_samples=n, rng=8)
        ref = monte_carlo_predict_reference(expr, b, n_samples=n, rng=8)
        np.testing.assert_array_equal(vec.samples, ref.samples)

    def test_sor_divides_once_per_distinct_quotient(self, count_calls):
        # 4 RedComp = BlackComp quotients and 6 PtToPt(x, y) messages;
        # the tree holds 8 + 24 = 32 Div nodes.
        divs = count_calls("_div")
        expr = SORModel(4, 20).expression()
        b = sor_bindings()
        plan = compile_expr(expr, b)
        draws = {name: np.full(100, 0.5) for name in plan.sampled}
        plan.evaluate(draws, b)
        assert divs["n"] == 10

    def test_sor_folds_each_distinct_max_once(self, count_calls):
        # RedComp = BlackComp and RedComm = BlackComm: 2 of the 4 Max nodes.
        folds = count_calls("_group_max")
        expr = SORModel(4, 20).expression()
        b = sor_bindings()
        plan = compile_expr(expr, b)
        plan.evaluate({name: np.full(100, 0.5) for name in plan.sampled}, b)
        assert folds["n"] == 2

    @pytest.mark.parametrize("where", [0, -1])
    def test_zero_denominator_in_any_block_raises(self, where):
        n = 3 * engine._BLOCK - 7
        plan = compile_expr(Param("work") / Param("load"), ["load"])
        load = np.ones(n)
        b = Bindings({"work": 2.0})
        np.testing.assert_array_equal(plan.evaluate({"load": load}, b), np.full(n, 2.0))
        load[where] = 0.0
        with pytest.raises(ZeroDivisionError):
            plan.evaluate({"load": load}, b)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_signed_zero_denominators_raise_and_nan_does_not(self, zero):
        plan = compile_expr(Param("work") / Param("load"), ["load"])
        b = Bindings({"work": 2.0})
        for load in (np.array([1.0, zero, 2.0]), np.array([zero])):
            with pytest.raises(ZeroDivisionError):
                plan.evaluate({"load": load}, b)
        out = plan.evaluate({"load": np.array([1.0, np.nan])}, b)
        assert out[0] == 2.0 and np.isnan(out[1])
        # Scalar denominators: a point parameter divides in the prelude.
        for value in (zero, np.float64(zero)):
            with pytest.raises(ZeroDivisionError):
                engine._check_nonzero_mean(value, "zero")
        engine._check_nonzero_mean(np.nan, "nan")
        plan = compile_expr(Param("load") + Param("work") / Param("zero"), ["load"])
        with pytest.raises(ZeroDivisionError):
            plan.evaluate({"load": np.ones(2)}, Bindings({"work": 2.0, "zero": zero}))

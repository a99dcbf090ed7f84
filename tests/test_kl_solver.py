from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    assert_rows_stochastic,
    backward_pass_linear,
    decimal_log_phi_three_route,
    edge_slice,
    folded_costs,
    grid_search_value,
    random_scenario,
)
import mftroute
from mftroute import (
    Distribution,
    InvalidScenarioError,
    PolicyKernel,
    ReferencePolicy,
    Scenario,
    StageCosts,
    TrafficGraph,
    backward_pass,
    build_gridworld,
    equalizer_gap,
    extract_policy,
    random_policy,
    truncate_scenario,
    value,
)


def test_zero_costs_give_zero_log_desirability_and_reference_policy():
    rng = np.random.default_rng(0)
    scenario = random_scenario(rng)
    zero = Scenario(
        scenario.graph,
        StageCosts(scenario.horizon, np.zeros_like(scenario.costs.stage)),
        scenario.reference,
        scenario.alpha,
        scenario.initial,
    )
    desirability = backward_pass(zero)
    assert np.max(np.abs(desirability.log_phi)) <= 1e-13
    policy = extract_policy(zero, desirability)
    np.testing.assert_allclose(policy.probs, zero.reference.probs, rtol=1e-13, atol=0)


def test_single_node_self_loop_scalar_recursion():
    cost = 1.7
    horizon = 9
    alpha = 0.35
    scenario = Scenario(
        TrafficGraph.from_neighbors(((0,),)),
        StageCosts(horizon, np.full((horizon, 1), cost)),
        ReferencePolicy(np.ones((horizon, 1))),
        alpha,
        Distribution.point_mass(1, 0),
    )
    desirability = backward_pass(scenario)
    stages = np.arange(horizon + 1)
    np.testing.assert_allclose(
        desirability.log_phi[:, 0], -(horizon - stages) * cost / alpha, rtol=1e-12
    )
    # forced path: the optimal value is just the summed travel cost
    assert value(desirability, scenario.initial, 0) == pytest.approx(horizon * cost, rel=1e-12)
    assert value(desirability, scenario.initial, horizon) == 0.0


def test_three_route_log_desirability_matches_extended_precision(three_route):
    desirability = backward_pass(three_route)
    oracle = decimal_log_phi_three_route((2.0, 1.0, 3.0), (1 / 3, 1 / 3, 1 / 3), 1.0)
    assert desirability.log_phi[0, 0] == pytest.approx(oracle, abs=1e-13)


def test_three_route_policy_matches_reported_rounding(three_route):
    policy = extract_policy(three_route, backward_pass(three_route))
    np.testing.assert_array_equal(np.round(policy.probs[0, :3], 3), [0.245, 0.665, 0.090])


def test_two_node_chain_matches_grid_search_oracle():
    # out-degree 2 everywhere; costs chosen so every row optimum is interior
    graph = TrafficGraph.from_neighbors(((0, 1), (0, 1)))
    costs = np.array([[0.5, 0.3, 0.2, 0.6], [0.1, 0.4, 0.3, 0.2]])
    reference = ReferencePolicy(np.full((2, 4), 0.5))
    scenario = Scenario(graph, StageCosts(2, costs), reference, 1.0, Distribution.point_mass(2, 0))

    desirability = backward_pass(scenario)
    solver_value = value(desirability, scenario.initial, 0)
    oracle_value, bound = grid_search_value(scenario, step=0.001)
    assert oracle_value >= solver_value - 1e-9  # a grid point cannot beat the optimum
    assert abs(oracle_value - solver_value) <= bound + 1e-9


def test_pre_normalization_row_sums_hit_one():
    rng = np.random.default_rng(5)
    scenario = random_scenario(rng)
    g = scenario.graph
    desirability = backward_pass(scenario)
    costs = folded_costs(scenario)
    for t in range(scenario.horizon):
        raw_log = (
            np.log(scenario.reference.probs[t])
            - costs[t] / scenario.alpha
            + desirability.log_phi[t + 1][g.edge_dst]
            - desirability.log_phi[t][g.edge_src]
        )
        sums = np.add.reduceat(np.exp(raw_log), g.row_start[:-1])
        assert np.max(np.abs(sums - 1.0)) <= 1e-10


def test_extracted_rows_are_exactly_stochastic():
    rng = np.random.default_rng(6)
    for _ in range(5):
        scenario = random_scenario(rng)
        policy = extract_policy(scenario, backward_pass(scenario))
        assert_rows_stochastic(scenario.graph, policy.probs, tol=1e-15)


def test_log_domain_agrees_with_linear_recursion_in_safe_range():
    rng = np.random.default_rng(7)
    for _ in range(5):
        scenario = random_scenario(rng, cost_bound=5.0, alpha_range=(0.25, 10.0))
        assert np.max(np.abs(folded_costs(scenario))) / scenario.alpha <= 20.0
        log_phi = backward_pass(scenario).log_phi
        linear_phi = backward_pass_linear(scenario)
        np.testing.assert_allclose(np.exp(log_phi), linear_phi, rtol=1e-10)


def test_stage_constant_cost_shift_leaves_policy_invariant():
    rng = np.random.default_rng(8)
    scenario = random_scenario(rng)
    shifted_stage = scenario.costs.stage.copy()
    shifts = rng.uniform(-3.0, 3.0, size=scenario.horizon)
    shifted_stage += shifts[:, None]
    shifted = Scenario(
        scenario.graph,
        StageCosts(scenario.horizon, shifted_stage),
        scenario.reference,
        scenario.alpha,
        scenario.initial,
    )
    base_policy = extract_policy(scenario, backward_pass(scenario))
    shifted_policy = extract_policy(shifted, backward_pass(shifted))
    np.testing.assert_allclose(shifted_policy.probs, base_policy.probs, atol=1e-10, rtol=0)
    g = scenario.graph
    for t in range(scenario.horizon):
        for i in range(g.node_count):
            sl = edge_slice(g, i)
            assert np.argmax(base_policy.probs[t, sl]) == np.argmax(shifted_policy.probs[t, sl])


def test_extreme_costs_and_small_alpha_stay_finite():
    graph = TrafficGraph.from_neighbors(((0, 1), (0, 1)))
    costs = np.array([[0.0, 1e6, 1e6, 0.0]] * 3)
    scenario = Scenario(
        graph,
        StageCosts(3, costs),
        ReferencePolicy(np.full((3, 4), 0.5)),
        1e-2,
        Distribution.point_mass(2, 0),
    )
    desirability = backward_pass(scenario)
    assert np.all(np.isfinite(desirability.log_phi))
    policy = extract_policy(scenario, desirability)
    assert np.all(np.isfinite(policy.log_probs))
    assert_rows_stochastic(scenario.graph, policy.probs, tol=1e-15)


def test_truncated_solve_reproduces_policy_tail():
    rng = np.random.default_rng(9)
    for _ in range(5):
        scenario = random_scenario(rng)
        if scenario.horizon < 2:
            continue
        t_star = int(rng.integers(1, scenario.horizon))
        injected = Distribution(rng.dirichlet(np.ones(scenario.graph.node_count)))
        sub = truncate_scenario(scenario, t_star, injected)

        full_phi = backward_pass(scenario)
        sub_phi = backward_pass(sub)
        assert np.max(np.abs(sub_phi.log_phi - full_phi.log_phi[t_star:])) <= 1e-14

        full_policy = extract_policy(scenario, full_phi)
        sub_policy = extract_policy(sub, sub_phi)
        assert np.max(np.abs(sub_policy.probs - full_policy.probs[t_star:])) <= 1e-14


def test_backward_pass_rejects_invalid_scenario():
    graph = TrafficGraph.from_neighbors(((0,), ()))
    scenario = Scenario(
        graph,
        StageCosts(1, np.zeros((1, 1))),
        ReferencePolicy(np.ones((1, 1))),
        1.0,
        Distribution.point_mass(2, 0),
    )
    with pytest.raises(InvalidScenarioError):
        backward_pass(scenario)


def test_extract_policy_and_value_reject_a_foreign_horizon_or_stage(three_route):
    desirability = backward_pass(three_route)
    grid = build_gridworld(2, 2, (), 0, 3, 2, 1.0)
    with pytest.raises(ValueError, match=r"^desirability horizon 1, scenario horizon 2$"):
        extract_policy(grid, desirability)
    for t in (-1, 2):
        with pytest.raises(ValueError, match=rf"^stage {t} outside 0\.\.1$"):
            value(desirability, three_route.initial, t)


def test_extract_policy_rejects_the_table_of_another_grid_or_alpha():
    grid = build_gridworld(4, 3, (), 0, 11, 6, 1.0)
    # same horizon: a larger grid's table would give a stochastic but wrong policy, a smaller one an IndexError
    for other in (build_gridworld(5, 4, (), 0, 19, 6, 1.0), build_gridworld(3, 2, (), 0, 5, 6, 1.0)):
        message = f"desirability table of shape (7, {other.graph.node_count}), scenario needs (7, 12)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            extract_policy(grid, backward_pass(other))
    with pytest.raises(ValueError, match=r"^desirability alpha 0\.5, scenario alpha 1\.0$"):
        extract_policy(grid, backward_pass(build_gridworld(4, 3, (), 0, 11, 6, 0.5)))


def test_equalizer_gap_rejects_the_table_of_another_horizon_or_alpha():
    grid = build_gridworld(4, 4, (), 0, 15, 6, 1.0)
    policy = extract_policy(grid, backward_pass(grid))
    shorter = build_gridworld(4, 4, (), 0, 15, 5, 1.0)
    for scenario, desirability, message in (
        (grid, backward_pass(build_gridworld(4, 4, (), 0, 15, 6, 2.0)), r"^desirability alpha 2\.0, scenario alpha 1\.0$"),
        (shorter, backward_pass(grid), r"^desirability horizon 6, scenario horizon 5$"),
    ):
        trials = [random_policy(scenario, np.random.default_rng(0))]
        with pytest.raises(ValueError, match=message):
            equalizer_gap(scenario, PolicyKernel(policy.probs[: scenario.horizon]), trials, desirability)


def test_value_rejects_a_distribution_over_another_node_count():
    desirability = backward_pass(build_gridworld(4, 4, (), 0, 15, 6, 1.0))
    with pytest.raises(ValueError, match=r"^distribution of shape \(1,\), desirability table needs \(16,\)$"):
        value(desirability, Distribution(np.array([1.0])), 0)


def test_policy_kernel_freezes_a_view_and_leaves_the_callers_array_writeable(three_route):
    policy = extract_policy(three_route, backward_pass(three_route))
    probs = policy.probs.copy()
    kernel = PolicyKernel(probs)
    probs[0, 0] = 1.0
    assert kernel.probs[0, 0] == 1.0 and np.shares_memory(kernel.probs, probs)
    with pytest.raises(ValueError, match="read-only"):
        kernel.probs[0, 0] = 0.0


# OpenBLAS 0.3.31 splits a dot of more than 10 000 entries across its threads; 12 300 is
# the edge count of the 50x50 grid.  The payload's sums must not see the thread count.
_THREAD_SCRIPT = """
import numpy as np
from mftroute import Distribution, Scenario, build_gridworld, equalizer_gap, random_policy
from mftroute.kl_solver import _dot, backward_pass, extract_policy

a, b = np.random.default_rng(0).standard_normal((2, 200, 12300))
dots = np.array([_dot(x, y) for x, y in zip(a, b)])
assert dots.tobytes() == np.add.reduce(a * b, axis=-1).tobytes()
print(dots.tobytes().hex())
base = build_gridworld(50, 50, [], 0, 2499, 20, 1.0)
uniform = Distribution(np.full(base.graph.node_count, 1.0 / base.graph.node_count))
scenario = Scenario(base.graph, base.costs, base.reference, base.alpha, uniform)
desirability = backward_pass(scenario)
draws = np.random.default_rng(0)
trials = [random_policy(scenario, draws) for _ in range(3)]
print(repr(equalizer_gap(scenario, extract_policy(scenario, desirability), trials, desirability)))
"""


def test_product_sums_do_not_depend_on_the_blas_thread_count():
    package_root = str(Path(mftroute.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        command = [sys.executable, "-c", _THREAD_SCRIPT]
        run = subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import exact_expected_log_share, random_game, route_loads_bisection, solve_symmetric_ne_bisection
from mftroute import (
    SingleStageGame,
    assumed_cost,
    extract_policy,
    backward_pass,
    finite_population,
    solve_single_stage_mfe,
    solve_symmetric_ne,
    symmetric_equilibrium,
)
from mftroute.cli import FIG4_ALPHA, FIG4_COSTS, FIG4_REFERENCE, three_route_scenario
from mftroute.symmetric_equilibrium import _brackets


def _route_loads(game: SingleStageGame, lam) -> np.ndarray:
    """The solver's per-route inverse of the cost at each level in ``lam``, from a fresh memo.

    The result has shape ``np.shape(lam) + (J,)``; the levels share the memo.
    """
    at_zero = assumed_cost(game, np.zeros(game.route_count))
    at_one = assumed_cost(game, np.ones(game.route_count))
    memo = {0.0: tuple(at_zero.tolist()), 1.0: tuple(at_one.tolist())}
    loads = [_brackets(game, memo, level)[0] for level in np.ravel(lam).tolist()]
    return np.array(loads).reshape(np.shape(lam) + (game.route_count,))


def route_cost(game: SingleStageGame, route: int, q: float) -> float:
    """Cost of the route when every player takes it with probability q."""
    return float(assumed_cost(game, np.full(game.route_count, q))[route])


def route_load(game: SingleStageGame, route: int, lam: float) -> float:
    """The solver's inverse of route_cost at one level, clamped to [0, 1]."""
    return float(_route_loads(game, lam)[route])


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@st.composite
def tied_games(draw) -> SingleStageGame:
    """2-8 routes with integer costs and often equal references, so that routes tie."""
    routes = draw(st.integers(2, 8))
    costs = draw(st.lists(st.integers(-3, 3), min_size=routes, max_size=routes))
    mixed = st.lists(st.integers(1, 3), min_size=routes, max_size=routes)
    weights = draw(st.one_of(st.just([1] * routes), mixed))
    alpha = draw(st.floats(0.05, 3.0))
    n_players = draw(st.sampled_from([1, 2, 3, 20, 200, 2000, 20000]))
    reference = np.array(weights, dtype=np.float64) / sum(weights)
    return SingleStageGame(np.array(costs, dtype=np.float64), reference, alpha, n_players)


def _wide_game(costs, weights, alpha: float, n_players: int) -> SingleStageGame:
    reference = np.array(weights, dtype=np.float64) / sum(weights)
    return SingleStageGame(np.array(costs, dtype=np.float64), reference, alpha, n_players)


# From 8 routes up numpy sums a vector out of left-to-right order, which the
# solver's mass tests must follow; tied_games draws at most 8 routes.
WIDE_GAMES = [
    _wide_game(costs, weights, alpha, n_players)
    for costs, weights, alpha in (
        ([0, 1, -1, 2, 0, 1, -2, 3], [1] * 8, 0.7),
        ([2, -1, 0, 0, 3, 1, -2, 1, 0], [1, 2, 3, 1, 2, 3, 1, 2, 3], 1.3),
        ([0.5, -1.25, 2, 0, 0, 1.5, -0.75, 3, -2, 1, 0.25, 0], [1] * 6 + [2] * 6, 0.4),
    )
    for n_players in (3, 200)
]


# ---------------------------------------------------------------------------
# Route cost function and its inverse
# ---------------------------------------------------------------------------

def test_route_cost_boundary_values(three_route_game):
    game = three_route_game(30)
    for j in range(3):
        at_zero = game.travel_cost[j] + game.alpha * math.log(1.0 / (30 * game.reference[j]))
        at_one = game.travel_cost[j] - game.alpha * math.log(game.reference[j])
        assert route_cost(game, j, 0.0) == pytest.approx(at_zero, abs=1e-13)
        assert route_cost(game, j, 1.0) == pytest.approx(at_one, abs=1e-13)


def test_route_cost_matches_extended_precision_sum(three_route_game):
    game = three_route_game(200)
    oracle = 2.0 + exact_expected_log_share(200, 0.5) - math.log(1 / 3)
    assert route_cost(game, 0, 0.5) == pytest.approx(oracle, abs=1e-10)


def test_route_cost_is_strictly_increasing():
    rng = np.random.default_rng(41)
    for _ in range(5):
        game = random_game(rng)
        for j in range(game.route_count):
            grid = np.linspace(0.0, 1.0 - 1e-4, 40)
            vals = np.array([route_cost(game, j, q) for q in grid])
            bumped = np.array([route_cost(game, j, q + 1e-4) for q in grid])
            assert np.all(bumped > vals)


def test_inverse_clamps_at_the_boundaries(three_route_game):
    game = three_route_game(25)
    assert route_load(game, 0, route_cost(game, 0, 0.0)) == 0.0
    assert route_load(game, 0, route_cost(game, 0, 1.0)) == 1.0
    assert route_load(game, 0, route_cost(game, 0, 0.0) - 5.0) == 0.0
    assert route_load(game, 0, route_cost(game, 0, 1.0) + 5.0) == 1.0


def test_inverse_round_trips(three_route_game):
    game = three_route_game(90)
    for j, q in ((0, 0.3), (1, 0.05), (2, 0.77)):
        recovered = route_load(game, j, route_cost(game, j, q))
        assert recovered == pytest.approx(q, abs=1e-10)


def test_forward_of_inverse_hits_the_level():
    rng = np.random.default_rng(42)
    for _ in range(5):
        game = random_game(rng)
        for j in range(game.route_count):
            lam = float(rng.uniform(route_cost(game, j, 0.0), route_cost(game, j, 1.0)))
            q = route_load(game, j, lam)
            if 0.0 < q < 1.0:
                assert route_cost(game, j, q) == pytest.approx(lam, abs=1e-10)


@settings(max_examples=30)
@given(tied_games())
def test_route_loads_match_nested_bisection_bit_for_bit(game):
    """Levels at, just inside and just outside every route's clamp boundaries, and between them."""
    at_zero = assumed_cost(game, np.zeros(game.route_count))
    at_one = assumed_cost(game, np.ones(game.route_count))
    edges = np.concatenate([at_zero, at_one])
    lam = np.concatenate(
        [
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            np.linspace(at_zero.min() - 1.0, at_one.max() + 1.0, 9),
        ]
    )
    for levels in (lam, lam[:6].reshape(2, 3), lam[7]):
        got, want = _route_loads(game, levels), route_loads_bisection(game, levels)
        assert got.shape == want.shape == np.shape(levels) + (game.route_count,)
        assert np.array_equal(_bits(got), _bits(want))


# ---------------------------------------------------------------------------
# Equilibrium solver
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(tied_games())
@example(WIDE_GAMES[0])
@example(WIDE_GAMES[1])
@example(WIDE_GAMES[2])
@example(WIDE_GAMES[3])
@example(WIDE_GAMES[4])
@example(WIDE_GAMES[5])
def test_solver_matches_nested_bisection_bit_for_bit(game):
    got, want = solve_symmetric_ne(game), solve_symmetric_ne_bisection(game)
    assert np.array_equal(_bits(got.q), _bits(want.q))
    assert np.array_equal(_bits(got.lam), _bits(want.lam))
    assert np.array_equal(_bits(got.residuals), _bits(want.residuals))


@pytest.mark.parametrize("players", [2, 20, 200, 20000])
def test_fig4_solve_makes_few_kernel_calls(monkeypatch, players):
    """The fig4 game: with N = 200 nested bisection made 1 868 calls to the binomial kernel."""
    calls = []
    kernel = finite_population._interior_log_shares

    def counted(n_players, probs):
        calls.append(len(probs))
        return kernel(n_players, probs)

    monkeypatch.setattr(finite_population, "_interior_log_shares", counted)
    game = SingleStageGame(np.array(FIG4_COSTS), np.array(FIG4_REFERENCE), FIG4_ALPHA, players)
    solve_symmetric_ne(game)
    assert 0 < len(calls) <= 200


def test_fig4_solve_resumes_its_walks_and_probes_two_levels(monkeypatch):
    """At N = 200, walks from [0, 1] on every step and one level per call made 55 kernel calls and about 6 200 memo lookups."""
    calls, lookups = [], []
    entry = symmetric_equilibrium.binomial_expected_log_share

    def counted(n_players, probs):
        calls.append(np.size(probs))
        return entry(n_players, probs)

    def profile(frame, event, arg):
        # every memo.get of the solver's walks and of the descents to their start nodes
        if event == "c_call" and frame.f_code.co_filename == symmetric_equilibrium.__file__:
            if getattr(arg, "__name__", None) == "get" and isinstance(getattr(arg, "__self__", None), dict):
                lookups.append(frame.f_code.co_name)

    monkeypatch.setattr(symmetric_equilibrium, "binomial_expected_log_share", counted)
    game = SingleStageGame(np.array(FIG4_COSTS), np.array(FIG4_REFERENCE), FIG4_ALPHA, 200)
    sys.setprofile(profile)
    try:
        result = solve_symmetric_ne(game)
    finally:
        sys.setprofile(None)
    assert 0 < len(calls) <= 35
    assert 0 < len(lookups) <= 2500 and set(lookups) == {"_brackets", "_shared"}
    assert result.q.tobytes() == solve_symmetric_ne_bisection(game).q.tobytes()


@pytest.mark.parametrize("max_bisect", [6, 9, 20, 30])
def test_resumed_walks_keep_the_bisection_step_limit(monkeypatch, max_bisect):
    """A walk that resumes from a shared bracket counts the steps above it: a low limit closes it where nested bisection does."""
    monkeypatch.setattr(symmetric_equilibrium, "_MAX_BISECT", max_bisect)
    monkeypatch.setattr(helpers, "_MAX_BISECT", max_bisect)
    rng = np.random.default_rng(46)
    for _ in range(20):
        game = random_game(rng)
        got, want = solve_symmetric_ne(game), solve_symmetric_ne_bisection(game)
        assert np.array_equal(_bits(got.q), _bits(want.q))
        assert np.array_equal(_bits(got.lam), _bits(want.lam))


def test_symmetric_game_has_the_uniform_equilibrium():
    for n_players in (1, 2, 7, 64, 500):
        game = SingleStageGame(np.array([1.5, 1.5, 1.5, 1.5]), np.full(4, 0.25), 0.7, n_players)
        result = solve_symmetric_ne(game)
        np.testing.assert_allclose(result.q, 0.25, rtol=0, atol=1e-10)


def test_three_route_equilibrium_approaches_the_mean_field_point(three_route_game):
    game = three_route_game(200)
    result = solve_symmetric_ne(game)
    mfe = solve_single_stage_mfe(game)
    assert np.max(np.abs(result.q - mfe)) <= 0.05
    assert result.residuals.max() <= 1e-8


def test_two_player_two_route_matches_kkt_grid_search():
    game = SingleStageGame(np.array([1.0, 1.6]), np.array([0.5, 0.5]), 1.0, 2)
    result = solve_symmetric_ne(game)

    grid = np.linspace(0.0, 1.0, 10001)
    violations = np.empty(len(grid))
    for idx, q1 in enumerate(grid):
        q = (q1, 1.0 - q1)
        costs = [route_cost(game, j, q[j]) for j in range(2)]
        active = [j for j in range(2) if q[j] > 0]
        lam = max(costs[j] for j in active)
        viol = max(abs(costs[j] - lam) for j in active)
        for j in range(2):
            if q[j] == 0:
                viol = max(viol, max(0.0, lam - costs[j]))
        violations[idx] = viol
    best = grid[int(np.argmin(violations))]
    assert result.q[0] == pytest.approx(best, abs=1e-4)


def test_kkt_certificate_on_random_games():
    rng = np.random.default_rng(43)
    for _ in range(10):
        game = random_game(rng)
        result = solve_symmetric_ne(game)
        assert np.all(result.q >= 0)
        assert result.q.sum() == pytest.approx(1.0, abs=1e-9)
        assert result.residuals.max() <= 1e-8


def test_equilibrium_equalizes_assumed_costs_across_used_routes():
    rng = np.random.default_rng(44)
    for _ in range(10):
        game = random_game(rng)
        result = solve_symmetric_ne(game)
        y = assumed_cost(game, result.q)
        active = np.flatnonzero(result.q > 0)
        assert max(y[j] for j in active) - y.min() <= 1e-8


# ---------------------------------------------------------------------------
# Single-stage mean-field point
# ---------------------------------------------------------------------------

def test_single_stage_mfe_reported_value(three_route_game):
    mfe = solve_single_stage_mfe(three_route_game(200))
    np.testing.assert_array_equal(np.round(mfe, 3), [0.245, 0.665, 0.090])


def test_equal_costs_return_the_reference():
    game = SingleStageGame(np.array([2.0, 2.0]), np.array([0.7, 0.3]), 1.3, 10)
    np.testing.assert_allclose(solve_single_stage_mfe(game), [0.7, 0.3], rtol=0, atol=1e-15)


def test_game_keeps_its_inputs_when_the_callers_arrays_change():
    costs, ref = np.array([1.0, 1.6, 1.2]), np.array([0.5, 0.3, 0.2])
    game = SingleStageGame(costs, ref, 0.8, 50)
    belief = np.array([0.2, 0.5, 0.3])
    cost, mfe = assumed_cost(game, belief), solve_single_stage_mfe(game)
    costs[0], ref[0] = 9.0, -1.0
    fresh = SingleStageGame(np.array([1.0, 1.6, 1.2]), np.array([0.5, 0.3, 0.2]), 0.8, 50)
    assert assumed_cost(game, belief).tobytes() == cost.tobytes() == assumed_cost(fresh, belief).tobytes()
    assert solve_single_stage_mfe(game).tobytes() == mfe.tobytes() == solve_single_stage_mfe(fresh).tobytes()
    assert not game.reference.flags.writeable and not game.travel_cost.flags.writeable


def test_single_stage_mfe_agrees_with_the_network_solver(three_route_game):
    scenario = three_route_scenario()
    policy = extract_policy(scenario, backward_pass(scenario))
    mfe = solve_single_stage_mfe(three_route_game(200))
    np.testing.assert_allclose(policy.probs[0, :3], mfe, rtol=0, atol=1e-12)


def test_first_order_condition_of_the_convex_program():
    rng = np.random.default_rng(45)
    for _ in range(10):
        game = random_game(rng)
        mfe = solve_single_stage_mfe(game)
        stationarity = game.travel_cost + game.alpha * (np.log(mfe / game.reference) + 1.0)
        assert stationarity.max() - stationarity.min() <= 1e-10

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import exact_expected_log_share, fp_run_day_by_day, random_game
from mftroute import (
    SingleStageGame,
    assumed_cost,
    expected_tax_symmetric,
    fictitious_play,
    fp_run,
    solve_symmetric_ne,
)
from mftroute.fictitious_play import _LOOKAHEAD


def test_game_construction_rejects_bad_inputs():
    with pytest.raises(ValueError):
        SingleStageGame(np.array([1.0]), np.array([1.0]), 1.0, 10)
    with pytest.raises(ValueError):
        SingleStageGame(np.array([1.0, 2.0]), np.array([0.0, 1.0]), 1.0, 10)
    with pytest.raises(ValueError):
        SingleStageGame(np.array([1.0, 2.0]), np.array([0.6, 0.6]), 1.0, 10)
    with pytest.raises(ValueError):
        SingleStageGame(np.array([1.0, 2.0]), np.array([0.5, 0.5]), -1.0, 10)
    with pytest.raises(ValueError):
        SingleStageGame(np.array([1.0, 2.0]), np.array([np.nan, 0.5]), 1.0, 10)
    with pytest.raises(ValueError):
        SingleStageGame(np.array([np.nan, 2.0]), np.array([0.5, 0.5]), 1.0, 10)
    with pytest.raises(ValueError):
        SingleStageGame(np.array([1.0, 2.0]), np.array([0.5, 0.5]), np.inf, 10)
    for n_players in (2.5, 0.5, np.float64(1e5 + 0.5), np.nan, np.inf):
        with pytest.raises(ValueError, match="n_players must be an integer, got"):
            SingleStageGame(np.array([1.0, 2.0]), np.array([0.5, 0.5]), 1.0, n_players)
    with pytest.raises(ValueError, match="n_players must be >= 1"):
        SingleStageGame(np.array([1.0, 2.0]), np.array([0.5, 0.5]), 1.0, 0.0)
    with pytest.raises(ValueError, match="^travel_cost and reference must be equal-length vectors$"):
        SingleStageGame(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5]), 1.0, 10)


def test_integral_float_player_count_is_the_integer(three_route_game):
    game = SingleStageGame(np.array([2.0, 1.0, 3.0]), np.full(3, 1.0 / 3.0), 1.0, 20.0)
    assert type(game.n_players) is int and game.n_players == 20
    assert solve_symmetric_ne(game).q.tobytes() == solve_symmetric_ne(three_route_game(20)).q.tobytes()


def test_assumed_cost_single_player(three_route_game):
    game = three_route_game(1)
    y = assumed_cost(game, np.array([0.2, 0.5, 0.3]))
    np.testing.assert_allclose(y, game.travel_cost + math.log(3), rtol=0, atol=1e-14)


def test_assumed_cost_certain_route(three_route_game):
    game = three_route_game(50)
    y = assumed_cost(game, np.array([0.0, 1.0, 0.0]))
    # a fully crowded route costs travel plus the reference surcharge
    assert y[1] == pytest.approx(game.travel_cost[1] + math.log(3), abs=1e-13)


def test_assumed_cost_consistent_with_exact_tax_machinery(three_route_game):
    game = three_route_game(200)
    belief = np.array([1 / 3, 1 / 3, 1 / 3])
    y = assumed_cost(game, belief)
    for j in range(3):
        tax = expected_tax_symmetric(200, 1.0, float(belief[j]), float(game.reference[j]), 1.0)
        assert y[j] == pytest.approx(game.travel_cost[j] + tax, abs=1e-12)
        oracle = exact_expected_log_share(200, float(belief[j])) - math.log(1 / 3)
        assert y[j] == pytest.approx(game.travel_cost[j] + oracle, abs=1e-10)


def test_first_day_best_response_picks_the_cheap_route(three_route_game):
    game = three_route_game(100)
    path = fp_run(game, np.full(3, 1 / 3), days=1).path
    assert path.choices.tolist() == [1]  # the middle route has the lowest travel cost


def test_exact_tie_breaks_to_the_lowest_route_index():
    game = SingleStageGame(np.array([2.0, 2.0, 2.0]), np.full(3, 1 / 3), 1.0, 25)
    path = fp_run(game, np.full(3, 1 / 3), days=1).path
    assert path.choices.tolist() == [0]


def test_belief_update_is_exact_averaging():
    game = SingleStageGame(np.array([1.0, 1.0]), np.array([0.5, 0.5]), 1.0, 12)
    path = fp_run(game, np.array([1.0, 0.0]), days=1).path
    # day one: everyone believed route 1 was crowded, so route 2 was chosen
    assert path.choices.tolist() == [1]
    np.testing.assert_array_equal(path.beliefs[1], [0.5, 0.5])


def test_the_whole_pulse_vector_is_averaged_in():
    """-0.0 + 0.0 is +0.0: an unchosen route's negative-zero belief turns positive on day one, as in the CSV."""
    game = SingleStageGame(np.array([1.0, 1.0, 10.0]), np.full(3, 1 / 3), 1.0, 20)
    path = fp_run(game, np.array([0.5, 0.5, -0.0]), days=1).path
    assert path.choices.tolist() == [0]
    assert np.signbit(path.beliefs[:, 2]).tolist() == [True, False]


def test_averaging_identity_holds_to_near_machine_precision(three_route_game):
    game = three_route_game(60)
    path = fp_run(game, np.array([0.7, 0.1, 0.2]), days=400).path
    for day in range(1, len(path.beliefs)):
        prev = path.beliefs[day - 1]
        pulse = np.zeros(3)
        pulse[path.choices[day - 1]] = 1.0
        # same identity, different association, so rounding paths differ
        expected = prev * (day / (day + 1)) + pulse / (day + 1)
        assert np.max(np.abs(path.beliefs[day] - expected)) <= 1e-14


def test_step_size_identity(three_route_game):
    game = three_route_game(35)
    path = fp_run(game, np.full(3, 1 / 3), days=300).path
    for day in range(1, len(path.beliefs)):
        jump = np.abs(path.beliefs[day] - path.beliefs[day - 1]).sum()
        held = path.beliefs[day - 1][path.choices[day - 1]]
        assert jump == pytest.approx(2.0 / (day + 1) * (1.0 - held), abs=1e-14)


def test_beliefs_stay_on_the_simplex(three_route_game):
    game = three_route_game(20)
    result = fp_run(game, np.array([0.9, 0.05, 0.05]), days=500)
    beliefs = np.array(result.path.beliefs)
    assert np.all(beliefs >= 0)
    np.testing.assert_allclose(beliefs.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_single_day_run_is_one_step(three_route_game):
    game = three_route_game(10)
    initial = np.full(3, 1 / 3)
    result = fp_run(game, initial, days=1)
    choice = int(np.argmin(assumed_cost(game, initial)))
    pulse = np.zeros(3)
    pulse[choice] = 1.0
    assert result.path.beliefs.shape == (2, 3) and result.path.choices.tolist() == [choice]
    np.testing.assert_array_equal(result.path.beliefs[1], (1 * initial + pulse) / 2)
    assert result.dist_to_mfe.shape == (2,)


def test_path_arrays_are_read_only(three_route_game):
    path = fp_run(three_route_game(10), np.full(3, 1 / 3), days=5).path
    assert path.beliefs.shape == (6, 3) and path.choices.shape == (5,)
    for array in (path.beliefs, path.choices):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_run_extends_every_prefix_run(three_route_game):
    """Day d of a long run is day d of the run stopped there."""
    game = three_route_game(30)
    long = fp_run(game, np.array([0.2, 0.3, 0.5]), days=60).path
    for days in (1, 7, 59):
        short = fp_run(game, np.array([0.2, 0.3, 0.5]), days=days).path
        assert short.beliefs.tobytes() == long.beliefs[: days + 1].tobytes()
        assert short.choices.tolist() == long.choices[:days].tolist()


def test_large_population_converges_near_the_mean_field_point(three_route_game):
    result = fp_run(three_route_game(200), np.full(3, 1 / 3), days=2000)
    assert result.dist_to_finite_ne[-1] <= 0.01
    assert result.dist_to_mfe[-1] <= 0.05


def test_small_population_shows_the_equilibrium_offset(three_route_game):
    result = fp_run(three_route_game(20), np.full(3, 1 / 3), days=4000)
    assert result.dist_to_mfe[-1] > result.dist_to_finite_ne[-1]


def test_smoothed_distance_to_equilibrium_is_nonincreasing(three_route_game):
    result = fp_run(three_route_game(50), np.full(3, 1 / 3), days=3000)
    window = 100
    dist = result.dist_to_finite_ne[1:]  # drop the arbitrary initial belief
    n_windows = len(dist) // window
    means = dist[: n_windows * window].reshape(n_windows, window).mean(axis=1)
    assert np.all(np.diff(means) <= 1e-12)


def test_run_rejects_bad_arguments(three_route_game):
    with pytest.raises(ValueError):
        fp_run(three_route_game(10), np.array([0.5, 0.2, 0.2]), days=10)
    with pytest.raises(ValueError):
        fp_run(three_route_game(10), np.full(3, 1 / 3), days=0)
    with pytest.raises(ValueError, match="simplex"):
        fp_run(three_route_game(10), np.full(3, np.nan), days=10)
    with pytest.raises(ValueError, match="2 entries for 3 routes"):
        fp_run(three_route_game(10), np.array([0.5, 0.5]), days=10)


def test_days_is_a_whole_number_of_at_least_one(three_route_game):
    game, initial = three_route_game(10), np.full(3, 1 / 3)
    three = fp_run(game, initial, 3).path.beliefs.tobytes()
    for days in (3.0, np.float64(3.0), np.int64(3)):
        assert fp_run(game, initial, days).path.beliefs.tobytes() == three
    for days in (2.5, np.float64(0.5), np.nan, np.inf):
        with pytest.raises(ValueError, match="^days must be an integer, got"):
            fp_run(game, initial, days)
    for days in (0, 0.0, -4):
        with pytest.raises(ValueError, match="^days must be >= 1$"):
            fp_run(game, initial, days)


def _same_bits(got, want) -> bool:
    return got.tobytes() == want.tobytes() and got.dtype == want.dtype


@st.composite
def fp_cases(draw):
    """A random game at a drawn N, a uniform, vertex or sparse start with 0.0 and -0.0 entries, and a day count.

    Half the games round the travel costs to integers and take a uniform
    reference, so that routes holding equal beliefs tie.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = random_game(rng)
    n_players = draw(st.sampled_from([1, 2, 20, 200, 257, 1000]))
    costs, reference = base.travel_cost, base.reference
    if draw(st.booleans()):
        costs, reference = np.round(costs), np.full(len(costs), 1.0 / len(costs))
    game = SingleStageGame(costs, reference, base.alpha, n_players)
    routes = game.route_count
    kind = draw(st.sampled_from(["uniform", "vertex", "sparse"]))
    if kind == "uniform":
        initial = np.full(routes, 1.0 / routes)
    else:
        # zeros of either sign off the support, which the first update turns into 0.0
        initial = np.where(rng.random(routes) < 0.5, -0.0, 0.0)
        support = rng.permutation(routes)[: 1 if kind == "vertex" else int(rng.integers(1, routes))]
        initial[support] = rng.dirichlet(np.ones(len(support)))
    days = draw(st.sampled_from([1, _LOOKAHEAD - 1, _LOOKAHEAD, _LOOKAHEAD + 1, 3 * _LOOKAHEAD + 2, 300]))
    return game, initial, days


@settings(max_examples=60)
@given(fp_cases())
def test_lookahead_matches_the_day_by_day_run_bit_for_bit(case):
    game, initial, days = case
    got, want = fp_run(game, initial, days), fp_run_day_by_day(game, initial, days)
    assert _same_bits(got.path.beliefs, want.path.beliefs)
    assert _same_bits(got.path.choices, want.path.choices)
    assert _same_bits(got.dist_to_finite_ne, want.dist_to_finite_ne)
    assert _same_bits(got.dist_to_mfe, want.dist_to_mfe)


def test_a_nan_cost_is_chosen_first_as_argmin_chooses_it(monkeypatch):
    """alpha near the float maximum and a tiny reference: the second route's toll is -inf - (-inf), a NaN, and argmin picks it."""
    with np.errstate(over="ignore", invalid="ignore"):
        game = SingleStageGame(np.zeros(3), np.array([0.5, 1e-300, 0.5 - 1e-300]), 1e308, 20)
        assert np.isnan(assumed_cost(game, np.array([1.0, 0.0, 0.0]))[1])
        # the solver finds no used route in this game; the days alone are compared
        uniform = type("Equilibrium", (), {"q": np.full(3, 1 / 3)})()
        for module in (fictitious_play, helpers):
            monkeypatch.setattr(module, "solve_symmetric_ne", lambda _: uniform)
        for initial in ([1.0, 0.0, 0.0], [0.9, 0.0, 0.1]):
            got, want = fp_run(game, initial, 9).path, fp_run_day_by_day(game, np.array(initial), 9).path
            assert got.choices.tolist() == want.choices.tolist()
            assert got.choices[0] == 1
            assert _same_bits(got.beliefs, want.beliefs)

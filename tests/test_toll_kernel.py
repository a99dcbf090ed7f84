"""The batched, windowed expected-toll kernel against its references.

The references (tests/helpers.py) are the full-support, exactly rounded
scalar kernel the batched one replaced, the batched kernel over Hoeffding
rectangles that the exact windows replaced, the sums over rows gathered k
by k that the broadcast table and the copied windows replaced, the plain
bisection that the Hoeffding-bracketed window search replaced, and the
per-element caller loops.  All kernels form every pmf term the same way, so they differ only
in how the terms are summed and in the terms the window drops.
"""

from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import gammaln

from helpers import (
    assumed_cost_loop,
    binomial_expected_log_share_scalar,
    expected_tax_gap_loop,
    expected_tax_table_loop,
    folded_costs,
    interior_log_shares_gather,
    interior_log_shares_hoeffding,
    random_game,
    random_scenario,
    shortest_path_loop,
    symmetric_ne_scalar,
    windows_bisection,
)
from mftroute import (
    SingleStageGame,
    assumed_cost,
    best_response_finite_n,
    build_gridworld,
    expected_tax_gap,
    expected_tax_symmetric,
    fp_run,
    mfe_solve,
    propagate,
    random_policy,
    solve_symmetric_ne,
)
from mftroute.cli import FIG4_ALPHA, FIG4_COSTS, FIG4_REFERENCE
from mftroute import finite_population
from mftroute.finite_population import (
    _CHUNK_FLOATS,
    _LOG_FLOOR,
    _WHOLE_SUPPORT,
    PROB_TOL,
    _binomial_tables,
    _interior_log_shares,
    _log_factorials,
    _shortest_path,
    _windows,
    binomial_expected_log_share,
)

PROBS = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 1e-16]),
    st.floats(-300.0, -1.0).map(lambda e: 10.0**e),
    st.floats(0.0, 1.0),
)
INTERIOR = st.one_of(
    st.sampled_from([1e-300, 0.5, 1.0 - 1e-16]),
    st.floats(-300.0, -1.0).map(lambda e: 10.0**e),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(-16.0, -1.0).map(lambda e: 1.0 - 10.0**e),
)


def _assert_close(ours: float, ref: float, rel: float) -> None:
    if ref == 0.0:
        assert ours == 0.0
    else:
        assert abs(ours - ref) <= rel * abs(ref), (ours, ref)


# ---------------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------------

@given(n_players=st.integers(1, 1000), prob=PROBS)
def test_kernel_matches_the_scalar_reference(n_players, prob):
    ours = binomial_expected_log_share(n_players, prob)
    assert isinstance(ours, float)
    _assert_close(ours, binomial_expected_log_share_scalar(n_players, prob), 1e-13)


@given(n_players=st.integers(1001, 5000), prob=PROBS)
def test_kernel_matches_the_scalar_reference_to_n_eps_at_large_n(n_players, prob):
    # both kernels carry ~N eps error from the gammaln differences, so a
    # flat bound between them cannot hold as N grows
    ours = binomial_expected_log_share(n_players, prob)
    _assert_close(ours, binomial_expected_log_share_scalar(n_players, prob), 2e-16 * n_players)


@pytest.mark.parametrize("n_players", [10_000, 100_000])
@pytest.mark.parametrize("prob", [1e-6, 0.01, 0.5, 0.99])
def test_window_drops_nothing_the_full_support_sum_keeps(n_players, prob):
    ours = binomial_expected_log_share(n_players, prob)
    _assert_close(ours, binomial_expected_log_share_scalar(n_players, prob), 1e-15)


@given(
    n_players=st.integers(1, 5000),
    probs=st.lists(PROBS, min_size=1, max_size=200),
    repeat=st.integers(1, 3),
)
def test_array_call_equals_elementwise_scalar_calls(n_players, probs, repeat):
    # repeats exercise the deduplication; 200 rows at N near 1000 span several chunks,
    # and above _WHOLE_SUPPORT players one call sums rows of several window widths
    batch = np.array(probs * repeat).reshape(repeat, -1)
    shares = binomial_expected_log_share(n_players, batch)
    assert shares.shape == batch.shape
    expected = [binomial_expected_log_share(n_players, p) for p in probs] * repeat
    np.testing.assert_array_equal(shares.ravel(), expected)


def test_kernel_boundaries_nan_and_bad_population():
    shares = binomial_expected_log_share(7, np.array([-0.0, 0.0, 1.0, 1.0 + PROB_TOL]))
    np.testing.assert_array_equal(shares, [math.log(1 / 7), math.log(1 / 7), 0.0, 0.0])
    for bad in (-0.5, 2.0, np.nan, 1.0 + 2 * PROB_TOL):
        with pytest.raises(ValueError, match=r"^probabilities must lie in \[0, 1\]$"):
            binomial_expected_log_share(7, np.array([0.0, 0.5, bad]))
    with pytest.raises(ValueError):
        binomial_expected_log_share(0, 0.5)


@pytest.mark.parametrize("n_players", [7, _WHOLE_SUPPORT + 1])
def test_an_empty_call_gives_an_empty_result(n_players):
    assert binomial_expected_log_share(n_players, np.array([])).shape == (0,)
    assert _interior_log_shares(n_players, np.array([])).shape == (0,)


def _assert_same_bits(ours: np.ndarray, ref: np.ndarray) -> None:
    assert ours.dtype == ref.dtype == np.float64
    bad = ours.view(np.int64) != ref.view(np.int64)
    assert not bad.any(), (np.flatnonzero(bad)[:5], ours[bad][:5], ref[bad][:5])


def test_log_factorials_are_gammaln_bit_for_bit():
    # every x = k + 1 from 1 to 2**21, each edge of lgam's branches at x = 13, 1000 and 1e8,
    # and seeded random k up to 2**40, nearly all above 1e8, where no series term is added
    every = np.arange(2**21)
    edges = np.array([x - 1 + d for x in (13, 1000, 10**8) for d in (-1, 0, 1)])
    spread = np.random.default_rng(30).integers(0, 2**40, 200_000)
    for k in (every, edges, spread):
        _assert_same_bits(_log_factorials(k), gammaln(k + 1))


@pytest.mark.parametrize(
    "n_players", [1, 2, 3, 12, 13, 14, 50, _WHOLE_SUPPORT, _WHOLE_SUPPORT + 1, 999, 1000, 1001, 1002, 20_000, 100_000]
)
def test_binomial_coefficients_are_the_gammaln_expression_bit_for_bit(n_players):
    n = n_players - 1
    k = np.arange(n + 1)
    _assert_same_bits(_binomial_tables(n_players)[0], gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))


@pytest.mark.parametrize("bad", [1.5, -0.2, math.nan])
def test_kernel_and_route_costs_reject_a_probability_outside_the_unit_interval(bad):
    message = r"^probabilities must lie in \[0, 1\]$"
    with pytest.raises(ValueError, match=message):
        binomial_expected_log_share(10, bad)
    game = SingleStageGame(np.array(FIG4_COSTS), np.array(FIG4_REFERENCE), FIG4_ALPHA, 10)
    with pytest.raises(ValueError, match=message):
        assumed_cost(game, np.array([0.3, bad, 0.2]))


@given(
    n_players=st.one_of(st.integers(1, 5000), st.sampled_from([10_000, 100_000])),
    probs=st.lists(INTERIOR, min_size=1, max_size=50),
)
def test_windowed_kernel_matches_the_hoeffding_rectangle(n_players, probs):
    probs = np.unique(probs)
    ours = _interior_log_shares(n_players, probs)
    ref = interior_log_shares_hoeffding(n_players, probs)
    bad = np.abs(ours - ref) > 1e-15 * np.abs(ref)
    assert not bad.any(), (probs[bad], ours[bad], ref[bad])


@pytest.mark.parametrize("n_players", [2, 100, _WHOLE_SUPPORT, _WHOLE_SUPPORT + 1, 1000, 5000, 100_000])
def test_terms_outside_the_window_are_exact_zeros(n_players):
    # the kernel sums the whole support up to _WHOLE_SUPPORT players and these rectangles above it
    probs = np.array([1e-300, 1e-200, 1e-12, 1e-3, 0.3, 0.5, 1.0 - 1e-9, 1.0 - 1e-16])
    coeffs, *_ = _binomial_tables(n_players)
    log_p, log_q = np.array([math.log(p) for p in probs]), np.array([math.log1p(-p) for p in probs])
    starts, widths = _windows(coeffs, probs, log_p, log_q)
    k = np.arange(n_players)
    for p, start, width in zip(probs, starts.tolist(), widths.tolist()):
        # the full-support log pmf, each term formed as the kernel forms it
        log_pmf = coeffs + k * math.log(p) + (n_players - 1 - k) * math.log1p(-p)
        inside = (k >= start) & (k < start + width)
        assert start >= 0 and start + width <= n_players
        assert np.all(np.exp(log_pmf[~inside]) == 0.0), p
        # the least power of two that holds every k with log pmf >= _LOG_FLOOR, or N
        kept = int(np.count_nonzero(log_pmf >= _LOG_FLOOR))
        assert kept <= width and (width == n_players or width < 2 * kept), (p, kept, width)


@given(
    n_players=st.one_of(
        st.integers(1, _WHOLE_SUPPORT), st.integers(_WHOLE_SUPPORT + 1, 5000), st.sampled_from([10_000, 100_000])
    ),
    probs=st.lists(INTERIOR, min_size=1, max_size=300),
)
# windows that hold many terms with log pmf in [_LOG_FLOOR, log DBL_MIN): the kernel skips them, the reference keeps them
@example(n_players=256, probs=[1e-3])
@example(n_players=1000, probs=[0.3])
@example(n_players=100_000, probs=[0.5])
def test_kernel_sum_is_bit_identical_to_the_gathered_rows(n_players, probs):
    # up to 300 rows span several row blocks above 218 players; above 256
    # players the windows are copied as whole rows, the reference gathers each k
    probs = np.unique(probs + [1e-300, 1.0 - 1e-16])
    ours = _interior_log_shares(n_players, probs)
    assert ours.tobytes() == interior_log_shares_gather(n_players, probs).tobytes()


def test_exp_is_never_handed_a_term_with_a_sub_normal_pmf(monkeypatch):
    log_tiny = math.log(np.finfo(np.float64).tiny)
    cases = [(256, 1e-3), (1000, 0.3), (100_000, 0.5)]
    # each case sums terms between _LOG_FLOOR and log DBL_MIN, whose pmf exp() would round to a
    # sub-normal: every window holds all the k whose log pmf is at least _LOG_FLOOR
    for n_players, p in cases:
        coeffs = _binomial_tables(n_players)[0]
        k = np.arange(n_players)
        log_pmf = coeffs + k * math.log(p) + (n_players - 1 - k) * math.log1p(-p)
        assert np.count_nonzero((log_pmf >= _LOG_FLOOR) & (log_pmf < log_tiny)) >= 5, (n_players, p)
    lowest = []
    exp = np.exp

    def spy(x, out=None, where=True, **kwargs):
        lowest.append(np.min(x, where=where, initial=np.inf))
        return exp(x, out=out, where=where, **kwargs)

    monkeypatch.setattr(np, "exp", spy)
    for n_players, p in cases:
        _interior_log_shares(n_players, np.array([p, 1e-300, 0.5]))
    assert lowest and min(lowest) >= log_tiny


@given(
    n_players=st.one_of(st.integers(_WHOLE_SUPPORT + 1, 5000), st.sampled_from([10_000, 100_000])),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 1200),
)
@example(n_players=1000, seed=0, count=3)
@example(n_players=100_000, seed=1, count=1200)
def test_window_search_ends_where_the_plain_bisection_does(n_players, seed, count):
    # each end starts from the nearer of Hoeffding's bound and the support's end
    rng = np.random.default_rng(seed)
    pool = np.concatenate(
        [
            [1e-300, 0.5, 1.0 - 1e-16],
            10.0 ** rng.uniform(-300.0, -1.0, count),
            rng.uniform(0.0, 1.0, count),
            1.0 - 10.0 ** rng.uniform(-16.0, -1.0, count),
        ]
    )
    probs = np.unique(rng.choice(pool, count))
    probs = probs[(probs > 0.0) & (probs < 1.0)]
    coeffs = _binomial_tables(n_players)[0]
    log_p, log_q = np.array([math.log(p) for p in probs]), np.array([math.log1p(-p) for p in probs])
    for ours, ref in zip(_windows(coeffs, probs, log_p, log_q), windows_bisection(coeffs, probs, log_p, log_q)):
        np.testing.assert_array_equal(ours, ref)


def test_whole_support_sum_stays_in_row_blocks():
    # one (200 000, 256) table of terms would be 410 MB; the sum holds a few
    # blocks of _CHUNK_FLOATS terms next to its per-probability vectors
    probs = np.linspace(1e-6, 1.0 - 1e-6, 200_000)
    _binomial_tables(_WHOLE_SUPPORT)
    tracemalloc.start()
    try:
        _interior_log_shares(_WHOLE_SUPPORT, probs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (4 * len(probs) + 6 * _CHUNK_FLOATS), peak


def test_route_game_is_bit_identical_with_the_gathered_whole_support_sum(monkeypatch):
    rng = np.random.default_rng(67)
    games = [random_game(rng, _WHOLE_SUPPORT + 1) for _ in range(12)]
    beliefs = [rng.dirichlet(np.ones(game.route_count)) for game in games]

    def outputs():
        rows = []
        for game, belief in zip(games, beliefs):
            run = fp_run(game, belief, 80)
            ne = solve_symmetric_ne(game)
            arrays = (run.path.beliefs, run.path.choices, run.dist_to_finite_ne, run.dist_to_mfe, ne.q, ne.residuals)
            rows.append([np.asarray(a).tobytes() for a in arrays] + [ne.lam])
        return rows

    ours = outputs()
    monkeypatch.setattr(finite_population, "_interior_log_shares", interior_log_shares_gather)
    assert outputs() == ours


# ---------------------------------------------------------------------------
# Callers against their scalar loops
# ---------------------------------------------------------------------------

def test_tax_table_and_gap_match_scalar_loops():
    rng = np.random.default_rng(61)
    for _ in range(6):
        scenario = random_scenario(rng, max_nodes=6, max_horizon=4)
        policy = random_policy(scenario, rng)
        node_probs = propagate(scenario, policy).distributions[:-1, scenario.graph.edge_src]
        n_list = [1, 2, int(rng.integers(3, 60)), 500]
        for n in n_list:
            table = expected_tax_symmetric(n, node_probs, policy.probs, scenario.reference.probs, scenario.alpha)
            np.testing.assert_allclose(
                table,
                expected_tax_table_loop(scenario, policy, n),
                rtol=0,
                atol=1e-12,
            )
        gaps = expected_tax_gap(scenario, policy, n_list)
        for n, gap in expected_tax_gap_loop(scenario, policy, n_list).items():
            assert gaps[n] == pytest.approx(gap, abs=1e-12)


def test_expected_tax_symmetric_broadcasts_like_scalar_calls():
    rng = np.random.default_rng(62)
    node = rng.uniform(0, 1, size=(4, 1))
    edge = rng.uniform(0, 1, size=(1, 5))
    ref = rng.uniform(0.1, 0.9, size=5)
    taxes = expected_tax_symmetric(40, node, edge, ref, 0.7)
    assert taxes.shape == (4, 5)
    for i in range(4):
        for e in range(5):
            assert taxes[i, e] == expected_tax_symmetric(40, node[i, 0], edge[0, e], ref[e], 0.7)


def test_assumed_cost_matches_scalar_loop():
    rng = np.random.default_rng(63)
    for _ in range(20):
        game = random_game(rng, 400)
        belief = rng.dirichlet(np.ones(game.route_count))
        belief[rng.integers(game.route_count)] = 0.0
        np.testing.assert_allclose(assumed_cost(game, belief), assumed_cost_loop(game, belief), rtol=0, atol=1e-12)


def test_symmetric_ne_matches_scalar_nested_bisection():
    rng = np.random.default_rng(64)
    for _ in range(5):
        game = random_game(rng, 30)
        result = solve_symmetric_ne(game)
        np.testing.assert_allclose(result.q, symmetric_ne_scalar(game), rtol=0, atol=1e-10)
        assert result.residuals.max() <= 1e-9


# fig4 fictitious-play route choices over 3000 days, recorded with the full-support scalar kernel
FIG4_CHOICES = {
    20: ("82337092ec61d001f86caa15bbc91ed0d50c864c2f759bc42a6b0535305b6a68", [718, 2100, 182]),
    200: ("23b29b20f6c346ffa60ad9c79e4ad77ecefef6bd240e642fe70443327e9ff46c", [732, 2003, 265]),
}


@pytest.mark.parametrize("n_players", sorted(FIG4_CHOICES))
def test_fig4_fictitious_play_choices_are_unchanged(n_players):
    game = SingleStageGame(np.array(FIG4_COSTS), np.array(FIG4_REFERENCE), FIG4_ALPHA, n_players)
    choices = np.array(fp_run(game, np.full(3, 1 / 3), 3000).path.choices, dtype=np.int8)
    digest, counts = FIG4_CHOICES[n_players]
    assert np.bincount(choices, minlength=3).tolist() == counts
    assert hashlib.sha256(choices.tobytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# Best-response argmin
# ---------------------------------------------------------------------------

def _random_grid(rng: np.random.Generator):
    width, height = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    cells = width * height
    origin, destination = rng.choice(cells, size=2, replace=False)
    free = np.setdiff1d(np.arange(cells), [origin, destination])
    obstacles = rng.choice(free, size=int(rng.integers(0, len(free) // 3 + 1)), replace=False)
    return build_gridworld(width, height, obstacles, int(origin), int(destination), int(rng.integers(1, 8)), 0.5)


def test_segment_argmin_is_bit_identical_to_the_per_node_loop_under_ties():
    rng = np.random.default_rng(65)
    for _ in range(20):
        scenario = _random_grid(rng) if rng.random() < 0.5 else random_scenario(rng, max_nodes=8)
        g = scenario.graph
        # few distinct integer costs force exact ties in every row
        total_cost = rng.integers(0, 3, size=(scenario.horizon, g.edge_count)).astype(np.float64)
        probs, values = _shortest_path(g, total_cost)
        loop_probs, loop_values = shortest_path_loop(g, total_cost)
        np.testing.assert_array_equal(probs, loop_probs)
        np.testing.assert_array_equal(values, loop_values)


def _assert_best_response_matches_the_loop(scenario, n_players: int) -> None:
    """The best response equals the shortest-path loop over the folded costs plus the whole-table taxes."""
    population = mfe_solve(scenario).policy
    br = best_response_finite_n(scenario, population, n_players)
    node_probs = propagate(scenario, population).distributions[:-1, scenario.graph.edge_src]
    tax = expected_tax_symmetric(
        n_players, node_probs, population.probs, scenario.reference.probs, scenario.alpha
    )
    total_cost = folded_costs(scenario) + tax
    loop_probs, loop_values = shortest_path_loop(scenario.graph, total_cost)
    np.testing.assert_array_equal(br.policy.probs, loop_probs)
    np.testing.assert_array_equal(br.state_values, loop_values)


def test_best_response_on_random_grids_matches_the_loop():
    rng = np.random.default_rng(66)
    for _ in range(5):
        scenario = _random_grid(rng)
        _assert_best_response_matches_the_loop(scenario, int(rng.integers(2, 200)))


def test_best_response_on_a_per_stage_reference_matches_the_whole_table_log():
    # random_scenario draws a reference per stage, where the best response logs the table itself
    rng = np.random.default_rng(69)
    for _ in range(8):
        scenario = random_scenario(rng)
        _assert_best_response_matches_the_loop(scenario, int(rng.integers(2, 200)))

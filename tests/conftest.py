from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from mftroute import SingleStageGame
from mftroute.cli import three_route_scenario

# Property tests draw the same examples on every run and have no per-example
# deadline, so a loaded machine cannot make them flaky.
settings.register_profile("mftroute", deadline=None, derandomize=True, database=None, max_examples=100)
settings.load_profile("mftroute")


@pytest.fixture
def three_route():
    """One-stage network form of the three parallel-route game."""
    return three_route_scenario()


@pytest.fixture
def three_route_game():
    def make(n_players: int) -> SingleStageGame:
        return SingleStageGame(
            np.array([2.0, 1.0, 3.0]), np.array([1.0, 1.0, 1.0]) / 3.0, 1.0, n_players
        )

    return make

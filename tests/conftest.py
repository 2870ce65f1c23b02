import hypothesis
import pytest

from fedpart import decomposition
from fedpart.equilibrium import solve_gpm

# Property tests run LP solves and game builds whose wall-clock varies a lot
# between machines; deadlines would only add flakes.
hypothesis.settings.register_profile(
    "fedpart",
    deadline=None,
    max_examples=50,
    derandomize=True,
)
hypothesis.settings.load_profile("fedpart")


@pytest.fixture
def solves(monkeypatch):
    """Every game `decomposition.SolvedGames` hands to `solve_gpm`, as its
    tuple of device sizes."""
    seen = []

    def spy(devices, *args, **kwargs):
        seen.append(tuple(d.data_size for d in devices))
        return solve_gpm(devices, *args, **kwargs)

    monkeypatch.setattr(decomposition, "solve_gpm", spy)
    return seen

import pytest

from rieszlab import ProcessModel, Seed, generators


@pytest.fixture(scope="session")
def replicas():
    """Sampler helper shared across test modules: the batch of n replicas
    drawn from ``Seed(master)``."""

    def draw(model: ProcessModel, R: float, n: int, master: int = 1234):
        return generators.sample(model, float(R), n, Seed(master))

    return draw

import pytest

from rieszlab import ProcessModel, Seed, generators


@pytest.fixture(scope="session")
def replicas():
    """Sampler helper shared across test modules (seeded, cached per call)."""

    def draw(model: ProcessModel, R: float, n: int, master: int = 1234):
        return list(generators.replicas(model, float(R), n, Seed(master)))

    return draw

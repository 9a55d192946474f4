import tracemalloc

import pytest

from rieszlab import DomainError, ProcessModel, Seed, generators


@pytest.fixture(scope="session")
def replicas():
    """Sampler helper shared across test modules: the batch of n replicas
    drawn from ``Seed(master)``."""

    def draw(model: ProcessModel, R: float, n: int, master: int = 1234):
        return generators.sample(model, float(R), n, Seed(master))

    return draw


@pytest.fixture(scope="session")
def rejected_before_allocation():
    """Check that ``call()`` raises the batch limit's ``DomainError`` while
    tracemalloc's peak stays below 64 KiB: before any array its input sizes."""

    def check(call):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="a batch may hold"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    return check

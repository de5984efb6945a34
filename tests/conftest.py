import pytest

from dlrt import checkpoint, cli, data, integrators, linalg, lowrank, nn


@pytest.fixture(autouse=True)
def fresh_builds():
    """Every test builds its networks itself: none passes on a network
    that ``nn.build_network`` kept for another test."""
    nn._kept_network.cache_clear()


@pytest.fixture
def as_matrix_calls(monkeypatch):
    """Names passed to ``linalg.as_matrix``, through every dlrt module's
    binding of it, in call order."""
    calls = []
    original = linalg.as_matrix

    def counted(a, name="matrix"):
        calls.append(name)
        return original(a, name)

    for module in (checkpoint, cli, data, integrators, linalg, lowrank, nn):
        if getattr(module, "as_matrix", None) is original:
            monkeypatch.setattr(module, "as_matrix", counted)
    return calls

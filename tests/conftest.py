import pytest

from dlrt import checkpoint, cli, data, integrators, linalg, lowrank, nn


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

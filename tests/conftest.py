import pytest

from mrnet import _kernel


@pytest.fixture
def numpy_loop(monkeypatch):
    """Run on the numpy engine, as if no kernel could be built."""
    monkeypatch.setattr(_kernel, "_loaded", None)

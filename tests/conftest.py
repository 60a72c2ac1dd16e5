import pytest

from mrnet import _kernel


@pytest.fixture
def numpy_loop(monkeypatch):
    """Train through the numpy step loop, as if no kernel could be built."""
    monkeypatch.setattr(_kernel, "_loaded", None)

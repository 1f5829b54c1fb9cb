import numpy as np
import pytest


@pytest.fixture
def eig_calls(monkeypatch):
    """Matrix side of each `np.linalg.eigh` / `eigvalsh` call, by function name.

    A broadcasting call on a (N, d, d) stack records one entry, d.
    """
    calls = {"eigh": [], "eigvalsh": []}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls[_name].append(np.shape(a)[-1])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls

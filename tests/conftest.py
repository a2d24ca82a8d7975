"""Fixtures shared by the test modules."""

import pytest

from drifttune import kernels


@pytest.fixture
def kernel_rows(monkeypatch):
    """The row count of each call that reaches ``kernels.predict_indices``,
    in call order; the classifier calls it through the module attribute."""
    rows = []

    def counting(X, params, _kernel=kernels.predict_indices):
        rows.append(X.shape[0])
        return _kernel(X, params)

    monkeypatch.setattr(kernels, "predict_indices", counting)
    return rows

"""Numerically hot kernels, with optional numba acceleration.

Both code paths are always importable: ``*_numpy`` variants are vectorized
numpy, ``*_numba`` variants are njit-compiled loops (``None`` when numba is
missing). The active pair is picked once at import time; set
``DRIFTTUNE_NUMBA=0`` to force the numpy path. ``benchmarks/bench_kernels.py``
times the two side by side.

``class_stats`` runs once per chunk, over the chunk's own label set: the
classifier caches the result on the chunk and merges it into each model
that trains on that chunk. ``predict_indices`` runs once per predict call.
"""

from __future__ import annotations

import math
import os

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)


def _env_wants_numba() -> bool:
    return os.environ.get("DRIFTTUNE_NUMBA", "1").strip().lower() not in ("0", "false", "off")


NUMBA_ENABLED = False
if _env_wants_numba():
    try:
        from numba import njit

        NUMBA_ENABLED = True
    except ImportError:  # pragma: no cover - numba is a hard dep, but stay usable
        pass


def predict_indices_numpy(X, log_priors, means, variances):
    """Index of the most probable class per row; ties go to the lowest index.

    ``variances`` must already be floored to positive values.
    """
    diff = X[:, None, :] - means[None, :, :]
    log_like = -0.5 * (_LOG_2PI + np.log(variances)) - diff * diff / (2.0 * variances)
    joint = log_priors[None, :] + log_like.sum(axis=2)
    return np.argmax(joint, axis=1)


def class_stats_numpy(X, y_idx, n_classes):
    """Per-class count, mean, and sum of squared deviations for one chunk."""
    n_features = X.shape[1]
    counts = np.zeros(n_classes)
    means = np.zeros((n_classes, n_features))
    m2 = np.zeros((n_classes, n_features))
    for c in range(n_classes):
        rows = X[y_idx == c]
        if rows.shape[0] == 0:
            continue
        counts[c] = rows.shape[0]
        mu = rows.mean(axis=0)
        means[c] = mu
        m2[c] = ((rows - mu) ** 2).sum(axis=0)
    return counts, means, m2


predict_indices_numba = None
class_stats_numba = None

if NUMBA_ENABLED:

    @njit(cache=True)
    def _predict_indices_jit(X, log_priors, means, variances):
        n, d = X.shape
        k = means.shape[0]
        out = np.empty(n, np.int64)
        for i in range(n):
            best = 0
            best_ll = -np.inf
            for c in range(k):
                ll = log_priors[c]
                for j in range(d):
                    v = variances[c, j]
                    diff = X[i, j] - means[c, j]
                    ll += -0.5 * (_LOG_2PI + np.log(v)) - diff * diff / (2.0 * v)
                if ll > best_ll:  # strict keeps the lowest index on exact ties
                    best_ll = ll
                    best = c
            out[i] = best
        return out

    @njit(cache=True)
    def _class_stats_jit(X, y_idx, n_classes):
        n, d = X.shape
        counts = np.zeros(n_classes)
        means = np.zeros((n_classes, d))
        m2 = np.zeros((n_classes, d))
        for i in range(n):
            c = y_idx[i]
            counts[c] += 1.0
            cn = counts[c]
            for j in range(d):
                delta = X[i, j] - means[c, j]
                means[c, j] += delta / cn
                m2[c, j] += delta * (X[i, j] - means[c, j])
        return counts, means, m2

    predict_indices_numba = _predict_indices_jit
    class_stats_numba = _class_stats_jit


if NUMBA_ENABLED:
    predict_indices = predict_indices_numba
    class_stats = class_stats_numba
else:
    predict_indices = predict_indices_numpy
    class_stats = class_stats_numpy

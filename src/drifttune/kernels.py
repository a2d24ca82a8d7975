"""Numerically hot kernels, with optional numba acceleration.

Both code paths are always importable: ``*_numpy`` variants are vectorized
numpy, ``*_numba`` variants are njit-compiled loops (``None`` when numba is
missing). The active pair is picked once at import time; set
``DRIFTTUNE_NUMBA=0`` to force the numpy path. ``benchmarks/bench_kernels.py``
times the two side by side.

``class_stats`` runs once per chunk, over the chunk's own label set: the
classifier caches the result on the chunk and merges it into each model
that trains on that chunk. ``predict_indices`` runs once per predict call.

The numpy kernels are feature-major: predict keeps its log-densities in a
(features, classes, rows) block instead of a broadcast (rows, classes,
features) one, and ``class_stats`` works one feature column at a time.
Every floating-point operation, and the order of every sum, is the one
the broadcast formulation uses, so their outputs are bit-identical to it:
predict adds the per-feature slabs in the order of numpy's contiguous
add-reduce (``_pairwise_sum``), and ``class_stats`` sums each class's
rows one after another with a weighted ``bincount``. The numba pair computes the same
quantities but not the same bits: its ``class_stats`` is a one-pass
Welford update.
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


_PAIRWISE_BLOCK = 128  # numpy's PW_BLOCKSIZE


def _pairwise_sum(terms):
    """Sum a sequence of equal-shape arrays (or an array along its first axis)
    in the order numpy's contiguous add-reduce uses.

    ``np.stack(terms, axis=-1).sum(axis=-1)`` gives the same bits: left to
    right below 8 terms, eight lanes combined pairwise up to 128 terms, and
    halves (the first rounded down to a multiple of 8) above that.
    """
    n = len(terms)
    if n < 8:
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total
    if n <= _PAIRWISE_BLOCK:
        lanes = list(terms[:8])
        stop = n - n % 8
        for i in range(8, stop, 8):
            lanes = [lane + term for lane, term in zip(lanes, terms[i:i + 8])]
        total = (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
                 + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])))
        for term in terms[stop:]:
            total = total + term
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


def predict_indices_numpy(X, log_priors, means, variances):
    """Index of the most probable class per row; ties go to the lowest index.

    ``variances`` must already be floored to positive values. The
    log-densities live in a feature-major (features, classes, rows) block,
    so each feature's terms are one contiguous slab, and the slabs are
    added in the order a reduction over a trailing feature axis uses: the
    joint log-likelihoods are bit-identical to those of the broadcast
    (rows, classes, features) form.
    """
    n_rows, n_features = X.shape
    log_like = np.subtract(X.T[:, None, :], means.T[:, :, None],
                           out=np.empty((n_features, means.shape[0], n_rows)))
    log_like *= log_like
    log_like /= (2.0 * variances).T[:, :, None]
    np.subtract((-0.5 * (_LOG_2PI + np.log(variances))).T[:, :, None], log_like, out=log_like)
    joint = log_priors[:, None] + _pairwise_sum(log_like)
    return joint.argmax(axis=0)


def _class_stats_gathered(X, y_idx, n_classes):
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


def class_stats_numpy(X, y_idx, n_classes):
    """Per-class count, mean, and sum of squared deviations for one chunk.

    Weighted ``bincount`` adds each class's rows one after another, which is
    how numpy reduces a gathered multi-column block over its rows, so the
    results are bit-identical to per-class ``rows.mean(axis=0)`` and
    ``((rows - mu) ** 2).sum(axis=0)``. A single contiguous column is
    summed pairwise by numpy instead, so one-feature chunks keep the
    per-class gather. Classes without rows get zeros.
    """
    if X.shape[1] == 1:
        return _class_stats_gathered(X, y_idx, n_classes)
    counts = np.bincount(y_idx, minlength=n_classes).astype(np.float64)
    seen = counts > 0
    means = np.zeros((n_classes, X.shape[1]))
    m2 = np.zeros((n_classes, X.shape[1]))
    for j, x in enumerate(X.T):
        sums = np.bincount(y_idx, weights=x, minlength=n_classes)
        mu = np.divide(sums, counts, out=np.zeros(n_classes), where=seen)
        means[:, j] = mu
        dev = x - mu[y_idx]
        m2[:, j] = np.bincount(y_idx, weights=dev * dev, minlength=n_classes)
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

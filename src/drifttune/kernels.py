"""Numerically hot kernels: the Gaussian naive Bayes predict and the
per-chunk class statistics, in numpy.

``class_stats`` runs once per chunk, over the chunk's own label set: the
classifier caches the result on the chunk and merges it into each model
that trains on that chunk. ``predict_params`` runs once per model state:
the classifier caches its per-model constants until the next ``train``.
``predict_indices`` runs once per predict call that the classifier cannot
serve from labels it computed ahead: a model that has stopped training
scores the rest of a window of chunks in one call, and every model, race
candidates included, scores through it.

These run on every chunk, so they keep the number of numpy calls small:
predict keeps its log-densities in a feature-major (features, classes,
rows) block instead of a broadcast (rows, classes, features) one and
takes the best class with one pass per class (``argmax_classes``),
``class_stats`` takes its class counts from the caller and makes two
weighted ``bincount`` calls over all features, and both write their
temporaries in place. Every floating-point operation, and the order of every sum, is the one
the broadcast formulation uses, so their outputs are bit-identical to it:
predict adds the per-feature slabs in the order of numpy's contiguous
add-reduce (``_pairwise_sum``), and ``class_stats`` sums each class's
rows one after another.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ModelError

_LOG_2PI = math.log(2.0 * math.pi)

# there is one kernel path; environment records still read this flag
NUMBA_ENABLED = False


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


def predict_params(log_priors, means, variances):
    """The per-model constants of ``predict_indices``, feature-major.

    ``variances`` must already be floored to positive values. Returns the
    log priors as a (classes, 1) column and, shaped (features, classes, 1)
    to broadcast over rows, the means, twice the variances and the log
    normalizers ``-0.5 * (log 2pi + log var)``, computed in place on an
    array of their own. They are read-only views, so model copies can share
    them; the means view aliases ``means``, which must not be written in
    place afterwards. No input is written.
    """
    log_norms = np.log(variances)
    log_norms += _LOG_2PI
    log_norms *= -0.5
    params = (log_priors[:, None],
              means.T[:, :, None],
              (2.0 * variances).T[:, :, None],
              log_norms.T[:, :, None])
    for array in params:
        array.setflags(write=False)
    return params


def argmax_classes(joint):
    """``joint.argmax(axis=0)`` for a (classes, rows) block, one vectorized
    pass per class instead of a reduction along the short class axis.

    A class replaces the running best only where it is strictly greater, so
    ties go to the lowest index. Rows of finite and ``-inf`` scores match
    ``argmax``, and so do all-NaN rows (index 0); ``predict_indices`` passes
    only rows with a finite best score.
    """
    n_classes, n_rows = joint.shape
    if n_classes == 1:
        return np.zeros(n_rows, dtype=np.intp)
    idx = (joint[1] > joint[0]).astype(np.intp)
    best = joint[0]
    for c in range(2, n_classes):
        best = np.maximum(best, joint[c - 1])
        np.copyto(idx, c, where=joint[c] > best)
    return idx


def predict_indices(X, params):
    """Index of the most probable class per row; ties go to the lowest index.

    ``params`` comes from ``predict_params``. The feature slabs of the
    (features, classes, rows) log-density block are added in the order a
    reduction over a trailing feature axis uses. A row that scores NaN for
    a class, or -inf for every class, raises ModelError instead of taking
    index 0: one sum over the joint block shows whether any entry is not
    finite, and only then are the rows checked one by one.
    """
    log_priors, means, two_variances, log_norms = params
    n_rows, n_features = X.shape
    log_like = np.subtract(X.T[:, None, :], means,
                           out=np.empty((n_features, means.shape[1], n_rows)))
    log_like *= log_like
    log_like /= two_variances
    np.subtract(log_norms, log_like, out=log_like)
    joint = log_priors + _pairwise_sum(log_like)
    if not math.isfinite(joint.sum()):
        bad = np.flatnonzero(~(joint.max(axis=0) > -math.inf))
        if bad.shape[0]:
            raise ModelError(f"row {bad[0]} has no finite best class score: a class scores "
                             "NaN, or every class scores -inf; see the supported feature range")
    return argmax_classes(joint)


def _class_stats_gathered(X, y_idx, counts):
    means = np.zeros((counts.shape[0], X.shape[1]))
    m2 = np.zeros_like(means)
    for c in np.flatnonzero(counts):
        rows = X[y_idx == c]
        mu = rows.mean(axis=0)
        means[c] = mu
        m2[c] = ((rows - mu) ** 2).sum(axis=0)
    return means, m2


def class_stats(X, y_idx, counts):
    """Per-class count, mean, and sum of squared deviations for one chunk.

    ``counts`` holds each class's number of rows in ``y_idx``, as the
    caller's relabelling pass already counted them; it comes back as floats.
    Two weighted ``bincount`` calls over the row-major ``X.ravel()``, with
    bin ``class * features + feature``, give the sums and the M2 of every
    feature. The bin array is filled one feature column at a time, which
    costs half of a broadcast add with a ``features``-long inner loop, and
    stays row-major: feature-major bins were slower, as consecutive adds then
    hit the same two bins. A bin adds its rows one after another, which is
    how numpy reduces a gathered multi-column block over its rows, so the
    results are bit-identical to per-class ``rows.mean(axis=0)`` and
    ``((rows - mu) ** 2).sum(axis=0)``. A single contiguous column is
    summed pairwise by numpy instead, so one-feature chunks keep the
    per-class gather. Classes without rows get zeros.
    """
    counts = counts.astype(np.float64)
    n_rows, n_features = X.shape
    if n_features == 1:
        return (counts, *_class_stats_gathered(X, y_idx, counts))
    bins = np.empty((n_rows, n_features), dtype=np.intp)
    base = y_idx * n_features
    for j in range(n_features):
        np.add(base, j, out=bins[:, j])
    bins = bins.ravel()
    n_classes = counts.shape[0]
    size = n_classes * n_features
    means = np.bincount(bins, weights=X.ravel(), minlength=size).reshape(n_classes, n_features)
    # a class without rows has zero sums, which a divisor of 1 keeps
    means /= np.maximum(counts, 1.0)[:, None]
    dev = means.ravel().take(bins)  # each entry's own class mean
    np.subtract(X.ravel(), dev, out=dev)
    dev *= dev
    m2 = np.bincount(bins, weights=dev, minlength=size).reshape(n_classes, n_features)
    return counts, means, m2

"""Numerically hot kernels: the Gaussian naive Bayes predict and the
per-chunk class statistics, in numpy.

``class_stats`` runs once per chunk, over the chunk's own label set: the
classifier caches the result on the chunk and merges it once per model
state that trains on that chunk. ``predict_params`` runs once per model
state, which every model that trained on the same chunks shares.
``predict_indices`` runs once per score that the classifier cannot serve
from the correct-label counts a state keeps, over every chunk of the window
that the threshold policy will score with the model unchanged; every model
scores through it.

These run on every chunk, so they keep the number of numpy calls small:
predict keeps its log-densities in a feature-major (features, classes,
rows) block instead of a broadcast (rows, classes, features) one and
takes the best class with one pass per class (``argmax_classes``),
``class_stats`` takes its class counts from the caller and makes two
weighted ``bincount`` calls over all features, and both write their
temporaries in place: predict adds its feature slabs into the first sum it
makes and its log priors into that total (float addition commutes exactly),
and checks the joint block with one add-reduce.

Every sum runs in the order its own layout gives, with one path per
kernel: predict adds the feature slabs left to right (``_feature_sum``),
and ``class_stats`` adds each class's rows one after another. For 2 to 7
features that is also the order of numpy's add-reduce over the broadcast
formulation's trailing feature axis, so there the outputs are
bit-identical to it; with 8 or more features numpy sums pairwise, and a
one-feature chunk's per-class gather is one contiguous column that numpy
sums pairwise too, so those can differ from it in the last bits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ModelError

_LOG_2PI = math.log(2.0 * math.pi)

# there is one kernel path; environment records still read this flag
NUMBA_ENABLED = False


def _feature_sum(terms):
    """Sum a sequence of equal-shape arrays (or an array along its first axis)
    left to right, into the first sum it makes; a single term comes back as a
    copy, so no term is written."""
    if len(terms) == 1:
        return terms[0].copy()
    total = terms[0] + terms[1]
    for term in terms[2:]:
        total += term
    return total


def predict_params(log_priors, means, variances):
    """The per-state constants of ``predict_indices``, feature-major.

    ``variances`` must already be floored to positive values. Returns the
    log priors as a (classes, 1) column and, shaped (features, classes, 1)
    to broadcast over rows, the means, twice the variances and the log
    normalizers ``-0.5 * (log 2pi + log var)``, computed in place on an
    array of their own. They are read-only views, so the models that share
    a state share them; the means view aliases ``means``, which must not be
    written in place afterwards. No input is written.
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
    (features, classes, rows) log-density block are added left to right. A
    row that scores NaN for a class, or -inf for every class, raises
    ModelError instead of taking index 0: one sum over the joint block shows
    whether any entry is not finite, and only then are the rows checked one
    by one.
    """
    log_priors, means, two_variances, log_norms = params
    n_rows, n_features = X.shape
    log_like = np.subtract(X.T[:, None, :], means,
                           out=np.empty((n_features, means.shape[1], n_rows)))
    log_like *= log_like
    log_like /= two_variances
    np.subtract(log_norms, log_like, out=log_like)
    joint = _feature_sum(log_like)
    joint += log_priors  # float addition commutes exactly
    if not math.isfinite(np.add.reduce(joint, axis=None)):
        bad = np.flatnonzero(~(joint.max(axis=0) > -math.inf))
        if bad.shape[0]:
            raise ModelError(f"row {bad[0]} has no finite best class score: a class scores "
                             "NaN, or every class scores -inf; see the supported feature range")
    return argmax_classes(joint)


def class_stats(X, y_idx, counts):
    """Per-class count, mean, and sum of squared deviations for one chunk.

    ``counts`` holds each class's number of rows in ``y_idx``, as the
    caller's relabelling pass already counted them; it comes back as floats.
    Two weighted ``bincount`` calls over the row-major ``X.ravel()``, with
    bin ``class * features + feature``, give the sums and the M2 of every
    feature. The bin array is filled one feature column at a time, which
    costs half of a broadcast add with a ``features``-long inner loop, and
    stays row-major: feature-major bins were slower, as consecutive adds then
    hit the same two bins. A bin adds its rows one after another, from 0.0,
    so a feature's statistics do not depend on the chunk's other features.
    Classes without rows get zeros.
    """
    counts = counts.astype(np.float64)
    n_rows, n_features = X.shape
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

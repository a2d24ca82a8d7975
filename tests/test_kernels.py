"""Kernel exactness: the kernels against hand-computed densities, two-pass
class statistics, references that sum in the kernels' own order, and frozen
copies of the broadcast kernels they replaced, on the shapes where the two
orders agree."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drifttune import kernels


def random_model(rng, n=64, d=5, k=3):
    X = rng.normal(size=(n, d))
    log_priors = np.log(rng.dirichlet(np.ones(k)))
    means = rng.normal(size=(k, d))
    variances = rng.uniform(0.1, 2.0, size=(k, d))
    return X, log_priors, means, variances


def test_numpy_predict_matches_manual_densities():
    rng = np.random.default_rng(0)
    X, log_priors, means, variances = random_model(rng, n=10, d=2, k=2)
    out = kernels.predict_indices(X, kernels.predict_params(log_priors, means, variances))
    for i in range(10):
        scores = []
        for c in range(2):
            total = log_priors[c]
            for j in range(2):
                v = variances[c, j]
                total += -0.5 * (math.log(2 * math.pi) + math.log(v))
                total += -((X[i, j] - means[c, j]) ** 2) / (2 * v)
            scores.append(total)
        assert out[i] == int(np.argmax(scores))


def test_numpy_class_stats_matches_two_pass():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 3))
    y = rng.integers(0, 4, size=50).astype(np.int64)
    counts, means, m2 = kernels.class_stats(X, y, np.bincount(y, minlength=4))
    for c in range(4):
        rows = X[y == c]
        assert counts[c] == rows.shape[0]
        if rows.shape[0] == 0:
            assert np.all(means[c] == 0.0) and np.all(m2[c] == 0.0)
            continue
        assert np.allclose(means[c], rows.mean(axis=0))
        assert np.allclose(m2[c], ((rows - rows.mean(axis=0)) ** 2).sum(axis=0))


def test_predict_params_are_read_only():
    # models and their copies share the cached tuple
    rng = np.random.default_rng(2)
    _, log_priors, means, variances = random_model(rng)
    for array in kernels.predict_params(log_priors, means, variances):
        assert not array.flags.writeable


def test_predict_params_leave_their_inputs_untouched():
    # the classifier passes its own means, which model copies share
    rng = np.random.default_rng(3)
    _, log_priors, means, variances = random_model(rng)
    inputs = (log_priors, means, variances)
    before = [array.copy() for array in inputs]
    kernels.predict_params(*inputs)
    for array, copy in zip(inputs, before):
        assert array.tobytes() == copy.tobytes()


# ------------------------------------------------- bit-exactness vs reference
# Each kernel sums in the order its own layout gives: predict adds the feature
# slabs left to right, and the class statistics add each class's rows one
# after another from 0.0. The references below sum in that order by hand.
# The frozen broadcast kernels that the column-wise ones replaced, with which
# every trace digest was recorded, sum in the same order wherever numpy's
# add-reduce does: over 1 to 7 features for predict, and over a class's rows
# of a chunk with 2 or more features for the statistics. There the kernels
# must reproduce them bit for bit too, not just approximately.


def reference_log_likelihoods(X, means, variances):
    """The (rows, classes, features) log-density terms of the broadcast kernel."""
    diff = X[:, None, :] - means[None, :, :]
    return -0.5 * (math.log(2.0 * math.pi) + np.log(variances)) - diff * diff / (2.0 * variances)


def broadcast_predict_indices(X, log_priors, means, variances):
    joint = log_priors[None, :] + reference_log_likelihoods(X, means, variances).sum(axis=2)
    return np.argmax(joint, axis=1)


def left_to_right_predict_indices(X, log_priors, means, variances):
    log_like = reference_log_likelihoods(X, means, variances)
    total = log_like[:, :, 0].copy()
    for j in range(1, X.shape[1]):
        total = total + log_like[:, :, j]
    return np.argmax(log_priors[None, :] + total, axis=1)


def gathered_class_stats(X, y_idx, n_classes):
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


def row_by_row_class_stats(X, y_idx, n_classes):
    def row_sum(rows):
        total = np.zeros(rows.shape[1])
        for row in rows:
            total = total + row
        return total

    n_features = X.shape[1]
    counts = np.zeros(n_classes)
    means = np.zeros((n_classes, n_features))
    m2 = np.zeros((n_classes, n_features))
    for c in range(n_classes):
        rows = X[y_idx == c]
        if rows.shape[0] == 0:
            continue
        counts[c] = rows.shape[0]
        means[c] = row_sum(rows) / rows.shape[0]
        m2[c] = row_sum((rows - means[c]) ** 2)
    return counts, means, m2


def features(rng, n, d, scale, integral):
    X = rng.normal(size=(n, d)) * scale
    # integral values repeat, so deviations are often exactly zero
    return np.round(X) if integral else X


shapes = st.tuples(st.integers(1, 300), st.integers(1, 40), st.integers(1, 6))
seeds = st.integers(0, 2**32 - 1)
scales = st.sampled_from([1e-3, 1.0, 1e4])


@settings(max_examples=150, deadline=None)
@given(shape=shapes, seed=seeds, scale=scales, integral=st.booleans(), twin=st.sampled_from(["none", "copy", "permuted"]))
# pinned shapes: one feature, the widest shape that numpy still sums left to
# right, the narrowest that it sums pairwise, wider ones and a lone class
@example(shape=(50, 1, 3), seed=0, scale=1.0, integral=False, twin="copy")
@example(shape=(120, 7, 2), seed=1, scale=1.0, integral=False, twin="permuted")
@example(shape=(120, 8, 2), seed=1, scale=1.0, integral=False, twin="permuted")
@example(shape=(300, 13, 6), seed=2, scale=1e4, integral=True, twin="copy")
@example(shape=(300, 40, 4), seed=3, scale=1e-3, integral=False, twin="permuted")
@example(shape=(7, 5, 1), seed=4, scale=1.0, integral=False, twin="none")
def test_predict_indices_bit_identical_to_reference(shape, seed, scale, integral, twin):
    n, d, k = shape
    rng = np.random.default_rng(seed)
    X = features(rng, n, d, scale, integral)
    log_priors = np.log(rng.dirichlet(np.ones(k)))
    means = rng.normal(size=(k, d)) * scale
    variances = rng.uniform(0.05, 3.0, size=(k, d)) * scale * scale
    if twin != "none" and k > 1:
        c = int(rng.integers(1, k))
        log_priors[c] = log_priors[0]
        if twin == "copy":
            # an exact copy of class 0: every row ties, the lower index must win
            means[c], variances[c] = means[0], variances[0]
        else:
            # class 0 with its features permuted, scored on rows that are
            # constant across features: both classes sum the same terms in a
            # different order, so the winner hangs on the summation order
            perm = rng.permutation(d)
            means[c], variances[c] = means[0][perm], variances[0][perm]
            X = np.repeat(X[:, :1], d, axis=1)
    got = kernels.predict_indices(X, kernels.predict_params(log_priors, means, variances))
    want = left_to_right_predict_indices(X, log_priors, means, variances)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    if d < 8:
        assert np.array_equal(got, broadcast_predict_indices(X, log_priors, means, variances))


@settings(max_examples=150, deadline=None)
@given(shape=shapes, seed=seeds, scale=scales, integral=st.booleans(),
       n_present=st.integers(1, 6))
@example(shape=(50, 1, 3), seed=0, scale=1.0, integral=False, n_present=2)
@example(shape=(120, 8, 2), seed=1, scale=1.0, integral=True, n_present=2)
@example(shape=(300, 13, 6), seed=2, scale=1e4, integral=False, n_present=3)
@example(shape=(9, 40, 4), seed=3, scale=1e-3, integral=False, n_present=1)
def test_class_stats_bit_identical_to_reference(shape, seed, scale, integral, n_present):
    n, d, k = shape
    rng = np.random.default_rng(seed)
    X = features(rng, n, d, scale, integral) + rng.normal() * scale
    # only some classes have rows; the others must come back as zeros
    present = rng.choice(k, size=min(n_present, k), replace=False)
    y_idx = rng.choice(present, size=n).astype(np.int64)
    got = kernels.class_stats(X, y_idx, np.bincount(y_idx, minlength=k))
    references = [row_by_row_class_stats(X, y_idx, k)]
    if d > 1:
        references.append(gathered_class_stats(X, y_idx, k))
    for want in references:
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape
            assert np.array_equal(a, b)


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 300), st.integers(1, 12), st.integers(1, 4)),
       seed=seeds, scale=scales, integral=st.booleans())
def test_a_features_class_stats_do_not_depend_on_the_other_features(shape, seed, scale, integral):
    n, d, k = shape
    rng = np.random.default_rng(seed)
    X = features(rng, n, d, scale, integral) + rng.normal() * scale
    y_idx = rng.integers(0, k, size=n).astype(np.int64)
    counts = np.bincount(y_idx, minlength=k)
    _, means, m2 = kernels.class_stats(X, y_idx, counts)
    for j in range(d):
        _, column_means, column_m2 = kernels.class_stats(X[:, [j]], y_idx, counts)
        assert np.ascontiguousarray(means[:, [j]]).tobytes() == column_means.tobytes(), j
        assert np.ascontiguousarray(m2[:, [j]]).tobytes() == column_m2.tobytes(), j


@st.composite
def joint_blocks(draw):
    """(classes, rows) blocks of the kinds ``argmax_classes`` handles: finite
    and ``-inf`` entries, exact twin classes, and all-NaN rows (a NaN feature
    makes every class NaN)."""
    k, n = draw(st.integers(1, 8)), draw(st.integers(1, 1000))
    rng = np.random.default_rng(draw(seeds))
    if draw(st.booleans()):
        # a small pool of values makes exact ties common
        joint = rng.choice([-np.inf, -7.25, -1.0, 0.0, 3.5, 1e300], size=(k, n))
    else:
        joint = rng.normal(size=(k, n)) * 10.0 ** rng.uniform(-3, 3, size=(k, n))
    joint[rng.random((k, n)) < draw(st.sampled_from([0.0, 0.2, 1.0]))] = -np.inf
    if k > 1 and draw(st.booleans()):
        a, b = rng.choice(k, size=2, replace=False)
        joint[b] = joint[a]
    joint[:, rng.random(n) < draw(st.sampled_from([0.0, 0.1, 1.0]))] = np.nan
    return joint


@settings(max_examples=200, deadline=None)
@given(joint_blocks())
def test_argmax_classes_matches_numpy_argmax(joint):
    got = kernels.argmax_classes(joint)
    want = joint.argmax(axis=0)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_feature_sum_adds_left_to_right():
    rng = np.random.default_rng(7)
    differs_from_numpy = 0
    for width in range(1, 301):
        # magnitudes spread widely, so a different summation order shows
        a = rng.normal(size=(4, width)) * 10.0 ** rng.uniform(-6, 6, size=(4, width))
        want = a[:, 0].copy()
        for j in range(1, width):
            want = want + a[:, j]
        assert np.array_equal(kernels._feature_sum(list(a.T)), want), width
        assert np.array_equal(kernels._feature_sum(np.ascontiguousarray(a.T)), want), width
        numpy_order = a.sum(axis=1)
        if width < 8:
            # below 8 terms numpy's contiguous add-reduce is left to right too
            assert np.array_equal(numpy_order, want), width
        differs_from_numpy += not np.array_equal(numpy_order, want)
    # the check has teeth: numpy's pairwise order would fail it
    assert differs_from_numpy > 0


def test_feature_sum_matches_a_stacked_sum_below_8_terms_and_writes_no_term():
    rng = np.random.default_rng(11)
    for n in [*range(1, 21), 131]:
        # magnitudes spread widely, so a different summation order shows
        block = rng.normal(size=(n, 3, 5)) * 10.0 ** rng.uniform(-6, 6, size=(n, 3, 5))
        block.setflags(write=False)  # a write into a term raises
        terms = [term.copy() for term in block]
        for term in terms:
            term.setflags(write=False)
        want = terms[0].copy()
        for term in terms[1:]:
            want = want + term
        if n < 8:
            assert np.array_equal(np.stack(terms, axis=-1).sum(axis=-1), want), n
        for given_terms in (terms, block):
            got = kernels._feature_sum(given_terms)
            assert np.array_equal(got, want), n
            assert got.flags.writeable and not np.shares_memory(got, block)
            assert not any(np.shares_memory(got, term) for term in terms)

"""Incremental Gaussian naive Bayes and the evaluate step."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drifttune import classifier, harness, kernels
from drifttune.classifier import GaussianNB, Window, _relabel, _State, adapt, evaluate, op_counts
from drifttune.detectors import DETECTOR_KINDS, make_monitor
from drifttune.dtd import (Candidate, DtdState, StepOutcome, baseline_step, dtd_step,
                           eval_candidates, respond)
from drifttune.errors import ModelError
from drifttune.harness import run_policies
from drifttune.stream import SYNTHETIC_KINDS, Chunk, StreamConfig, make_stream
from drifttune.theory import _FlippedStream


def chunk_of(X, y, index=0):
    return Chunk(index, np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.int64))


class RecordingDetector:
    """Minimal detector stand-in: records updates, exposes a statistic."""

    def __init__(self):
        self.values = []
        self.statistic = 0.0
        self.threshold = 10.0

    def update(self, value):
        self.values.append(value)
        self.statistic = value
        return self.statistic


class TestTraining:
    def test_mean_of_two_points(self):
        model = GaussianNB().train(chunk_of([[1.0, 1.0], [3.0, 3.0]], [0, 0]))
        assert np.allclose(model._state.means[0], [2.0, 2.0])
        assert model._state.counts[0] == 2

    def test_incremental_equals_batch(self):
        a = chunk_of([[1.0], [2.0]], [0, 1])
        b = chunk_of([[3.0], [5.0]], [0, 1])
        both = chunk_of([[1.0], [2.0], [3.0], [5.0]], [0, 1, 0, 1])
        inc = GaussianNB().train(a).train(b)
        bat = GaussianNB().train(both)
        assert np.array_equal(inc._state.classes, bat._state.classes)
        assert np.allclose(inc._state.counts, bat._state.counts)
        assert np.allclose(inc._state.means, bat._state.means)
        assert np.allclose(inc._state.m2, bat._state.m2)

    def test_train_twice_equals_duplicated_chunk(self):
        c = chunk_of([[1.0, 4.0], [2.0, 6.0], [0.0, 5.0]], [0, 1, 0])
        dup = chunk_of(np.vstack([c.X, c.X]), np.concatenate([c.y, c.y]))
        twice = GaussianNB().train(c).train(c)
        once = GaussianNB().train(dup)
        assert np.allclose(twice._state.counts, once._state.counts)
        assert np.allclose(twice._state.means, once._state.means)
        assert np.allclose(twice._state.m2, once._state.m2)

    @pytest.mark.parametrize("labels", [[0, 2**63], [2**64 - 1, 3], [2**63 + 5]])
    def test_unsigned_labels_past_int64_rejected(self, labels):
        chunk = Chunk(0, np.zeros((len(labels), 1)), np.array(labels, dtype=np.uint64))
        with pytest.raises(ModelError, match="2\\*\\*63"):
            GaussianNB().train(chunk)

    def test_unsigned_labels_below_2_63_keep_their_values(self):
        labels = np.array([2**63 - 1, 0, 2**63 - 1], dtype=np.uint64)
        model = GaussianNB().train(Chunk(0, np.array([[10.0], [0.0], [10.0]]), labels))
        assert model.classes.tolist() == [0, 2**63 - 1]
        assert model.predict(np.array([[0.0], [9.0]])).tolist() == [0, 2**63 - 1]

    def test_population_variance_value(self):
        model = GaussianNB().train(chunk_of([[1.0], [2.0], [3.0], [4.0]], [0, 0, 0, 0]))
        variance = model._state.m2[0, 0] / model._state.counts[0]
        # population variance of {1,2,3,4}: mean 2.5, mean squared deviation 1.25
        assert np.isclose(variance, 1.25, rtol=0, atol=1e-15)

    def test_incremental_variance_matches_two_pass(self):
        rng = np.random.default_rng(42)
        values = rng.normal(5.0, 2.0, size=10000)
        model = GaussianNB()
        for i in range(0, 10000, 250):
            model.train(chunk_of(values[i : i + 250, None], np.zeros(250)))
        mean = model._state.means[0, 0]
        variance = model._state.m2[0, 0] / model._state.counts[0]
        two_pass_mean = values.mean()
        two_pass_var = ((values - two_pass_mean) ** 2).mean()
        assert np.isclose(mean, two_pass_mean, rtol=1e-12)
        assert np.isclose(variance, two_pass_var, rtol=1e-9)

    def test_classes_discovered_across_chunks(self):
        model = GaussianNB().train(chunk_of([[0.0]], [4]))
        model.train(chunk_of([[1.0]], [2]))
        assert np.array_equal(model.classes, [2, 4])
        assert np.allclose(model._state.means[:, 0], [1.0, 0.0])

    def test_train_returns_self(self):
        model = GaussianNB()
        assert model.train(chunk_of([[1.0]], [0])) is model


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, bad):
        model = GaussianNB().train(chunk_of([[1.0, 2.0]], [0]))
        with pytest.raises(ModelError, match="non-finite"):
            model.train(chunk_of([[1.0, 2.0], [bad, 0.0]], [0, 1]))
        # the rejected chunk left the model as it was
        assert np.array_equal(model.classes, [0])
        assert model._state.counts[0] == 1

    def test_class_stats_computed_once_per_chunk(self, monkeypatch):
        calls = []
        real = kernels.class_stats

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(kernels, "class_stats", counting)
        c = chunk_of([[1.0], [2.0], [8.0]], [0, 0, 1])
        GaussianNB().train(c)
        GaussianNB().train(chunk_of([[5.0]], [1])).train(c).train(c)
        adapt(GaussianNB(), c)
        assert len(calls) == 2
        # the same when a fitted model trains on the chunk before a fresh one
        d = chunk_of([[1.0], [2.0], [8.0]], [0, 0, 1], index=1)
        GaussianNB().train(chunk_of([[5.0]], [1])).train(d).train(d)
        GaussianNB().train(d)
        adapt(GaussianNB(), d)
        assert len(calls) == 4

    def test_width_error_comes_before_the_non_finite_check(self):
        model = GaussianNB().train(chunk_of([[1.0, 2.0]], [0]))
        with pytest.raises(ModelError, match="expected 2 features, got 3"):
            model.train(chunk_of([[np.nan, 0.0, 1.0]], [0], index=1))


def reference_train(model, chunk):
    """The row-wise training path: admit the chunk's labels, index every row
    into the model's classes, gather each class's rows for its count, mean
    and M2, then merge by Chan's formulas as the digests were recorded with
    them; a fresh model takes the gathered statistics as they are. The
    per-chunk cache and the merge must give the same arrays bit for bit."""
    X = np.ascontiguousarray(chunk.X, dtype=np.float64)
    y = np.asarray(chunk.y, dtype=np.int64)
    classes = np.union1d(model["classes"], y)
    old_pos = np.searchsorted(classes, model["classes"])
    shape = (classes.shape[0], X.shape[1])
    counts, means, m2 = np.zeros(shape[0]), np.zeros(shape), np.zeros(shape)
    if model["classes"].shape[0]:
        counts[old_pos], means[old_pos], m2[old_pos] = model["counts"], model["means"], model["m2"]
    y_idx = np.searchsorted(classes, y)
    n_b, b_means, b_m2 = np.zeros(shape[0]), np.zeros(shape), np.zeros(shape)
    for c in range(shape[0]):
        rows = X[y_idx == c]
        if rows.shape[0]:
            n_b[c], b_means[c] = rows.shape[0], rows.mean(axis=0)
            b_m2[c] = ((rows - b_means[c]) ** 2).sum(axis=0)
    if not model["classes"].shape[0]:
        return {"classes": classes, "counts": n_b, "means": b_means, "m2": b_m2}
    n_ab = counts + n_b
    seen = n_ab > 0
    delta = b_means - means
    ratio = np.zeros_like(n_ab)
    ratio[seen] = n_b[seen] / n_ab[seen]
    cross = np.zeros_like(n_ab)
    cross[seen] = counts[seen] * n_b[seen] / n_ab[seen]
    return {"classes": classes, "counts": n_ab, "means": means + delta * ratio[:, None],
            "m2": m2 + b_m2 + delta * delta * cross[:, None]}


def reference_predict_constants(model):
    """``GaussianNB._params_for`` and ``kernels.predict_params`` on a
    reference model, by the formulas the digests were recorded with."""
    counts, means, m2 = model["counts"], model["means"], model["m2"]
    log_priors = np.log(counts / counts.sum())
    variances = m2 / counts[:, None]
    top = variances.max(axis=0)
    floor = np.maximum(1e-9 * np.where(top > 0.0, top, 1.0), np.finfo(np.float64).tiny)
    variances = np.maximum(variances, floor[None, :])
    return (log_priors[:, None], means.T[:, :, None], (2.0 * variances).T[:, :, None],
            (-0.5 * (math.log(2.0 * math.pi) + np.log(variances))).T[:, :, None])


def predicted(model, X):
    """The model's labels for ``X``, or the ModelError message for a row that
    has no finite best class score (a tiny floored variance can push every
    class of a far row to -inf), so two models compare either way."""
    try:
        return model.predict(X).tolist()
    except ModelError as exc:
        return str(exc)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def chunkings(draw):
    """A labelled sample cut into chunks at random points. Labels come from
    an alphabet that grows along the stream, so classes appear late, and
    some chunks miss classes the model already knows."""
    n_features = draw(st.integers(1, 3))
    n_rows = draw(st.integers(1, 60))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    X = np.array(draw(st.lists(st.lists(values, min_size=n_features, max_size=n_features),
                               min_size=n_rows, max_size=n_rows)), dtype=np.float64)
    alphabet = draw(st.lists(st.integers(-3, 6), min_size=1, max_size=4, unique=True))
    y = np.array([draw(st.sampled_from(alphabet[: 1 + i * len(alphabet) // n_rows]))
                  for i in range(n_rows)], dtype=np.int64)
    cuts = sorted(draw(st.sets(st.integers(1, n_rows - 1), max_size=6))) if n_rows > 1 else []
    bounds = [0, *cuts, n_rows]
    return [chunk_of(X[a:b], y[a:b], index=i) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]


class TestExactness:
    @settings(max_examples=200, deadline=None)
    @given(chunkings())
    # one feature, a class that appears late and then goes missing, and labels
    # (negative, or not below the row count) that take the np.unique path
    @example([chunk_of([[1.0], [2.0], [4.0]], [0, 0, 0]),
              chunk_of([[3.0], [5.0], [9.0], [0.5]], [1, 0, 1, 2], index=1),
              chunk_of([[7.0], [6.5], [1.0]], [2, 2, 0], index=2)])
    @example([chunk_of([[1.0, -2.0], [3.0, 0.25]], [-3, 5]),
              chunk_of([[2.0, 2.0], [4.0, 1.0], [0.0, 0.0]], [5, 9, 5], index=1)])
    # a -0.0 mean, which a fresh model keeps and a merge turns into +0.0
    @example([chunk_of([[-5e-324, 1.0], [-0.0, 2.0]], [0, 0]),
              chunk_of([[1.0, 1.0]], [0], index=1)])
    # the merge lays both sides onto the union of their classes: the chunk
    # brings class 2 and lacks class 0, then a chunk holds a strict subset
    @example([chunk_of([[1.0, 0.5], [2.0, 1.5], [4.0, -1.0]], [0, 1, 1]),
              chunk_of([[3.0, 2.0], [0.5, 0.25]], [2, 1], index=1),
              chunk_of([[6.0, 6.0]], [1], index=2)])
    # a known class with a -0.0 mean that the chunk lacks turns into +0.0
    @example([chunk_of([[-5e-324, 1.0], [-0.0, 2.0]], [0, 0]),
              chunk_of([[3.0, 1.0]], [1], index=1)])
    def test_cached_statistics_match_row_wise_path(self, chunks):
        expected = {"classes": np.empty(0, dtype=np.int64), "counts": None, "means": None, "m2": None}
        model = GaussianNB()
        for chunk in chunks:
            expected = reference_train(expected, chunk)
            model.train(chunk)
            assert np.array_equal(model._state.classes, expected["classes"])
            for name in ("counts", "means", "m2"):
                assert_same_bytes(getattr(model._state, name), expected[name])
            constants = model._params_for(chunk.X)
            for got, want in zip(constants, reference_predict_constants(expected), strict=True):
                assert_same_bytes(got, want)
        # a second model over the same chunks reads every statistic from the cache
        again = GaussianNB()
        for chunk in chunks:
            again.train(chunk)
        for name in ("classes", "counts", "means", "m2"):
            assert np.array_equal(getattr(again._state, name), getattr(model._state, name))

    @settings(max_examples=100, deadline=None)
    @given(chunkings(), st.data())
    def test_predict_after_retrain_matches_fresh_model(self, chunks, data):
        split = data.draw(st.integers(1, len(chunks)))
        probe = np.vstack([c.X for c in chunks])
        model = GaussianNB()
        for chunk in chunks[:split]:
            model.train(chunk)
        predicted(model, probe)
        for chunk in chunks[split:]:
            model.train(chunk)
            predicted(model, probe)
        fresh = GaussianNB()
        for chunk in chunks:
            fresh.train(chunk)
        assert predicted(model, probe) == predicted(fresh, probe)

    def test_predict_params_refresh_after_train(self):
        # b leaves class 0's mean at 0 but widens its variance, which moves
        # the probe from class 1 to class 0
        a = chunk_of([[-1.0], [1.0], [9.0], [11.0]], [0, 0, 1, 1])
        b = chunk_of([[-30.0], [30.0]], [0, 0], index=1)
        probe = np.array([[6.0]])
        model = GaussianNB().train(a)
        before = model.predict(probe)
        model.train(b)
        after = model.predict(probe)
        assert not np.array_equal(before, after)
        assert np.array_equal(after, GaussianNB().train(a).train(b).predict(probe))


def zero_state_model(labels, n_features):
    """A model that knows ``labels`` with zero counts and statistics: training
    it runs the Chan merge into zeros that a fresh model's first train ran
    before it adopted the chunk's statistics."""
    classes = np.asarray(labels)
    means = np.zeros((classes.shape[0], n_features))
    model = GaussianNB()
    model._state = _State(classes, np.zeros(classes.shape[0]), means, np.zeros_like(means))
    return model


class TestFreshModelAdoption:
    @settings(max_examples=200, deadline=None)
    @given(chunkings())
    @example([chunk_of([[-5e-324], [-0.0], [3.0]], [0, 0, 1])])
    @example([chunk_of([[0.0], [1e-155]], [0, 0]), chunk_of([[3.0]], [1], index=1)])
    # a tiny floored variance overflows a log-density to inf in both models alike
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_adopted_and_merged_models_agree(self, chunks):
        first = chunks[0]
        adopted = GaussianNB().train(first)
        merged = zero_state_model(np.unique(first.y), first.X.shape[1]).train(first)
        for name in ("classes", "counts", "means", "m2"):
            # equal as numbers: the arrays may differ only in the sign of a zero
            assert np.array_equal(getattr(adopted._state, name), getattr(merged._state, name))
        probe = np.vstack([c.X for c in chunks])
        assert predicted(adopted, probe) == predicted(merged, probe)
        for chunk in chunks[1:]:
            adopted.train(chunk)
            merged.train(chunk)
        assert predicted(adopted, probe) == predicted(merged, probe)

    def test_adoption_keeps_a_negative_zero_mean(self):
        chunk = chunk_of([[-5e-324], [-0.0], [3.0]], [0, 0, 1])
        adopted = GaussianNB().train(chunk)
        merged = zero_state_model([0, 1], 1).train(chunk)
        assert np.signbit(adopted._state.means[0, 0]) and not np.signbit(merged._state.means[0, 0])
        probe = np.array([[-1.0], [0.0], [1.5], [2.0]])
        assert np.array_equal(adopted.predict(probe), merged.predict(probe))

    def test_fresh_model_shares_the_chunks_read_only_statistics(self):
        chunk = chunk_of([[1.0, 2.0], [3.0, 5.0]], [0, 1])
        model = GaussianNB().train(chunk)
        assert not model._state.means.flags.writeable
        means = model._state.means.copy()
        model.train(chunk_of([[9.0, 9.0]], [1], index=1))
        # the merge rebinds, so a later fresh model takes the chunk's statistics untouched
        assert np.array_equal(GaussianNB().train(chunk)._state.means, means)

    @pytest.mark.parametrize("fresh_first", [True, False])
    def test_every_merge_on_a_chunk_reads_the_fresh_models_state(self, monkeypatch, fresh_first):
        merged_with = []
        real = classifier._merge

        def recording(state, own):
            merged_with.append(own)
            return real(state, own)

        chunk = chunk_of([[1.0], [2.0], [8.0]], [0, 0, 1], index=2)
        fitted = [GaussianNB().train(chunk_of([[5.0]], [1])),
                  GaussianNB().train(chunk_of([[3.0], [4.0]], [0, 2], index=1))]
        monkeypatch.setattr(classifier, "_merge", recording)
        fresh = GaussianNB()
        for model in ([fresh, *fitted] if fresh_first else [*fitted, fresh]):
            model.train(chunk)
        assert len(merged_with) == 2
        assert all(own is fresh._state for own in merged_with)


class TestMergeInvariant:
    @settings(max_examples=200, deadline=None)
    @given(chunkings())
    def test_trained_model_never_holds_a_zero_class_count(self, chunks):
        # the Chan merge divides by every class's merged count unmasked
        model, seen = GaussianNB(), []
        for chunk in chunks:
            model.train(chunk)
            seen.extend(chunk.y.tolist())
            assert (model._state.counts > 0).all()
            assert model._state.counts.tolist() == [seen.count(c) for c in model._state.classes.tolist()]


class TestPrediction:
    def test_separated_clusters(self):
        rng = np.random.default_rng(0)
        X0 = rng.normal(0.0, 0.5, size=(50, 2))
        X1 = rng.normal(10.0, 0.5, size=(50, 2))
        model = GaussianNB().train(chunk_of(np.vstack([X0, X1]), [0] * 50 + [1] * 50))
        pred = model.predict(np.array([[0.1, -0.2], [9.8, 10.3], [1.0, 1.0]]))
        assert list(pred) == [0, 1, 0]

    def test_symmetric_tie_goes_to_smaller_label(self):
        # classes 3 and 7 are mirror images around x=0; the origin is tied
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        model = GaussianNB().train(chunk_of(X, [3, 3, 7, 7]))
        assert model.predict(np.array([[0.0]]))[0] == 3

    def test_single_class_predicts_that_class(self):
        model = GaussianNB().train(chunk_of([[1.0], [2.0]], [5, 5]))
        assert list(model.predict(np.array([[0.0], [100.0]]))) == [5, 5]

    def test_zero_variance_feature_floored(self):
        # constant feature for both classes: must not divide by zero
        model = GaussianNB().train(chunk_of([[1.0, 0.0], [1.0, 1.0]], [0, 1]))
        pred = model.predict(np.array([[1.0, 0.9]]))
        assert pred[0] in (0, 1)

    @pytest.mark.filterwarnings("error")
    def test_variance_floor_does_not_underflow(self):
        # the largest class variance is subnormal, so the scaled floor
        # underflows to zero unless it is kept at the smallest normal float
        model = GaussianNB().train(chunk_of([[0.0], [4e-162], [1.0], [1.0]], [0, 0, 1, 1]))
        assert list(model.predict(np.array([[1.0], [0.0]]))) == [1, 0]

    # a NaN feature scores NaN for every class; an infinite one, or one whose
    # squared distance overflows, scores -inf for every class
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_row_without_a_finite_score_raises(self, value):
        model = GaussianNB().train(chunk_of([[0.0], [0.1], [1.0], [1.1]], [0, 0, 1, 1]))
        with pytest.raises(ModelError, match="row 1 has no finite best class score"):
            model.predict(np.array([[0.0], [value], [1.0]]))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_class_statistics_raise(self):
        # each class's M2 overflows to inf
        X = np.array([[0.0], [0.1], [1.0], [1.1]]) * 1e160
        model = GaussianNB().train(chunk_of([[0.0], [1.0]], [0, 1]))
        with pytest.raises(ModelError, match="chunk 3 has non-finite class statistics"):
            model.train(chunk_of(X, [0, 0, 1, 1], index=3))
        assert model._state.counts.tolist() == [1.0, 1.0]
        with pytest.raises(ModelError, match="non-finite class statistics"):
            GaussianNB().train(chunk_of(X, [0, 0, 1, 1])).predict(X)

    def test_unfitted_predict_raises(self):
        with pytest.raises(ModelError, match="before any training"):
            GaussianNB().predict(np.zeros((1, 2)))

    def test_feature_width_mismatch(self):
        model = GaussianNB().train(chunk_of([[1.0, 2.0]], [0]))
        with pytest.raises(ModelError, match="expected 2 features"):
            model.predict(np.zeros((1, 3)))
        with pytest.raises(ModelError, match="expected 2 features"):
            model.train(chunk_of([[1.0, 2.0, 3.0]], [0]))

    def test_empty_chunk_rejected(self):
        with pytest.raises(ModelError, match="empty chunk"):
            GaussianNB().train(chunk_of(np.empty((0, 2)), np.empty(0)))


def reference_joint(model, X):
    """The (rows, classes) joint log-likelihoods from the model's constants,
    in the broadcast formulation that ``kernels.predict_indices`` matches."""
    log_priors, means, two_variances, log_norms = (a[..., 0] for a in model._params_for(X))
    with np.errstate(all="ignore"):
        diff = X[:, None, :] - means.T[None]
        return log_priors[None, :] + (log_norms.T[None] - diff * diff / two_variances.T[None]).sum(axis=2)


class TestFeatureScale:
    """Random finite chunks scaled by 2**k, exact in binary from k = -1000 to
    1000, well past where squared deviations overflow or underflow. The model
    either predicts the reference argmax with a finite best score on every
    row, or raises ModelError: a RuntimeWarning never comes with a silent
    fallback label."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-1000, 1000), st.integers(1, 3), st.integers(1, 30),
           st.integers(0, 8), st.integers(0, 2**32 - 1))
    @example(1000, 1, 4, 0, 0)
    @example(-1000, 2, 10, 5, 1)
    @example(520, 1, 6, 3, 2)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_predicts_with_a_finite_best_score_or_raises(self, k, n_features, n_rows, n_extra,
                                                         seed):
        rng = np.random.default_rng(seed)
        X0 = rng.integers(-8, 9, size=(n_rows + n_extra, n_features)).astype(np.float64)
        X = np.ldexp(X0, k)
        y = rng.integers(0, 3, size=n_rows)
        try:
            model = GaussianNB().train(chunk_of(X[:n_rows], y))
        except ModelError as exc:
            assert "non-finite class statistics" in str(exc)
            return
        joint = reference_joint(model, X)
        if (joint.max(axis=1) > -np.inf).all():
            assert np.array_equal(model.predict(X), model.classes[joint.argmax(axis=1)])
        else:
            with pytest.raises(ModelError, match="no finite best class score"):
                model.predict(X)


class TestIdentity:
    def test_models_compare_by_identity(self):
        a = GaussianNB()
        b = GaussianNB()
        assert a == a
        assert a != b
        trained = chunk_of([[1.0]], [0])
        assert GaussianNB().train(trained) != GaussianNB().train(trained)

    def test_models_are_hashable(self):
        a, b = GaussianNB(), GaussianNB()
        assert len({a, b, a}) == 2


class TestCopyAndAdapt:
    def test_copy_is_independent(self):
        model = GaussianNB().train(chunk_of([[1.0], [2.5]], [0, 0]))
        probe = np.linspace(-5.0, 110.0, 24)[:, None]
        predicted = model.predict(probe)
        bits = [a.tobytes() for a in (model._state.counts, model._state.means, model._state.m2)]
        twin = model.copy()
        twin.train(chunk_of([[4.0], [7.0]], [0, 0]))  # known class: merged in place of the old arrays
        twin.train(chunk_of([[100.0]], [1]))  # new class: admitted
        assert model.classes.shape == (1,)
        assert twin.classes.shape == (2,)
        assert [a.tobytes() for a in (model._state.counts, model._state.means, model._state.m2)] == bits
        assert np.array_equal(model.predict(probe), predicted)

    def test_adapt_equals_fresh_train(self):
        c = chunk_of([[1.0, 2.0], [3.0, 1.0]], [0, 1])
        stale = GaussianNB().train(chunk_of([[50.0, 50.0]], [0]))
        adapted = adapt(stale, c)
        fresh = GaussianNB().train(c)
        assert np.allclose(adapted._state.means, fresh._state.means)
        assert np.allclose(adapted._state.counts, fresh._state.counts)
        # the stale model itself is untouched
        assert stale._state.means[0, 0] == 50.0

    def test_adapt_discards_history(self):
        c = chunk_of([[1.0], [2.0], [8.0], [9.0]], [0, 0, 1, 1])
        history_a = GaussianNB().train(chunk_of([[100.0]], [0]))
        history_b = GaussianNB().train(chunk_of([[-3.0], [4.0]], [1, 1]))
        out_a = adapt(history_a, c)
        out_b = adapt(history_b, c)
        probe = np.linspace(-5, 15, 30)[:, None]
        assert np.array_equal(out_a.predict(probe), out_b.predict(probe))

    def test_adapt_improves_after_boundary_change(self):
        # concept boundary moves from 9 to 7 (concept indices 1 and 2); a model
        # adapted on the first post-change chunk must beat the stale one on
        # the next chunk for nearly every seed
        wins = 0
        for seed in range(20):
            stream = make_stream(StreamConfig(kind="sea", seed=seed, n_chunks=22, chunk_size=1000))
            stale = GaussianNB().train(stream.chunk(10)).train(stream.chunk(11))
            adapted = adapt(stale, stream.chunk(20))
            test = stream.chunk(21)
            acc_stale = float(np.mean(stale.predict(test.X) == test.y))
            acc_adapted = float(np.mean(adapted.predict(test.X) == test.y))
            wins += acc_adapted > acc_stale
        assert wins >= 18


class TestEvaluate:
    def test_accuracy_and_single_update(self):
        c = chunk_of([[0.0], [0.0], [10.0], [10.0]], [0, 0, 1, 1])
        model = GaussianNB().train(c)
        det = RecordingDetector()
        assert evaluate(model, c, det) == 1.0
        assert det.values == [0.0]

    def test_error_rate_fed_once(self):
        train = chunk_of([[0.0], [10.0]], [0, 1])
        model = GaussianNB().train(train)
        # half the labels disagree with the trained boundary
        test = chunk_of([[0.0], [0.0], [10.0], [10.0]], [0, 1, 0, 1])
        det = RecordingDetector()
        assert evaluate(model, test, det) == 0.5
        assert det.values == [0.5]

    def test_evaluate_does_not_train(self):
        c = chunk_of([[0.0], [10.0]], [0, 1])
        model = GaussianNB().train(c)
        counts_before = model._state.counts.copy()
        evaluate(model, c, RecordingDetector())
        assert np.array_equal(model._state.counts, counts_before)

    @pytest.mark.parametrize("bad", [-5, -1, 2.5, True, False, "1", np.int64(1)])
    def test_ahead_must_be_none_or_a_non_negative_int(self, bad):
        warmup, chunks = window_of()
        model = GaussianNB().train(warmup)
        untagged = Chunk(chunks[0].index, chunks[0].X, chunks[0].y)
        for chunk in (chunks[0], untagged):
            det = RecordingDetector()
            op_counts.reset()
            with pytest.raises(ModelError, match="ahead must be None or an int >= 0"):
                evaluate(model, chunk, det, bad)
            assert det.values == [] and op_counts.snapshot() == (0, 0)
        assert model._state.ahead is None
        for good in (None, 0, 3, 10**20):
            assert evaluate(model, chunks[0], RecordingDetector(), good) == correct(model, chunks[0]) / 25


    def test_empty_chunk_rejected_before_predicting(self):
        model = GaussianNB().train(chunk_of([[0.0], [10.0]], [0, 1]))
        empty = chunk_of(np.empty((0, 1)), np.empty(0), index=4)
        det = RecordingDetector()
        op_counts.reset()
        with pytest.raises(ModelError, match="empty chunk"):
            evaluate(model, empty, det)
        state = DtdState(model, det, training_mode="continual")
        state.candidates = [Candidate(model, det, []), Candidate(model.copy(), RecordingDetector(), [])]
        with pytest.raises(ModelError, match="empty chunk"):
            eval_candidates(state, empty)
        assert det.values == []
        assert op_counts.snapshot() == (0, 0)


def monitor_state(det):
    """A monitor's full state, with its window and PRNG made comparable."""
    def plain(value):
        if isinstance(value, np.ndarray):
            return list(value)
        if isinstance(value, np.random.Generator):
            return value.bit_generator.state
        return value
    return {name: plain(value) for name, value in vars(det).items()}


@st.composite
def races(draw):
    """Three models trained on their own random chunks, monitors for them and
    a few race chunks. Integral features make exact posterior ties common;
    a model may know a single class, and a "twin" chunk gives two classes
    identical rows, so every row ties between them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_features = draw(st.integers(1, 4))

    def labelled_chunk(index, alphabet):
        n = draw(st.integers(1, 25))
        X = rng.integers(-3, 4, size=(n, n_features)).astype(np.float64)
        y = rng.choice(alphabet, size=n)
        if len(alphabet) > 1 and draw(st.booleans()):
            X = np.vstack([X, X])
            y = np.repeat(alphabet[:2], n)
        return chunk_of(X, y, index)

    models = []
    for i in range(3):
        alphabet = draw(st.lists(st.integers(-2, 5), min_size=1, max_size=4, unique=True))
        models.append(GaussianNB().train(labelled_chunk(i, alphabet)))
    kinds = draw(st.lists(st.sampled_from(DETECTOR_KINDS), min_size=3, max_size=3))
    detectors = [make_monitor(kind) for kind in kinds]
    for det in detectors:
        det.threshold = draw(st.sampled_from([0.0, 0.5, 2.0, np.inf]))
    race = [labelled_chunk(10 + i, list(range(-2, 6))) for i in range(draw(st.integers(1, 3)))]
    return models, detectors, race


class TestStackedEvaluation:
    """The race step against three plain evaluates, one per candidate."""

    @settings(max_examples=100, deadline=None)
    @given(races(), st.booleans())
    def test_eval_candidates_equals_one_by_one_race(self, race, continual):
        models, detectors, chunks = race

        def candidates():
            return [Candidate(m.copy(), d.clone(), []) for m, d in zip(models, detectors)]

        stacked, separate = candidates(), candidates()
        state = DtdState(models[0], detectors[0], race_len=len(chunks),
                         training_mode="continual" if continual else "sporadic")
        state.candidates = stacked
        for chunk in chunks:
            op_counts.reset()
            accuracies = eval_candidates(state, chunk)
            stacked_counts = op_counts.snapshot()
            op_counts.reset()
            expected = []
            for candidate in separate:  # the race step as three plain evaluates
                acc = evaluate(candidate.model, chunk, candidate.detector)
                candidate.accuracy_log.append(acc)
                expected.append(acc)
                candidate.model = respond(candidate.model, chunk, candidate.detector, continual)
            assert accuracies == expected
            assert op_counts.snapshot() == stacked_counts
        for a, b in zip(stacked, separate):
            assert a.accuracy_log == b.accuracy_log
            for name in ("classes", "counts", "means", "m2"):
                assert np.array_equal(getattr(a.model._state, name), getattr(b.model._state, name))
            assert monitor_state(a.detector) == monitor_state(b.detector)


class TestRelabel:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(0, 30), min_size=1, max_size=40),  # dense, often fast path
        st.lists(st.integers(-5, 5), min_size=1, max_size=40),  # negative
        st.lists(st.integers(0, 10**6), min_size=1, max_size=40),  # sparse
        st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=10),  # huge
        st.tuples(st.integers(-2**63, 2**63 - 1), st.integers(1, 40)).map(
            lambda pair: [pair[0]] * pair[1]),  # single class
        st.integers(1, 8).flatmap(lambda k: st.permutations(range(k)).flatmap(
            lambda labels: st.lists(st.integers(0, k - 1), max_size=30).map(
                lambda rest: [*labels, *rest]))),  # every label 0..k-1: fast path
    ))
    @example([-1, 0, 1, 1])  # negative, yet every label below the row count
    @example([2, 2, 2])  # a single nonzero label
    @example([1])
    def test_matches_unique(self, values):
        y = np.array(values, dtype=np.int64)
        got = _relabel(y)
        expected = np.unique(y, return_inverse=True, return_counts=True)
        for array, want in zip(got, expected, strict=True):
            assert array.dtype == want.dtype
            assert np.array_equal(array, want)
        if np.array_equal(expected[0], np.arange(expected[0].shape[0])):
            # every label 0..k-1 present: one shared read-only class array per k
            assert _relabel(y.copy())[0] is got[0] and not got[0].flags.writeable


def sine_stream(n_chunks=5, rows=25, seed=0):
    return make_stream(StreamConfig(kind="sine", seed=seed, n_chunks=n_chunks, chunk_size=rows,
                                    drift_period=100))


def window_of(n_chunks=4, rows=25, seed=0):
    """A tagged window over a small sine stream, plus the chunk before it."""
    stream = sine_stream(n_chunks + 1, rows, seed)
    return stream.chunk(0), stream.window(1, n_chunks + 1)


def to_end(chunk):
    """The chunk's window tag with the bound at its window's end."""
    window, position = chunk.cache["window"]
    return window, position, len(window.starts) - 1


def correct(model, chunk):
    """The number of the chunk's rows that ``model.predict`` labels right."""
    return np.count_nonzero(model.predict(chunk.X) == chunk.y)


class TestScoringAhead:
    def test_a_stopped_model_scores_the_rest_of_the_window_in_one_call(self, kernel_rows):
        warmup, chunks = window_of()
        model = GaussianNB().train(warmup)
        accuracies = [evaluate(model, c, RecordingDetector(), ahead=None) for c in chunks]
        # the first score, bounded at the window's end, reads ahead
        assert kernel_rows == [100]
        fresh = GaussianNB().train(warmup)
        assert accuracies == [float(np.mean(fresh.predict(c.X) == c.y)) for c in chunks]

    def test_evaluate_scores_only_its_chunk_by_default(self, kernel_rows):
        warmup, chunks = window_of()
        model = GaussianNB().train(warmup)
        accuracies = [evaluate(model, c, RecordingDetector()) for c in chunks]
        # no bound given: whether the state has scored before does not matter
        assert kernel_rows == [25, 25, 25, 25]
        fresh = GaussianNB().train(warmup)
        assert accuracies == [float(np.mean(fresh.predict(c.X) == c.y)) for c in chunks]

    def test_window_tags_each_chunk_with_its_position(self):
        _, chunks = window_of()
        window = chunks[0].cache["window"][0]
        assert isinstance(window, Window)
        assert [c.cache["window"] for c in chunks] == [(window, i) for i in range(4)]
        assert window.starts == [0, 25, 50, 75, 100]
        assert np.array_equal(window.rows_from(2, 4), np.vstack([c.X for c in chunks[2:]]))
        # the chunks and the rows ahead are views of the window's one block
        assert all(np.shares_memory(c.X, window.X) for c in chunks)
        assert np.shares_memory(window.rows_from(2, 4), window.X)

    def test_tags_make_no_reference_cycle(self):
        # chunks freed by reference counting alone, without waiting for the
        # cyclic collector, keep a pass's memory flat
        gc.disable()
        try:
            warmup, chunks = window_of()
            model = GaussianNB().train(warmup)
            for chunk in chunks:
                model.window_hits(*to_end(chunk))
            refs = [weakref.ref(chunk) for chunk in chunks]
            del chunk, chunks
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_a_two_policy_pass_frees_its_chunks_and_their_states(self):
        # a state refers to no chunk, so the states memoized on a chunk, and
        # the chunk, are freed by reference counting once the pass is done
        stream = make_stream(StreamConfig(kind="sine", n_chunks=30, chunk_size=50, drift_period=10))
        refs = []

        def recorded(step):
            def run(state, chunk):
                out = step(state, chunk)
                refs.append(weakref.ref(chunk))
                refs.extend(map(weakref.ref, chunk.cache["trained"].values()))
                return out
            return run

        gc.disable()
        try:
            policies = [(recorded(baseline_step), DtdState(GaussianNB(), make_monitor("ddm"))),
                        (recorded(dtd_step), DtdState(GaussianNB(), make_monitor("ddm")))]
            traces = run_policies(stream, policies)
            assert traces[0].alarm_chunks and "comparison" in traces[1].phase
            # both policies trained on every chunk: the memo holds their states
            assert len(refs) > 2 * 29
            del policies
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_served_counts_equal_fresh_predictions_and_no_labels_are_kept(self, kernel_rows):
        warmup, chunks = window_of()
        model = GaussianNB().train(warmup)
        model.window_hits(*to_end(chunks[0]))
        for chunk in chunks[1:]:
            served = model.window_hits(*to_end(chunk))
            assert served == correct(model, chunk)
        assert kernel_rows[:2] == [100, 25]
        # the state keeps one count per chunk, not the window's labels
        window, position, kept = model._state.ahead
        assert position == 0 and type(kept) is list and len(kept) == 4
        assert all(type(count) is int for count in kept)

    def test_train_drops_the_kept_counts(self, kernel_rows):
        warmup, chunks = window_of()
        model = GaussianNB().train(warmup)
        for chunk in chunks[:2]:
            model.window_hits(*to_end(chunk))
        kept = model._state
        assert kept.ahead is not None
        model.train(chunks[1])
        # a trained model holds a new state; the old one keeps its counts
        assert model._state.ahead is None and model._state.params is None
        assert kept.ahead is not None
        got = model.window_hits(*chunks[2].cache["window"], 3)
        # retrained: scored with the new constants, as far as its bound
        assert kernel_rows == [100, 25]
        assert got == correct(GaussianNB().train(warmup).train(chunks[1]), chunks[2])

    def test_copy_shares_the_kept_counts(self, kernel_rows):
        warmup, chunks = window_of()
        model = GaussianNB().train(warmup)
        for chunk in chunks[:2]:
            model.window_hits(*to_end(chunk))
        twin = model.copy()
        assert twin._state is model._state
        twin.window_hits(*to_end(chunks[2]))
        assert kernel_rows == [100]
        twin.train(chunks[2])
        assert twin._state.ahead is None and model._state.ahead is not None

    def test_an_untagged_chunk_is_never_served_from_kept_counts(self, kernel_rows):
        warmup, chunks = window_of()
        model = GaussianNB().train(warmup)
        for chunk in chunks[:2]:
            model.window_hits(*to_end(chunk))
        untagged = Chunk(chunks[2].index, chunks[2].X, chunks[2].y)
        for _ in range(2):
            evaluate(model, untagged, RecordingDetector(), ahead=None)
        assert kernel_rows == [100, 25, 25]

    def test_another_window_scores_ahead_from_its_own_rows(self, kernel_rows):
        stream = sine_stream(n_chunks=7)
        warmup, chunks = stream.chunk(0), stream.window(1, 4) + stream.window(4, 7)
        model = GaussianNB().train(warmup)
        for chunk in chunks:
            got = model.window_hits(*to_end(chunk))
            assert got == correct(model, chunk)
        ahead = [n for n in kernel_rows if n != 25]
        assert ahead == [75, 75]

    def test_a_bounded_first_score_makes_one_call_over_exactly_its_chunks(self, kernel_rows):
        warmup, chunks = window_of()
        model = GaussianNB().train(warmup)
        accuracies = [evaluate(model, chunks[1], RecordingDetector(), ahead=1),
                      evaluate(model, chunks[2], RecordingDetector(), ahead=0)]
        # the first score after a train covers chunks 1 and 2, not the window's end
        assert kernel_rows == [50]
        # a bound past the window's end is clipped there; a warm-up chunk
        # object of its own gives a state whose labels do not cover chunk 2
        other = GaussianNB().train(Chunk(warmup.index, warmup.X, warmup.y))
        evaluate(other, chunks[2], RecordingDetector(), ahead=5)
        assert kernel_rows == [50, 50]
        fresh = GaussianNB().train(warmup)
        assert accuracies == [float(np.mean(fresh.predict(c.X) == c.y)) for c in chunks[1:3]]

    def test_a_chunk_past_the_kept_counts_is_scored_again(self, kernel_rows):
        warmup, chunks = window_of()
        fresh = GaussianNB().train(warmup)
        expected = [correct(fresh, c) for c in chunks]
        kernel_rows.clear()
        model = GaussianNB().train(warmup)
        window, _ = chunks[0].cache["window"]
        assert model.window_hits(window, 0, 2) == expected[0]
        for chunk, want in zip(chunks[1:], expected[1:]):
            assert model.window_hits(*to_end(chunk)) == want
        # chunk 2 lies past the kept counts of chunks 0 and 1: the model
        # scores it again, to its bound at the window's end
        assert kernel_rows == [50, 50]

    def test_op_counts_count_the_rows_of_each_scored_chunk(self):
        warmup, chunks = window_of()
        model = GaussianNB().train(warmup)
        op_counts.reset()
        for chunk in chunks:
            evaluate(model, chunk, RecordingDetector())
        assert op_counts.snapshot() == (100, 0)


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("served")


@st.composite
def scored_streams(draw, csv_dir):
    """A small stream of any kind: synthetic, a CSV file whose last chunk
    may be short, or a synthetic stream with one label-reversed chunk."""
    kind = draw(st.sampled_from(SYNTHETIC_KINDS + ("csv", "flipped")))
    chunk_size, n_chunks = draw(st.integers(1, 30)), draw(st.integers(2, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "csv":
        rng = np.random.default_rng(seed)
        n_rows = draw(st.integers(chunk_size + 1, chunk_size * n_chunks))
        features = rng.integers(-3, 4, size=(n_rows, draw(st.integers(1, 3))))
        label_set = draw(st.just([3, 7]) | st.lists(st.integers(-2, 5), min_size=1, max_size=4,
                                                     unique=True))
        labels = rng.choice(label_set, size=n_rows)
        path = csv_dir / "stream.csv"
        path.write_text("".join(",".join(map(str, [*row, label])) + "\n"
                                for row, label in zip(features.tolist(), labels.tolist())))
        return make_stream(StreamConfig(kind="csv", chunk_size=chunk_size, csv_path=str(path)))
    config = StreamConfig(kind=draw(st.sampled_from(SYNTHETIC_KINDS)) if kind == "flipped" else kind,
                          seed=seed, n_chunks=n_chunks, chunk_size=chunk_size,
                          drift_period=draw(st.integers(1, 5)))
    if kind == "flipped":
        return _FlippedStream(config, draw(st.integers(1, n_chunks - 1)))
    return make_stream(config)


class TestServedAccuracy:
    """A window score, computed or served from a count the state keeps,
    against a fresh predict on the chunk's own rows."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_window_score_equals_a_fresh_count(self, data, csv_dir):
        stream = data.draw(scored_streams(csv_dir))
        checked = []

        def step(state, chunk):
            window, position = chunk.cache["window"]
            assert np.shares_memory(chunk.y, window.y)
            model = state.primary_model
            expected = np.count_nonzero(model.predict(chunk.X) == chunk.y) / len(chunk)
            detector = RecordingDetector()
            before = op_counts.snapshot()
            accuracy = evaluate(model, chunk, detector, data.draw(st.none() | st.integers(0, 4)))
            assert op_counts.predict_instances - before[0] == len(chunk)
            assert type(accuracy) is float and accuracy == expected
            assert detector.values == [1.0 - expected]
            action = data.draw(st.sampled_from(("keep", "train", "adapt", "union")))
            if action == "train":
                model.train(chunk)
            elif action == "union":
                # a one-row chunk's class set differs from the model's, so the
                # merge makes a union class array, also when it is 0..k-1
                model.train(Chunk(chunk.index, chunk.X[:1], chunk.y[:1]))
            elif action == "adapt":
                state.primary_model = adapt(model, chunk)
            checked.append(chunk.index)
            return StepOutcome(accuracy, 0.0, 0.0, False, "normal")

        # both models train on the same warm-up chunk, so they share one state
        policies = [(step, DtdState(GaussianNB(), make_monitor("ddm"))) for _ in range(2)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "WINDOW_ROWS", data.draw(st.integers(1, 200)))
            run_policies(stream, policies)
        assert checked == [i for i in range(1, len(stream)) for _ in policies]


class TestOpCounts:
    def test_counters_track_instances(self):
        c = chunk_of(np.zeros((7, 1)), np.zeros(7))
        op_counts.reset()
        model = GaussianNB().train(c)
        assert op_counts.snapshot() == (0, 7)
        model.predict(c.X)
        assert op_counts.snapshot() == (7, 7)
        evaluate(model, c, RecordingDetector())
        assert op_counts.snapshot() == (14, 7)

    def test_snapshot_is_plain_tuple(self):
        op_counts.reset()
        assert op_counts.snapshot() == (0, 0)

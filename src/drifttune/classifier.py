"""Incremental Gaussian naive Bayes and the chunk evaluation step.

The model keeps per-class running counts, means, and sums of squared
deviations, merged batch-wise with Chan's parallel update (Chan, Golub &
LeVeque, Am. Stat. 1983), so training on a chunk is equivalent to having seen
every instance one at a time. A chunk's own class statistics are computed once
per chunk and cached on it, so every model trained on the same chunk (the
primary and each race candidate) only pays for the merge, and a fresh model
adopts them as they are; the class counts come from the pass that relabels the
chunk's labels. The merge and the predict constants write in place only to
arrays they made themselves, in the operation order of their plain formulas,
since model copies share the arrays they replace. Prediction maximizes the log
joint density with a per-feature variance floor; the kernel's per-model
constants (log priors, means, doubled floored variances and log normalizers)
are cached until the next ``train``. Every model, the primary or a race
candidate, scores a chunk through :func:`evaluate` and ``predict``.
Features are plain float64: a chunk whose class statistics overflow is
rejected when a model trains on it, and a row that has no finite best class
score raises instead of taking class 0.

A stream pass groups its chunks into :class:`Window` runs. A model that scores
a chunk of a window a second time since its last ``train`` has stopped
training, so it predicts every row from that chunk to the window's end in one
kernel call and serves the window's later chunks from those labels until it
trains again. A caller that knows how many more chunks it will score with
the model as it is, as a sporadic race knows its remaining chunks, passes
that bound to :func:`evaluate`: the model then predicts exactly those chunks,
clipped at the window's end, in one call at its first score, and nothing
past them. Labels are served only for chunks they cover. Each label depends
only on its own row and the model's constants, so the labels are the ones
per-chunk calls give.

Module-level operation counters record how many instances were pushed
through predict and train calls, per scored chunk, whether or not its labels
were computed ahead. The adaptation logic is bounded to a fixed small
multiple of the chunk size per step, and tests read these counters to check
that bound.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from . import kernels
from .errors import ModelError
from .stream import Chunk

VARIANCE_FLOOR_SCALE = 1e-9
_FLOAT_TINY = np.finfo(np.float64).tiny  # the smallest normal float


class OpCounts:
    """Running totals of instances seen by predict and train calls."""

    __slots__ = ("predict_instances", "train_instances")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.predict_instances = 0
        self.train_instances = 0

    def snapshot(self) -> tuple[int, int]:
        return (self.predict_instances, self.train_instances)


op_counts = OpCounts()


def _relabel(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(y, return_inverse=True, return_counts=True)``, by
    ``bincount`` when the labels are non-negative and below the row count,
    which bounds its table. When every label ``0..k-1`` is present, ``y`` is
    its own inverse."""
    if y.shape[0] and y.min() >= 0 and y.max() < y.shape[0]:
        counts = np.bincount(y)
        present = counts > 0
        if present.all():
            return np.arange(present.shape[0]), y, counts
        return np.flatnonzero(present), (np.cumsum(present) - 1)[y], counts[present]
    return np.unique(y, return_inverse=True, return_counts=True)


def _chunk_stats(chunk: Chunk) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The chunk's sorted labels with their per-label count, mean and M2.

    Computed on the first call for a chunk and cached on it; chunk arrays
    are read-only, so the cache cannot go stale.
    """
    stats = chunk.cache.get("class_stats")
    if stats is None:
        X = np.ascontiguousarray(chunk.X, dtype=np.float64)
        if not np.isfinite(X).all():
            raise ModelError(f"chunk {chunk.index} has non-finite feature values")
        # int64 would wrap a uint64 label at or above 2**63 to a negative class
        if chunk.y.dtype == np.uint64 and chunk.y.shape[0] and chunk.y.max() >= 2**63:
            raise ModelError(f"chunk {chunk.index} has labels at or above 2**63")
        labels, y_idx, counts = _relabel(np.asarray(chunk.y, dtype=np.int64))
        stats = (labels, *kernels.class_stats(X, y_idx.astype(np.int64, copy=False), counts))
        # a mean that overflows makes its class's M2 inf or NaN as well
        if not np.isfinite(stats[3]).all():
            raise ModelError(f"chunk {chunk.index} has non-finite class statistics: "
                             "its features are outside the supported range")
        for array in stats:
            array.setflags(write=False)
        chunk.cache["class_stats"] = stats
    return stats


def _on_classes(classes, labels, counts, means, m2):
    """The count, mean and M2 rows of the sorted ``labels`` laid onto their
    sorted superset ``classes``, with zero rows for the classes ``labels``
    lacks; the arrays themselves when the two sets are equal."""
    if labels.shape[0] == classes.shape[0]:
        return counts, means, m2
    pos = np.searchsorted(classes, labels)
    shape = (classes.shape[0], means.shape[1])
    laid = np.zeros(shape[0]), np.zeros(shape), np.zeros(shape)
    laid[0][pos], laid[1][pos], laid[2][pos] = counts, means, m2
    return laid


class Window:
    """Consecutive chunks of one stream pass, whose rows a model that has
    stopped training scores in one kernel call.

    Building a window tags each chunk: ``chunk.cache["window"]`` holds
    ``(window, position)``. The chunks' features are concatenated the first
    time a model asks for rows ahead. A window holds the chunks' feature
    arrays, not the chunks, so the tags make no reference cycle and a pass's
    chunks are freed as soon as nothing uses them.
    """

    def __init__(self, chunks):
        self._parts = [chunk.X for chunk in chunks]
        self.starts = list(accumulate(map(len, chunks), initial=0))
        self._X = None
        for position, chunk in enumerate(chunks):
            chunk.cache["window"] = (self, position)

    def rows_from(self, position: int, stop: int) -> np.ndarray:
        """The features of the rows of chunks ``position`` to ``stop - 1``."""
        if self._X is None:
            self._X = np.concatenate(self._parts, dtype=np.float64)
        return self._X[self.starts[position]:self.starts[stop]]


class GaussianNB:
    """Gaussian naive Bayes with incremental chunk training.

    Classes are discovered as they appear; statistics use population
    variance. Tied posteriors resolve to the smallest class label.
    """

    def __init__(self):
        self._classes = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.float64)
        self._means = np.empty((0, 0), dtype=np.float64)
        self._m2 = np.empty((0, 0), dtype=np.float64)
        self._predict_params: tuple[np.ndarray, ...] | None = None
        # (window, position, labels): read-only labels of the window's rows
        # from chunk ``position`` on, computed ahead for the current state
        # and covering as many chunks as they have rows for
        self._ahead: tuple[Window, int, np.ndarray] | None = None

    @property
    def is_fitted(self) -> bool:
        return self._classes.shape[0] > 0

    @property
    def classes(self) -> np.ndarray:
        return self._classes.copy()

    @property
    def n_features(self) -> int:
        return self._means.shape[1]

    def _require_width(self, X: np.ndarray) -> None:
        if X.ndim != 2:
            raise ModelError(f"expected a 2-d feature matrix, got {X.ndim}-d")
        if self.is_fitted and X.shape[1] != self.n_features:
            raise ModelError(f"expected {self.n_features} features, got {X.shape[1]}")

    def train(self, chunk: Chunk) -> "GaussianNB":
        if chunk.X.shape[0] == 0:
            raise ModelError("cannot train on an empty chunk")
        self._require_width(chunk.X)
        labels, counts, means, m2 = _chunk_stats(chunk)
        if self.is_fitted:
            self._merge(labels, counts, means, m2)
        else:
            # a fresh model adopts the chunk's read-only statistics: a merge
            # into zeros gives the same values, but turns a -0.0 mean into +0.0
            self._classes, self._counts, self._means, self._m2 = labels, counts, means, m2
        self._predict_params = None
        self._ahead = None
        op_counts.train_instances += chunk.X.shape[0]
        return self

    def _merge(self, labels, n_b, b_means, b_m2) -> None:
        classes, n_a, a_means, a_m2 = self._classes, self._counts, self._means, self._m2
        if labels.shape != classes.shape or (labels != classes).any():
            classes = np.union1d(classes, labels)
            n_a, a_means, a_m2 = _on_classes(classes, self._classes, n_a, a_means, a_m2)
            n_b, b_means, b_m2 = _on_classes(classes, labels, n_b, b_means, b_m2)

        # Chan et al.'s pairwise update; both sides hold only classes with
        # rows, so every n_ab is positive. In place, in the order of
        # a_means + delta * (n_b / n_ab) and a_m2 + b_m2 + delta * delta * (n_a * n_b / n_ab)
        n_ab = n_a + n_b
        delta = b_means - a_means
        means = delta * (n_b / n_ab)[:, None]
        means += a_means
        cross = n_a * n_b
        cross /= n_ab
        delta *= delta
        delta *= cross[:, None]
        m2 = a_m2 + b_m2
        m2 += delta
        self._classes, self._counts, self._means, self._m2 = classes, n_ab, means, m2

    def _params_for(self, X: np.ndarray) -> tuple[np.ndarray, ...]:
        """Check that the model can score ``X``; return its cached kernel constants."""
        if not self.is_fitted:
            raise ModelError("predict called before any training data")
        self._require_width(X)
        if self._predict_params is None:
            log_priors = self._counts / self._counts.sum()
            np.log(log_priors, out=log_priors)
            variances = self._m2 / self._counts[:, None]
            top = variances.max(axis=0)
            floor = np.where(top > 0.0, top, 1.0)
            floor *= VARIANCE_FLOOR_SCALE
            # a subnormal top variance would scale the floor down to zero
            np.maximum(floor, _FLOAT_TINY, out=floor)
            np.maximum(variances, floor, out=variances)
            self._predict_params = kernels.predict_params(log_priors, self._means, variances)
        return self._predict_params

    def predict(self, X: np.ndarray,
                window: tuple[Window, int] | tuple[Window, int, int] | None = None) -> np.ndarray:
        """Class labels of the rows of ``X``.

        ``window`` is the ``(window, position)`` tag of the chunk whose
        features ``X`` holds, or ``(window, position, stop)`` when the
        caller will score chunks ``position`` to ``stop - 1`` with the model
        as it is. The model then predicts those rows, clipped at the
        window's end, in one kernel call. Without a ``stop``, a model that
        has scored a chunk since its last ``train`` predicts the window's
        rows from that chunk to its end. It keeps the labels (read-only)
        and slices them for each later chunk they cover.
        """
        n_rows = X.shape[0]
        if window is not None and self._ahead is not None:
            kept, start, labels = self._ahead
            if window[0] is kept and window[1] >= start:
                lo = kept.starts[window[1]] - kept.starts[start]
                if lo + n_rows <= labels.shape[0]:
                    op_counts.predict_instances += n_rows
                    return labels[lo:lo + n_rows]
        X = np.ascontiguousarray(X, dtype=np.float64)
        stop = None  # the caller's bound, else the window's end once the model has scored
        if window is not None:
            last = len(window[0].starts) - 1
            if len(window) > 2:
                stop = min(window[2], last)
            elif self._predict_params is not None:
                stop = last
        params = self._params_for(X)
        if stop is not None and stop > window[1] + 1:
            labels = self._classes[kernels.predict_indices(window[0].rows_from(window[1], stop), params)]
            labels.setflags(write=False)
            self._ahead = (window[0], window[1], labels)
            labels = labels[:n_rows]
        else:
            labels = self._classes[kernels.predict_indices(X, params)]
        op_counts.predict_instances += n_rows
        return labels

    def copy(self) -> "GaussianNB":
        # sharing the arrays is safe: train only rebinds them; a copy has
        # the same constants, so it shares the kept labels too
        twin = type(self).__new__(type(self))
        twin.__dict__.update(self.__dict__)
        return twin


def adapt(model: GaussianNB, chunk: Chunk) -> GaussianNB:
    """Fresh model of the same kind trained only on ``chunk``."""
    return type(model)().train(chunk)


def evaluate(model: GaussianNB, chunk: Chunk, detector, ahead: int | None = None) -> float:
    """Score a frozen model on a chunk, push the error rate to a detector and
    return the accuracy.

    The model is not trained here; it gets the chunk's window tag, if any.
    ``ahead``, when given, counts the chunks after this one that the caller
    will score with the model as it is; the tag then bounds the rows the
    model scores ahead to those chunks. The detector sees exactly one
    update, the chunk error rate; callers read its statistic from the
    detector.
    """
    if len(chunk) == 0:
        raise ModelError(f"cannot evaluate on an empty chunk (chunk {chunk.index})")
    tag = chunk.cache.get("window")
    if tag is not None and ahead is not None:
        tag = (*tag, tag[1] + 1 + ahead)
    predicted = model.predict(chunk.X, tag)
    # count / n is correctly rounded, as np.mean of the bool array is
    accuracy = np.count_nonzero(predicted == chunk.y) / len(chunk)
    detector.update(1.0 - accuracy)
    return accuracy

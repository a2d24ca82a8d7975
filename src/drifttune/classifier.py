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
trains again. Each label depends only on its own row and the model's
constants, so the labels are the ones per-chunk calls give.

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

    def rows_from(self, position: int) -> np.ndarray:
        """The features of every row from chunk ``position`` to the window's end."""
        if self._X is None:
            self._X = np.concatenate(self._parts, dtype=np.float64)
        return self._X[self.starts[position]:]


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

    def _admit_classes(self, labels: np.ndarray, n_features: int) -> None:
        if labels.shape == self._classes.shape and (labels == self._classes).all():
            return
        merged = np.union1d(self._classes, labels)
        if merged.shape == self._classes.shape:
            return
        counts = np.zeros(merged.shape[0])
        means = np.zeros((merged.shape[0], n_features))
        m2 = np.zeros((merged.shape[0], n_features))
        old_pos = np.searchsorted(merged, self._classes)
        counts[old_pos] = self._counts
        means[old_pos] = self._means
        m2[old_pos] = self._m2
        self._classes, self._counts, self._means, self._m2 = merged, counts, means, m2

    def train(self, chunk: Chunk) -> "GaussianNB":
        if chunk.X.shape[0] == 0:
            raise ModelError("cannot train on an empty chunk")
        self._require_width(chunk.X)
        labels, counts, means, m2 = _chunk_stats(chunk)
        if self.is_fitted:
            self._merge(labels, counts, means, m2, chunk.X.shape[1])
        else:
            # a fresh model adopts the chunk's read-only statistics: a merge
            # into zeros gives the same values, but turns a -0.0 mean into +0.0
            self._classes, self._counts, self._means, self._m2 = labels, counts, means, m2
        self._predict_params = None
        self._ahead = None
        op_counts.train_instances += chunk.X.shape[0]
        return self

    def _merge(self, labels, counts, means, m2, n_features: int) -> None:
        self._admit_classes(labels, n_features)
        if labels.shape[0] == self._classes.shape[0]:
            b_counts, b_means, b_m2 = counts, means, m2
        else:
            # the chunk lacks some known classes: scatter into the model layout
            pos = np.searchsorted(self._classes, labels)
            b_counts = np.zeros(self._classes.shape[0])
            b_means = np.zeros(self._means.shape)
            b_m2 = np.zeros(self._m2.shape)
            b_counts[pos], b_means[pos], b_m2[pos] = counts, means, m2

        # Chan et al.'s pairwise update; _admit_classes only admits classes
        # with rows, so every n_ab is positive. In place, in the order of
        # means + delta * (n_b / n_ab) and m2 + b_m2 + delta * delta * (n_a * n_b / n_ab)
        n_a, n_b = self._counts, b_counts
        n_ab = n_a + n_b
        delta = b_means - self._means
        means = delta * (n_b / n_ab)[:, None]
        means += self._means
        cross = n_a * n_b
        cross /= n_ab
        delta *= delta
        delta *= cross[:, None]
        m2 = self._m2 + b_m2
        m2 += delta
        self._counts, self._means, self._m2 = n_ab, means, m2

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

    def predict(self, X: np.ndarray, window: tuple[Window, int] | None = None) -> np.ndarray:
        """Class labels of the rows of ``X``.

        ``window`` is the ``(window, position)`` tag of the chunk whose
        features ``X`` holds. A model that has scored a chunk since its last
        ``train`` then predicts the window's rows from that chunk on in one
        kernel call, keeps the labels (read-only) and slices them for the
        window's later chunks.
        """
        n_rows = X.shape[0]
        if window is not None and self._ahead is not None:
            kept, start, labels = self._ahead
            if window[0] is kept and window[1] >= start:
                lo = kept.starts[window[1]] - kept.starts[start]
                op_counts.predict_instances += n_rows
                return labels[lo:lo + n_rows]
        X = np.ascontiguousarray(X, dtype=np.float64)
        ahead = window is not None and self._predict_params is not None
        params = self._params_for(X)
        if ahead:
            labels = self._classes[kernels.predict_indices(window[0].rows_from(window[1]), params)]
            labels.setflags(write=False)
            self._ahead = (*window, labels)
            labels = labels[:n_rows]
        else:
            labels = self._classes[kernels.predict_indices(X, params)]
        op_counts.predict_instances += n_rows
        return labels

    def copy(self) -> "GaussianNB":
        # sharing the arrays is safe: train and _admit_classes only rebind
        # them; a copy has the same constants, so it shares the kept labels too
        twin = type(self).__new__(type(self))
        twin.__dict__.update(self.__dict__)
        return twin


def adapt(model: GaussianNB, chunk: Chunk) -> GaussianNB:
    """Fresh model of the same kind trained only on ``chunk``."""
    return type(model)().train(chunk)


def evaluate(model: GaussianNB, chunk: Chunk, detector) -> float:
    """Score a frozen model on a chunk, push the error rate to a detector and
    return the accuracy.

    The model is not trained here; it gets the chunk's window tag, if any.
    The detector sees exactly one update, the chunk error rate; callers read
    its statistic from the detector.
    """
    if len(chunk) == 0:
        raise ModelError(f"cannot evaluate on an empty chunk (chunk {chunk.index})")
    predicted = model.predict(chunk.X, chunk.cache.get("window"))
    # count / n is correctly rounded, as np.mean of the bool array is
    accuracy = np.count_nonzero(predicted == chunk.y) / len(chunk)
    detector.update(1.0 - accuracy)
    return accuracy

"""Incremental Gaussian naive Bayes and the chunk evaluation step.

The model keeps per-class running counts, means and sums of squared
deviations, merged batch-wise with Chan's parallel update (Chan, Golub &
LeVeque, Am. Stat. 1983), so training on a chunk is equivalent to having seen
every instance one at a time. Prediction maximizes the log joint density
with a per-feature variance floor. Features are plain float64: a chunk whose
class statistics overflow is rejected when a model trains on it, and a row
that has no finite best class score raises instead of taking class 0.

A model holds one read-only state, which models share, and a chunk keeps
the states trained on it in its ``trained`` memo, so every model of a pass
that trains from the same state on the same chunk takes one state, merged
once. A state refers to no chunk, so the memo makes no reference cycle and a
chunk and its states are freed with its window. Each predicted label
depends only on its own row and the state's constants, so the hit counts a
state keeps for the chunks it scored ahead are the ones per-chunk calls give.

Module-level operation counters record how many instances were scored and
trained, per call, whether its count or state was computed for it or served;
tests read them to check that adaptation costs a fixed small multiple of the
chunk size per step.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import kernels
from .errors import ModelError
from .stream import Chunk, Window

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


_CLASS_RANGES: dict[int, np.ndarray] = {}  # k -> the shared read-only arange(k)


def _class_range(k: int) -> np.ndarray:
    """The one read-only ``arange(k)`` that every state with classes ``0..k-1`` holds."""
    classes = _CLASS_RANGES.get(k)
    if classes is None:
        classes = _CLASS_RANGES[k] = np.arange(k)
        classes.setflags(write=False)
    return classes


def _relabel(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(y, return_inverse=True, return_counts=True)``, by
    ``bincount`` when the labels are non-negative and below the row count,
    which bounds its table. When every label ``0..k-1`` is present, ``y`` is
    its own inverse and the classes are the shared :func:`_class_range`."""
    if y.shape[0] and np.maximum.reduce(y) < y.shape[0]:
        try:
            counts = np.bincount(y)
        except ValueError:  # a negative label
            pass
        else:
            if np.count_nonzero(counts) == counts.shape[0]:
                return _class_range(counts.shape[0]), y, counts
            present = counts > 0
            return np.flatnonzero(present), (np.cumsum(present) - 1)[y], counts[present]
    return np.unique(y, return_inverse=True, return_counts=True)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each made read-only."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


class _State:
    """One model state: the sorted classes with their counts, means and M2,
    all read-only arrays, plus what is computed from them alone: the predict
    constants, built on the first score, and the correct-label counts of the
    last window chunks scored. Models that trained on the same chunks in the
    same order share one state, so each is computed once whichever model asks."""

    __slots__ = ("classes", "counts", "means", "m2", "params", "ahead", "__weakref__")

    def __init__(self, classes, counts, means, m2):
        self.classes, self.counts, self.means, self.m2 = classes, counts, means, m2
        self.params: tuple[np.ndarray, ...] | None = None
        # (window, position, hits): hits[k] is the number of correctly
        # labelled rows of the window's chunk ``position + k``, a Python int
        self.ahead: tuple[Window, int, Sequence[int]] | None = None


_EMPTY = _State(*_read_only(np.empty(0, dtype=np.int64), np.empty(0), np.empty((0, 0)), np.empty((0, 0))))


def _chunk_state(chunk: Chunk) -> _State:
    """The state a fresh model takes after ``chunk``: the chunk's sorted
    labels with their per-label count, mean and M2.

    Computed on the first call for a chunk and kept as its ``trained`` memo
    entry for ``_EMPTY``; chunk arrays are read-only, so it cannot go stale.
    """
    state = chunk.trained.get(_EMPTY)
    if state is None:
        X = np.ascontiguousarray(chunk.X, dtype=np.float64)
        if np.count_nonzero(np.isfinite(X)) != X.size:
            raise ModelError(f"chunk {chunk.index} has non-finite feature values")
        # int64 would wrap a uint64 label at or above 2**63 to a negative class
        if chunk.y.dtype == np.uint64 and chunk.y.shape[0] and chunk.y.max() >= 2**63:
            raise ModelError(f"chunk {chunk.index} has labels at or above 2**63")
        labels, y_idx, counts = _relabel(np.asarray(chunk.y, dtype=np.int64))
        stats = kernels.class_stats(X, y_idx.astype(np.int64, copy=False), counts)
        # a mean that overflows makes its class's M2 inf or NaN as well
        if np.count_nonzero(np.isfinite(stats[2])) != stats[2].size:
            raise ModelError(f"chunk {chunk.index} has non-finite class statistics: "
                             "its features are outside the supported range")
        state = chunk.trained[_EMPTY] = _State(*_read_only(labels, *stats))
    return state


def _on_classes(classes, state: _State):
    """The count, mean and M2 rows of ``state`` laid onto ``classes``, a
    sorted superset of its classes, with zero rows for the classes it lacks;
    its own arrays when the two sets are equal."""
    if state.classes.shape[0] == classes.shape[0]:
        return state.counts, state.means, state.m2
    pos = np.searchsorted(classes, state.classes)
    shape = (classes.shape[0], state.means.shape[1])
    laid = np.zeros(shape[0]), np.zeros(shape), np.zeros(shape)
    laid[0][pos], laid[1][pos], laid[2][pos] = state.counts, state.means, state.m2
    return laid


def _merge(a: _State, b: _State) -> _State:
    """The state ``a`` becomes after a chunk whose own state is ``b``."""
    classes = a.classes
    # two shared 0..k-1 class sets are equal by identity
    if b.classes is not classes and (b.classes.shape != classes.shape
                                     or (b.classes != classes).any()):
        classes = np.union1d(classes, b.classes)
        classes.setflags(write=False)
    (n_a, a_means, a_m2), (n_b, b_means, b_m2) = _on_classes(classes, a), _on_classes(classes, b)

    # Chan et al.'s pairwise update; both sides hold only classes with
    # rows, so every n_ab is positive. In place on new arrays, in the order of
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
    return _State(classes, *_read_only(n_ab, means, m2))


class GaussianNB:
    """Gaussian naive Bayes with incremental chunk training.

    Classes are discovered as they appear; statistics use population
    variance. Tied posteriors resolve to the smallest class label. The model
    holds one shared, read-only state, which ``train`` replaces.
    """

    def __init__(self):
        self._state = _EMPTY

    @property
    def is_fitted(self) -> bool:
        return self._state.classes.shape[0] > 0

    @property
    def classes(self) -> np.ndarray:
        return self._state.classes.copy()

    @property
    def n_features(self) -> int:
        return self._state.means.shape[1]

    def _require_width(self, X: np.ndarray) -> None:
        if X.ndim != 2:
            raise ModelError(f"expected a 2-d feature matrix, got {X.ndim}-d")
        if self.is_fitted and X.shape[1] != self.n_features:
            raise ModelError(f"expected {self.n_features} features, got {X.shape[1]}")

    def train(self, chunk: Chunk) -> "GaussianNB":
        """Train on ``chunk``: move to the state the current one becomes
        after it. A chunk keeps the states it led to, keyed by their parent
        state, so a model that trains from a state the chunk has already
        seen takes the state made then; a fresh model takes the chunk's own."""
        if chunk.X.shape[0] == 0:
            raise ModelError("cannot train on an empty chunk")
        state = chunk.trained.get(self._state)
        if state is None:
            self._require_width(chunk.X)
            own = _chunk_state(chunk)
            # a fresh model's entry is the chunk's own state, which _chunk_state keeps
            state = chunk.trained[self._state] = chunk.trained.get(self._state) or _merge(self._state, own)
        self._state = state
        op_counts.train_instances += chunk.X.shape[0]
        return self

    def _params_for(self, X: np.ndarray) -> tuple[np.ndarray, ...]:
        """Check that the model can score ``X``; return its state's kernel constants."""
        if not self.is_fitted:
            raise ModelError("predict called before any training data")
        self._require_width(X)
        state = self._state
        if state.params is None:
            counts = state.counts
            log_priors = counts / np.add.reduce(counts)
            np.log(log_priors, out=log_priors)
            variances = state.m2 / counts[:, None]
            top = np.maximum.reduce(variances, axis=0)
            floor = np.where(top > 0.0, top, 1.0)
            floor *= VARIANCE_FLOOR_SCALE
            # a subnormal top variance would scale the floor down to zero
            np.maximum(floor, _FLOAT_TINY, out=floor)
            np.maximum(variances, floor, out=variances)
            state.params = kernels.predict_params(log_priors, state.means, variances)
        return state.params

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Class labels of the rows of ``X``."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        labels = self._state.classes[kernels.predict_indices(X, self._params_for(X))]
        op_counts.predict_instances += X.shape[0]
        return labels

    def window_hits(self, window: Window, position: int, stop: int) -> int:
        """The number of rows of chunk ``position`` of ``window`` whose label
        the model predicts, when the caller will score chunks ``position`` to
        ``stop - 1`` with the model as it is.

        The state serves the count it keeps, or predicts those chunks' rows
        in one kernel call, compares them with the window's labels once and
        keeps each chunk's count, a Python int, for any model that holds it.
        """
        state, starts = self._state, window.starts
        n_rows = starts[position + 1] - starts[position]
        if state.ahead is not None:
            kept, first, hits = state.ahead
            if kept is window and 0 <= position - first < len(hits):
                op_counts.predict_instances += n_rows
                return hits[position - first]
        rows = np.ascontiguousarray(window.rows_from(position, stop), dtype=np.float64)
        labels = kernels.predict_indices(rows, self._params_for(rows))
        # class indices are their own labels when the classes are the shared 0..k-1
        classes = state.classes
        if classes is not _CLASS_RANGES.get(classes.shape[0]):
            labels = classes[labels]
        correct = labels == window.y[starts[position]:starts[stop]]
        if stop == position + 1:
            hits = (int(np.count_nonzero(correct)),)
        else:
            hits = np.add.reduceat(correct, np.subtract(starts[position:stop], starts[position])).tolist()
        state.ahead = (window, position, hits)
        op_counts.predict_instances += n_rows
        return hits[0]

    def copy(self) -> "GaussianNB":
        # a copy shares the read-only state, its constants and its kept counts
        twin = type(self).__new__(type(self))
        twin.__dict__.update(self.__dict__)
        return twin


def adapt(model: GaussianNB, chunk: Chunk) -> GaussianNB:
    """Fresh model of the same kind trained only on ``chunk``."""
    return type(model)().train(chunk)


def evaluate(model: GaussianNB, chunk: Chunk, detector, ahead: int | None = 0) -> float:
    """Score a frozen model on a chunk, push the error rate to a detector and
    return the accuracy, a Python float: the chunk's int count of correct
    labels over its rows.

    The model is not trained here. ``ahead`` counts the chunks after this one
    that the caller will score with the model unchanged, ``None`` for all to
    the window's end; any other value than ``None`` or an int >= 0 raises
    ModelError. Every chunk is scored through :meth:`GaussianNB.window_hits`
    on those chunks of its window, clipped at the window's end; a chunk built
    by hand is the one chunk of its window. The detector sees exactly
    one update, the chunk error rate; callers read its statistic from the
    detector.
    """
    # an exact int needs only the sign check
    if (ahead < 0 if type(ahead) is int else ahead is not None and (
            not isinstance(ahead, int) or isinstance(ahead, bool) or ahead < 0)):
        raise ModelError(f"ahead must be None or an int >= 0, got {ahead!r}")
    n = len(chunk)
    if n == 0:
        raise ModelError(f"cannot evaluate on an empty chunk (chunk {chunk.index})")
    window, position = chunk.window, chunk.position
    last = len(window.starts) - 1
    hits = model.window_hits(window, position, last if ahead is None else min(position + 1 + ahead, last))
    # an int count over n is a correctly rounded Python float, as np.mean of
    # the bool array is: both are exact integers below 2**53
    accuracy = hits / n
    detector.update(1.0 - accuracy)
    return accuracy

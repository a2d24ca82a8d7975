"""Five chunk-level drift detectors behind one statistic/threshold contract.

Every detector consumes one error-rate value per update, exposes a
non-negative dissimilarity statistic, and alarms exactly when that statistic
strictly exceeds its threshold. Thresholds are plain mutable attributes so a
controller can reassign them without touching detector history.

DDM and both HDDM variants use variance- or Hoeffding-style bounds whose
width depends on how many observations back each fed value. Their
``samples_per_update`` parameter declares how many underlying instances one
update summarizes (1 for raw values, the chunk size for chunk error rates),
which keeps the bounds on the instance scale; the statistic formulas reduce
to the plain single-observation forms at the default of 1. PH and KSWIN are
scale-free in this sense and take no such parameter.

Each monitor class declares its ``kind`` and its ``Params`` dataclass;
``MONITOR_TYPES`` (kind -> class) is the one table of monitor kinds. Params
fields are checked against their annotations when built: an ``int`` takes
an integer, a ``float`` a number, and a bool is neither. Each ``Params``
also states ``updates_needed``, how many updates its monitor takes before its
statistic can leave 0, so a stream too short to give them is known before
a run. An update takes a real number in [0, 1]; an exact float skips the
type check, and whatever a monitor computes from its params alone, such as
an HDDM bound's constant, it computes once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DetectorError, check_count, check_real


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance: max gap between empirical CDFs."""
    a, b = np.sort(a), np.sort(b)
    if a.size == 0 or b.size == 0:
        raise DetectorError("ks_distance needs two non-empty samples")
    values = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, values, side="right") / a.size
    cdf_b = np.searchsorted(b, values, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def _check_fields(params, positive=()) -> None:
    """Type-check every field by its annotation; ``positive`` ones must be > 0."""
    for f in fields(params):
        name, value = f"{type(params).__name__}.{f.name}", getattr(params, f.name)
        if f.type == "int":
            check_count(name, value)
        elif value is not None or f.type != "float | None":
            check_real(name, value)
        if f.name in positive and value <= 0:
            raise ConfigError(f"{name} must be positive")


@dataclass(frozen=True)
class DdmParams:
    threshold: float = 3.0
    min_samples: int = 2
    samples_per_update: int = 1

    def __post_init__(self):
        _check_fields(self, ("min_samples", "samples_per_update"))

    @property
    def updates_needed(self) -> int:
        # the first update sets the minimum to itself, so it scores 0 too
        return max(2, self.min_samples)


@dataclass(frozen=True)
class PhParams:
    threshold: float = 0.1
    delta: float = 0.005

    def __post_init__(self):
        _check_fields(self, ("delta",))

    # the first value is its own running mean
    updates_needed = 2


@dataclass(frozen=True)
class KswinParams:
    # threshold default is sqrt(-ln(alpha) / recent), filled in post-init
    threshold: float | None = None
    window: int = 100
    recent: int = 30
    alpha: float = 0.005
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, ("window", "recent", "alpha"))
        if not self.alpha < 1.0:
            raise ConfigError("KswinParams.alpha must lie in (0, 1)")
        if self.recent >= self.window:
            raise ConfigError("KswinParams.recent must be smaller than window")
        if self.recent > self.window - self.recent:
            raise ConfigError("KswinParams.recent cannot exceed the older remainder of the window")
        if self.threshold is None:
            object.__setattr__(self, "threshold", math.sqrt(-math.log(self.alpha) / self.recent))

    @property
    def updates_needed(self) -> int:
        return self.window


@dataclass(frozen=True)
class HddmAParams:
    threshold: float = 1.0
    alpha: float = 0.001
    samples_per_update: int = 1

    def __post_init__(self):
        _check_fields(self, ("alpha", "samples_per_update"))
        if not self.alpha < 1.0:
            raise ConfigError("HddmAParams.alpha must lie in (0, 1)")

    # the test needs a value on each side of its cut
    updates_needed = 2


@dataclass(frozen=True)
class HddmWParams:
    threshold: float = 1.0
    ewma_weight: float = 0.05
    alpha: float = 0.005
    samples_per_update: int = 1

    def __post_init__(self):
        _check_fields(self, ("ewma_weight", "alpha", "samples_per_update"))
        if not self.ewma_weight <= 1.0:
            raise ConfigError("HddmWParams.ewma_weight must lie in (0, 1]")
        if not self.alpha < 1.0:
            raise ConfigError("HddmWParams.alpha must lie in (0, 1)")

    # the first value is its own EWMA and minimum
    updates_needed = 2


class DriftMonitor:
    """Common detector plumbing: validation, threshold, clone/fresh/reset."""

    kind = "base"

    def __init__(self, params=None):
        self.params = self.Params() if params is None else params
        self.threshold = self.params.threshold
        self._statistic = 0.0
        self._init_state()

    def _init_state(self) -> None:
        raise NotImplementedError

    def _consume(self, value: float) -> float:
        raise NotImplementedError

    @property
    def statistic(self) -> float:
        return self._statistic

    @property
    def threshold(self) -> float:
        return self._threshold

    @threshold.setter
    def threshold(self, value: float) -> None:
        # +inf is a legitimate never-alarm setting; NaN would make the alarm
        # predicate silently constant-false, and a str or bool would be read
        # as a number, so they are rejected as Params fields are.
        try:
            check_real("threshold", value)
        except ConfigError as error:
            raise DetectorError(str(error)) from None
        self._threshold = float(value)

    @property
    def alarm(self) -> bool:
        return self._statistic > self._threshold

    def update(self, error_rate: float) -> float:
        value = error_rate
        if type(value) is not float:
            # a str, bytes or bool would be read as a number: rejected as a threshold is
            try:
                check_real("error rate", value)
            except ConfigError as error:
                raise DetectorError(str(error)) from None
            value = float(value)
        # the chained comparison is false for NaN and for either infinity
        if not 0.0 <= value <= 1.0:
            raise DetectorError(f"error rate must lie in [0, 1], got {error_rate!r}")
        self._statistic = statistic = self._consume(value)
        return statistic

    def reset(self) -> None:
        """Clear history and statistic; the threshold is kept."""
        self._statistic = 0.0
        self._init_state()

    def clone(self) -> "DriftMonitor":
        """Independent twin with the same history. State is scalars and frozen
        params, so a shallow copy suffices; Kswin also copies its window and PRNG."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        return twin

    def fresh(self) -> "DriftMonitor":
        """New detector of the same kind and constructor parameters."""
        return type(self)(self.params)


class Ddm(DriftMonitor):
    """Error-rate mean plus binomial deviation, scored against its minimum.

    Statistic is the excess of p + s over the historical minimum, in units
    of the deviation recorded at that minimum.
    """

    kind = "ddm"
    Params = DdmParams

    def _init_state(self):
        self._count = 0
        self._total = 0.0
        self._min_sum = math.inf
        self._min_dev = 0.0

    def _consume(self, value):
        self._count += 1
        self._total += value
        p = self._total / self._count
        s = math.sqrt(p * (1.0 - p) / (self._count * self.params.samples_per_update))
        if p + s < self._min_sum:
            self._min_sum = p + s
            self._min_dev = s
        if self._count < self.params.min_samples or self._min_dev <= 0.0:
            return 0.0
        return max(0.0, (p + s - self._min_sum) / self._min_dev)


class PageHinkley(DriftMonitor):
    """Cumulative positive deviation of the input above its running mean."""

    kind = "ph"
    Params = PhParams

    def _init_state(self):
        self._count = 0
        self._mean = 0.0
        self._cum = 0.0
        self._cum_min = math.inf

    def _consume(self, value):
        self._count += 1
        self._mean += (value - self._mean) / self._count
        self._cum += value - self._mean - self.params.delta
        self._cum_min = min(self._cum_min, self._cum)
        return max(0.0, self._cum - self._cum_min)


class Kswin(DriftMonitor):
    """KS distance between the newest window values and older ones.

    Once the window holds ``window`` values, the newest ``recent`` are
    compared against an equally sized subsample drawn without replacement
    from the remainder; the subsample PRNG is seeded so runs repeat exactly.
    """

    kind = "kswin"
    Params = KswinParams

    def _init_state(self):
        # each value goes to slot i and slot i + window, so the window, oldest
        # first, is always the contiguous run ring[i + 1:i + 1 + window]
        self._ring = np.zeros(2 * self.params.window)
        self._count = 0
        self._rng = np.random.Generator(np.random.PCG64(self.params.seed))

    def _consume(self, value):
        size, recent = self.params.window, self.params.recent
        i = self._count % size
        self._ring[i] = self._ring[i + size] = value
        self._count += 1
        if self._count < size:
            return 0.0
        window = self._ring[i + 1:i + 1 + size]
        # the indices rng.choice(older, ...) would take, so the same sample
        sample = window[self._rng.choice(size - recent, size=recent, replace=False)]
        return ks_distance(sample, window[size - recent:])

    def clone(self) -> "Kswin":
        twin = super().clone()
        twin._ring, twin._rng = self._ring.copy(), np.random.Generator(np.random.PCG64(0))
        twin._rng.bit_generator.state = self._rng.bit_generator.state
        return twin


class HddmA(DriftMonitor):
    """Hoeffding test between the best historical prefix and what follows.

    The cut is the prefix minimizing mean + bound; the statistic is the
    post-cut/pre-cut mean difference over the two-sample Hoeffding bound, so
    1.0 marks the bound itself.
    """

    kind = "hddm_a"
    Params = HddmAParams

    def _init_state(self):
        self._log_term = math.log(1.0 / self.params.alpha)
        self._count = 0
        self._total = 0.0
        self._cut_count = 0
        self._cut_total = 0.0
        self._cut_score = math.inf

    def _consume(self, value):
        m, log_term = self.params.samples_per_update, self._log_term
        self._count += 1
        self._total += value
        mean = self._total / self._count
        bound = math.sqrt(log_term / (2.0 * self._count * m))
        if mean + bound < self._cut_score:
            self._cut_score = mean + bound
            self._cut_count = self._count
            self._cut_total = self._total
        n1 = self._cut_count
        n2 = self._count - self._cut_count
        if n1 < 1 or n2 < 1:
            return 0.0
        mu1 = self._cut_total / n1
        mu2 = (self._total - self._cut_total) / n2
        eps = math.sqrt((log_term / 2.0) * (1.0 / (n1 * m) + 1.0 / (n2 * m)))
        return max(0.0, (mu2 - mu1) / eps)


class HddmW(DriftMonitor):
    """EWMA of the input scored against its historical minimum.

    The scale is the McDiarmid-style bound for an EWMA with the configured
    weight, so 1.0 again marks the bound.
    """

    kind = "hddm_w"
    Params = HddmWParams

    def _init_state(self):
        lam = self.params.ewma_weight
        self._eps = math.sqrt(
            (lam / (2.0 - lam)) * math.log(1.0 / self.params.alpha) / (2.0 * self.params.samples_per_update)
        )
        self._ewma = None
        self._ewma_min = math.inf

    def _consume(self, value):
        lam = self.params.ewma_weight
        if self._ewma is None:
            self._ewma = value
        else:
            self._ewma = (1.0 - lam) * self._ewma + lam * value
        self._ewma_min = min(self._ewma_min, self._ewma)
        return max(0.0, (self._ewma - self._ewma_min) / self._eps)


MONITOR_TYPES = {cls.kind: cls for cls in (Ddm, PageHinkley, Kswin, HddmA, HddmW)}
DETECTOR_KINDS = tuple(MONITOR_TYPES)


def _monitor_type(kind: str) -> type[DriftMonitor]:
    if not isinstance(kind, str) or kind not in MONITOR_TYPES:
        raise ConfigError(f"unknown detector kind {kind!r}, expected one of {DETECTOR_KINDS}")
    return MONITOR_TYPES[kind]


def params_from_dict(kind: str, mapping: dict | None = None):
    """Build a params dataclass for ``kind`` from a plain mapping."""
    cls = _monitor_type(kind).Params
    mapping = dict(mapping or {})
    known = {f.name for f in fields(cls)}
    unknown = set(mapping) - known
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown, key=str)}")
    return cls(**mapping)


def make_monitor(kind: str, params=None) -> DriftMonitor:
    cls = _monitor_type(kind)
    if params is not None and not isinstance(params, cls.Params):
        raise ConfigError(f"{kind} expects {cls.Params.__name__}, got {type(params).__name__}")
    return cls(params)
